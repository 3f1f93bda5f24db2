import itertools
import math
import random
from collections import Counter

import pytest

from fusionrings import (
    FiniteAbelianGroup,
    GroupAction,
    brute_force_h2,
    h3_roots_of_unity,
    h_cyclic,
)
from fusionrings import cohomology
from fusionrings.abelian import kernel_mod_image
from fusionrings.cohomology import _coboundary, parse_action
from fusionrings.errors import BoundsExceededError, InvalidActionError


def test_trivial_action_is_gcd():
    for m in range(1, 13):
        for n in (2, 3, 4, 6):
            g = math.gcd(m, n)
            want = FiniteAbelianGroup((g,))
            coeffs = FiniteAbelianGroup((n,))
            assert h_cyclic(1, m, coeffs) == want
            assert h_cyclic(2, m, coeffs) == want
            assert h_cyclic(3, m, coeffs) == want


def test_swap_action_h2():
    coeffs = FiniteAbelianGroup((2, 2))
    for m in range(1, 25):
        action = parse_action("swap", m, (2, 2))
        if m % 2:
            with pytest.raises(InvalidActionError):
                h_cyclic(2, m, coeffs, action)
            continue
        got = h_cyclic(2, m, coeffs, action)
        want = FiniteAbelianGroup((2,) if m % 4 == 0 else ())
        assert got == want, (m, str(got))


def test_second_factor_inversion_h2():
    coeffs = FiniteAbelianGroup((3, 3))
    for m in range(1, 25):
        action = parse_action("inv2", m, (3, 3))
        if m % 2:
            with pytest.raises(InvalidActionError):
                h_cyclic(2, m, coeffs, action)
            continue
        got = h_cyclic(2, m, coeffs, action)
        want = FiniteAbelianGroup((3,) if m % 6 == 0 else ())
        assert got == want, (m, str(got))


def test_h3_roots_of_unity():
    for m in range(1, 13):
        assert h3_roots_of_unity(m) == FiniteAbelianGroup.cyclic(m)


def test_brute_force_closed_form_beyond_prime_exponent():
    # H^2(Z_m, A) = A / mA for the trivial action: a sum of Z_gcd(m, a)
    for orders in ((4,), (8,), (9,), (16,), (2, 4)):
        coeffs = FiniteAbelianGroup(orders)
        for m in (4, 6, 8):
            want = FiniteAbelianGroup(tuple(math.gcd(m, a) for a in orders))
            got = brute_force_h2(m, coeffs)
            assert got == want, (m, orders, str(got))
            assert h_cyclic(2, m, coeffs) == want


def _compose(outer, inner):
    # outer after inner, for maps given as sparse integer columns
    out = []
    for col in inner:
        acc = {}
        for i, x in col.items():
            for j, y in outer[i].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append(acc)
    return out


def test_bar_coboundaries_compose_to_zero():
    # d^(n+1) d^n = 0 on A; orders 3, 4 and 5 keep a sign error visible
    for spec, orders in (("swap", (4, 4)), ("inv", (5,)), ("inv2", (4, 3))):
        coeffs, k = FiniteAbelianGroup(orders), len(orders)
        for m in (2, 4):
            powers = parse_action(spec, m, orders).period(coeffs)
            for n in (0, 1, 2, 3):
                d = _coboundary(n, m, powers, orders)
                dd = _compose(_coboundary(n + 1, m, powers, orders), d)
                assert len(dd) == len(d) > 0
                assert all(x % orders[r % k] == 0 for col in dd for r, x in col.items()), \
                    (spec, m, n)


def _bar_cohomology(n, m, coeffs, action):
    # ker d^n / im d^(n-1) on the normalised bar complex, n >= 1
    powers, orders = action.period(coeffs), coeffs.orders
    return kernel_mod_image(_coboundary(n, m, powers, orders),
                            _coboundary(n - 1, m, powers, orders),
                            orders * (m - 1) ** n, orders * (m - 1) ** (n + 1))


# the cohomology workload's brute-force inputs, (orders, action preset), run
# there at m <= 6; the non-trivial actions have order 2
BAR_CASES = [((2,), "trivial"), ((3,), "trivial"), ((2, 2), "trivial"),
             ((2, 2), "swap"), ((3, 3), "inv2"), ((3, 3), "inv")]


def test_bar_complex_matches_h_cyclic_in_every_degree():
    seen = set()
    for m in range(1, 7):
        for orders, spec in BAR_CASES:
            if spec != "trivial" and m % 2:
                continue
            coeffs, action = FiniteAbelianGroup(orders), parse_action(spec, m, orders)
            for n in (1, 2, 3):
                got = _bar_cohomology(n, m, coeffs, action)
                assert got == h_cyclic(n, m, coeffs, action), (n, m, orders, spec)
                seen.add((n, str(got)))
        # H^3(Z_m, Z_m), the 3-cocycle classes of Q/Z that h3_roots_of_unity counts
        got = _bar_cohomology(3, m, FiniteAbelianGroup((m,)), GroupAction.trivial(m, 1))
        assert got == h3_roots_of_unity(m) == FiniteAbelianGroup.cyclic(m), m
    # each degree meets trivial and non-trivial groups
    assert {(n, "trivial") for n in (1, 2, 3)} <= seen
    assert {(n, "Z_2 x Z_2") for n in (1, 2, 3)} <= seen, seen
    # on those inputs every degree gives the same group; on this one the odd
    # and even degrees differ, so a parity mix-up shows
    coeffs, action = FiniteAbelianGroup((2, 4)), GroupAction(4, [[1, 1], [0, 1]])
    got = [_bar_cohomology(n, 4, coeffs, action) for n in (1, 2, 3)]
    assert got == [h_cyclic(n, 4, coeffs, action) for n in (1, 2, 3)]
    assert list(map(str, got)) == ["Z_4", "Z_2 x Z_2", "Z_4"]


def test_brute_force_checks_the_action_order():
    # T = 2 on Z_7 has order 3: a Z_3-module, not a Z_2-module
    z7 = FiniteAbelianGroup((7,))
    with pytest.raises(InvalidActionError):
        brute_force_h2(2, z7, GroupAction(3, [[2]]))
    with pytest.raises(InvalidActionError):
        h_cyclic(2, 2, z7, GroupAction(3, [[2]]))
    with pytest.raises(InvalidActionError):
        brute_force_h2(2, z7, GroupAction(2, [[2]]))
    action = GroupAction(3, [[2]])
    assert brute_force_h2(3, z7, action) == h_cyclic(2, 3, z7, action) == FiniteAbelianGroup(())


def test_brute_force_at_m_12():
    # the largest m inside the bounds; these two cases stay cheap there
    for orders, spec, want in (((16,), "trivial", (4,)), ((4, 4), "swap", (2,))):
        coeffs, action = FiniteAbelianGroup(orders), parse_action(spec, 12, orders)
        got = brute_force_h2(12, coeffs, action)
        assert got == h_cyclic(2, 12, coeffs, action) == FiniteAbelianGroup(want), (orders, spec)


def test_brute_force_bounds():
    with pytest.raises(BoundsExceededError):
        brute_force_h2(13, FiniteAbelianGroup((2,)), None)
    with pytest.raises(BoundsExceededError):
        brute_force_h2(2, FiniteAbelianGroup((2, 3, 3)), None)


def test_action_validation():
    # negation is a Z_2-module structure on Z_3, but not a Z_3 one
    GroupAction(2, [[-1]]).period(FiniteAbelianGroup((3,)))
    with pytest.raises(InvalidActionError):
        GroupAction(3, [[-1]]).period(FiniteAbelianGroup((3,)))
    with pytest.raises(InvalidActionError):
        GroupAction(2, [[2]]).period(FiniteAbelianGroup((4,)))  # not invertible
    for m, matrix in ((2.5, [[1]]), (2, [[1.5]])):  # not truncated
        with pytest.raises(InvalidActionError, match="integer"):
            GroupAction(m, matrix)
    # the degree and the group order follow the integer rule too, so True is
    # not read as 1 and 4.0 does not pass as 4 beside an action for M = 4
    z2 = FiniteAbelianGroup((2,))
    for n in (True, 2.0):
        with pytest.raises(ValueError, match="integer"):
            h_cyclic(n, 4, z2)
    with pytest.raises(ValueError, match="only H"):
        h_cyclic(4, 4, z2)
    with pytest.raises(InvalidActionError, match="integer"):
        h_cyclic(2, 4.0, z2, GroupAction(4, [[1]]))
    with pytest.raises(InvalidActionError, match="integer"):
        brute_force_h2(4.0, z2, GroupAction(4, [[1]]))


def _full_period_powers(action, coeffs):
    # reference: every power T^0, ..., T^M, then T^M = 1; None when invalid
    orders, n = coeffs.orders, len(coeffs.orders)
    t = action.matrix
    if any((t[i][j] * orders[j]) % orders[i] for i in range(n) for j in range(n)):
        return None
    p = [[int(i == j) % o for j in range(n)] for i, o in enumerate(orders)]
    powers = []
    for _ in range(action.m):
        powers.append(p)
        p = [[sum(p[i][s] * t[s][j] for s in range(n)) % orders[i] for j in range(n)]
             for i in range(n)]
    return powers if p == powers[0] else None


def _random_action(rng):
    # (action, coeffs) with 1 to 3 factors of order <= 9 and M <= 24
    orders = tuple(rng.choice((1, 2, 3, 4, 5, 6, 8, 9)) for _ in range(rng.randint(1, 3)))
    n, m = len(orders), rng.randint(1, 24)
    if rng.random() < 0.5:
        # a monomial matrix on equal factors is often a valid action
        orders = (orders[0],) * n
        perm = rng.sample(range(n), n)
        t = [[rng.choice((1, -1, 2)) if perm[j] == i else 0 for j in range(n)]
             for i in range(n)]
    else:
        t = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    return GroupAction(m, t), FiniteAbelianGroup(orders)


def test_action_powers_stop_at_the_period():
    rng = random.Random(20261018)
    valid = invalid = 0
    for _ in range(1500):
        action, coeffs = _random_action(rng)
        want = _full_period_powers(action, coeffs)
        if want is None:
            invalid += 1
            with pytest.raises(InvalidActionError):
                action.period(coeffs)
        else:
            valid += 1
            powers = action.period(coeffs)
            assert [powers[i % len(powers)] for i in range(action.m)] == want, \
                (action, coeffs)
    assert valid > 300 and invalid > 300, (valid, invalid)


def test_period_is_checked_once_per_action_and_orders(monkeypatch):
    # coeffs power walk multiplies through cohomology.mul; one valid period call
    # serves every degree and the oracle until the orders, M or matrix change
    steps = []

    def counted(x, y):
        steps.append(1)
        return x * y

    monkeypatch.setattr(cohomology, "mul", counted)
    coeffs, action = FiniteAbelianGroup((2, 4)), parse_action("inv2", 4, (2, 4))

    def walks(call):
        del steps[:]
        result = call()
        return result, bool(steps)

    powers, walked = walks(lambda: action.period(coeffs))
    assert walked and len(powers) == 2
    for call in [lambda: action.period(coeffs)] + [
            lambda n=n: h_cyclic(n, 4, coeffs, action) for n in (1, 2, 3)] + [
            lambda: brute_force_h2(4, coeffs, action)]:
        assert walks(call)[1] is False
    assert action.period(coeffs) is powers
    # other orders, then the first ones again
    assert walks(lambda: action.period(FiniteAbelianGroup((2, 8))))[1]
    assert walks(lambda: action.period(coeffs)) == (powers, True)
    # coeffs matrix changed in place: checked again, and the invalid one raises
    action.matrix[1][1] = 0
    with pytest.raises(InvalidActionError):
        action.period(coeffs)
    action.matrix[1][1] = 1
    assert walks(lambda: action.period(coeffs)) == ([[[1, 0], [0, 1]]], True)
    assert h_cyclic(2, 4, coeffs, action) == coeffs != h_cyclic(2, 4, coeffs, parse_action("inv2", 4, (2, 4)))
    # and coeffs changed M
    action.matrix[1][1] = -1
    action.m = 3
    with pytest.raises(InvalidActionError):
        action.period(coeffs)
    # with no action the identity is the period, and nothing is multiplied
    for call in [lambda n=n: h_cyclic(n, 4, coeffs) for n in (1, 2, 3)] + [
            lambda: brute_force_h2(4, coeffs), lambda: h3_roots_of_unity(6)]:
        assert walks(call)[1] is False
    assert h_cyclic(2, 4, coeffs) == h_cyclic(2, 4, coeffs, GroupAction.trivial(4, 2))
    for call in (lambda: h_cyclic(2, 0, coeffs), lambda: h3_roots_of_unity(0)):
        with pytest.raises(InvalidActionError, match=">= 1"):
            call()


# ---------------------------------------------------------------------------
# an oracle for the kernel-modulo-image step that works on the elements of A:
# ker f and im g are built as sets and ker f / im g is typed by how many
# elements it has of each order, which determines a finite abelian group


def _add(x, y, orders):
    return tuple((a + b) % o for a, b, o in zip(x, y, orders))


def _apply(matrix, x, orders):
    # the matrix on Z^n, read mod orders row by row
    return tuple(sum(a * b for a, b in zip(row, x)) % o for row, o in zip(matrix, orders))


def _span(gens, orders):
    # the subgroup of Z^n / diag(orders) the gens generate
    zero = (0,) * len(orders)
    seen, todo = {zero}, [zero]
    while todo:
        x = todo.pop()
        for g in gens:
            y = _add(x, g, orders)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def _quotient_profile(kernel, image, orders):
    # order d -> number of elements of order d in kernel / image
    assert image <= kernel
    counts = Counter()
    for x in kernel:
        d, y = 1, x
        while y not in image:
            d, y = d + 1, _add(y, x, orders)
        counts[d] += 1
    return {d: c // len(image) for d, c in counts.items()}


def _profile(group):
    return dict(Counter(group.element_order(x) for x in group.elements()))


def test_h_cyclic_matches_the_element_oracle():
    # H^even = ker(T - 1) / im(Norm), H^odd = ker(Norm) / im(T - 1), with T and
    # Norm = 1 + T + ... + T^(M-1) applied to each element of A
    rng = random.Random(20261020)
    cases, outcomes = 0, set()
    while cases < 300:
        action, coeffs = _random_action(rng)
        orders, m = coeffs.orders, action.m
        if coeffs.order > 64 or _full_period_powers(action, coeffs) is None:
            continue
        cases += 1
        elements = list(coeffs.elements())
        t = {x: _apply(action.matrix, x, orders) for x in elements}
        norm = {}
        for x in elements:
            total, y = x, x
            for _ in range(m - 1):
                y = t[y]
                total = _add(total, y, orders)
            norm[x] = total
        minus_one = {x: _add(t[x], coeffs.neg(x), orders) for x in elements}
        zero = coeffs.zero()
        even = _quotient_profile({x for x in elements if minus_one[x] == zero},
                                 set(norm.values()), orders)
        odd = _quotient_profile({x for x in elements if norm[x] == zero},
                                set(minus_one.values()), orders)
        for n, want in ((1, odd), (2, even), (3, odd)):
            assert _profile(h_cyclic(n, m, coeffs, action)) == want, (n, action, coeffs)
        outcomes.add((len(even), len(odd)))
    # trivial and non-trivial groups in both parities, some with several orders
    assert {(1, 1), (2, 2)} <= outcomes and max(max(o) for o in outcomes) > 2, outcomes


def test_kernel_mod_image_matches_the_element_oracle():
    # f: A_mid -> A_out well defined, g given by images in ker f, so f g = 0
    rng = random.Random(20261021)
    outcomes = set()
    for _ in range(300):
        mid = [rng.choice((1, 2, 3, 4, 6, 8)) for _ in range(rng.randint(1, 3))]
        while math.prod(mid) > 64:
            mid.pop()
        out = [rng.choice((2, 3, 4, 6, 12)) for _ in range(rng.randint(0, 3))]
        f = [[rng.randint(-3, 3) * (o // math.gcd(o, a)) for a in mid] for o in out]
        box = list(itertools.product(*(range(a) for a in mid)))
        kernel = {x for x in box if not any(_apply(f, x, out))}
        reps = rng.sample(sorted(kernel), min(len(kernel), rng.randint(0, 3)))
        # the images of g as integer vectors, off their residues by multiples of mid
        g = [[x + rng.randint(-1, 1) * a for x, a in zip(rep, mid)] for rep in reps]
        want = _quotient_profile(kernel, _span(reps, mid), mid)
        f_cols = [{i: row[j] for i, row in enumerate(f) if row[j]} for j in range(len(mid))]
        g_cols = [{i: x for i, x in enumerate(v) if x} for v in g]
        got = kernel_mod_image(f_cols, g_cols, mid, out)
        assert _profile(got) == want, (mid, out, f, g)
        outcomes.add(len(want))
    assert {1, 2, 3} <= outcomes, outcomes


def test_parse_action_forms():
    identity = [[1, 0], [0, 1]]
    assert parse_action(None, 5, (2, 2)).matrix == identity
    assert parse_action("trivial", 5, (2, 2)).matrix == identity
    assert parse_action("swap", 2, (2, 2)).matrix == [[0, 1], [1, 0]]
    assert parse_action("inv", 2, (3,)).matrix == [[-1]]
    assert parse_action("1,0;0,-1", 2, (3, 3)).matrix == parse_action("inv2", 2, (3, 3)).matrix
    with pytest.raises(InvalidActionError):
        parse_action("swap", 2, (2, 3))  # factors must match to swap
    with pytest.raises(InvalidActionError):
        parse_action("nonsense", 2, (2,))


def test_doctests_stay_true():
    # every package module whose source holds an example runs it
    import doctest
    import importlib
    import pathlib

    import fusionrings

    sources = sorted(pathlib.Path(fusionrings.__file__).parent.glob("*.py"))
    names = [path.stem for path in sources if ">>>" in path.read_text()]
    assert {"abelian", "catalog", "cohomology", "graphs"} <= set(names)
    for name in names:
        mod = importlib.import_module("fusionrings." + name)
        result = doctest.testmod(mod)
        assert result.attempted > 0, mod.__name__
        assert result.failed == 0, mod.__name__
