import math
import random

import pytest

from fusionrings import (
    FiniteAbelianGroup,
    GroupAction,
    brute_force_h2,
    h3_roots_of_unity,
    h_cyclic,
)
from fusionrings.abelian import mat_mul
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


def test_bar_coboundaries_compose_to_zero():
    # d^(n+1) d^n = 0 on A; orders 3, 4 and 5 keep a sign error visible
    for spec, orders in (("swap", (4, 4)), ("inv", (5,)), ("inv2", (4, 3))):
        coeffs, k = FiniteAbelianGroup(orders), len(orders)
        for m in (2, 4):
            powers = parse_action(spec, m, orders).period(coeffs)
            for n in (0, 1, 2):
                d = _coboundary(n, m, powers, orders)
                dd = mat_mul(_coboundary(n + 1, m, powers, orders), d)
                assert dd and len(dd[0]) == len(d[0])
                assert all(x % orders[r % k] == 0 for r, row in enumerate(dd) for x in row), \
                    (spec, m, n)


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


def test_action_powers_stop_at_the_period():
    rng = random.Random(20261018)
    valid = invalid = 0
    for _ in range(1500):
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
        action, coeffs = GroupAction(m, t), FiniteAbelianGroup(orders)
        want = _full_period_powers(action, coeffs)
        if want is None:
            invalid += 1
            with pytest.raises(InvalidActionError):
                action.period(coeffs)
        else:
            valid += 1
            powers = action.period(coeffs)
            assert [powers[i % len(powers)] for i in range(m)] == want, (m, orders, t)
    assert valid > 300 and invalid > 300, (valid, invalid)


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
