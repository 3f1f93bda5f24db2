import math

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
    for orders in ((4,), (8,), (9,), (2, 4)):
        coeffs = FiniteAbelianGroup(orders)
        for m in (4, 6):
            want = FiniteAbelianGroup(tuple(math.gcd(m, a) for a in orders))
            got = brute_force_h2(m, coeffs)
            assert got == want, (m, orders, str(got))
            assert h_cyclic(2, m, coeffs) == want


def test_bar_coboundaries_compose_to_zero():
    # d^(n+1) d^n = 0 on A; orders 3, 4 and 5 keep a sign error visible
    for spec, orders in (("swap", (4, 4)), ("inv", (5,)), ("inv2", (4, 3))):
        coeffs, k = FiniteAbelianGroup(orders), len(orders)
        for m in (2, 4):
            powers = parse_action(spec, m, orders).validate(coeffs)
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


def test_brute_force_bounds():
    with pytest.raises(BoundsExceededError):
        brute_force_h2(7, FiniteAbelianGroup((2,)), None)
    with pytest.raises(BoundsExceededError):
        brute_force_h2(2, FiniteAbelianGroup((2, 2, 3)), None)


def test_action_validation():
    # negation is a Z_2-module structure on Z_3, but not a Z_3 one
    GroupAction(2, [[-1]]).validate(FiniteAbelianGroup((3,)))
    with pytest.raises(InvalidActionError):
        GroupAction(3, [[-1]]).validate(FiniteAbelianGroup((3,)))
    with pytest.raises(InvalidActionError):
        GroupAction(2, [[2]]).validate(FiniteAbelianGroup((4,)))  # not invertible


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
    import doctest

    import fusionrings.abelian
    import fusionrings.catalog
    import fusionrings.cohomology
    import fusionrings.graphs

    for mod in (fusionrings.abelian, fusionrings.catalog, fusionrings.cohomology,
                fusionrings.graphs):
        result = doctest.testmod(mod)
        assert result.attempted > 0, mod.__name__
        assert result.failed == 0
