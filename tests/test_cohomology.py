import math

import pytest

from fusionrings import (
    FiniteAbelianGroup,
    GroupAction,
    brute_force_h2,
    h3_roots_of_unity,
    h_cyclic,
)
from fusionrings.cohomology import parse_action
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


def test_brute_force_agrees_with_periodic():
    cases = [
        ((2,), "trivial"),
        ((3,), "trivial"),
        ((2, 2), "trivial"),
        ((2, 2), "swap"),
        ((3, 3), "inv2"),
        ((3, 3), "inv"),
    ]
    for m in range(1, 7):
        for orders, spec in cases:
            coeffs = FiniteAbelianGroup(orders)
            action = parse_action(spec, m, orders)
            try:
                periodic = h_cyclic(2, m, coeffs, action)
            except InvalidActionError:
                continue
            assert brute_force_h2(m, coeffs, action) == periodic


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

    for mod in (fusionrings.abelian, fusionrings.catalog, fusionrings.cohomology):
        result = doctest.testmod(mod)
        assert result.attempted > 0, mod.__name__
        assert result.failed == 0
