import random

import numpy as np
import pytest

from fusionrings.abelian import (
    FiniteAbelianGroup,
    diagonal_entries,
    group_from_table,
    integer_kernel,
    mat_vec,
    quotient_with_map,
    smith_normal_form,
    solve_integer,
)


def test_smith_normal_form_certificate():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = rng.integers(-4, 5, size=rng.integers(1, 5, size=2)).tolist()
        s = smith_normal_form(a, u=True, v=True)
        u, d, v = np.array(s.u), np.array(s.d), np.array(s.v)
        assert np.array_equal(u @ np.array(a) @ v, d)
        assert smith_normal_form(a) == (s.d, None, None)
        diag = [d[i, i] for i in range(min(d.shape))]
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            # divisibility chain, with the convention 0 is divisible by all
            assert y == 0 or (x != 0 and y % x == 0) or (x == 0 and y == 0)


def test_invariant_factors():
    assert FiniteAbelianGroup((2, 4)).invariant_factors == (2, 4)
    assert FiniteAbelianGroup((2, 3)).invariant_factors == (6,)
    assert FiniteAbelianGroup((4, 6)).invariant_factors == (2, 12)
    assert FiniteAbelianGroup((1, 1)).invariant_factors == ()
    assert FiniteAbelianGroup((2, 3)) == FiniteAbelianGroup.cyclic(6)
    assert FiniteAbelianGroup((2, 2)) != FiniteAbelianGroup.cyclic(4)


def test_str_forms():
    assert str(FiniteAbelianGroup.cyclic(4)) == "Z_4"
    assert str(FiniteAbelianGroup((2, 4))) == "Z_2 x Z_4"
    assert str(FiniteAbelianGroup.trivial()) == "trivial"


def test_elements_and_orders():
    g = FiniteAbelianGroup((2, 4))
    els = list(g.elements())
    assert len(els) == g.order == 8
    assert g.element_order((0, 0)) == 1
    assert g.element_order((1, 0)) == 2
    assert g.element_order((1, 1)) == 4
    assert g.add((1, 3), (1, 2)) == (0, 1)
    assert g.neg((1, 1)) == (1, 3)


def test_group_from_table():
    assert str(group_from_table(4, lambda i, j: (i + j) % 4)) == "Z_4"
    # Klein table via bitwise xor
    assert group_from_table(4, lambda i, j: i ^ j) == FiniteAbelianGroup((2, 2))
    assert group_from_table(1, lambda i, j: 0).is_trivial


def _group_from_presentation(n, mul):
    # reference typing: SNF of the presentation with one generator per
    # element and the relations e_i + e_j = e_{mul(i, j)}
    rels = []
    for i in range(n):
        for j in range(i, n):
            row = [0] * n
            row[i] += 1
            row[j] += 1
            row[mul(i, j)] -= 1
            rels.append(row)
    diag = diagonal_entries(smith_normal_form(rels).d)
    return FiniteAbelianGroup(tuple(d for d in diag if d > 1))


def _abelian_groups(max_order):
    # one FiniteAbelianGroup per isomorphism type of order <= max_order,
    # as chains of invariant factors f_1 | f_2 | ...
    out = []

    def extend(factors, order):
        out.append(FiniteAbelianGroup(factors))
        last = factors[-1] if factors else 1
        for f in range(max(last, 2), max_order // order + 1):
            if f % last == 0:
                extend(factors + (f,), order * f)

    extend((), 1)
    return out


def test_group_from_table_matches_presentation_oracle():
    rng = random.Random(20261018)
    groups = _abelian_groups(64)
    # sum over n <= 64 of the product of partition numbers of n's exponents
    assert len(groups) == len(set(groups)) == 117
    for g in groups:
        els = list(g.elements())
        rng.shuffle(els)
        pos = {x: i for i, x in enumerate(els)}

        def mul(i, j):
            return pos[g.add(els[i], els[j])]

        typed = group_from_table(g.order, mul)
        assert typed.orders == g.invariant_factors
        assert typed.orders == _group_from_presentation(g.order, mul).orders


def test_group_from_table_rejects_non_groups():
    with pytest.raises(ValueError, match="no identity"):
        group_from_table(3, lambda i, j: (i + 1) % 3)
    with pytest.raises(ValueError, match="does not return"):
        group_from_table(3, max)
    # every element squares to the identity, which no group of order 3 allows
    with pytest.raises(ValueError, match="order 1, not 3"):
        group_from_table(3, lambda i, j: 0 if i == j else max(i, j))
    with pytest.raises(ValueError):
        group_from_table(0, max)


def test_quotient_with_map():
    q, f = quotient_with_map((4,), [(2,)])
    assert q == FiniteAbelianGroup.cyclic(2)
    assert f((2,)) == f((0,))
    assert f((1,)) != f((0,))

    q, f = quotient_with_map((2, 4), [(0, 2)])
    assert q == FiniteAbelianGroup((2, 2))
    assert f((0, 2)) == f((0, 0))


def test_integer_linear_algebra():
    a = [[2, 0], [0, 3]]
    x = solve_integer(a, [4, 9])
    assert np.array_equal(np.array(a) @ x, [4, 9])
    assert solve_integer(a, [1, 0]) is None

    kernel = integer_kernel([[2, -2]])
    assert kernel
    for v in kernel:
        assert 2 * v[0] - 2 * v[1] == 0


def _snf_kernel(a):
    # reference kernel: the columns of V where the Smith diagonal is zero
    n = len(a[0]) if a else 0
    s = smith_normal_form(a, v=True)
    diag = diagonal_entries(s.d)
    return [[s.v[i][j] for i in range(n)] for j in range(n)
            if j >= len(diag) or diag[j] == 0]


def _in_lattice(vectors, basis):
    if not basis:
        return not any(any(x) for x in vectors)
    cols = [[b[i] for b in basis] for i in range(len(basis[0]))]
    return all(solve_integer(cols, x) is not None for x in vectors)


def _kernel_inputs():
    rng = random.Random(20261018)
    yield []
    yield [[], []]
    yield [[0, 0, 0], [0, 0, 0]]
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        yield [[rng.choice((0, 0, 0, 1, -1, 2, -3, 5, 12)) for _ in range(n)] for _ in range(m)]
    for _ in range(20):
        # [F | -diag(orders)]: full row rank, the shape of the cohomology kernels
        m, n = rng.randint(1, 8), rng.randint(0, 6)
        yield [[rng.randint(-4, 4) for _ in range(n)] + [-rng.randint(1, 6) if c == r else 0
                                                         for c in range(m)]
               for r in range(m)]


def test_integer_kernel_matches_snf_oracle():
    for a in _kernel_inputs():
        n = len(a[0]) if a else 0
        kernel, oracle = integer_kernel(a), _snf_kernel(a)
        rank = sum(1 for d in diagonal_entries(smith_normal_form(a).d) if d)
        assert len(kernel) == len(oracle) == n - rank, a
        for x in kernel:
            assert len(x) == n and not any(mat_vec(a, x)), a
        assert _in_lattice(kernel, oracle) and _in_lattice(oracle, kernel), a
