import itertools
import random

import numpy as np
import pytest

from fusionrings.abelian import (
    FiniteAbelianGroup,
    diagonal_entries,
    congruence_kernel,
    quotient_invariants,
    quotient_with_map,
    smith_normal_form,
    sparse_columns,
    table_group,
)
from conftest import group_from_presentation


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


def _trial_division_factors(orders):
    # reference invariant factors: split each order into prime powers by
    # trial division, then multiply the largest powers of every prime
    # together, the next largest together, and so on
    primary = {}
    for o in orders:
        o = int(o)
        if o <= 1:
            continue
        d = 2
        while d * d <= o:
            if o % d == 0:
                e = 0
                while o % d == 0:
                    o //= d
                    e += 1
                primary.setdefault(d, []).append(d ** e)
            d += 1
        if o > 1:
            primary.setdefault(o, []).append(o)
    for p in primary:
        primary[p].sort(reverse=True)
    depth = max((len(v) for v in primary.values()), default=0)
    factors = []
    for k in range(depth):
        f = 1
        for p in primary:
            if k < len(primary[p]):
                f *= primary[p][k]
        factors.append(f)
    factors.reverse()
    return tuple(factors)


def test_invariant_factors_match_trial_division():
    for n in range(4):
        for orders in itertools.product(range(1, 25), repeat=n):
            assert FiniteAbelianGroup(orders).invariant_factors == \
                _trial_division_factors(orders), orders


def test_str_forms():
    assert str(FiniteAbelianGroup.cyclic(4)) == "Z_4"
    assert str(FiniteAbelianGroup((2, 4))) == "Z_2 x Z_4"
    assert str(FiniteAbelianGroup.trivial()) == "trivial"


def test_orders_must_be_integers():
    for orders in ((2.5,), (True, 2)):
        with pytest.raises(ValueError, match="integer"):
            FiniteAbelianGroup(orders)
    assert FiniteAbelianGroup((np.int64(2), 3)).orders == (2, 3)


def test_elements_and_orders():
    g = FiniteAbelianGroup((2, 4))
    els = list(g.elements())
    assert len(els) == g.order == 8
    assert g.element_order((0, 0)) == 1
    assert g.element_order((1, 0)) == 2
    assert g.element_order((1, 1)) == 4
    assert g.add((1, 3), (1, 2)) == (0, 1)
    assert g.neg((1, 1)) == (1, 3)


def _table(n, mul):
    return [[mul(i, j) for j in range(n)] for i in range(n)]


def test_table_group():
    group, coords = table_group(_table(4, lambda i, j: (i + j) % 4), 0)
    assert str(group) == "Z_4" and coords == [(0,), (1,), (2,), (3,)]
    # Klein table via bitwise xor
    assert table_group(_table(4, lambda i, j: i ^ j), 0)[0] == FiniteAbelianGroup((2, 2))
    group, coords = table_group([[0]], 0)
    assert group.is_trivial and coords == [()]


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


def test_table_group_matches_presentation_oracle():
    rng = random.Random(20261018)
    groups = _abelian_groups(64)
    # sum over n <= 64 of the product of partition numbers of n's exponents
    assert len(groups) == len(set(groups)) == 117
    for g in groups:
        els = list(g.elements())
        rng.shuffle(els)  # the identity lands wherever the shuffle puts it
        pos = {x: i for i, x in enumerate(els)}

        def mul(i, j):
            return pos[g.add(els[i], els[j])]

        table = _table(g.order, mul)
        typed, coords = table_group(table, pos[g.zero()])
        assert typed.orders == g.invariant_factors
        assert typed.orders == group_from_presentation(g.order, mul).orders
        # the coordinates are a bijection onto the group, and additive
        assert sorted(coords) == sorted(typed.elements())
        assert all(coords[table[i][j]] == typed.add(coords[i], coords[j])
                   for i in range(g.order) for j in range(g.order))


def test_table_group_rejects_non_groups():
    loop = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
            [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]]
    # a commutative loop of order 6 with identity 0 that is not associative:
    # (2 2) 4 = 3 but 2 (2 4) = 2; its element orders are those of Z_6
    assert loop == [list(r) for r in zip(*loop)]
    assert (loop[loop[2][2]][4], loop[2][loop[2][4]]) == (3, 2)
    cases = [
        (_table(3, lambda i, j: (i + 1) % 3), 0, "not that of an abelian group"),
        (_table(3, max), 0, "no power"),
        # every element squares to the identity, which no group of order 3 allows
        (_table(3, lambda i, j: 0 if i == j else max(i, j)), 0, "overlap"),
        (loop, 0, "not that of an abelian group"),
        # Z_4 with a unit that is not its identity
        (_table(4, lambda i, j: (i + j) % 4), 1, "no power"),
        ([], 0, "table"),
        ([[0, 1], [1, 2]], 0, "table"),
        ([[0, 1], [1, -1]], 0, "table"),
        ([[0, 1, 2]], 0, "table"),
        ([[0]], 1, "table"),
    ]
    for table, unit, match in cases:
        with pytest.raises(ValueError, match=match):
            table_group(table, unit)


def test_table_group_stops_and_is_exact_on_random_tables():
    # on arbitrary tables the routine ends, and it types a table only when
    # the table is an abelian group's with that unit, checked pair by pair
    rng = random.Random(7)
    groups = [g for g in _abelian_groups(12) if g.order > 1]
    for trial in range(400):
        if trial % 2:
            n = rng.randint(1, 5)
            table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        else:
            # a relabelled group table with one entry changed half the time
            g = rng.choice(groups)
            els = list(g.elements())
            rng.shuffle(els)
            pos = {x: i for i, x in enumerate(els)}
            n = g.order
            table = _table(n, lambda i, j: pos[g.add(els[i], els[j])])
            if rng.random() < 0.5:
                table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        unit = rng.randrange(n)
        els = range(n)
        is_group = (
            all(table[unit][x] == x for x in els)
            and all(table[x][y] == table[y][x] for x in els for y in els)
            and all(table[table[x][y]][z] == table[x][table[y][z]]
                    for x in els for y in els for z in els)
            and all(any(table[x][y] == unit for y in els) for x in els))
        try:
            group, _ = table_group(table, unit)
        except ValueError:
            assert not is_group, table
        else:
            assert is_group, table
            assert group == group_from_presentation(n, lambda i, j: table[i][j])


def test_quotient_with_map():
    q, f = quotient_with_map((4,), [(2,)])
    assert q == FiniteAbelianGroup.cyclic(2)
    assert f((2,)) == f((0,))
    assert f((1,)) != f((0,))

    q, f = quotient_with_map((2, 4), [(0, 2)])
    assert q == FiniteAbelianGroup((2, 2))
    assert f((0, 2)) == f((0, 0))


def _dense_quotient_with_map(orders, relations):
    # reference quotient: one SNF of [diag(orders) | relations] with U; the
    # torsion part of the quotient, and the map read off U
    k = len(orders)
    if k == 0:
        return FiniteAbelianGroup.trivial(), lambda v: ()
    cols = [[orders[i] if r == i else 0 for i in range(k)] for r in range(k) if orders[r]]
    cols += [list(v) for v in relations]
    a = [[col[i] for col in cols] for i in range(k)]
    s = smith_normal_form(a, u=True)
    diag = diagonal_entries(s.d)
    keep = [i for i, d in enumerate(diag) if d > 1]
    group = FiniteAbelianGroup(tuple(diag[i] for i in keep))
    u = s.u

    def f(vec):
        return tuple(
            sum(u[i][j] * vec[j] for j in range(k)) % diag[i] for i in keep
        )

    return group, f


def test_quotient_with_map_matches_dense_oracle():
    rng = random.Random(20261020)
    seen = set()
    for _ in range(300):
        k = rng.randint(0, 4)
        orders = [rng.choice((0, 0, 1, 2, 3, 4, 6, 8)) for _ in range(k)]
        relations = [[rng.choice((0, 0, 0, 1, -1, 2, -2, 3, 6)) for _ in range(k)]
                     for _ in range(rng.randint(0, k + 2))]
        want, g = _dense_quotient_with_map(orders, relations)
        # finite exactly when [diag(orders) | relations] has rank k
        a = [[orders[i] * (i == j) for j in range(k)] + [v[i] for v in relations]
             for i in range(k)]
        if sum(1 for x in diagonal_entries(smith_normal_form(a).d) if x) < k:
            with pytest.raises(ValueError, match="infinite quotient"):
                quotient_with_map(orders, relations)
            seen.add("infinite")
            continue
        seen.add("finite with Z" if 0 in orders else "finite")
        got, f = quotient_with_map(orders, relations)
        assert got == want, (orders, relations)
        for v in relations + [[o if i == j else 0 for j in range(k)]
                              for i, o in enumerate(orders)]:
            assert f(v) == got.zero(), (orders, relations, v)
        vecs = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(25)]
        for v in vecs:
            for w in vecs:
                assert (f(v) == f(w)) == (g(v) == g(w)), (orders, relations, v, w)
    assert seen == {"infinite", "finite", "finite with Z"}, seen


def _mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _integer_solver(a):
    # reference solver: b -> one integer x with A x = b, or None, read off
    # one Smith normal form U A V = D as x = V (D^-1 U b)
    m = len(a)
    n = len(a[0]) if m else 0
    s = smith_normal_form(a, u=True, v=True)
    diag = diagonal_entries(s.d)

    def solve(b):
        c = _mat_vec(s.u, b)
        y = [0] * n
        for i in range(m):
            di = diag[i] if i < len(diag) else 0
            if di == 0:
                if c[i] != 0:
                    return None
            else:
                if c[i] % di:
                    return None
                y[i] = c[i] // di
        return _mat_vec(s.v, y)

    return solve


def solve_integer(a, b):
    return _integer_solver(a)(b)


def integer_kernel(a):
    # {x : A x = 0}: congruence_kernel with every modulus 0, as dense columns
    n = len(a[0]) if a else 0
    return [[t.get(j, 0) for j in range(n)]
            for t in congruence_kernel(sparse_columns(a), [0] * len(a))]


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
            assert len(x) == n and not any(_mat_vec(a, x)), a
        assert _in_lattice(kernel, oracle) and _in_lattice(oracle, kernel), a


def _sparse(v):
    return {i: x for i, x in enumerate(v) if x}


def test_congruence_kernel_is_a_basis_of_the_preimage():
    # oracle: the heads of the SNF kernel of [A | -diag(moduli)]
    rng = random.Random(20261019)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(0, 5)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        moduli = [rng.randint(1, 6) for _ in range(m)]
        stacked = [row + [-o if c == i else 0 for c in range(m)]
                   for i, (row, o) in enumerate(zip(a, moduli))]
        oracle = [x[:n] for x in _snf_kernel(stacked)]
        cols = [_sparse(col) for col in zip(*a)]
        kept = [dict(c) for c in cols]
        got = [[x.get(j, 0) for j in range(n)] for x in congruence_kernel(cols, moduli)]
        assert cols == kept  # the input columns are left alone
        assert len(got) == n, (a, moduli)
        for x in got:
            assert all(y % o == 0 for y, o in zip(_mat_vec(a, x), moduli)), (a, moduli)
        assert _in_lattice(got, oracle) and _in_lattice(oracle, got), (a, moduli)


def _quotient_oracle(basis, gens):
    # reference quotient: each generator's coordinates from the SNF solver
    # of the basis matrix, then the Smith diagonal of the coordinate matrix
    r = len(basis)
    if r == 0:
        if any(any(g) for g in gens):
            raise ValueError("generator outside the lattice")
        return ()
    bmat = [[b[i] for b in basis] for i in range(len(basis[0]))]
    if sum(1 for d in diagonal_entries(smith_normal_form(bmat).d) if d) < r:
        raise ValueError("basis vectors are dependent")
    solve = _integer_solver(bmat)
    ys = []
    for g in gens:
        y = solve(list(g))
        if y is None:
            raise ValueError("generator outside the lattice")
        ys.append(y)
    if not ys:
        raise ValueError("infinite quotient")
    diag = diagonal_entries(smith_normal_form([[y[i] for y in ys] for i in range(r)]).d)
    if len(diag) < r or 0 in diag:
        raise ValueError("infinite quotient")
    return tuple(d for d in diag if d > 1)


def _quotient_inputs():
    # (kind, basis, generators): full-rank bases made from triangular ones
    # by unimodular row operations, and dependent bases
    rng = random.Random(20261018)

    def vec(n, lo=-3, hi=3):
        return [rng.randint(lo, hi) for _ in range(n)]

    for _ in range(300):
        r = rng.randint(0, 5)
        n = r + rng.randint(0, 2)
        basis = [[0] * j + [rng.choice((1, -1, 2, 3, -4, 6))] + vec(n - j - 1)
                 for j in range(r)]
        for _ in range(rng.randint(0, 8)):
            if n > 1:
                i, k = rng.sample(range(n), 2)
                c = rng.randint(-2, 2)
                for b in basis:
                    b[i] += c * b[k]
        kind = rng.choice(("inside", "inside", "outside", "deficient", "empty", "dependent"))
        if kind == "dependent" and r > 1:
            cs = vec(r - 1)
            basis[-1] = [sum(c * b[i] for c, b in zip(cs, basis)) for i in range(n)]
        ngen = {"empty": 0, "deficient": max(r - 1, 0)}.get(kind, rng.randint(r, r + 3))
        coefs = [vec(r, -4, 4) for _ in range(ngen)]
        gens = [[sum(c * b[i] for c, b in zip(cs, basis)) for i in range(n)] for cs in coefs]
        if kind == "outside" and gens:
            gens[rng.randrange(len(gens))] = vec(n)
        yield kind, basis, gens


def test_quotient_invariants_match_snf_oracle():
    outcomes = set()
    for kind, basis, gens in _quotient_inputs():
        try:
            want = _quotient_oracle(basis, gens)
        except ValueError as exc:
            want = str(exc)
        sparse_basis, sparse_gens = [_sparse(b) for b in basis], [_sparse(g) for g in gens]
        try:
            got = quotient_invariants(sparse_basis, sparse_gens)
        except ValueError as exc:
            got = str(exc)
        assert got == want, (kind, basis, gens)
        # the inputs are left alone
        assert sparse_basis == [_sparse(b) for b in basis]
        assert sparse_gens == [_sparse(g) for g in gens]
        outcomes.add((kind, want if isinstance(want, str) else bool(want)))
    assert {("inside", True), ("inside", False), ("outside", "generator outside the lattice"),
            ("deficient", "infinite quotient"), ("empty", "infinite quotient"),
            ("dependent", "basis vectors are dependent")} <= outcomes, outcomes
