"""Finite abelian groups and exact linear algebra over Z.

Everything in this module is computed with plain Python integers, so there is
no overflow to worry about.  One sparse unimodular column reduction does the
lattice work: its zeroed columns give integer kernels and its pivot columns
echelon bases, along which every quotient of lattices reduces to one square
matrix.  The Smith normal form (U A V = D with U, V unimodular), with only
the transforms asked for, types that matrix; U is tracked only when a
finite presentation's quotient map is asked for (``quotient_with_map``).
Invariant factors are the Smith diagonal of diag(orders), by gcd/lcm steps,
and groups given by a multiplication table are typed from their element
orders.

Matrices are lists of rows of ints.  Vectors are lists of ints; sparse ones
are dicts index -> nonzero int.
"""

import math
from collections import namedtuple
from itertools import product as _cartesian


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    bt = list(zip(*b)) if k else []
    return [[sum(ra[t] * ct[t] for t in range(k)) for ct in bt] for ra in a]


SNF = namedtuple("SNF", ["d", "u", "v"])


def smith_normal_form(a, u=False, v=False):
    """Smith normal form, with only the transforms asked for.

    ``smith_normal_form(a, u=False, v=False) -> SNF(d, u, v)``

    U A V = D where U (m x m) and V (n x n) are unimodular and D is diagonal
    with nonnegative entries d_1 | d_2 | ... .  D is always returned; each
    transform is tracked only when its flag is set and is None otherwise,
    since every tracked transform adds work to each row or column operation.

    >>> s = smith_normal_form([[2, 4], [6, 8]], u=True, v=True)
    >>> [s.d[i][i] for i in range(2)]
    [2, 4]
    >>> mat_mul(mat_mul(s.u, [[2, 4], [6, 8]]), s.v) == s.d
    True
    """
    m = len(a)
    n = len(a[0]) if m else 0
    # U rides along as extra columns of the rows of D and V as extra rows
    # below them, so row operations carry U and column operations carry V
    d = [list(row) + e for row, e in zip(a, identity_matrix(m) if u else [[]] * m)]
    d += identity_matrix(n) if v else []

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]

    def add_row(i, j, c):
        # row_i += c * row_j
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]

    def add_col(i, j, c):
        # col_i += c * col_j
        for r in d:
            r[i] += c * r[j]

    t = 0
    while t < min(m, n):
        # find a pivot of minimal absolute value in the remaining block;
        # the first entry of absolute value 1 is that minimum
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < best):
                    best = abs(d[i][j])
                    piv = (i, j)
            if best == 1:
                break
        if piv is None:
            break
        d[t], d[piv[0]] = d[piv[0]], d[t]
        swap_cols(t, piv[1])
        # clear row and column t; restart whenever a remainder appears,
        # which shrinks the pivot and so terminates
        while True:
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    add_row(i, t, -q)
            if any(d[i][t] for i in range(t + 1, m)):
                # a nonzero remainder became the new, smaller pivot
                i = next(i for i in range(t + 1, m) if d[i][t])
                d[t], d[i] = d[i], d[t]
                continue
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    add_col(j, t, -q)
            if any(d[t][j] for j in range(t + 1, n)):
                j = next(j for j in range(t + 1, n) if d[t][j])
                swap_cols(t, j)
                continue
            break
        # divisibility: d_t must divide every remaining entry (a unit does)
        fixed = True
        for i in range(t + 1, m if abs(d[t][t]) != 1 else t + 1):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t]:
                    add_row(t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
        t += 1
    return SNF([r[:n] for r in d[:m]], [r[n:] for r in d[:m]] if u else None,
               d[m:] if v else None)


def diagonal_entries(d):
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def integer_kernel(a):
    """Basis (list of columns) of {x in Z^n : A x = 0}: ``congruence_kernel``
    with every modulus 0.

    >>> integer_kernel([[2, -1, 0]])
    [[1, 2, 0], [0, 0, 1]]
    """
    n = len(a[0]) if a else 0
    return [[t.get(j, 0) for j in range(n)]
            for t in congruence_kernel(sparse_columns(a), [0] * len(a))]


def congruence_kernel(cols, moduli):
    """Z-basis, as sparse vectors, of {x : sum_j x_j cols[j] = 0 mod moduli}.

    Row i is taken mod ``moduli[i]``, 0 meaning an exact equation.  The x
    are the heads of the kernel of [cols | -diag(moduli)] (nonzero moduli
    only): the transform parts, kept on the heads, of the columns
    ``_column_reduce`` zeroes.  A kernel vector with a zero head is zero, so
    they are a basis.

    >>> congruence_kernel([{0: 2}], [4])   # 2 x = 0 mod 4
    [{0: 2}]
    """
    stacked = [(dict(c), {j: 1}) for j, c in enumerate(cols)]
    stacked += [({i: -o}, {}) for i, o in enumerate(moduli) if o]
    return _column_reduce(stacked)[1]


def _column_reduce(cols):
    """Sparse unimodular column reduction (Cohen, GTM 138, 2.4), in place.

    Each column is a pair of sparse vectors, the column and its transform
    part, which every operation also applies to.  Row by row, Euclid runs
    among the active columns nonzero there: the least |entry| is the pivot
    (of those, the sparsest column, which keeps fill-in down), the others drop
    a quotient multiple of it; the last one left is the row's pivot and leaves
    the active set.  Returns the pivots as (row, column) in increasing row
    order, an echelon basis of the columns' span, and the transform parts of
    the columns reduced to zero.
    """
    active = list(range(len(cols)))
    pivots = []
    for i in sorted(set().union(*(c for c, _ in cols))):
        hit = [c for c in active if i in cols[c][0]]
        while len(hit) > 1:
            p = min(hit, key=lambda c: (abs(cols[c][0][i]),
                                        len(cols[c][0]) + len(cols[c][1])))
            pa, pt = cols[p]
            rest = []
            for c in hit:
                if c != p:
                    ca, ct = cols[c]
                    q = ca[i] // pa[i]
                    _sub_multiple(ca, pa, q)
                    _sub_multiple(ct, pt, q)
                    if i in ca:
                        rest.append(c)
            hit = rest + [p]
        if hit:
            active.remove(hit[0])
            pivots.append((i, cols[hit[0]][0]))
    return pivots, [cols[c][1] for c in active]


def _sub_multiple(x, y, q):
    """x -= q * y for sparse vectors (dicts index -> nonzero int)."""
    for k, v in y.items():
        w = x.get(k, 0) - q * v
        if w:
            x[k] = w
        else:
            del x[k]


def sparse_columns(a):
    """The columns of the matrix ``a`` as dicts row -> nonzero entry."""
    return [{i: row[j] for i, row in enumerate(a) if row[j]}
            for j in range(len(a[0]) if a else 0)]


def quotient_invariants(basis, subgens):
    """Invariant factors of L / <subgens>, L spanned by the sparse ``basis``.

    The basis is reduced to echelon form, each generator gets its coordinates
    by substitution along the pivot rows, and the r pivots the coordinates
    reduce to give a square matrix with the quotient's invariant factors
    (Cohen, GTM 138, 2.4.2-2.4.4).  Raises ValueError if the basis vectors
    are dependent, a generator is outside L or the quotient is infinite.

    >>> quotient_invariants([{0: 2}, {1: 1}], [{0: 4}, {0: 2, 1: 6}, {1: 9}])
    (3,)
    """
    d, _ = _quotient(basis, subgens)
    return tuple(x for x in d if x > 1)


def _quotient(basis, subgens, u=False):
    # the core shared by quotient_invariants and quotient_with_map: the Smith
    # diagonal of the r x r square, and, when u is set, the U that takes
    # echelon coordinates to Smith coordinates
    r = len(basis)
    echelon, _ = _column_reduce([(dict(b), {}) for b in basis])
    if len(echelon) < r:
        raise ValueError("basis vectors are dependent")
    coords = []
    for g in subgens:
        g, y = dict(g), {}
        for k, (i, p) in enumerate(echelon):
            if i in g:
                if g[i] % p[i]:
                    raise ValueError("generator outside the lattice")
                y[k] = g[i] // p[i]
                _sub_multiple(g, p, y[k])
        if g:
            raise ValueError("generator outside the lattice")
        coords.append((y, {}))
    square, _ = _column_reduce(coords)
    if len(square) < r:
        raise ValueError("infinite quotient")
    s = smith_normal_form([[p.get(k, 0) for _, p in square] for k in range(r)], u=u)
    return diagonal_entries(s.d), s.u


def _invariant_factors(orders):
    """Canonical invariant factors (each divides the next, 1s dropped): the
    Smith diagonal of diag(orders), reached by the Smith step for a diagonal
    matrix, which trades each pair of entries for their gcd and lcm."""
    d = list(orders)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return tuple(x for x in d if x > 1)


class FiniteAbelianGroup:
    """A finite abelian group as a product of cyclic factors Z_{n_1} x ...

    Elements are tuples of ints, the i-th taken mod n_i.  Equality and hashing
    are up to isomorphism (invariant factors), which is the comparison every
    caller here wants: Z_2 x Z_3 == Z_6.

    >>> FiniteAbelianGroup((2, 3)) == FiniteAbelianGroup((6,))
    True
    >>> str(FiniteAbelianGroup((2, 4)))
    'Z_2 x Z_4'
    >>> FiniteAbelianGroup((12,)).element_order((4,))
    3
    """

    __slots__ = ("orders",)

    def __init__(self, orders=()):
        orders = tuple(int(o) for o in orders)
        if any(o < 1 for o in orders):
            raise ValueError("cyclic factor orders must be >= 1")
        self.orders = orders

    @classmethod
    def cyclic(cls, n):
        return cls((n,))

    @classmethod
    def trivial(cls):
        return cls(())

    @property
    def invariant_factors(self):
        return _invariant_factors(self.orders)

    @property
    def order(self):
        n = 1
        for o in self.orders:
            n *= o
        return n

    @property
    def is_trivial(self):
        return self.order == 1

    def zero(self):
        return (0,) * len(self.orders)

    def add(self, a, b):
        return tuple((x + y) % o for x, y, o in zip(a, b, self.orders))

    def neg(self, a):
        return tuple((-x) % o for x, o in zip(a, self.orders))

    def elements(self):
        return _cartesian(*(range(o) for o in self.orders))

    def element_order(self, a):
        n = 1
        for x, o in zip(a, self.orders):
            k = o // math.gcd(x, o)
            n = n * k // math.gcd(n, k)
        return n

    def __eq__(self, other):
        if not isinstance(other, FiniteAbelianGroup):
            return NotImplemented
        return self.invariant_factors == other.invariant_factors

    def __hash__(self):
        return hash(self.invariant_factors)

    def __repr__(self):
        return "FiniteAbelianGroup(%r)" % (self.orders,)

    def __str__(self):
        facs = self.invariant_factors
        if not facs:
            return "trivial"
        return " x ".join("Z_%d" % f for f in facs)


def group_from_table(n, mul):
    """Isomorphism type of an abelian group given by a multiplication table.

    ``mul(i, j)`` returns the index of the product of elements i and j,
    0 <= i, j < n.  The type is read off the element orders: for a prime p
    with p^a || n, c_k = #{x : ord(x) divides p^k} equals p^(s_k), and
    s_k - s_(k-1) counts the cyclic p-primary factors of exponent >= k.
    The cost is O(n * exponent) calls of ``mul``.  Raises ValueError when
    the table is not that of a group of order n.

    >>> g = group_from_table(4, lambda i, j: (i + j) % 4)
    >>> str(g)
    'Z_4'
    >>> str(group_from_table(4, lambda i, j: i ^ j))
    'Z_2 x Z_2'
    """
    e = next((x for x in range(n) if mul(x, x) == x), None)
    if e is None:
        raise ValueError("no identity: no element x with x * x = x")
    orders = []
    for x in range(n):
        y, k = x, 1
        while y != e:
            if k == n:
                raise ValueError("element %d does not return to the identity "
                                 "within %d steps" % (x, n))
            y, k = mul(y, x), k + 1
        orders.append(k)

    primary, rest = [], n
    for p in range(2, n + 1):
        s = [0]  # s[k] = log_p #{x : ord(x) divides p^k}
        while rest % p == 0:  # p is prime: smaller primes are divided out
            rest //= p
            c, k = sum(1 for o in orders if (p ** len(s)) % o == 0), 0
            while c % p == 0:
                c, k = c // p, k + 1
            if c != 1:
                raise ValueError("the elements of order dividing %d^%d are not "
                                 "a power of %d in number" % (p, len(s), p))
            s.append(k)
        at_least = [b - a for a, b in zip(s, s[1:])]  # factors p^j with j >= k
        primary += [p ** sum(1 for r in at_least if r >= j)
                    for j in range(1, max(at_least, default=0) + 1)]
    if math.prod(primary) != n:
        raise ValueError("element orders give a group of order %d, not %d"
                         % (math.prod(primary), n))
    return FiniteAbelianGroup(_invariant_factors(primary))


def quotient_with_map(orders, relations):
    """Finite quotient of Z_{n_1} x ... x Z_{n_k} by extra relations, with the map.

    An order n_i = 0 stands for a factor Z.  ``relations`` is a list of
    integer vectors (length k) whose classes are killed; together with the
    orders they must leave a finite quotient, else ValueError.  Returns
    (group, f) where ``group`` is the quotient and ``f`` maps an integer
    vector of length k to its class, a tuple indexed like ``group.orders``.
    The lattice is Z^k, so its echelon basis is the standard one and a
    vector is its own coordinates.

    >>> g, f = quotient_with_map((4,), [[2]])
    >>> str(g), f([1]), f([2]), f([3])
    ('Z_2', (1,), (0,), (1,))
    """
    k = len(orders)
    gens = [{i: o} for i, o in enumerate(orders) if o]
    gens += [{i: x for i, x in enumerate(v) if x} for v in relations]
    diag, u = _quotient([{i: 1} for i in range(k)], gens, u=True)
    keep = [i for i, d in enumerate(diag) if d > 1]

    def f(vec):
        return tuple(sum(u[i][j] * vec[j] for j in range(k)) % diag[i] for i in keep)

    return FiniteAbelianGroup(tuple(diag[i] for i in keep)), f
