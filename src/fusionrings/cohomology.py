"""Group cohomology of cyclic groups with finite abelian coefficients.

H^n(Z_M, A) is computed from the periodic free resolution of Z over Z[Z_M]:
with g a generator acting on A by the matrix T, and Norm = 1 + T + ... +
T^{M-1},

    H^{2k}(Z_M, A)   = ker(T - 1) / im(Norm)        (k >= 1)
    H^{2k+1}(Z_M, A) = ker(Norm) / im(T - 1)

All kernels are taken in A = Z^n / diag(orders) and all quotients are reduced
with the Smith normal form, so results are exact.  An independent brute-force
oracle enumerates 2-cocycles directly on small instances.
"""

import math

import numpy as np

from .abelian import (
    FiniteAbelianGroup,
    diagonal_entries,
    group_from_table,
    integer_kernel,
    lattice_basis,
    quotient_invariants,
    smith_normal_form,
)
from .errors import BoundsExceededError, InvalidActionError

# Cohomology groups are reported as plain finite abelian groups
# (isomorphism type + order).
CohomologyGroup = FiniteAbelianGroup


class GroupAction:
    """Action of Z_M on a finite abelian coefficient group.

    The generator acts by the integer matrix ``matrix`` (column j = image of
    the j-th cyclic generator).  Validity against a coefficient group means:
    well-defined (matrix[i][j] * orders[j] = 0 mod orders[i]), invertible on
    the group, and of multiplicative order dividing M.
    """

    def __init__(self, m, matrix):
        self.m = int(m)
        self.matrix = [[int(x) for x in row] for row in matrix]
        if self.m < 1:
            raise InvalidActionError("acting group order must be >= 1")
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise InvalidActionError("action matrix must be square")

    @classmethod
    def trivial(cls, m, n_factors):
        return cls(m, [[1 if i == j else 0 for j in range(n_factors)] for i in range(n_factors)])

    def validate(self, coeffs):
        orders = coeffs.orders
        n = len(orders)
        if len(self.matrix) != n:
            raise InvalidActionError(
                "action matrix size %d does not match %d coefficient factors"
                % (len(self.matrix), n))
        for j in range(n):
            for i in range(n):
                if (self.matrix[i][j] * orders[j]) % orders[i]:
                    raise InvalidActionError(
                        "matrix does not define an endomorphism of %s" % coeffs)
        # invertibility: surjective on the finite group
        if _endo_cokernel_order(self.matrix, orders) != 1:
            raise InvalidActionError("action matrix is not invertible on %s" % coeffs)
        k = _endo_order(self.matrix, orders)
        if self.m % k:
            raise InvalidActionError(
                "action has order %d, which does not divide M=%d" % (k, self.m))

    def __repr__(self):
        return "GroupAction(m=%d, matrix=%r)" % (self.m, self.matrix)


def _mat_mul_mod(a, b, orders):
    n = len(orders)
    return [
        [sum(a[i][t] * b[t][j] for t in range(n)) % orders[i] for j in range(n)]
        for i in range(n)
    ]


def _reduce_rows(a, orders):
    return [[x % orders[i] for x in row] for i, row in enumerate(a)]


def _endo_order(matrix, orders, cap=10000):
    n = len(orders)
    ident = _reduce_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)], orders)
    p = _reduce_rows(matrix, orders)
    k = 1
    while p != ident:
        p = _mat_mul_mod(p, matrix, orders)
        k += 1
        if k > cap:
            raise InvalidActionError("action order exceeds cap (not invertible?)")
    return k


def _endo_cokernel_order(matrix, orders):
    # order of Z^n/(im + Lambda): product of the SNF diagonal of [matrix | Lambda]
    n = len(orders)
    a = [[matrix[i][j] for j in range(n)] + [orders[i] if r == i else 0 for r in range(n)]
         for i in range(n)]
    return math.prod(diagonal_entries(smith_normal_form(a).d))


def norm_matrix(action, m, orders):
    """Norm = sum of the first m powers of the action matrix."""
    n = len(orders)
    total = [[0] * n for _ in range(n)]
    p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(m):
        for i in range(n):
            for j in range(n):
                total[i][j] += p[i][j]
        p = _mat_mul_mod(p, action, orders)
    return total


def _kernel_mod_image(f, g, orders):
    """{x in A : f x = 0} / (g A), both taken in A = Z^n/diag(orders)."""
    n = len(orders)
    lam_cols = [[orders[i] if r == i else 0 for i in range(n)] for r in range(n)]
    stacked = [row[:] + [-lam_cols[c][i] for c in range(n)] for i, row in enumerate(f)]
    kernel = integer_kernel(stacked)
    proj = [v[:n] for v in kernel]
    basis = lattice_basis(proj + lam_cols)
    subgens = [[g[i][j] for i in range(n)] for j in range(n)] + lam_cols
    return FiniteAbelianGroup(quotient_invariants(basis, subgens))


def h_cyclic(n, m, coeffs, action=None):
    """H^n(Z_m, A) for n in {1, 2, 3} via the periodic resolution.

    ``coeffs`` is the coefficient group, ``action`` an optional GroupAction
    (trivial if omitted).  Raises InvalidActionError when the action is not a
    valid Z_m-module structure.

    >>> str(h_cyclic(2, 4, FiniteAbelianGroup((2,))))   # Z_2 / 4 Z_2
    'Z_2'
    >>> str(h_cyclic(2, 4, FiniteAbelianGroup((3,))))   # coprime orders
    'trivial'
    >>> str(h_cyclic(1, 6, FiniteAbelianGroup((4,))))   # Hom(Z_6, Z_4)
    'Z_2'
    """
    if n not in (1, 2, 3):
        raise ValueError("only H^1, H^2, H^3 are provided")
    orders = coeffs.orders
    k = len(orders)
    if action is None:
        action = GroupAction.trivial(m, k)
    if action.m != m:
        raise InvalidActionError("action is for M=%d, not %d" % (action.m, m))
    if k == 0:
        return CohomologyGroup(())
    action.validate(coeffs)
    t = action.matrix
    s = [[t[i][j] - (1 if i == j else 0) for j in range(k)] for i in range(k)]
    nm = norm_matrix(t, m, orders)
    if n % 2 == 0:
        return _kernel_mod_image(s, nm, orders)
    return _kernel_mod_image(nm, s, orders)


def h3_roots_of_unity(m):
    """H^3(Z_m, Q/Z) with the trivial action (the 3-cocycle class count).

    All m-torsion of Q/Z sits inside the cyclic subgroup (1/m)Z/Z = Z_m, so
    the divisible group is truncated there and the periodic resolution is run
    on Z_m itself; the answer is Z_m.

    >>> str(h3_roots_of_unity(6))
    'Z_6'
    """
    return h_cyclic(3, m, FiniteAbelianGroup((max(m, 1),)))


# ---------------------------------------------------------------------------
# brute-force oracle


def _gf_rank(mat, p):
    """Rank of an integer matrix over GF(p)."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        piv = None
        for r in range(rank, rows):
            if a[r, c] % p:
                piv = r
                break
        if piv is None:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, c]), p - 2, p)
        a[rank] = (a[rank] * inv) % p
        mask = (a[:, c] % p) != 0
        mask[rank] = False
        a[mask] = (a[mask] - np.outer(a[mask, c], a[rank])) % p
        rank += 1
        if rank == rows:
            break
    return rank


def _h2_mod_p(m, r, p, powers):
    """dim H^2 for coefficients Z_p^r via bar-complex linear algebra."""
    def c2_index(a, b, t):
        return ((a * m) + b) * r + t

    def c3_index(a, b, c, t):
        return (((a * m) + b) * m + c) * r + t

    d2 = np.zeros((r * m ** 3, r * m ** 2), dtype=np.int64)
    for u in range(m):
        for v in range(m):
            for t in range(r):
                col = c2_index(u, v, t)
                for a in range(m):
                    # alpha_a f(b, c) with (b, c) = (u, v)
                    for s in range(r):
                        d2[c3_index(a, u, v, s), col] += powers[a][s][t]
                    # -f(a+b, c): a + b = u, c = v
                    d2[c3_index(a, (u - a) % m, v, t), col] -= 1
                    # +f(a, b+c): a = u, b + c = v  (reuse loop var as b)
                    d2[c3_index(u, a, (v - a) % m, t), col] += 1
                    # -f(a, b): (a, b) = (u, v)
                    d2[c3_index(u, v, a, t), col] -= 1
    d1 = np.zeros((r * m ** 2, r * m), dtype=np.int64)
    for u in range(m):
        for t in range(r):
            col = u * r + t
            for a in range(m):
                for s in range(r):
                    d1[c2_index(a, u, s), col] += powers[a][s][t]  # alpha_a g(b)
                d1[c2_index(a, (u - a) % m, t), col] -= 1          # -g(a+b)
                d1[c2_index(u, a, t), col] += 1                    # +g(a)
    dim_ker = r * m ** 2 - _gf_rank(d2, p)
    dim_im = _gf_rank(d1, p)
    return dim_ker - dim_im


def brute_force_h2(m, coeffs, action=None):
    """Independent H^2 oracle for small instances (m <= 6, |A| <= 9).

    Either enumerates every function Z_m x Z_m -> A and filters by the
    2-cocycle identity, or (when enumeration is infeasible but A has prime
    exponent p) runs exact linear algebra over GF(p) on the bar complex.
    """
    orders = tuple(o for o in coeffs.orders if o > 1)
    size = 1
    for o in orders:
        size *= o
    if m > 6 or size > 9:
        raise BoundsExceededError("brute_force_h2 bounds are m <= 6, |A| <= 9")
    group = FiniteAbelianGroup(orders)
    k = len(orders)
    if action is None:
        action = GroupAction.trivial(m, len(coeffs.orders))
    action.validate(coeffs)
    # restrict the matrix to the nontrivial factors
    live = [i for i, o in enumerate(coeffs.orders) if o > 1]
    t = [[action.matrix[i][j] for j in live] for i in live]
    powers = [[[1 if i == j else 0 for j in range(k)] for i in range(k)]]
    for _ in range(m - 1):
        powers.append(_mat_mul_mod(powers[-1], t, orders))

    if k == 0 or size == 1:
        return CohomologyGroup(())

    n_funcs = size ** (m * m)
    if n_funcs <= 2_000_000:
        return _enumerate_h2(m, group, powers)

    from math import gcd

    exponent = 1
    for o in orders:
        exponent = exponent * o // gcd(exponent, o)
    if not _is_prime(exponent):
        raise BoundsExceededError(
            "instance too large to enumerate and exponent %d is not prime" % exponent)
    p = exponent
    r = 0
    while size > 1:
        size //= p
        r += 1
    dim = _h2_mod_p(m, r, p, powers)
    return CohomologyGroup((p,) * dim)


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _enumerate_h2(m, group, powers):
    from itertools import product as cartesian

    elems = list(group.elements())
    pairs = [(a, b) for a in range(m) for b in range(m)]
    npairs = len(pairs)
    pair_pos = {ab: i for i, ab in enumerate(pairs)}

    def act(a, x):
        mat = powers[a]
        return tuple(
            sum(mat[i][j] * x[j] for j in range(len(x))) % o
            for i, o in enumerate(group.orders)
        )

    cocycles = []
    for vals in cartesian(elems, repeat=npairs):
        ok = True
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    # cocycle: act_a f(b,c) - f(a+b,c) + f(a,b+c) - f(a,b) = 0
                    total = act(a, vals[pair_pos[(b, c)]])
                    total = group.add(total, group.neg(vals[pair_pos[((a + b) % m, c)]]))
                    total = group.add(total, vals[pair_pos[(a, (b + c) % m)]])
                    total = group.add(total, group.neg(vals[pair_pos[(a, b)]]))
                    if any(total):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            cocycles.append(vals)

    coboundaries = set()
    for gvals in cartesian(elems, repeat=m):
        f = []
        for a, b in pairs:
            x = act(a, gvals[b])
            x = group.add(x, group.neg(gvals[(a + b) % m]))
            x = group.add(x, gvals[a])
            f.append(x)
        coboundaries.add(tuple(f))

    def sub(f1, f2):
        return tuple(group.add(x, group.neg(y)) for x, y in zip(f1, f2))

    reps = []
    rep_of = {}
    for f in cocycles:
        for rep in reps:
            if sub(f, rep) in coboundaries:
                rep_of[f] = rep
                break
        else:
            reps.append(f)
            rep_of[f] = f
    pos = {rep: i for i, rep in enumerate(reps)}

    def mul(i, j):
        # the pointwise sum of two cocycles is again a cocycle, so it was seen
        s = tuple(group.add(x, y) for x, y in zip(reps[i], reps[j]))
        return pos[rep_of[s]]

    return group_from_table(len(reps), mul)


def parse_action(spec, m, orders):
    """CLI action notation -> GroupAction.

    Presets: "trivial", "swap" (exchange two equal factors), "inv" (negate
    everything), "inv2" (negate the second factor).  Otherwise a matrix by
    generator images: semicolon-separated columns of comma-separated ints,
    e.g. "1,0;0,-1" for inv2 on two factors.
    """
    n = len(orders)
    if spec in (None, "", "trivial"):
        return GroupAction.trivial(m, n)
    if spec == "swap":
        if n != 2 or orders[0] != orders[1]:
            raise InvalidActionError("'swap' needs two equal cyclic factors")
        return GroupAction(m, [[0, 1], [1, 0]])
    if spec == "inv":
        return GroupAction(m, [[-1 if i == j else 0 for j in range(n)] for i in range(n)])
    if spec == "inv2":
        if n < 2:
            raise InvalidActionError("'inv2' needs at least two factors")
        mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        mat[1][1] = -1
        return GroupAction(m, mat)
    try:
        cols = [[int(x) for x in col.split(",")] for col in spec.split(";")]
    except ValueError as exc:
        raise InvalidActionError("cannot parse action %r" % spec) from exc
    if len(cols) != n or any(len(c) != n for c in cols):
        raise InvalidActionError("action %r does not fit %d factors" % (spec, n))
    return GroupAction(m, [[cols[j][i] for j in range(n)] for i in range(n)])
