"""Group cohomology of cyclic groups with finite abelian coefficients.

H^n(Z_M, A) is computed from the periodic free resolution of Z over Z[Z_M]:
with g a generator acting on A by the matrix T, and Norm = 1 + T + ... +
T^{M-1} = (M/o)(1 + T + ... + T^{o-1}) for the order o of T,

    H^{2k}(Z_M, A)   = ker(T - 1) / im(Norm)        (k >= 1)
    H^{2k+1}(Z_M, A) = ker(Norm) / im(T - 1)

An independent oracle for H^2 on small instances runs the normalised bar
complex instead (Brown, Cohomology of Groups, I.5): cochains are functions
(Z_M \\ {0})^n -> A, and H^2 = ker d^2 / im d^1.  Both read the same powers
of T over one period and the same kernel-modulo-image routine, which works in
A^k = Z^(kn) / diag(orders, ..., orders) on sparse integer columns: a
preimage basis from a congruence kernel, then ``quotient_invariants``, so
results are exact.
"""

from itertools import product

from .abelian import FiniteAbelianGroup, congruence_kernel, quotient_invariants, sparse_columns
from .errors import BoundsExceededError, InvalidActionError, as_integer

class GroupAction:
    """Action of Z_M on a finite abelian coefficient group.

    The generator acts by the integer matrix ``matrix`` (column j = image of
    the j-th cyclic generator).  Validity against a coefficient group means:
    well-defined (matrix[i][j] * orders[j] = 0 mod orders[i]) and T^M = 1 on
    the group, which makes T invertible of multiplicative order dividing M.
    """

    def __init__(self, m, matrix):
        self.m = as_integer(m, InvalidActionError)
        self.matrix = [[as_integer(x, InvalidActionError) for x in row] for row in matrix]
        if self.m < 1:
            raise InvalidActionError("acting group order must be >= 1")
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise InvalidActionError("action matrix must be square")

    @classmethod
    def trivial(cls, m, n_factors):
        return cls(m, [[1 if i == j else 0 for j in range(n_factors)] for i in range(n_factors)])

    def period(self, coeffs):
        """Check the action on ``coeffs``; return the powers T^0, ..., T^{o-1}.

        o is the order of T, and each power is reduced mod the orders, row i
        mod orders[i].  Raises InvalidActionError when T is not well defined
        or T^M != 1 on A (o does not divide M).
        """
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
        one = [[int(i == j) % o for j in range(n)] for i, o in enumerate(orders)]
        # multiply until T^i returns to 1 (i is then the order of T) or M steps
        powers, p = [], one
        while True:
            powers.append(p)
            p = [[sum(p[i][t] * self.matrix[t][j] for t in range(n)) % orders[i]
                  for j in range(n)] for i in range(n)]
            if p == one or len(powers) == self.m:
                break
        if p != one or self.m % len(powers):
            raise InvalidActionError(
                "T^%d is not 1 on %s: the action is not invertible of order "
                "dividing %d" % (self.m, coeffs, self.m))
        return powers

    def __repr__(self):
        return "GroupAction(m=%d, matrix=%r)" % (self.m, self.matrix)


def _action_powers(m, coeffs, action):
    """One period of powers of the checked action (trivial if None)."""
    if action is None:
        action = GroupAction.trivial(m, len(coeffs.orders))
    if action.m != m:
        raise InvalidActionError("action is for M=%d, not %d" % (action.m, m))
    return action.period(coeffs)


def _kernel_mod_image(f, g, orders, a, b):
    """ker f / im g for f: A^a -> A^b and g: A^c -> A^a.

    A = Z^n / diag(orders) and A^k is k copies of it, coordinate i*n + t for
    factor t of copy i.  The maps are integer matrices on these coordinates
    (f is bn x an, g is an x cn) and must be well defined on A.  Callers
    pass b = 0 only with a = 0: a map with no rows has no kernel vectors here.

    x lies in the preimage L of ker f when f x = 0 mod out; L holds
    diag(mid) Z^(an) because f is well defined on A.
    """
    mid, out = orders * a, orders * b
    basis = congruence_kernel(sparse_columns(f), out)
    lam = [{i: o} for i, o in enumerate(mid)]
    return FiniteAbelianGroup(quotient_invariants(basis, sparse_columns(g) + lam))


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
    if as_integer(n, ValueError) not in (1, 2, 3):
        raise ValueError("only H^1, H^2, H^3 are provided")
    m = as_integer(m, InvalidActionError)
    powers = _action_powers(m, coeffs, action)
    k, o = len(coeffs.orders), len(powers)
    # T - 1 and the norm, m/o times the sum over one period; T = 1 when o = 1
    s = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(powers[1 % o])]
    nm = [[m // o * sum(p[i][j] for p in powers) for j in range(k)] for i in range(k)]
    if n % 2 == 0:
        return _kernel_mod_image(s, nm, coeffs.orders, 1, 1)
    return _kernel_mod_image(nm, s, coeffs.orders, 1, 1)


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
# bar-complex oracle


def _coboundary(n, m, powers, orders):
    """d^n: C^n -> C^{n+1} of the normalised bar complex of Z_m with values in A.

    C^n holds the functions f: (Z_m \\ {0})^n -> A, extended by 0 to
    arguments containing 0; the n-tuples are ordered lexicographically and f
    is stored as in ``_kernel_mod_image``.  ``powers`` holds T^0, T^1, ...
    over a whole number of periods.  With g_1 acting by T^(g_1),

        (d f)(g_1, ..., g_{n+1}) = g_1 f(g_2, ..., g_{n+1})
            + sum_{i=1..n} (-1)^i f(..., g_i + g_{i+1}, ...)
            + (-1)^(n+1) f(g_1, ..., g_n).
    """
    k = len(orders)
    index = {h: i for i, h in enumerate(product(range(1, m), repeat=n))}
    rows = list(product(range(1, m), repeat=n + 1))
    d = [[0] * (len(index) * k) for _ in range(len(rows) * k)]
    for r, g in enumerate(rows):
        c = index[g[1:]]
        for s in range(k):
            for t in range(k):
                d[r * k + s][c * k + t] += powers[g[0] % len(powers)][s][t]
        faces = [(g[:i] + ((g[i] + g[i + 1]) % m,) + g[i + 2:], (-1) ** (i + 1))
                 for i in range(n)] + [(g[:n], (-1) ** (n + 1))]
        for h, sign in faces:
            if 0 not in h:
                for t in range(k):
                    d[r * k + t][index[h] * k + t] += sign
    return d


def brute_force_h2(m, coeffs, action=None):
    """Independent H^2 oracle for small instances (m <= 12, |A| <= 16).

    Returns ker d^2 / im d^1 on the normalised bar complex (``_coboundary``),
    for any finite A and any action; the periodic resolution behind
    ``h_cyclic`` is not used.  Raises BoundsExceededError outside the bounds
    and InvalidActionError when the action is not a Z_m-module structure.

    >>> str(brute_force_h2(4, FiniteAbelianGroup((4,))))
    'Z_4'
    """
    m = as_integer(m, InvalidActionError)
    if m > 12 or coeffs.order > 16:
        raise BoundsExceededError("brute_force_h2 bounds are m <= 12, |A| <= 16")
    powers = _action_powers(m, coeffs, action)
    d1 = _coboundary(1, m, powers, coeffs.orders)
    d2 = _coboundary(2, m, powers, coeffs.orders)
    return _kernel_mod_image(d2, d1, coeffs.orders, (m - 1) ** 2, (m - 1) ** 3)


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
