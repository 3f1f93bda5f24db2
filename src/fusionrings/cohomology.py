"""Group cohomology of cyclic groups with finite abelian coefficients.

H^n(Z_M, A) is computed from the periodic free resolution of Z over Z[Z_M]:
with g a generator acting on A by the matrix T, and Norm = 1 + T + ... +
T^{M-1} = (M/o)(1 + T + ... + T^{o-1}) for the order o of T,

    H^{2k}(Z_M, A)   = ker(T - 1) / im(Norm)        (k >= 1)
    H^{2k+1}(Z_M, A) = ker(Norm) / im(T - 1)

An independent oracle for H^2 on small instances runs the normalised bar
complex instead (Brown, Cohomology of Groups, I.5): cochains are functions
(Z_M \\ {0})^n -> A, and H^2 = ker d^2 / im d^1.  Both read the same powers
of T over one period, which ``GroupAction.period`` checks once per action and
coefficient group and keeps on the action for every later degree, and pass
their maps, as sparse integer columns, to ``abelian.kernel_mod_image``: one
exact column reduction with the identity riding below f as head rows, then
substitution and one square reduction.
"""

from itertools import product
from operator import mul

from .abelian import FiniteAbelianGroup, kernel_mod_image
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
        self._checked = None  # ((orders, m, matrix), powers) of the last valid period call

    @classmethod
    def trivial(cls, m, n_factors):
        return cls(m, [[1 if i == j else 0 for j in range(n_factors)] for i in range(n_factors)])

    def period(self, coeffs):
        """Check the action on ``coeffs``; return the powers T^0, ..., T^{o-1}.

        o is the order of T, and each power is reduced mod the orders, row i
        mod orders[i].  Raises InvalidActionError when T is not well defined
        or T^M != 1 on A (o does not divide M).  The powers are kept with the
        orders, M and a copy of the matrix they were checked for, and returned
        again, not to be changed, while all three stay the same.
        """
        orders = coeffs.orders
        if self._checked and self._checked[0] == (orders, self.m, self.matrix):
            return self._checked[1]
        n = len(orders)
        if len(self.matrix) != n:
            raise InvalidActionError(
                "action matrix size %d does not match %d coefficient factors"
                % (len(self.matrix), n))
        if any(x * oj % oi for row, oi in zip(self.matrix, orders)
               for x, oj in zip(row, orders)):
            raise InvalidActionError("matrix does not define an endomorphism of %s" % coeffs)
        one = _identity(orders)
        cols = list(zip(*self.matrix))
        # multiply until T^i returns to 1 (i is then the order of T) or M steps
        powers, p = [], one
        while True:
            powers.append(p)
            p = [[sum(map(mul, row, col)) % o for col in cols] for row, o in zip(p, orders)]
            if p == one or len(powers) == self.m:
                break
        if p != one or self.m % len(powers):
            raise InvalidActionError(
                "T^%d is not 1 on %s: the action is not invertible of order "
                "dividing %d" % (self.m, coeffs, self.m))
        self._checked = (orders, self.m, [list(row) for row in self.matrix]), powers
        return powers

    def __repr__(self):
        return "GroupAction(m=%d, matrix=%r)" % (self.m, self.matrix)


def _identity(orders):
    # the identity on A, row i reduced mod orders[i]
    return [[int(i == j) % o for j in range(len(orders))] for i, o in enumerate(orders)]


def _action_powers(m, coeffs, action):
    """One period of powers of the checked action; the identity alone if None."""
    if action is None:
        if m < 1:
            raise InvalidActionError("acting group order must be >= 1")
        return [_identity(coeffs.orders)]
    if action.m != m:
        raise InvalidActionError("action is for M=%d, not %d" % (action.m, m))
    return action.period(coeffs)


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
    o = len(powers)
    # the columns of T - 1 and of the norm, m/o times the sum over one
    # period; T = 1 when o = 1
    s = [{i: x - (i == j) for i, x in enumerate(col) if x != (i == j)}
         for j, col in enumerate(zip(*powers[1 % o]))]
    nm = [{i: m // o * x for i, x in enumerate(map(sum, zip(*cols))) if x}
          for cols in zip(*(zip(*p) for p in powers))]
    f, g = (s, nm) if n % 2 == 0 else (nm, s)
    return kernel_mod_image(f, g, coeffs.orders, coeffs.orders)


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
    is the vector of its values, coordinate i*k + t for factor t of the i-th
    tuple.  d^n is returned as sparse integer columns.  ``powers`` holds T^0,
    T^1, ... over a whole number of periods.  With g_1 acting by T^(g_1),

        (d f)(g_1, ..., g_{n+1}) = g_1 f(g_2, ..., g_{n+1})
            + sum_{i=1..n} (-1)^i f(..., g_i + g_{i+1}, ...)
            + (-1)^(n+1) f(g_1, ..., g_n).
    """
    k = len(orders)
    index = {h: i for i, h in enumerate(product(range(1, m), repeat=n))}
    d = [{} for _ in range(len(index) * k)]
    for r, g in enumerate(product(range(1, m), repeat=n + 1)):
        c = index[g[1:]] * k
        for t, col in enumerate(zip(*powers[g[0] % len(powers)])):
            for s, x in enumerate(col):
                d[c + t][r * k + s] = x
        faces = [(g[:i] + ((g[i] + g[i + 1]) % m,) + g[i + 2:], (-1) ** (i + 1))
                 for i in range(n)] + [(g[:n], (-1) ** (n + 1))]
        for h, sign in faces:
            if 0 not in h:
                for t in range(k):
                    column = d[index[h] * k + t]
                    column[r * k + t] = column.get(r * k + t, 0) + sign
    return [{i: x for i, x in column.items() if x} for column in d]


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
    orders = coeffs.orders
    d1, d2 = _coboundary(1, m, powers, orders), _coboundary(2, m, powers, orders)
    return kernel_mod_image(d2, d1, orders * (m - 1) ** 2, orders * (m - 1) ** 3)


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
