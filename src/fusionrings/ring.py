"""Fusion rings and their intrinsic computations.

A fusion ring is a based Z_{>=0}-ring: a free Z-module on a finite basis
(the "simples") with structure constants N_{ij}^k >= 0, a unit basis element,
and a dual involution * satisfying N_{ij}^{unit} = delta_{j, i*} and Frobenius
reciprocity N_{ij}^k = N_{i* k}^j = N_{k j*}^i.  This module holds the ring
type and every intrinsic computation: axiom verification, Frobenius-Perron
dimensions, word decompositions and K-normality, generated subrings, the
adjoint subring, invertible objects, the universal grading, isomorphism
search, and fusion graphs.

All operations are pure; rings are immutable after construction.
"""

import math

import numpy as np

from . import config
from .abelian import FiniteAbelianGroup, group_from_table, identity_matrix, quotient_with_map
from .errors import (
    BoundsExceededError,
    InconsistentGradingError,
    MalformedRingError,
    NonConvergenceError,
)
from .graphs import Digraph, components, isomorphisms, perron_vector


class Grading:
    """A group grading: cyclic factor orders plus a degree per simple.

    Degrees are tuples of ints, the i-th coordinate taken mod orders[i].
    """

    __slots__ = ("orders", "deg")

    def __init__(self, orders, deg):
        self.orders = tuple(int(o) for o in orders)
        self.deg = tuple(tuple(int(c) % o for c, o in zip(d, self.orders)) for d in deg)
        for d in self.deg:
            if len(d) != len(self.orders):
                raise MalformedRingError("degree arity does not match orders")

    @property
    def group(self):
        return FiniteAbelianGroup(self.orders)

    def degree(self, i):
        return self.deg[i]

    def add(self, a, b):
        return tuple((x + y) % o for x, y, o in zip(a, b, self.orders))

    def neg(self, a):
        return tuple((-x) % o for x, o in zip(a, self.orders))

    def __eq__(self, other):
        if not isinstance(other, Grading):
            return NotImplemented
        return self.orders == other.orders and self.deg == other.deg

    def __repr__(self):
        return "Grading(orders=%r, rank=%d)" % (self.orders, len(self.deg))


def _read_only(a):
    # a's entries as a read-only int64 array; a writeable array is copied
    writeable = isinstance(a, np.ndarray) and a.flags.writeable
    out = np.ascontiguousarray(a.copy() if writeable else a, dtype=np.int64)
    out.setflags(write=False)
    return out


class FusionRing:
    """Immutable fusion ring.

    Parameters
    ----------
    labels : sequence of distinct strings naming the simples
    unit : index of the unit simple
    dual : sequence of indices, the dual involution
    tensor : (rank, rank, rank) array of nonnegative ints, N_{ij}^k
    grading : optional Grading

    Construction checks only structure (shapes, involution, nonnegativity);
    the ring axioms are checked by :func:`verify_axioms`.  A read-only
    int64 tensor or dual is kept as given; a writeable one is copied, so
    the caller's array is neither frozen nor shared.
    """

    __slots__ = ("labels", "unit", "dual", "tensor", "grading", "_index")

    def __init__(self, labels, unit, dual, tensor, grading=None):
        labels = tuple(str(x) for x in labels)
        rank = len(labels)
        if len(set(labels)) != rank:
            raise MalformedRingError("labels must be distinct")
        tensor = _read_only(tensor)
        if tensor.shape != (rank, rank, rank):
            raise MalformedRingError("tensor shape %r does not match rank %d" % (tensor.shape, rank))
        if tensor.min(initial=0) < 0:
            raise MalformedRingError("negative fusion coefficient")
        dual = _read_only(dual)
        if dual.shape != (rank,) or sorted(dual.tolist()) != list(range(rank)):
            raise MalformedRingError("dual must be a permutation of the indices")
        if not all(dual[dual[i]] == i for i in range(rank)):
            raise MalformedRingError("dual is not an involution")
        unit = int(unit)
        if not 0 <= unit < rank:
            raise MalformedRingError("unit index out of range")
        if dual[unit] != unit:
            raise MalformedRingError("dual must fix the unit")
        if grading is not None and len(grading.deg) != rank:
            raise MalformedRingError("grading degree list does not match rank")
        self.labels = labels
        self.unit = unit
        self.dual = dual
        self.tensor = tensor
        self.grading = grading
        self._index = {lab: i for i, lab in enumerate(labels)}

    @property
    def rank(self):
        return len(self.labels)

    def index(self, label):
        return self._index[label]

    def N(self, i, j, k):
        return int(self.tensor[i, j, k])

    def row(self, i, j):
        """Decomposition vector of the product of simples i and j."""
        return self.tensor[i, j]

    def __eq__(self, other):
        if not isinstance(other, FusionRing):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.unit == other.unit
            and np.array_equal(self.dual, other.dual)
            and np.array_equal(self.tensor, other.tensor)
            and self.grading == other.grading
        )

    def __repr__(self):
        return "<FusionRing rank=%d unit=%s>" % (self.rank, self.labels[self.unit])


# ---------------------------------------------------------------------------
# axioms


class AxiomReport:
    """Result of verify_axioms: ok flag plus the violated identities."""

    def __init__(self, violations):
        self.violations = list(violations)

    @property
    def ok(self):
        return not self.violations

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "pass"
        head = "; ".join(
            "%s at %s" % (kind, idx) for kind, idx in self.violations[:8]
        )
        more = "" if len(self.violations) <= 8 else " (+%d more)" % (len(self.violations) - 8)
        return "FAIL %d violations: %s%s" % (len(self.violations), head, more)

    def __repr__(self):
        return "<AxiomReport %s>" % self


def grading_violations(tensor, grading):
    """The (i, j, k) with N_{ij}^k > 0 but deg i + deg j != deg k.

    Triples come in np.nonzero order (lexicographic); an empty list means
    the grading is multiplicative.
    """
    ii, jj, kk = np.nonzero(tensor)
    deg = np.array(grading.deg, dtype=np.int64)
    orders = np.array(grading.orders, dtype=np.int64)
    bad = ((deg[ii] + deg[jj] - deg[kk]) % orders).any(axis=1)
    return [(int(i), int(j), int(k)) for i, j, k in zip(ii[bad], jj[bad], kk[bad])]


def verify_axioms(ring):
    """Check every fusion-ring axiom; returns an AxiomReport.

    Unit laws, duality (N_{ij}^1 = delta_{j,i*}), associativity, Frobenius
    reciprocity, and (when a grading is attached) multiplicativity of degrees.
    Associativity is checked exhaustively, one left factor i at a time, by
    float64 matrix products.  Every entry of both products is a sum of
    nonnegative integers bounded by rank * max(N)**2, so the products are
    exact while that bound is below 2**53; a ring at or past it raises
    BoundsExceededError instead of being checked inexactly.
    """
    t = ring.tensor
    r = ring.rank
    dual = ring.dual
    violations = []

    eye = np.eye(r, dtype=np.int64)
    bad = np.argwhere(t[ring.unit] != eye)
    violations += [("unit-left", (ring.unit, int(j), int(k))) for j, k in bad]
    bad = np.argwhere(t[:, ring.unit, :] != eye)
    violations += [("unit-right", (int(i), ring.unit, int(k))) for i, k in bad]

    dual_mat = np.zeros((r, r), dtype=np.int64)
    dual_mat[np.arange(r), dual] = 1
    bad = np.argwhere(t[:, :, ring.unit] != dual_mat)
    violations += [("duality", (int(i), int(j), ring.unit)) for i, j in bad]

    # Frobenius reciprocity: N_{ij}^k = N_{i* k}^j and N_{ij}^k = N_{k j*}^i
    frob1 = t[dual].transpose(0, 2, 1)
    bad = np.argwhere(t != frob1)
    violations += [("frobenius", tuple(int(x) for x in idx)) for idx in bad]
    frob2 = t.transpose(2, 1, 0)[:, dual, :]
    bad = np.argwhere(t != frob2)
    violations += [("frobenius", tuple(int(x) for x in idx)) for idx in bad]

    if r * int(t.max()) ** 2 >= 2 ** 53:
        raise BoundsExceededError(
            "associativity sums can reach %d * %d**2, past the exact float range 2**53"
            % (r, int(t.max())))
    tf = t.astype(np.float64)
    flat = tf.reshape(r, r * r)
    colflat = tf.reshape(r * r, r)
    for i in range(r):
        lhs = tf[i] @ flat          # (j, k*l):  sum_m N_ij^m N_mk^l
        rhs = (colflat @ tf[i]).reshape(r, r * r)
        if not np.array_equal(lhs, rhs):
            bad = np.argwhere(lhs.reshape(r, r, r) != rhs.reshape(r, r, r))
            violations += [
                ("associativity", (i, int(j), int(k), int(l))) for j, k, l in bad
            ]

    if ring.grading is not None:
        g = ring.grading
        violations += [("grading", ijk) for ijk in grading_violations(t, g)]
        for i in range(r):
            if g.degree(int(dual[i])) != g.neg(g.degree(i)):
                violations.append(("grading-dual", (i,)))
        if g.degree(ring.unit) != (0,) * len(g.orders):
            violations.append(("grading-unit", (ring.unit,)))

    # dedupe (the two Frobenius forms can flag the same cell)
    seen = set()
    uniq = []
    for v in violations:
        if v not in seen:
            seen.add(v)
            uniq.append(v)
    return AxiomReport(uniq)


# ---------------------------------------------------------------------------
# dimensions


class FPDimVector:
    """Frobenius-Perron dimensions plus the residual of d_i d_j = sum N d_k."""

    def __init__(self, dims, residual):
        self.dims = np.asarray(dims, dtype=np.float64)
        self.residual = float(residual)

    def __getitem__(self, i):
        return float(self.dims[i])

    def __len__(self):
        return len(self.dims)

    def __iter__(self):
        return iter(float(x) for x in self.dims)

    @property
    def total(self):
        """Global dimension sum d_i^2."""
        return float(np.dot(self.dims, self.dims))

    def tolist(self):
        return [float(x) for x in self.dims]

    def __repr__(self):
        return "FPDimVector(%s, residual=%.2e)" % (
            np.array2string(self.dims, precision=5), self.residual)


def fp_dims(ring):
    """The unique positive dimension character, by power iteration.

    The dimensions are the Perron vector of sum_i L_i^T, which has strictly
    positive entries for a fusion ring, normalized at the unit.  They are
    certified by the residual max |d_i d_j - sum_k N_{ij}^k d_k|, which must
    stay below config.TOLERANCE * max(d)^2.
    """
    t = ring.tensor.astype(np.float64)
    v = perron_vector(t.sum(axis=0))
    d = v / v[ring.unit]
    residual = float(np.max(np.abs(np.outer(d, d) - np.einsum("ijk,k->ij", t, d))))
    if residual > config.TOLERANCE * float(d.max()) ** 2:
        raise NonConvergenceError(
            "dimension residual %.3e exceeds tolerance (broken ring?)" % residual)
    if d.min() < 1 - 1e-6:
        raise NonConvergenceError("a dimension fell below 1 (broken ring?)")
    return FPDimVector(d, residual)


# ---------------------------------------------------------------------------
# words and K-normality


def _as_word(word):
    out = []
    for step in word:
        if isinstance(step, (tuple, list)):
            i, starred = step
            out.append((int(i), bool(starred)))
        else:
            out.append((int(step), False))
    return out


def decompose_word(ring, word):
    """Decompose a left-to-right tensor word into simples.

    ``word`` is a list of (index, dualed) pairs; a bare index means the plain
    object.  Returns the coefficient vector (an object vector).  The empty
    word is the unit.
    """
    v = np.zeros(ring.rank, dtype=np.int64)
    v[ring.unit] = 1
    for i, starred in _as_word(word):
        if not 0 <= i < ring.rank:
            raise IndexError("word index out of range")
        y = int(ring.dual[i]) if starred else i
        v = v @ ring.tensor[:, y, :]
    return v


class KNormalityReport:
    """Horizon-bounded K-normality of an object.

    ``least`` is the smallest K in 1..k_max with equality at every k in
    [K, k_max], or None; the universal statement beyond the horizon is not
    decided, and the string form says so.
    """

    def __init__(self, obj, k_max, equal_at):
        self.object = obj
        self.k_max = k_max
        self.equal_at = dict(equal_at)  # k -> bool
        least = None
        for k in range(k_max, 0, -1):
            if self.equal_at[k]:
                least = k
            else:
                break
        self.least = least

    def __str__(self):
        if self.least is None:
            return "no K up to horizon %d" % self.k_max
        failing = [k for k in range(1, self.least) if not self.equal_at[k]]
        s = "K=%d (horizon %d)" % (self.least, self.k_max)
        if failing:
            s += "; " + ", ".join("k=%d fails" % k for k in failing)
        return s

    def __repr__(self):
        return "<KNormalityReport %s>" % self


def is_k_normal(ring, x, k_max=8):
    """Least K (within the horizon) with x^k (x*)^k = (x*)^k x^k for k >= K.

    At k = 1 this is the normality test x (x) x* = x* (x) x; for larger k the
    two k-th power blocks are compared in both orders.  The answer is
    horizon-bounded: equality for all k >= K is not decidable here.
    """
    t = ring.tensor
    xd = int(ring.dual[x])
    unit_vec = np.zeros(ring.rank, dtype=np.int64)
    unit_vec[ring.unit] = 1

    equal_at = {}
    pow_x = unit_vec.copy()   # x^{(x)k}
    pow_xd = unit_vec.copy()  # x*^{(x)k}
    for k in range(1, k_max + 1):
        pow_x = pow_x @ t[:, x, :]
        pow_xd = pow_xd @ t[:, xd, :]
        a = pow_x
        for _ in range(k):
            a = a @ t[:, xd, :]
        b = pow_xd
        for _ in range(k):
            b = b @ t[:, x, :]
        equal_at[k] = bool(np.array_equal(a, b))
    return KNormalityReport(x, k_max, equal_at)


# ---------------------------------------------------------------------------
# subrings, invertibles, gradings


def subring_generated(ring, seeds):
    """Support of the fusion subring generated by the seed simples.

    The least index set containing the unit and the seeds that is closed
    under duals and under taking fusion-product support.  It is the unit's
    component of the graph joining x to every constituent of x (x) g, for g
    a seed or a seed's dual: by Frobenius reciprocity N_{xg}^z = N_{zg*}^x,
    every edge also runs back, so the component is what words in the seeds
    and their duals reach.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seed set must be nonempty")
    gens = np.union1d(seeds, ring.dual[seeds])
    label = components(ring.rank, *np.nonzero(ring.tensor[:, gens].any(axis=1)))
    return tuple(np.flatnonzero(label == label[ring.unit]).tolist())


def is_generator(ring, x):
    """True iff the single object x tensor-generates the whole ring."""
    return len(subring_generated(ring, [x])) == ring.rank


def adjoint_subring(ring):
    """Support of the subring generated by all i (x) i*."""
    t = ring.tensor
    return subring_generated(ring, np.flatnonzero(t[np.arange(ring.rank), ring.dual].any(axis=0)))


class InvertiblesReport:
    """Invertible simples with their group structure."""

    def __init__(self, indices, group, abelian, table):
        self.indices = tuple(indices)
        self.group = group          # FiniteAbelianGroup, or None if nonabelian
        self.abelian = abelian
        self.table = table          # dict (i, j) -> k on invertible indices

    @property
    def order(self):
        return len(self.indices)

    def __str__(self):
        if self.abelian:
            return str(self.group)
        return "nonabelian of order %d" % self.order

    def __repr__(self):
        return "<Invertibles %s: %r>" % (self, self.indices)


def invertibles(ring):
    """The group of invertible simples (those with i (x) i* = unit exactly)."""
    t = ring.tensor
    inv = [
        i for i in range(ring.rank)
        if int(t[i, ring.dual[i]].sum()) == 1 and t[i, ring.dual[i], ring.unit] == 1
    ]
    pos = {g: a for a, g in enumerate(inv)}
    table = {}
    for gi in inv:
        for gj in inv:
            row = t[gi, gj]
            ks = np.nonzero(row)[0]
            # product of invertibles is a single invertible with coefficient 1
            if len(ks) != 1 or row[ks[0]] != 1 or int(ks[0]) not in pos:
                raise MalformedRingError("invertibles are not closed under fusion")
            table[(gi, gj)] = int(ks[0])
    abelian = all(table[(a, b)] == table[(b, a)] for a in inv for b in inv)
    group = None
    if abelian:
        group = group_from_table(len(inv), lambda a, b: pos[table[(inv[a], inv[b])]])
    return InvertiblesReport(inv, group, abelian, table)


def universal_grading(ring):
    """The finest grading, as a Grading (group + degree per simple).

    Components are the equivalence classes of simples under "k appears in
    a (x) j for some adjoint a"; the group law is induced by fusion.  Raises
    InconsistentGradingError if components do not multiply single-valuedly
    (or multiply noncommutatively, which cannot happen for the rings here).

    Degrees are in a normal form: for a cyclic group Z_n, the least-indexed
    simple whose degree generates Z_n has degree (1,).  Other groups keep
    the Smith coordinates of the component presentation, which are fixed
    only up to an automorphism of the group.
    """
    t = ring.tensor
    r = ring.rank
    reach = t[np.asarray(adjoint_subring(ring))].any(axis=0)
    # components numbered by least member
    least, comp = np.unique(components(r, *np.nonzero(reach)), return_inverse=True)
    n_comp = len(least)

    # hit[i, j, c]: i (x) j has a constituent in component c
    i, j, k = np.nonzero(t)
    hit = np.zeros((r, r, n_comp), dtype=bool)
    hit[i, j, comp[k]] = True
    count = hit.sum(axis=2)
    bad = np.argwhere(count != 1)
    if len(bad):
        i, j = bad[0]
        if count[i, j] == 0:
            raise InconsistentGradingError("empty fusion product (broken ring)")
        raise InconsistentGradingError(
            "product of components %d,%d is not single-valued" % (comp[i], comp[j]))
    # induced product on components, checked to be one table for all pairs
    c = hit.argmax(axis=2)
    prod = np.zeros((n_comp, n_comp), dtype=np.int64)
    prod[comp[:, None], comp[None, :]] = c
    bad = np.argwhere(prod[comp[:, None], comp[None, :]] != c)
    if len(bad):
        i, j = bad[0]
        raise InconsistentGradingError(
            "inconsistent component product at %r" % ((int(comp[i]), int(comp[j])),))
    if (prod != prod.T).any():
        raise InconsistentGradingError("nonabelian universal grading")

    # coordinates: present the component group and read off degrees
    rels = []
    for c1 in range(n_comp):
        for c2 in range(c1, n_comp):
            row = [0] * n_comp
            row[c1] += 1
            row[c2] += 1
            row[prod[c1, c2]] -= 1
            rels.append(row)
    group, f = quotient_with_map((0,) * n_comp, rels)
    degrees = [f(u) for u in identity_matrix(n_comp)]
    deg = [degrees[c] for c in comp]
    if len(group.orders) == 1:
        # normal form: the least-indexed simple whose degree generates Z_n
        # has degree 1 (every component is a degree, so one generates)
        n = group.orders[0]
        s = pow(next(d for d, in deg if math.gcd(d, n) == 1), -1, n)
        deg = [(s * d % n,) for d, in deg]
    return Grading(group.orders, deg)


# ---------------------------------------------------------------------------
# isomorphism search


def find_isomorphisms(a, b, max_count=None):
    """All fusion-ring isomorphisms a -> b, as sorted index tuples.

    A bijection sigma qualifies when sigma(unit) = unit and
    N_{sigma i, sigma j}^{sigma k} = N_{ij}^k; it then commutes with duals,
    since N_{ij}^{unit} = delta_{j, i*}.  This is graphs.isomorphisms on the
    fusion tensors, started from exact integer colours: is-unit,
    is-self-dual, row sum, column sum, sum_k N_{ii}^k and sum_k N_{ii*}^k.
    An empty list means the rings are not isomorphic; pass max_count=1 when
    only existence matters.
    """
    if a.rank != b.rank:
        return []

    def colors(ring):
        t, idx = ring.tensor, np.arange(ring.rank)
        cols = [idx == ring.unit, ring.dual == idx, t.sum(axis=(1, 2)), t.sum(axis=(0, 2)),
                np.einsum("iik->i", t), t[idx, ring.dual].sum(axis=1)]
        return [tuple(c) for c in np.stack(cols, axis=1).tolist()]

    return isomorphisms(a.tensor, b.tensor, colors(a), colors(b), max_count)


# ---------------------------------------------------------------------------
# fusion graphs


def fusion_graph(ring, x):
    """Digraph of tensoring by x: edge i -> k with multiplicity N_{x i}^k."""
    t = ring.tensor[x]
    edges = {}
    for i, k in np.argwhere(t > 0):
        edges[(int(i), int(k))] = int(t[i, k])
    return Digraph(ring.rank, edges)


# ---------------------------------------------------------------------------
# restriction (plumbing shared by the constructions)


def restrict(ring, indices, grading=None, relabel=None):
    """Subring on a dual- and fusion-closed index set, reindexed from 0.

    ``indices`` must be closed (as produced by subring_generated); entries of
    the big tensor leaving the set would be dropped silently otherwise, so
    closure is checked.  Labels are kept unless ``relabel`` maps old labels to
    new ones.
    """
    idx = list(indices)
    pos = {g: a for a, g in enumerate(idx)}
    t = ring.tensor
    outside = np.delete(np.arange(ring.rank), idx)
    if len(outside) and np.any(t[np.ix_(idx, idx, outside)]):
        raise MalformedRingError("index set is not fusion-closed")
    if any(int(ring.dual[i]) not in pos for i in idx):
        raise MalformedRingError("index set is not dual-closed")
    labels = [ring.labels[i] for i in idx]
    if relabel:
        labels = [relabel.get(l, l) for l in labels]
    sub = t[np.ix_(idx, idx, idx)]
    sub.setflags(write=False)  # FusionRing keeps a read-only array without a copy
    dual = [pos[int(ring.dual[i])] for i in idx]
    return FusionRing(labels, pos[ring.unit], dual, sub, grading)
