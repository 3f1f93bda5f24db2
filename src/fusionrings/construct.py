"""Constructions of the named fusion rings and the ring-level operations.

pointed_ring     group ring of a finite abelian group
ade_ring         A_N / D_2N / E_6 / E_8 rings and their adjoint subrings
deligne_product  componentwise product ring on pairs of simples
one_one_subring  subring generated by the diagonally (1,1)-graded simples
dequiv_free      orbit ring of a fixed-point-freely acting invertible subgroup
e4_ring          rank-12 ring of the sl_4 level-4 quantum subgroup
e166_ring        rank-24 ring of the sl_2 level-16 x sl_3 level-6 quantum subgroup
theorem_row      the fourteen classification-table rows as explicit rings

A_N rings come from the truncated sl_2 recursion; D/E rings are completed by
the constraint solver from their Dynkin generator graphs, with a per-instance
uniqueness assertion.  Ring-level constructors take no root-of-unity or sign
parameter: every category in one family shares a single fusion ring, and
IVec(Z_2M) has the same ring as Vec(Z_2M).

Table rows [C x Vec(Z_n)]_(1,1) are filled straight from the factors, never
through the dense product; each dense tensor built here is first checked
against config.MAX_DENSE_BYTES.
"""

import math
from functools import lru_cache

import numpy as np

from . import config
from .abelian import FiniteAbelianGroup, quotient_with_map
from .errors import (
    BoundsExceededError,
    DegenerateGradeError,
    FixedPointError,
    InconsistentGradingError,
    MalformedRingError,
    NotASubgroupError,
    UnknownFamilyError,
)
from .graphs import components, dynkin, perron_vector
from .ring import (
    FusionRing,
    Grading,
    adjoint_subring,
    fp_dims,
    grading_violations,
    invertibles,
    restrict,
    subring_generated,
    universal_grading,
)
from .solve import PartialRing, complete_partial_ring, unique_ring_from_graph


def _check_dense(rank):
    if rank ** 3 * 8 > config.MAX_DENSE_BYTES:
        raise BoundsExceededError("a rank-%d int64 fusion tensor is past "
                                  "config.MAX_DENSE_BYTES" % rank)


def pointed_ring(group):
    """The group ring of a finite abelian group, fully graded by itself.

    Basis = group elements, fusion = group law, dual = inverse.
    """
    if not isinstance(group, FiniteAbelianGroup):
        group = FiniteAbelianGroup(group)
    els = list(group.elements())
    pos = {e: i for i, e in enumerate(els)}
    n = len(els)
    _check_dense(n)
    t = np.zeros((n, n, n), dtype=np.int64)
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            t[i, j, pos[group.add(a, b)]] = 1
    dual = [pos[group.neg(a)] for a in els]
    if len(group.orders) == 1:
        labels = [str(e[0]) for e in els]
    elif not group.orders:
        labels = ["0"]
    else:
        labels = ["(" + ",".join(map(str, e)) + ")" for e in els]
    grading = Grading(group.orders, els)
    return FusionRing(labels, pos[group.zero()], dual, t, grading)


def _verlinde_tensor(n):
    # sl_2 level n-1 truncation: a (x) b = |a-b|, |a-b|+2, ..., min(a+b, 2(n-1)-a-b)
    t = np.zeros((n, n, n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            for c in range(abs(a - b), min(a + b, 2 * (n - 1) - a - b) + 1, 2):
                t[a, b, c] = 1
    return t


def _a_ring(n):
    labels = ["f%d" % m for m in range(n)]
    grading = Grading((2,), [(m % 2,) for m in range(n)])
    return FusionRing(labels, 0, list(range(n)), _verlinde_tensor(n), grading)


def _d_ring(n):
    # n = 2N nodes: f^(0) .. f^(2N-3) on the path, P and Q at the fork
    labels = ["f%d" % m for m in range(n - 2)] + ["P", "Q"]
    return unique_ring_from_graph(dynkin("D", n), unit=0, labels=labels)


def _e6_ring():
    # path f^(0), f^(1), f^(2), Y, Z with the branch X hanging off f^(2)
    return unique_ring_from_graph(dynkin("E6"), unit=0, labels=["f0", "f1", "f2", "Y", "Z", "X"])


def _e8_ring():
    # path f^(0) .. f^(4), V, W with the branch U hanging off f^(4)
    return unique_ring_from_graph(
        dynkin("E8"), unit=0, labels=["f0", "f1", "f2", "f3", "f4", "V", "W", "U"])


def _adjoint_of(ring):
    sub = restrict(ring, adjoint_subring(ring))
    # the adjoint is trivially graded inside its extension
    return FusionRing(sub.labels, sub.unit, sub.dual, sub.tensor,
                      Grading((), [() for _ in range(sub.rank)]))


@lru_cache(maxsize=None)
def ade_ring(family, size=None):
    """The fusion ring of an ADE family, or of its adjoint subring.

    family in {A, D, E6, E8, adA, adD, adE6, adE8}; size is the Dynkin
    subscript (rank of the A/D graph), required for A and D.
    """
    fam = str(family)
    if fam in ("D-even", "adD-even"):
        fam = fam.replace("-even", "")
    if fam in ("A", "adA"):
        if size is None or size < 2:
            raise UnknownFamilyError("A_N needs a size N >= 2")
        ring = _a_ring(int(size))
    elif fam in ("D", "adD"):
        if size is None or size < 4 or size % 2:
            raise UnknownFamilyError("D_2N needs an even size 2N >= 4")
        ring = _d_ring(int(size))
    elif fam in ("E6", "adE6"):
        if size not in (None, 6):
            raise UnknownFamilyError("E6 has no free size")
        ring = _e6_ring()
    elif fam in ("E8", "adE8"):
        if size not in (None, 8):
            raise UnknownFamilyError("E8 has no free size")
        ring = _e8_ring()
    else:
        raise UnknownFamilyError("unknown family %r" % (family,))
    if fam.startswith("ad"):
        return _adjoint_of(ring)
    return ring


def deligne_product(a, b):
    """The product ring on pairs of simples, with componentwise fusion.

    The grading is the product grading when both factors carry one.
    """
    ra, rb = a.rank, b.rank
    _check_dense(ra * rb)
    ta, tb = a.tensor, b.tensor
    t = (ta[:, None, :, None, :, None] * tb[None, :, None, :, None, :])
    t = t.reshape(ra * rb, ra * rb, ra * rb)
    t.setflags(write=False)
    labels = ["(%s,%s)" % (la, lb) for la in a.labels for lb in b.labels]
    dual = [int(a.dual[i]) * rb + int(b.dual[j]) for i in range(ra) for j in range(rb)]
    grading = None
    if a.grading is not None and b.grading is not None:
        orders = a.grading.orders + b.grading.orders
        deg = [a.grading.deg[i] + b.grading.deg[j] for i in range(ra) for j in range(rb)]
        grading = Grading(orders, deg)
    return FusionRing(labels, a.unit * rb + b.unit, dual, t, grading)


def one_one_subring(ring, grading):
    """Subring generated by the simples of diagonal degree (1,1,...).

    The grading is supplied explicitly (it may be coarser than universal);
    it is checked for multiplicativity.  The result carries the induced
    cyclic grading by Z_lcm of the factor orders.
    """
    if len(grading.deg) != ring.rank:
        raise MalformedRingError("grading does not match the ring's rank")
    if not grading.orders:
        raise MalformedRingError("grading must have at least one cyclic factor")
    _check_multiplicative(ring, grading)
    return _diagonal_subring(ring, grading)


def _check_multiplicative(ring, grading):
    bad = grading_violations(ring.tensor, grading)
    if bad:
        raise InconsistentGradingError("grading is not multiplicative at (%s, %s, %s)"
                                       % tuple(ring.labels[x] for x in bad[0]))


def _diagonal_index(orders):
    # the degree (a mod o)_o of the diagonal cyclic subgroup -> a, for a < lcm
    return {tuple(a % o for o in orders): a for a in range(math.lcm(*orders))}


def _diagonal_subring(ring, grading):
    # one_one_subring past its checks: generate from degree (1,1,...),
    # restrict, and grade by the diagonal Z_lcm
    lcm = math.lcm(*grading.orders)
    diag = _diagonal_index(grading.orders)
    seeds = [i for i in range(ring.rank) if diag.get(grading.deg[i]) == 1 % lcm]
    if not seeds:
        raise DegenerateGradeError("no simples of degree (1,1)")
    support = subring_generated(ring, seeds)
    degs = [diag.get(grading.deg[i]) for i in support]
    if None in degs:
        raise InconsistentGradingError("the subring leaves the diagonal cyclic subgroup")
    induced = Grading((lcm,), [(a,) for a in degs]) if lcm > 1 else Grading((), [()] * len(degs))
    return restrict(ring, support, grading=induced)


def _one_one_product(base, n):
    # one_one_subring(deligne_product(base, pointed_ring(Z_n))) filled on the
    # pairs (x, g) of diagonal degree: N_{(x,g),(y,h)}^{(z,k)} = N_{xy}^z [g+h = k].
    # The product grading is multiplicative exactly when base.grading is.
    _check_multiplicative(base, base.grading)
    orders = base.grading.orders + (n,)
    diag = _diagonal_index(orders)
    pairs = [(x, g) for x in range(base.rank) for g in range(n)
             if base.grading.deg[x] + (g,) in diag]
    _check_dense(len(pairs))
    pos = {p: a for a, p in enumerate(pairs)}
    xs, gs = (np.array(c) for c in zip(*pairs))
    t = base.tensor[np.ix_(xs, xs, xs)]
    t *= (gs[:, None, None] + gs[None, :, None]) % n == gs
    t.setflags(write=False)
    labels = ["(%s,%s)" % (base.labels[x], g) for x, g in pairs]
    dual = [pos[(int(base.dual[x]), -g % n)] for x, g in pairs]
    grading = Grading(orders, [base.grading.deg[x] + (g,) for x, g in pairs])
    ring = FusionRing(labels, pos[(base.unit, 0)], dual, t, grading)
    return _diagonal_subring(ring, grading)


def dequiv_free(ring, h):
    """Quotient by the orbits of a freely acting subgroup of invertibles.

    h lists generators (labels or indices); the subgroup is their closure.
    The orbit ring has N_[i][j]^[k] = sum over the subgroup of N_ij^{g.k}.
    Raises FixedPointError naming the fixed simple if the action is not
    free, and NotASubgroupError if a generator is not invertible.
    """
    return _dequiv(ring, h)[0]


def _dequiv(ring, h):
    # dequiv_free's quotient, and the index of each simple's orbit in it
    gens = [x if isinstance(x, (int, np.integer)) else ring.index(x) for x in h]
    invset = set(invertibles(ring).indices)
    for g in gens:
        if g not in invset:
            raise NotASubgroupError(
                "%s is not invertible, so it generates no subgroup of the "
                "invertibles" % ring.labels[g])
    # an invertible g permutes the simples by x -> (the unique) support of g (x) x;
    # the subgroup the generators span is the unit's orbit under their moves
    moves = ring.tensor[gens].argmax(axis=2)
    label = components(ring.rank, np.broadcast_to(np.arange(ring.rank), moves.shape), moves)
    H = np.flatnonzero(label == label[ring.unit]).tolist()
    perms = ring.tensor[H].argmax(axis=2)
    fixed = np.argwhere((perms == np.arange(ring.rank)) & (np.array(H) != ring.unit)[:, None])
    if len(fixed):
        g, x = H[fixed[0][0]], fixed[0][1]
        raise FixedPointError(
            "invertible %s fixes %s" % (ring.labels[g], ring.labels[x]),
            invertible=ring.labels[g], fixed=ring.labels[x])
    # each orbit is represented by its least simple
    reps, orbit_of = np.unique(perms.min(axis=0), return_inverse=True)
    _check_dense(len(reps))
    t = ring.tensor[np.ix_(reps, reps)][:, :, perms[:, reps]].sum(axis=2)
    t.setflags(write=False)
    dual = orbit_of[ring.dual[reps]]
    labels = ["[%s]" % ring.labels[i] for i in reps]
    grading = None
    if ring.grading is not None:
        go = ring.grading.orders
        group, f = quotient_with_map(go, [list(ring.grading.deg[g]) for g in H])
        grading = Grading(group.orders, [f(list(ring.grading.deg[i])) for i in reps])
    return FusionRing(labels, orbit_of[ring.unit], dual, t, grading), orbit_of.tolist()


# ---------------------------------------------------------------------------
# the two exceptional rings


@lru_cache(maxsize=None)
def e4_ring():
    """The rank-12 ring of the quantum subgroup of sl_4 at level 4.

    Reconstructed by the solver from the dimensions and the Z_4 grading
    alone (pieces of sizes 4/3/2/3); the completion has a single
    isomorphism class.  Simples are labeled 1..12; 5 is the generator, of
    dimension sqrt(2 + sqrt 2), and carries degree 1.
    """
    s2 = math.sqrt(2.0)
    w = math.sqrt(2.0 + s2)
    dims = [1.0, 1.0 + s2, 1.0 + s2, 1.0,
            w, w, s2 * w,
            s2, 2.0 + s2,
            w, w, s2 * w]
    deg = [0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 3]
    labels = [str(i) for i in range(1, 13)]
    partial = PartialRing(labels, 0, dims, Grading((4,), [(d,) for d in deg]))
    return complete_partial_ring(partial).class_representatives()[0]


@lru_cache(maxsize=None)
def e166_ring():
    """The rank-24 ring of the sl_2 level-16 x sl_3 level-6 quantum subgroup.

    The 0-graded piece is the D_10 ring; the two other Z_3-graded pieces
    are dual E_7-shaped module pieces whose dimensions are the E_7 Perron
    vector, scaled so every graded piece carries the same total squared
    dimension.  The solver completes the rest uniquely; the ring is
    returned with its universal Z_6 grading, whose normal form gives the
    generator a0 (dimension 2cos(pi/18)) degree 1.
    """
    d10 = ade_ring("D", 10)
    d0 = list(fp_dims(d10))
    total0 = sum(d * d for d in d0)
    v = perron_vector(dynkin("E7"))
    scale = math.sqrt(total0 / float((v * v).sum()))
    adims = sorted(float(scale * x) for x in v)
    labels = list(d10.labels) + ["a%d" % i for i in range(7)] + ["b%d" % i for i in range(7)]
    dims = d0 + adims + adims
    deg = [(0,)] * 10 + [(1,)] * 7 + [(2,)] * 7
    known = {}
    for i in range(10):
        for j in range(10):
            for k in range(10):
                known[(i, j, k)] = int(d10.tensor[i, j, k])
    partial = PartialRing(labels, 0, dims, Grading((3,), deg), known=known)
    ring = complete_partial_ring(partial).class_representatives()[0]
    # regrade by the universal grading, whose normal form gives a0 degree 1
    g = universal_grading(ring)
    a0 = g.deg[ring.index("a0")]
    if g.orders != (6,) or a0 != (1,):
        raise InconsistentGradingError("expected a universal Z_6 grading with a0 of "
                                       "degree (1,), got %s with %r" % (g.group, a0))
    return FusionRing(labels, ring.unit, ring.dual, ring.tensor, g)


# ---------------------------------------------------------------------------
# classification-table rows


class TheoremRowSpec:
    """One row of the classification table, with its parameters.

    row is one of the identifiers in ROWS; M >= 1 scales the grading group;
    N is required exactly for the rows with a free family parameter.
    """

    def __init__(self, row, M=1, N=None):
        if row not in ROWS:
            raise UnknownFamilyError("unknown classification row %r" % (row,))
        self.row = row
        self.M = int(M)
        info = ROWS[row]
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if info["has_N"]:
            self.N = info["default_N"] if N is None else int(N)
            if self.N < info["min_N"]:
                raise ValueError("row %s needs N >= %d" % (row, info["min_N"]))
        else:
            if N is not None:
                raise ValueError("row %s takes no N parameter" % row)
            self.N = None

    @property
    def grading_order(self):
        return ROWS[self.row]["factor"] * self.M

    def describe(self):
        return ROWS[self.row]["display"]

    def __repr__(self):
        if self.N is None:
            return "TheoremRowSpec(%r, M=%d)" % (self.row, self.M)
        return "TheoremRowSpec(%r, M=%d, N=%d)" % (self.row, self.M, self.N)


class RowBuild:
    """A constructed row: the ring, its designated generator, provenance."""

    def __init__(self, ring, generator, provenance):
        self.ring = ring
        self.generator = generator
        self.provenance = provenance

    def __repr__(self):
        return "RowBuild(row=%r, rank=%d, generator=%r)" % (
            self.provenance["row"], self.ring.rank, self.ring.labels[self.generator])


def _assemble(base, base_name, pointed_order, deq_label=None, gen_label=None,
              oneone=True):
    steps = ["deligne_product(%s, Vec(Z_%d))" % (base_name, pointed_order)]
    if oneone:
        ring = _one_one_product(base, pointed_order)
        steps.append("one_one_subring over Z_%s x Z_%d"
                     % ("x".join(str(o) for o in base.grading.orders), pointed_order))
    else:
        ring = deligne_product(base, pointed_ring(FiniteAbelianGroup.cyclic(pointed_order)))
    gen = ring.index("(%s,%s)" % (gen_label, 1 % pointed_order))
    if deq_label is not None:
        ring, orbit_of = _dequiv(ring, [deq_label])
        gen = orbit_of[gen]
        steps.append("dequiv_free by <%s>" % deq_label)
    return ring, gen, steps


def _build_pointed(N, M):
    ring = pointed_ring(FiniteAbelianGroup.cyclic(M))
    gen = ring.index("1") if M > 1 else ring.unit
    return ring, gen, ["pointed_ring(Z_%d)" % M]


def _build_a_even(N, M):
    base = ade_ring("adA", 2 * N)
    ring, gen, steps = _assemble(base, "ad(A_%d)" % (2 * N), M,
                                 gen_label="f%d" % (2 * N - 2), oneone=False)
    return ring, gen, ["ade_ring(adA, %d)" % (2 * N)] + steps


def _build_a_odd(N, M):
    base = ade_ring("A", 2 * N + 1)
    ring, gen, steps = _assemble(base, "A_%d" % (2 * N + 1), 2 * M, gen_label="f1")
    return ring, gen, steps


def _build_a_odd_deq(N_A, M):
    # [A_n x Vec(Z_4M)]_(1,1), de-equivariantized by <f^(n-1) x 2M>
    base = ade_ring("A", N_A)
    deq = "(f%d,%d)" % (N_A - 1, 2 * M)
    ring, gen, steps = _assemble(base, "A_%d" % N_A, 4 * M,
                                 deq_label=deq, gen_label="f1")
    return ring, gen, steps


def _build_a3_deq(N, M):
    base = ade_ring("A", 3)
    ring, gen, steps = _assemble(base, "A_3", 8 * M,
                                 deq_label="(f2,%d)" % (4 * M), gen_label="f1")
    return ring, gen, steps


def _build_d_even(N, M):
    base = ade_ring("D", 2 * N)
    ring, gen, steps = _assemble(base, "D_%d" % (2 * N), 2 * M, gen_label="f1")
    return ring, gen, steps


def _build_d4_deq(N, M):
    base = ade_ring("D", 4)
    ring, gen, steps = _assemble(base, "D_4", 18 * M,
                                 deq_label="(P,%d)" % (6 * M), gen_label="f1")
    return ring, gen, steps


def _build_e6(N, M):
    ring, gen, steps = _assemble(ade_ring("E6"), "E_6", 2 * M, gen_label="f1")
    return ring, gen, steps


def _build_e6_deq(N, M):
    ring, gen, steps = _assemble(ade_ring("E6"), "E_6", 4 * M,
                                 deq_label="(Z,%d)" % (2 * M), gen_label="f1")
    return ring, gen, steps


def _build_e8(N, M):
    ring, gen, steps = _assemble(ade_ring("E8"), "E_8", 2 * M, gen_label="f1")
    return ring, gen, steps


def _build_exc4(N, M):
    ring, gen, steps = _assemble(e4_ring(), "E4", 4 * M, gen_label="5")
    return ring, gen, steps


def _build_exc4_deq(N, M):
    ring, gen, steps = _assemble(e4_ring(), "E4", 16 * M,
                                 deq_label="(4,%d)" % (8 * M), gen_label="5")
    return ring, gen, steps


def _build_exc166(N, M):
    ring, gen, steps = _assemble(e166_ring(), "E16,6", 6 * M, gen_label="a0")
    return ring, gen, steps


ROWS = {
    "pointed": dict(display="Vec(Z_M)", factor=1, has_N=False,
                    build=_build_pointed, adjoint=lambda N: pointed_ring(())),
    "a-even": dict(display="ad(A_2N) x Vec(Z_M)", factor=1, has_N=True,
                   min_N=1, default_N=2, build=_build_a_even,
                   adjoint=lambda N: ade_ring("adA", 2 * N)),
    "a-odd": dict(display="[A_{2N+1} x Vec(Z_2M)]_(1,1)", factor=2, has_N=True,
                  min_N=1, default_N=2, build=_build_a_odd,
                  adjoint=lambda N: ade_ring("adA", 2 * N + 1)),
    "a-odd-deq-1": dict(display="[A_{4N+1} x Vec(Z_4M)]_(1,1) / <f^(4N) x 2M>",
                        factor=2, has_N=True, min_N=1, default_N=1,
                        build=lambda N, M: _build_a_odd_deq(4 * N + 1, M),
                        adjoint=lambda N: ade_ring("adA", 4 * N + 1)),
    "a-odd-deq-3": dict(display="[A_{4N+3} x IVec(Z_4M)]_(1,1) / <f^(4N+2) x 2M>",
                        factor=2, has_N=True, min_N=1, default_N=1,
                        build=lambda N, M: _build_a_odd_deq(4 * N + 3, M),
                        adjoint=lambda N: ade_ring("adA", 4 * N + 3)),
    "a3-deq": dict(display="[A_3 x IVec(Z_8M)]_(1,1) / <f^(2) x 4M>", factor=4,
                   has_N=False, build=_build_a3_deq,
                   adjoint=lambda N: ade_ring("adA", 3)),
    "d-even": dict(display="[D_2N x Vec(Z_2M)]_(1,1)", factor=2, has_N=True,
                   min_N=2, default_N=3, build=_build_d_even,
                   adjoint=lambda N: ade_ring("adD", 2 * N)),
    "d4-deq": dict(display="[D_4 x Vec(Z_18M)]_(1,1) / <P x 6M>", factor=6,
                   has_N=False, build=_build_d4_deq,
                   adjoint=lambda N: ade_ring("adD", 4)),
    "e6": dict(display="[E_6 x Vec(Z_2M)]_(1,1)", factor=2, has_N=False,
               build=_build_e6, adjoint=lambda N: ade_ring("adE6")),
    "e6-deq": dict(display="[E_6 x IVec(Z_4M)]_(1,1) / <Z x 2M>", factor=2,
                   has_N=False, build=_build_e6_deq,
                   adjoint=lambda N: ade_ring("adE6")),
    "e8": dict(display="[E_8 x Vec(Z_2M)]_(1,1)", factor=2, has_N=False,
               build=_build_e8, adjoint=lambda N: ade_ring("adE8")),
    "exc4": dict(display="[E4 x Vec(Z_4M)]_(1,1)", factor=4, has_N=False,
                 build=_build_exc4, adjoint=lambda N: ade_ring("adA", 7)),
    "exc4-deq": dict(display="[E4 x IVec(Z_16M)]_(1,1) / <4 x 8M>", factor=8,
                     has_N=False, build=_build_exc4_deq,
                     adjoint=lambda N: ade_ring("adA", 7)),
    "exc166": dict(display="[E16,6 x Vec(Z_6M)]_(1,1)", factor=6, has_N=False,
                   build=_build_exc166, adjoint=lambda N: ade_ring("adD", 10)),
}


def expected_adjoint(spec):
    """The adjoint ADE ring a row's construction must restrict to."""
    if not isinstance(spec, TheoremRowSpec):
        spec = TheoremRowSpec(spec)
    return ROWS[spec.row]["adjoint"](spec.N)


def theorem_row(spec, M=None, N=None):
    """Build one classification-table row as a fusion ring.

    Accepts a TheoremRowSpec or a row identifier plus M (and N where the
    row has one).  Returns a RowBuild with the ring, the index of the
    designated generator of dimension < 2, and a provenance record.
    """
    if not isinstance(spec, TheoremRowSpec):
        spec = TheoremRowSpec(spec, M=1 if M is None else M, N=N)
    info = ROWS[spec.row]
    ring, gen, steps = info["build"](spec.N, spec.M)
    provenance = {
        "row": spec.row,
        "category": info["display"],
        "params": {"M": spec.M} if spec.N is None else {"N": spec.N, "M": spec.M},
        "grading_order": spec.grading_order,
        "generator": ring.labels[gen],
        "steps": steps,
    }
    return RowBuild(ring, gen, provenance)
