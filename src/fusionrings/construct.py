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

pointed_ring, the A_N rings, deligne_product and the table rows compute the
nonzero triples of their ring with numpy and hand them to
FusionRing.from_triples as one (4, nnz) array, kept where it comes in order
and read-only: none allocates the dense tensor of its result, and each first
checks the arrays it holds at its peak with ring.check_dense (the solver
makes the other rings from their tensors).  Table rows [C x Vec(Z_n)]_(1,1)
never form the product: each N_xy^z of C goes to ((x,g), (y,h), (z,g+h))
over the diagonal-degree pairs of x and y, in the product's lexicographic
order, and the (1,1) support, generated by subring_generated, is every pair
unless ring.restrict must cut it out.  A row with a free quotient sums its
orbit ring from the same triples.  The tests check the constructions against
the dense ones they replaced.  Gradings are built as degree arrays, and the
diagonal degrees are read off a table over their group.
"""

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .abelian import FiniteAbelianGroup, quotient_with_map
from .errors import (
    DegenerateGradeError,
    FixedPointError,
    InconsistentGradingError,
    MalformedRingError,
    NotASubgroupError,
    UnknownFamilyError,
    as_integer,
)
from .graphs import components, dynkin, perron_vector
from .ring import (
    FusionRing,
    Grading,
    adjoint_subring,
    check_dense,
    check_index,
    fp_dims,
    grading_violations,
    restrict,
    subring_generated,
    universal_grading,
)
from .solve import PartialRing, complete_partial_ring, unique_ring_from_graph


def pointed_ring(group):
    """The group ring of a finite abelian group, fully graded by itself.

    Basis = group elements, fusion = group law, dual = inverse.
    """
    if not isinstance(group, FiniteAbelianGroup):
        group = FiniteAbelianGroup(group)
    orders = np.array(group.orders, dtype=np.int64)
    n = int(orders.prod())
    # the elements in the order of group.elements(), and the index of each
    # row of coordinates mod orders, in mixed radix
    els = np.indices(group.orders).reshape(len(orders), n).T
    radix = np.array([orders[c + 1:].prod() for c in range(len(orders))], dtype=np.int64)
    # at the peak: t's four rows and one more array of n * n, and els[i], els[j]
    # and their sum (3 per factor).  t is in order and read-only: it is kept
    check_dense((5 + 3 * len(orders)) * n * n)
    t = np.ones((4, n * n), dtype=np.int64)
    np.divmod(np.arange(n * n), n, out=(t[0], t[1]))
    np.matmul((els[t[0]] + els[t[1]]) % orders, radix, out=t[2])
    t.setflags(write=False)
    if len(orders) == 1:
        labels = [str(e) for e in els[:, 0].tolist()]
    elif not len(orders):
        labels = ["0"]
    else:
        labels = ["(" + ",".join(map(str, e)) + ")" for e in els.tolist()]
    return FusionRing.from_triples(labels, 0, -els % orders @ radix, t, Grading(group.orders, els))


def _a_ring(n):
    # sl_2 level n-1 truncation: a (x) b = |a-b|, |a-b|+2, ..., min(a+b, 2(n-1)-a-b)
    a, b = np.divmod(np.arange(n * n), n)
    lo = np.abs(a - b)
    count = (np.minimum(a + b, 2 * (n - 1) - a - b) - lo) // 2 + 1
    nnz = int(count.sum())
    # the peak holds a, b, lo, count, the four rows of t and one temporary
    # row, or from_triples' key and its order test: t is filled in
    # lexicographic order and made read-only, so from_triples keeps it
    check_dense(4 * n * n + 5 * nnz + nnz // 8)
    t = np.empty((4, nnz), dtype=np.int64)
    t[0] = np.repeat(a, count)
    t[1] = np.repeat(b, count)
    # each pair's run is lo, lo + 2, ...: 2 * (place - start of the run) + lo
    t[2] = np.repeat(lo - 2 * (np.cumsum(count) - count), count)
    t[2] += np.arange(0, 2 * nnz, 2)
    t[3] = 1
    t.setflags(write=False)
    return FusionRing.from_triples(["f%d" % m for m in range(n)], 0, np.arange(n), t,
                                   Grading((2,), np.arange(n)[:, None] % 2))


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


@lru_cache(maxsize=None)
def ade_ring(family, size=None):
    """The fusion ring of an ADE family, or of its adjoint subring.

    family in {A, D, E6, E8, adA, adD, adE6, adE8}; size is the Dynkin
    subscript (rank of the A/D graph), an integer, required for A and D.
    """
    fam = str(family)
    size = None if size is None else as_integer(size, UnknownFamilyError)
    if fam in ("adA", "adD", "adE6", "adE8"):
        # the adjoint subring of the cached ring, trivially graded inside its extension
        ring = ade_ring(fam[2:], size)
        idx = adjoint_subring(ring)
        return restrict(ring, idx, Grading((), [()] * len(idx)))
    if fam == "A":
        if size is None or size < 2:
            raise UnknownFamilyError("A_N needs a size N >= 2")
        return _a_ring(size)
    if fam == "D":
        if size is None or size < 4 or size % 2:
            raise UnknownFamilyError("D_2N needs an even size 2N >= 4")
        return _d_ring(size)
    if fam == "E6":
        if size not in (None, 6):
            raise UnknownFamilyError("E6 has no free size")
        return _e6_ring()
    if fam == "E8":
        if size not in (None, 8):
            raise UnknownFamilyError("E8 has no free size")
        return _e8_ring()
    raise UnknownFamilyError("unknown family %r" % (family,))


def deligne_product(a, b):
    """The product ring on pairs of simples, with componentwise fusion.

    The grading is the product grading when both factors carry one.
    """
    ra, rb = a.rank, b.rank
    ta, tb = a.triples, b.triples
    na, nb = ta.shape[1], tb.shape[1]
    # at the peak, about 9 arrays of na * nb: the four rows of t, and
    # from_triples' order and sorted copy of t
    check_dense(10 * na * nb)
    labels = ["(%s,%s)" % (la, lb) for la in a.labels for lb in b.labels]
    grading = None
    if a.grading is not None and b.grading is not None:
        deg = np.concatenate([np.repeat(a.grading.deg, rb, axis=0),
                              np.tile(b.grading.deg, (ra, 1))], axis=1)
        grading = Grading(a.grading.orders + b.grading.orders, deg)
    # triple (ea, eb) is N_{(ia,ib),(ja,jb)}^{(ka,kb)} = va vb
    t = np.stack([np.repeat(x, nb) * rb + np.tile(y, na) for x, y in zip(ta[:3], tb[:3])]
                 + [np.repeat(ta[3], nb) * np.tile(tb[3], na)])
    dual = np.add.outer(a.dual * rb, b.dual).ravel()
    return FusionRing.from_triples(labels, a.unit * rb + b.unit, dual, t, grading)


def one_one_subring(ring, grading):
    """Subring generated by the simples of diagonal degree (1,1,...).

    The grading is supplied explicitly (it may be coarser than universal);
    it is checked for multiplicativity.  The support is cut out by
    ring.restrict, which checks its closure.  The result carries the
    induced cyclic grading by Z_lcm of the factor orders.
    """
    if len(grading.deg) != ring.rank:
        raise MalformedRingError("grading does not match the ring's rank")
    if not grading.orders:
        raise MalformedRingError("grading must have at least one cyclic factor")
    _check_multiplicative(ring, grading)
    diag = _diagonal_index(grading.orders, grading.deg)
    return restrict(ring, *_diagonal_subring(ring, grading.orders, diag))


def _check_multiplicative(ring, grading):
    bad = grading_violations(ring, grading)
    if bad:
        raise InconsistentGradingError("grading is not multiplicative at (%s, %s, %s)"
                                       % tuple(ring.labels[x] for x in bad[0]))


def _diagonal_index(orders, deg):
    # each degree row's a < lcm with row = (a mod o)_o, on the diagonal
    # cyclic subgroup, and -1 off it: read off a table over the whole group
    check_dense(math.prod(orders))
    table = np.full(orders, -1)
    a = np.arange(math.lcm(*orders))
    table[tuple(Grading(orders, np.repeat(a[:, None], len(orders), axis=1)).deg.T)] = a
    return table[tuple(deg.T)]


def _diagonal_subring(ring, orders, diag):
    # one_one_subring past its checks, for a product grading with these
    # orders and each simple's _diagonal_index: the indices of the support
    # generated from degree (1,1,...), and its grading by Z_lcm
    lcm = math.lcm(*orders)
    seeds = np.flatnonzero(diag == 1 % lcm)
    if not len(seeds):
        raise DegenerateGradeError("no simples of degree (1,1)")
    inside = list(subring_generated(ring, seeds))
    if (diag[inside] < 0).any():
        raise InconsistentGradingError("the subring leaves the diagonal cyclic subgroup")
    return inside, Grading((lcm,), diag[inside, None])


def _tile_blocks(first, size, q):
    # blocks [first, first + size) of an array, in order, each written out q
    # times in a row: each entry's index into the array, and the length of
    # each run (block by block, and time by time within a block)
    run = np.repeat(size, q)
    src = np.repeat(np.repeat(first, q) - (np.cumsum(run) - run), run) + np.arange(run.sum())
    return src, run


def _one_one_product(base, n):
    # one_one_subring(deligne_product(base, pointed_ring(Z_n))), built from
    # its nonzero triples, filled on the pairs (x, g) of diagonal degree:
    # N_{(x,g),(y,h)}^{(z,k)} = N_{xy}^z [g+h = k].  The product grading is
    # multiplicative exactly when base.grading is.  The ring carries the
    # Z_lcm grading and is returned as it is when the support generated from
    # degree 1 is every pair (a trivially graded base pairs with every g).
    _check_multiplicative(base, base.grading)
    orders = base.grading.orders + (n,)
    xs, gs = np.divmod(np.arange(base.rank * n), n)
    diag = _diagonal_index(orders, np.column_stack([base.grading.deg[xs], gs]))
    on = diag >= 0
    xs, gs, diag = xs[on], gs[on], diag[on]
    pos = np.full((base.rank, n), -1)
    pos[xs, gs] = np.arange(len(xs))
    # a simple with a diagonal pair has the same number q of them (one coset
    # of a subgroup of Z_n); row[x] numbers those simples, cols their pairs
    q = len(xs) // len(np.unique(xs))
    cols = np.arange(len(xs)).reshape(-1, q)
    row = np.full(base.rank, -1)
    row[xs[::q]] = np.arange(len(cols))
    # each nonzero N_xy^z goes to ((x,g), (y,h), (z,g+h)) over the pairs of x
    # and y; multiplicativity and the diagonal being a subgroup make every
    # (z, g+h) a pair, and distinct (x, g, y, h, z) give distinct triples.
    # The base's come sorted by (x, y, z), so they are written in the
    # product's lexicographic (x, g, y, h, z) order: first each (x, y) block
    # once per h, with each entry's pair (y, h)
    t = base.triples
    i, j, k, v = t[:, (row[t[0]] >= 0) & (row[t[1]] >= 0)]
    # each goes to q * q triples: at the peak at, out and out[2]'s four temporaries
    # per product triple, i, j, k, v per base one and e, b, k, v per tiled one
    check_dense((9 * q * q + 4 * q + 4) * len(i))
    xy = np.flatnonzero(np.diff(i * base.rank + j, prepend=-1))
    e, run = _tile_blocks(xy, np.diff(xy, append=len(i)), q)
    b = cols[row[j[e]], np.repeat(np.tile(np.arange(q), len(xy)), run)]
    k, v = k[e], v[e]
    # then each x's run of those once per g, with each run's pair (x, g)
    x = np.flatnonzero(np.diff(i, prepend=-1))
    at, run = _tile_blocks(q * x, q * np.diff(x, append=len(i)), q)
    # into one read-only array, which from_triples keeps as it is
    out = np.empty((4, len(at)), dtype=np.int64)
    out[0] = np.repeat(cols[row[i[x]]].ravel(), run)
    np.take(b, at, out=out[1])
    out[2] = pos[k[at], (gs[out[0]] + gs[out[1]]) % n]
    np.take(v, at, out=out[3])
    out.setflags(write=False)
    labels = ["(%s,%s)" % (base.labels[x], g) for x, g in zip(xs.tolist(), gs.tolist())]
    ring = FusionRing.from_triples(labels, pos[base.unit, 0], pos[base.dual[xs], -gs % n],
                                   out, Grading((math.lcm(*orders),), diag[:, None]))
    inside, grading = _diagonal_subring(ring, orders, diag)
    return ring if len(inside) == ring.rank else restrict(ring, inside, grading)


def dequiv_free(ring, h):
    """Quotient by the orbits of a freely acting subgroup of invertibles.

    h lists generators (labels, or indices under ring.check_index); the
    subgroup is their closure.
    The orbit ring has N_[i][j]^[k] = sum over the subgroup of N_ij^{g.k}.
    Raises FixedPointError naming the fixed simple if the action is not
    free, and NotASubgroupError if a generator is not invertible.
    """
    return _dequiv(ring, h)[0]


def _dequiv(ring, h):
    # dequiv_free read off ring.triples, and the index of each simple's orbit
    i, j, k, v = ring.triples
    gens = [check_index(ring, x) if isinstance(x, (int, np.integer)) else ring.index(x) for x in h]
    for g in gens:
        # g is invertible when g (x) g* is exactly the unit
        own = (i == g) & (j == ring.dual[g])
        if own.sum() != 1 or k[own][0] != ring.unit or v[own][0] != 1:
            raise NotASubgroupError(
                "%s is not invertible, so it generates no subgroup of the "
                "invertibles" % ring.labels[g])

    def moves(simples):
        # row e: x -> the (one) constituent of simples[e] (x) x, for invertibles
        row = np.full(ring.rank, -1)
        row[simples] = np.arange(len(simples))
        on = row[i] >= 0
        out = np.zeros((len(simples), ring.rank), dtype=np.intp)
        out[row[i[on]], j[on]] = k[on]
        return out

    # the subgroup the generators span is the unit's orbit under their moves
    step = moves(np.unique(np.array(gens, dtype=np.intp)))
    label = components(ring.rank, np.broadcast_to(np.arange(ring.rank), step.shape), step)
    H = np.flatnonzero(label == label[ring.unit])
    perms = moves(H)
    fixed = np.argwhere((perms == np.arange(ring.rank)) & (H != ring.unit)[:, None])
    if len(fixed):
        g, x = H[fixed[0][0]], fixed[0][1]
        raise FixedPointError(
            "invertible %s fixes %s" % (ring.labels[g], ring.labels[x]),
            invertible=ring.labels[g], fixed=ring.labels[x])
    # each orbit is represented by its least simple.  The action is free, so
    # the orbit of k meets h.k once for each h in H, and N_[i][j]^[k] sums
    # N_ij^l over the triples with i, j representatives into l's orbit
    reps, orbit_of = np.unique(perms.min(axis=0), return_inverse=True)
    is_rep = np.zeros(ring.rank, dtype=bool)
    is_rep[reps] = True
    on = is_rep[i] & is_rep[j]
    r = len(reps)
    key = (orbit_of[i[on]] * r + orbit_of[j[on]]) * r + orbit_of[k[on]]
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))  # each orbit triple's first term
    ij, ok = np.divmod(key[first], r)
    t = np.stack((*np.divmod(ij, r), ok, np.add.reduceat(v[on][order], first)))
    t.setflags(write=False)  # in order, with positive sums: from_triples keeps it
    dual = orbit_of[ring.dual[reps]]
    labels = ["[%s]" % ring.labels[i] for i in reps]
    grading = None
    if ring.grading is not None:
        deg = ring.grading.deg.tolist()
        group, f = quotient_with_map(ring.grading.orders, [deg[g] for g in H.tolist()])
        grading = Grading(group.orders, np.array([f(deg[i]) for i in reps.tolist()],
                                                 dtype=np.int64).reshape(r, len(group.orders)))
    quotient = FusionRing.from_triples(labels, orbit_of[ring.unit], dual, t, grading)
    return quotient, orbit_of.tolist()


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
    known = {ijk: int(n) for ijk, n in np.ndenumerate(d10.tensor)}
    partial = PartialRing(labels, 0, dims, Grading((3,), deg), known=known)
    ring = complete_partial_ring(partial).class_representatives()[0]
    # regrade by the universal grading, whose normal form gives a0 degree 1
    g = universal_grading(ring)
    a0 = tuple(g.deg[ring.index("a0")].tolist())
    if g.orders != (6,) or a0 != (1,):
        raise InconsistentGradingError("expected a universal Z_6 grading with a0 of "
                                       "degree (1,), got %s with %r" % (g.group, a0))
    return FusionRing.from_triples(ring.labels, ring.unit, ring.dual, ring.triples, g)


# ---------------------------------------------------------------------------
# classification-table rows


# One recipe per row.  Every row but pointed is [C x Vec(Z_nM)]_(1,1); a row
# with quotient = (s, k) is then divided by the free subgroup generated by
# (s, kM).  base(N) gives C and its display name, gen(N) the simple x of C
# whose (x, 1) is the generator, and s(N) a simple of C; pointed is Vec(Z_nM)
# itself.  N is None or (least N, default N), and adjoint(N) is the ring the
# row's adjoint subring must be isomorphic to.  The grading group is Z_nM, or
# Z_nM / <kM> = Z_kM for a quotient row: its order per unit of M is k or n.
RowRecipe = namedtuple("RowRecipe", "display base n adjoint gen quotient N",
                       defaults=(lambda N: "f1", None, None))

ROWS = {
    "pointed": RowRecipe("Vec(Z_M)", base=None, n=1, gen=None,
                         adjoint=lambda N: pointed_ring(())),
    "a-even": RowRecipe("ad(A_2N) x Vec(Z_M)", N=(1, 2), n=1,
                        base=lambda N: (ade_ring("adA", 2 * N), "ad(A_%d)" % (2 * N)),
                        gen=lambda N: "f%d" % (2 * N - 2),
                        adjoint=lambda N: ade_ring("adA", 2 * N)),
    "a-odd": RowRecipe("[A_{2N+1} x Vec(Z_2M)]_(1,1)", N=(1, 2), n=2,
                       base=lambda N: (ade_ring("A", 2 * N + 1), "A_%d" % (2 * N + 1)),
                       adjoint=lambda N: ade_ring("adA", 2 * N + 1)),
    "a-odd-deq-1": RowRecipe("[A_{4N+1} x Vec(Z_4M)]_(1,1) / <f^(4N) x 2M>",
                             N=(1, 1), n=4, quotient=(lambda N: "f%d" % (4 * N), 2),
                             base=lambda N: (ade_ring("A", 4 * N + 1), "A_%d" % (4 * N + 1)),
                             adjoint=lambda N: ade_ring("adA", 4 * N + 1)),
    "a-odd-deq-3": RowRecipe("[A_{4N+3} x IVec(Z_4M)]_(1,1) / <f^(4N+2) x 2M>",
                             N=(1, 1), n=4, quotient=(lambda N: "f%d" % (4 * N + 2), 2),
                             base=lambda N: (ade_ring("A", 4 * N + 3), "A_%d" % (4 * N + 3)),
                             adjoint=lambda N: ade_ring("adA", 4 * N + 3)),
    "a3-deq": RowRecipe("[A_3 x IVec(Z_8M)]_(1,1) / <f^(2) x 4M>", n=8,
                        base=lambda N: (ade_ring("A", 3), "A_3"), quotient=(lambda N: "f2", 4),
                        adjoint=lambda N: ade_ring("adA", 3)),
    "d-even": RowRecipe("[D_2N x Vec(Z_2M)]_(1,1)", N=(2, 3), n=2,
                        base=lambda N: (ade_ring("D", 2 * N), "D_%d" % (2 * N)),
                        adjoint=lambda N: ade_ring("adD", 2 * N)),
    "d4-deq": RowRecipe("[D_4 x Vec(Z_18M)]_(1,1) / <P x 6M>", n=18,
                        base=lambda N: (ade_ring("D", 4), "D_4"), quotient=(lambda N: "P", 6),
                        adjoint=lambda N: ade_ring("adD", 4)),
    "e6": RowRecipe("[E_6 x Vec(Z_2M)]_(1,1)", n=2,
                    base=lambda N: (ade_ring("E6"), "E_6"), adjoint=lambda N: ade_ring("adE6")),
    "e6-deq": RowRecipe("[E_6 x IVec(Z_4M)]_(1,1) / <Z x 2M>", n=4,
                        base=lambda N: (ade_ring("E6"), "E_6"), quotient=(lambda N: "Z", 2),
                        adjoint=lambda N: ade_ring("adE6")),
    "e8": RowRecipe("[E_8 x Vec(Z_2M)]_(1,1)", n=2,
                    base=lambda N: (ade_ring("E8"), "E_8"), adjoint=lambda N: ade_ring("adE8")),
    "exc4": RowRecipe("[E4 x Vec(Z_4M)]_(1,1)", n=4, gen=lambda N: "5",
                      base=lambda N: (e4_ring(), "E4"), adjoint=lambda N: ade_ring("adA", 7)),
    "exc4-deq": RowRecipe("[E4 x IVec(Z_16M)]_(1,1) / <4 x 8M>", n=16,
                          gen=lambda N: "5", quotient=(lambda N: "4", 8),
                          base=lambda N: (e4_ring(), "E4"), adjoint=lambda N: ade_ring("adA", 7)),
    "exc166": RowRecipe("[E16,6 x Vec(Z_6M)]_(1,1)", n=6, gen=lambda N: "a0",
                        base=lambda N: (e166_ring(), "E16,6"),
                        adjoint=lambda N: ade_ring("adD", 10)),
}


class TheoremRowSpec:
    """One row of the classification table, with its parameters.

    row is one of the identifiers in ROWS; M >= 1 scales the grading group;
    N is required exactly for the rows with a free family parameter.  M and
    N must be integers (Python or numpy); any other value raises ValueError.
    """

    def __init__(self, row, M=1, N=None):
        if row not in ROWS:
            raise UnknownFamilyError("unknown classification row %r" % (row,))
        self.row = row
        self.M = as_integer(M, ValueError)
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if ROWS[row].N is None:
            if N is not None:
                raise ValueError("row %s takes no N parameter" % row)
            self.N = None
        else:
            min_N, default_N = ROWS[row].N
            self.N = default_N if N is None else as_integer(N, ValueError)
            if self.N < min_N:
                raise ValueError("row %s needs N >= %d" % (row, min_N))

    @classmethod
    def coerce(cls, spec, M=None, N=None):
        """The spec named by a TheoremRowSpec, a (row, M[, N]) tuple, or a
        row identifier with M (default 1) and N.

        M and N may only come with a row identifier; given alongside a spec
        or a tuple they raise ValueError instead of being ignored.
        """
        if isinstance(spec, (cls, tuple)):
            if M is not None or N is not None:
                raise ValueError("%r already fixes M and N" % (spec,))
            return spec if isinstance(spec, cls) else cls(*spec)
        return cls(spec, M=1 if M is None else M, N=N)

    @classmethod
    def at_order(cls, row, order, N=None):
        """The spec for ``row`` whose grading group is Z_order.

        N is applied only when the row takes one.
        """
        if row not in ROWS:
            raise UnknownFamilyError("unknown classification row %r" % (row,))
        factor = cls(row).grading_order
        if order % factor:
            raise ValueError(
                "row %s only realizes grading orders divisible by %d" % (row, factor))
        return cls(row, M=order // factor, N=N if ROWS[row].N else None)

    @property
    def grading_order(self):
        recipe = ROWS[self.row]
        return (recipe.quotient[1] if recipe.quotient else recipe.n) * self.M

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


def expected_adjoint(spec):
    """The adjoint ADE ring a row's construction must restrict to."""
    spec = TheoremRowSpec.coerce(spec)
    return ROWS[spec.row].adjoint(spec.N)


def theorem_row(spec, M=None, N=None):
    """Build one classification-table row as a fusion ring.

    Accepts what TheoremRowSpec.coerce accepts.  Returns a RowBuild with the
    ring, the index of the designated generator of dimension < 2, and a
    provenance record.
    """
    spec = TheoremRowSpec.coerce(spec, M, N)
    recipe = ROWS[spec.row]
    n = recipe.n * spec.M
    if recipe.base is None:
        ring = pointed_ring(FiniteAbelianGroup.cyclic(n))
        gen = ring.index("1") if n > 1 else ring.unit
        steps = ["pointed_ring(Z_%d)" % n]
    else:
        base, name = recipe.base(spec.N)
        one_one = _one_one_product(base, n)
        gen = one_one.labels.index("(%s,%d)" % (recipe.gen(spec.N), 1 % n))
        steps = ["deligne_product(%s, Vec(Z_%d))" % (name, n),
                 "one_one_subring over %s"
                 % " x ".join("Z_%d" % o for o in base.grading.orders + (n,))]
        if recipe.quotient is None:
            ring = one_one
        else:
            label, k = recipe.quotient
            simple = "(%s,%d)" % (label(spec.N), k * spec.M)
            ring, orbit_of = _dequiv(one_one, [simple])
            gen = orbit_of[gen]
            steps.append("dequiv_free by <%s>" % simple)
    provenance = {
        "row": spec.row,
        "category": recipe.display,
        "params": {"M": spec.M} if spec.N is None else {"N": spec.N, "M": spec.M},
        "grading_order": spec.grading_order,
        "generator": ring.labels[gen],
        "steps": steps,
    }
    return RowBuild(ring, gen, provenance)
