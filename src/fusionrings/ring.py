"""Fusion rings and their intrinsic computations.

A fusion ring is a based Z_{>=0}-ring: a free Z-module on a finite basis
(the "simples") with structure constants N_{ij}^k >= 0, a unit basis element,
and a dual involution * satisfying N_{ij}^{unit} = delta_{j, i*} and Frobenius
reciprocity N_{ij}^k = N_{i* k}^j = N_{k j*}^i.  This module holds the ring
type and every intrinsic computation: axiom verification, Frobenius-Perron
dimensions, word decompositions and K-normality, generated subrings, the
adjoint subring, invertible objects, the universal grading, isomorphism
search, and fusion graphs.  It also holds the package's one associativity
kernel (associativity_sides over a grading's kept GradedInstances layout,
shared with the solver), its one degree test (Grading.nonzero), its one
dense-size guard (check_dense) and its one 2**53 guard (check_exact_sums).

A ring is stored as its nonzero triples, and everything an audit asks of it
allocates at most rank x rank arrays besides them.  Only verify_axioms and
find_isomorphisms here, and the solver, read the dense rank^3 ring.tensor.

All operations are pure; rings are immutable after construction.
"""

from collections import namedtuple

import numpy as np

from . import config
from .abelian import FiniteAbelianGroup, table_group
from .errors import (
    BoundsExceededError,
    InconsistentGradingError,
    MalformedRingError,
    NonConvergenceError,
    as_integer,
)
from .graphs import Digraph, components, isomorphisms, perron_vector, unique_rows


class Grading:
    """A group grading: cyclic factor orders plus a degree per simple.

    ``deg`` is a read-only (rank, len(orders)) int64 array, column c mod
    orders[c], given as an integer array or as degree tuples (read one
    coordinate at a time: no bools or floats, ints of any size).  Degrees
    are tested through ``nonzero``; ``layout`` is kept once built.
    """

    __slots__ = ("orders", "deg", "_layout")

    def __init__(self, orders, deg):
        self.orders = tuple(as_integer(o, MalformedRingError) for o in orders)
        # a sum of two degrees must stay inside int64
        if any(not 1 <= o < 1 << 62 for o in self.orders):
            raise MalformedRingError("grading orders must be >= 1 and below 2**62")
        f = len(self.orders)
        if not isinstance(deg, np.ndarray):
            deg = [tuple(d) for d in deg]
            if any(len(d) != f for d in deg):
                raise MalformedRingError("degree arity does not match orders")
            deg = np.array([[as_integer(c, MalformedRingError) % o for c, o in zip(d, self.orders)]
                            for d in deg], dtype=np.int64).reshape(len(deg), f)
        if deg.dtype.kind not in "iu" or not np.can_cast(deg.dtype, np.int64):
            raise MalformedRingError("expected an integer degree array, got %s" % deg.dtype)
        if deg.ndim != 2 or deg.shape[1] != f:
            raise MalformedRingError("degree arity does not match orders")
        self.deg = deg.astype(np.int64) % np.array(self.orders, dtype=np.int64)
        self.deg.setflags(write=False)
        self._layout = None

    @property
    def group(self):
        return FiniteAbelianGroup(self.orders)

    def nonzero(self, d):
        """Which rows of an integer array of degree combinations, shape
        (..., len(orders)), are not the zero of the group."""
        return (d % np.array(self.orders, dtype=np.int64)).any(axis=-1)

    @property
    def layout(self):
        if self._layout is None:
            self._layout = GradedInstances(self)
        return self._layout

    def __eq__(self, other):
        if not isinstance(other, Grading):
            return NotImplemented
        return self.orders == other.orders and np.array_equal(self.deg, other.deg)

    def __repr__(self):
        return "Grading(orders=%r, rank=%d)" % (self.orders, len(self.deg))


def check_dense(entries):
    """Raise BoundsExceededError, before anything is allocated, if a dense
    array of ``entries`` 8-byte cells, or arrays of that many in all, would
    pass config.MAX_DENSE_BYTES."""
    if 8 * entries > config.MAX_DENSE_BYTES:
        raise BoundsExceededError("a dense array of %d 8-byte entries is past "
                                  "config.MAX_DENSE_BYTES" % entries)


def check_exact_sums(rank, bound):
    """Raise BoundsExceededError unless float64 sums of ``rank`` products of
    two integers in [0, bound] are exact, i.e. rank * bound**2 < 2**53."""
    if rank * bound ** 2 >= 2 ** 53:
        raise BoundsExceededError(
            "associativity sums can reach %d * %d**2, past the exact float range 2**53"
            % (rank, bound))


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

    The coefficients are stored as ``triples``, a read-only (4, nnz) int64
    array whose rows i, j, k, v list the nonzero N_{ij}^k = v in
    lexicographic order; both constructors set it.  ``tensor`` is the one
    derived view: the array a ring was made from, or else the dense
    read-only int64 array built from the triples on first read (past
    check_dense) and then kept.

    Construction checks only structure (shapes, involution, nonnegativity);
    the ring axioms are checked by :func:`verify_axioms`.  A read-only
    int64 tensor, dual or from_triples array is kept as given; a writeable
    one is copied, so the caller's array is neither frozen nor shared.
    """

    __slots__ = ("labels", "unit", "dual", "grading", "triples", "_index", "_tensor")

    def __init__(self, labels, unit, dual, tensor, grading=None):
        self._set_structure(labels, unit, dual, grading)
        t = _read_only(tensor)
        if t.shape != (self.rank,) * 3:
            raise MalformedRingError("tensor shape %r does not match rank %d"
                                     % (t.shape, self.rank))
        if t.min(initial=0) < 0:
            raise MalformedRingError("negative fusion coefficient")
        # a flat scan, several times faster than np.nonzero in 3-d
        flat = np.flatnonzero(t)
        ij, k = np.divmod(flat, self.rank)
        self.triples = np.stack((*np.divmod(ij, self.rank), k, t.ravel()[flat]))
        self.triples.setflags(write=False)
        self._tensor = t

    @classmethod
    def from_triples(cls, labels, unit, dual, triples, grading=None):
        """The ring with N_{i[e] j[e]}^{k[e]} = v[e] and every other coefficient 0,
        from a (4, n) integer array of rows i, j, k, v in any order; zeros are
        dropped.  As for a tensor or dual, a read-only, C-contiguous int64
        array, here in lexicographic order and with no zero, is kept as
        ring.triples (the call allocates one int64 key and one boolean array
        of length n); any other gives a sorted, zero-free, read-only copy.
        """
        ring = cls.__new__(cls)
        ring._set_structure(labels, unit, dual, grading)
        r = ring.rank
        try:
            t = np.asarray(triples)
        except ValueError:  # a ragged list
            t = None
        if t is None or t.ndim != 2 or len(t) != 4 or t.size and t.dtype.kind not in "iu":
            raise MalformedRingError("triples must be a (4, n) integer array")
        keep = t.dtype == np.int64 and t.flags.c_contiguous and not t.flags.writeable
        t = t.astype(np.int64, copy=False)
        i, j, k, v = t
        if t[:3].min(initial=0) < 0 or t[:3].max(initial=0) >= r:
            raise MalformedRingError("triple index out of range")
        if v.min(initial=0) < 0:
            raise MalformedRingError("negative fusion coefficient")
        key = i * r  # in place from here on: one array of n
        key += j
        key *= r
        key += k
        order = None if (key[1:] > key[:-1]).all() else np.argsort(key, kind="stable")
        if order is not None and (np.diff(key[order]) == 0).any():
            raise MalformedRingError("repeated triple")
        del key
        if order is None and keep and v.all():
            ring.triples = t
            return ring
        order = np.flatnonzero(v) if order is None else order[v[order] != 0]
        ring.triples = np.take(t, order, axis=1)
        ring.triples.setflags(write=False)
        return ring

    def _set_structure(self, labels, unit, dual, grading):
        labels = tuple(str(x) for x in labels)
        rank = len(labels)
        if len(set(labels)) != rank:
            raise MalformedRingError("labels must be distinct")
        dual = _read_only(dual)
        if dual.shape != (rank,) or sorted(dual.tolist()) != list(range(rank)):
            raise MalformedRingError("dual must be a permutation of the indices")
        if (dual[dual] != np.arange(rank)).any():
            raise MalformedRingError("dual is not an involution")
        unit = as_integer(unit, MalformedRingError)
        if not 0 <= unit < rank:
            raise MalformedRingError("unit index out of range")
        if dual[unit] != unit:
            raise MalformedRingError("dual must fix the unit")
        if grading is not None and len(grading.deg) != rank:
            raise MalformedRingError("grading degree list does not match rank")
        self.labels = labels
        self.unit = unit
        self.dual = dual
        self.grading = grading
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._tensor = None

    @property
    def tensor(self):
        if self._tensor is None:
            check_dense(self.rank ** 3)
            self._tensor = np.zeros((self.rank,) * 3, dtype=np.int64)
            self._tensor[tuple(self.triples[:3])] = self.triples[3]
            self._tensor.setflags(write=False)
        return self._tensor

    @property
    def rank(self):
        return len(self.labels)

    def index(self, label):
        return self._index[label]

    def __eq__(self, other):
        if not isinstance(other, FusionRing):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.unit == other.unit
            and np.array_equal(self.dual, other.dual)
            and np.array_equal(self.triples, other.triples)
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


def grading_violations(ring, grading):
    """The (i, j, k) with N_{ij}^k > 0 but deg i + deg j != deg k.

    Any grading of ring's simples may be passed.  Triples come in
    lexicographic order; an empty list means the grading is multiplicative.
    """
    i, j, k = ijk = ring.triples[:3]
    deg = grading.deg
    bad = grading.nonzero(deg[i] + deg[j] - deg[k])
    return [tuple(x) for x in ijk[:, bad].T.tolist()]


class GradedInstances:
    """The associativity instances (i, j, k, l) with deg l = deg i + deg j + deg k.

    When every nonzero N_ij^m has deg m = deg i + deg j, both sides of
    associativity vanish off these instances, and in sum_m N_ij^m N_mk^l
    (sum_m N_jk^m N_im^l) only the m of degree deg i + deg j (deg j + deg k)
    contribute.  The simples are laid out by degree once per grading: block
    e has the pairs (i, j) with deg i + deg j = e as rows, the pairs (k, l)
    with deg l - deg k = e as columns and the simples of degree e as its sum
    index, pairs in increasing order of i * rank + j, so that each side is one
    product per block (associativity_sides): the left side at
    ((i, j), (k, l)), the right side at ((j, k), (i, l)).

    A chunk holds the instances of a range of whole left factors i, block by
    block in the left side's order; its ``targets`` place the right side's
    products there.  The chunk of every instance is built once per layout
    and then kept, as is each grading's layout by Grading.layout.
    """

    def __init__(self, grading):
        r = self.rank = len(grading.deg)
        # one zero column more, so that unique_rows has a column to sort by
        orders = np.array(grading.orders + (1,), dtype=np.int64)
        classes, cls = unique_rows(np.column_stack([grading.deg, np.zeros(r, np.int64)]))
        c = len(classes)
        # the degrees of the simples, of the sums a + b and of the differences
        # b - a of two of them, numbered together ("keys")
        sums = (classes[:, None] + classes[None, :]) % orders
        diffs = (classes[None, :] - classes[:, None]) % orders
        _, key = unique_rows(np.concatenate([classes, sums.reshape(c * c, -1),
                                             diffs.reshape(c * c, -1)]))
        pair = (cls[:, None] * c + cls[None, :]).ravel()
        self.sum_key = key[c:c + c * c][pair]      # of pair (i, j): deg i + deg j
        diff_key = key[c + c * c:][pair]           # of pair (k, l): deg l - deg k
        n_keys = int(key.max()) + 1

        def grouped(keys):
            # the indices grouped by key, each group increasing; where each
            # group starts; and each index's place within its group
            order = np.argsort(keys, kind="stable")
            start = np.zeros(n_keys + 1, dtype=np.int64)
            np.cumsum(np.bincount(keys, minlength=n_keys), out=start[1:])
            place = np.empty(len(keys), dtype=np.int64)
            place[order] = np.arange(len(keys)) - start[keys[order]]
            return order, start, place

        members, m_start, _ = grouped(key[:c][cls])
        self.rows, row_start, self.row_pos = grouped(self.sum_key)
        self.cols, col_start, self.col_pos = grouped(diff_key)
        n_cols = np.diff(col_start)
        kept = np.flatnonzero((np.diff(row_start) > 0) & (n_cols > 0))
        self.block_of = np.full(n_keys + 1, -1)  # the last entry stands for no block
        self.block_of[kept] = np.arange(len(kept))
        self.row_start, self.col_start = row_start[kept], col_start[kept]
        self.block_cols = n_cols[kept]
        self.blocks = [(self.rows[row_start[e]:row_start[e + 1]],
                        self.cols[col_start[e]:col_start[e + 1]],
                        members[m_start[e]:m_start[e + 1]]) for e in kept.tolist()]
        self.pair_size = n_cols[self.sum_key]  # instances per pair (i, j)
        self.size = int(self.pair_size.sum())
        self._whole = None

    def chunks(self, budget=None):
        """Chunks of whole left factors, in order, each of at most ``budget``
        instances or of one left factor, when its instances are more; one
        chunk of every instance when they fit, when budget is None or when
        that chunk is built already."""
        r = self.rank
        if self._whole is not None or budget is None or self.size <= budget:
            if self._whole is None:
                self._whole = self._chunk(0, r)
            yield self._whole
            return
        ends = np.cumsum(self.pair_size.reshape(r, r).sum(axis=1))
        i = 0
        while i < r:
            reach = (ends[i - 1] if i else 0) + budget
            stop = max(int(np.searchsorted(ends, reach, side="right")), i + 1)
            yield self._chunk(i, stop)
            i = stop

    def _chunk(self, i0, i1):
        r = self.rank
        left, right = [], []
        # per block, then 0 at the index -1 that block_of gives pairs in no block
        offsets, firsts = np.zeros((2, len(self.blocks) + 1), dtype=np.int64)
        for b, (rows, cols, _) in enumerate(self.blocks):
            lo, hi = np.searchsorted(rows, [i0 * r, i1 * r])
            left.append((b, slice(lo, hi), offsets[b], (hi - lo) * len(cols)))
            firsts[b] = lo
            offsets[b + 1] = offsets[b] + (hi - lo) * len(cols)
        size = int(offsets[-1])
        offsets[-1] = 0
        # with one degree and one left factor both sides come in one order
        targets = None
        if len(self.blocks) > 1 or i1 - i0 > 1:
            targets = np.empty(size, np.int64)
            # instance (i, j, k, l) sits at base[j, i] + col_pos[k, l]
            b = self.block_of[self.sum_key]
            base = (offsets[b] + (self.row_pos - firsts[b]) * self.pair_size)
            base = base.reshape(r, r).T.copy()
            col_pos = self.col_pos.reshape(r, r)
        at = 0
        for b, (rows, cols, _) in enumerate(self.blocks):
            i, l = np.divmod(cols[np.searchsorted(cols, i0 * r):np.searchsorted(cols, i1 * r)], r)
            if len(i):  # no l may have degree deg i + e
                n = len(rows) * len(i)
                right.append((b, i, l, at, n))
                if targets is not None:
                    j, k = np.divmod(rows, r)
                    np.add(base[:, i][j], col_pos[:, l][k],
                           out=targets[at:at + n].reshape(len(j), -1))
                at += n
        return _Chunk(size, left, right, targets, offsets[:-1],
                      self.row_start + firsts[:-1])

    def instances(self, chunk, positions):
        """(i, j, k, l) arrays of the instances at these positions of a chunk."""
        b = np.searchsorted(chunk.offsets, positions, side="right") - 1
        row, col = np.divmod(positions - chunk.offsets[b], self.block_cols[b])
        i, j = np.divmod(self.rows[chunk.first_row[b] + row], self.rank)
        k, l = np.divmod(self.cols[self.col_start[b] + col], self.rank)
        return i, j, k, l


_Chunk = namedtuple("_Chunk", "size left right targets offsets first_row")


def associativity_sides(layout, x, y, budget=None):
    """Both sides of associativity on a layout's instances, chunk by chunk.

    x and y are (r, r, r) arrays, or (C, r, r, r) stacks summed over the
    first axis too: at instance (i, j, k, l) the left side is
    sum_{c, m} x[c, i, j, m] y[c, m, k, l] and the right side
    sum_{c, m} x[c, j, k, m] y[c, i, m, l], m over the one degree that can
    contribute (exact when x and y vanish off the grading).  Yields
    (chunk, left, right) per chunk of layout.chunks(budget), both sides as
    float64 arrays in the chunk's order, overwritten by the next chunk's.
    Each block is one float64 product per side, exact while its sums stay
    below 2**53 (check_exact_sums).
    """
    r = layout.rank
    same = x is y
    x = np.asarray(x).reshape(-1, r * r, r)
    y = np.asarray(y).reshape(len(x), r, r, r)
    c = np.arange(len(x))
    if layout.size == r ** 4 and len(x) == 1:
        # one degree: the one block is the whole array, read in place through
        # one float64 copy (shared when x is y), from which the right side's
        # factors are gathered too
        xs = [x[0].astype(np.float64, copy=False)]
        y = (xs[0] if same else y[0].astype(np.float64, copy=False)).reshape(1, r, r, r)
        ys = [y.reshape(r, r * r)]
    else:
        # per block: x at ((i, j), (c, m)) and y at ((c, m), (k, l))
        xs = [x[c[:, None], rows[:, None, None], m].reshape(len(rows), -1)
              .astype(np.float64, copy=False) for rows, _, m in layout.blocks]
        ys = [y.reshape(len(x), r, r * r)[c[:, None, None], m[:, None], cols]
              .reshape(-1, len(cols)).astype(np.float64, copy=False)
              for _, cols, m in layout.blocks]
    buf = np.empty(0)  # left, the right side's products and right, reused
    for chunk in layout.chunks(budget):
        size = chunk.size
        need = (2 if chunk.targets is None else 3) * size
        if len(buf) < need:
            buf = np.empty(need)
        left, products = buf[:size], buf[size:2 * size]
        for b, rs, at, n in chunk.left:
            np.matmul(xs[b][rs], ys[b], out=left[at:at + n].reshape(-1, ys[b].shape[1]))
        for b, i, l, at, n in chunk.right:
            z = y[c[:, None, None], i, layout.blocks[b][2][:, None], l].reshape(-1, len(i))
            np.matmul(xs[b], z, out=products[at:at + n].reshape(-1, len(i)))
        if chunk.targets is None:
            right = products
        else:
            right = buf[2 * size:3 * size]
            right[chunk.targets] = products
        yield chunk, left, right


def verify_axioms(ring):
    """Check every fusion-ring axiom; returns an AxiomReport.

    Unit laws, duality (N_{ij}^1 = delta_{j,i*}), Frobenius reciprocity
    (each failing cell once, in (i, j, k) order), associativity (in
    (i, j, k, l) order), and (when a grading is attached) multiplicativity of
    degrees, then degrees of duals and of the unit, in that order.  One pass
    over the left factor i checks both Frobenius identities on r x r slices.
    Associativity is checked by associativity_sides on the instances graded
    by ring.grading, through its kept layout, when no nonzero coefficient
    breaks that grading, and else on all rank^4 instances, those of the
    one-degree grading; in chunks of whole left factors, of at most
    max(r^3 / 4, 2^15) instances or of one left factor, so that the float64
    arrays stay within a few times the tensor.  The products sum nonnegative
    integers up to rank * max(N)**2, so they are exact below 2**53; past it
    check_exact_sums raises BoundsExceededError instead of checking
    inexactly.
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

    for i in range(r):
        # over (j, k): N_ij^k = N_{i* k}^j and N_ij^k = N_{k j*}^i
        bad = (t[i] != t[dual[i]].T) | (t[i] != t[:, dual, i].T)
        if bad.any():
            violations += [("frobenius", (i, int(j), int(k))) for j, k in np.argwhere(bad)]

    g = ring.grading
    graded = [] if g is None else grading_violations(ring, g)
    check_exact_sums(r, int(t.max()))
    check_dense(r ** 3)
    layout = (Grading((), np.empty((r, 0), np.int64)) if g is None or graded else g).layout
    codes = []
    for chunk, left, right in associativity_sides(layout, t, t, max(r ** 3 // 4, 1 << 15)):
        if not np.array_equal(left, right):
            bad = np.flatnonzero(left != right)
            codes.append(np.ravel_multi_index(layout.instances(chunk, bad), (r,) * 4))
    if codes:
        ijkl = np.unravel_index(np.sort(np.concatenate(codes)), (r,) * 4)
        violations += [("associativity", x) for x in zip(*(a.tolist() for a in ijkl))]

    if g is not None:
        violations += [("grading", ijk) for ijk in graded]
        bad = np.flatnonzero(g.nonzero(g.deg[dual] + g.deg))
        violations += [("grading-dual", (i,)) for i in bad.tolist()]
        if g.nonzero(g.deg[ring.unit]):
            violations.append(("grading-unit", (ring.unit,)))
    return AxiomReport(violations)


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
    stay below config.TOLERANCE * max(d)^2.  Both the matrix and the
    products are summed from ring.triples into rank x rank arrays (past
    check_dense).
    """
    r = ring.rank
    check_dense(r * r)
    i, j, k, n = ring.triples
    v = perron_vector(np.bincount(j * r + k, n, r * r).reshape(r, r))
    d = v / v[ring.unit]
    products = np.bincount(i * r + j, n * d[k], r * r).reshape(r, r)
    residual = float(np.max(np.abs(np.outer(d, d) - products)))
    if residual > config.TOLERANCE * float(d.max()) ** 2:
        raise NonConvergenceError(
            "dimension residual %.3e exceeds tolerance (broken ring?)" % residual)
    if d.min() < 1 - 1e-6:
        raise NonConvergenceError("a dimension fell below 1 (broken ring?)")
    return FPDimVector(d, residual)


# ---------------------------------------------------------------------------
# words and K-normality


def check_index(ring, x):
    """x as an object index: an integer, not a bool, in 0 <= x < rank; else IndexError."""
    x = as_integer(x, IndexError)
    if not 0 <= x < ring.rank:
        raise IndexError("object index %r out of range" % (x,))
    return x


def _fusion_matrix(ring, y, right=False):
    # the rank x rank matrix of v -> y (x) v on row vectors, entry (a, k) =
    # N_{ya}^k, or of v -> v (x) y when right, entry (a, k) = N_{ay}^k,
    # read off ring.triples
    r = ring.rank
    check_dense(r * r)
    i, j, k, n = ring.triples
    by, a = (j, i) if right else (i, j)
    on = by == y
    m = np.zeros((r, r), dtype=np.int64)
    m[a[on], k[on]] = n[on]
    return m


def decompose_word(ring, word):
    """Decompose a left-to-right tensor word into simples.

    ``word`` is a list of (index, dualed) pairs; a bare index means the plain
    object.  Returns the coefficient vector (an object vector).  The empty
    word is the unit.
    """
    v = np.zeros(ring.rank, dtype=np.int64)
    v[ring.unit] = 1
    for step in word:
        i, starred = step if isinstance(step, (tuple, list)) else (step, False)
        i = check_index(ring, i)
        y = int(ring.dual[i]) if starred else i
        v = v @ _fusion_matrix(ring, y, right=True)
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
    horizon-bounded: equality for all k >= K is not decidable here.  A
    horizon k_max below 1 raises ValueError.
    """
    x = check_index(ring, x)
    k_max = as_integer(k_max, ValueError)
    if k_max < 1:
        raise ValueError("the horizon k_max must be at least 1, not %d" % k_max)
    xd = int(ring.dual[x])
    a = np.zeros(ring.rank, dtype=np.int64)
    a[ring.unit] = 1
    b = a

    # one multiplication per side takes x^(k-1) x*^(k-1) to
    # x^k x*^k = x (x^(k-1) x*^(k-1)) x*
    x_left, xd_right = _fusion_matrix(ring, x), _fusion_matrix(ring, xd, right=True)
    xd_left, x_right = _fusion_matrix(ring, xd), _fusion_matrix(ring, x, right=True)
    equal_at = {}
    for k in range(1, k_max + 1):
        a = a @ x_left @ xd_right
        b = b @ xd_left @ x_right
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
    and their duals reach.  The seeds follow check_index, checked as one
    array: a bool, a float or an index outside 0 <= x < rank raises IndexError.
    """
    seeds = np.asarray(seeds)
    if not seeds.size:
        raise ValueError("seed set must be nonempty")
    if seeds.dtype.kind not in "iu" or seeds.min() < 0 or seeds.max() >= ring.rank:
        raise IndexError("seeds must be object indices in range, got %r" % (seeds,))
    by = np.zeros(ring.rank, dtype=bool)
    by[seeds] = by[ring.dual[seeds]] = True
    i, j, k, _ = ring.triples
    label = components(ring.rank, i[by[j]], k[by[j]])
    return tuple(np.flatnonzero(label == label[ring.unit]).tolist())


def is_generator(ring, x):
    """True iff the single object x tensor-generates the whole ring."""
    return len(subring_generated(ring, [x])) == ring.rank


def adjoint_subring(ring):
    """Support of the subring generated by all i (x) i*."""
    i, j, k, _ = ring.triples
    return subring_generated(ring, np.unique(k[j == ring.dual[i]]))


class InvertiblesReport:
    """Invertible simples with their group structure."""

    def __init__(self, indices, group, abelian):
        self.indices = tuple(indices)
        self.group = group          # FiniteAbelianGroup, or None if nonabelian
        self.abelian = abelian

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
    """The group of invertible simples (those with i (x) i* = unit exactly);
    MalformedRingError if they are not closed under fusion or not a group."""
    i, j, k, n = ring.triples
    own = j == ring.dual[i]
    at_unit = own & (k == ring.unit)
    inv = np.flatnonzero((np.bincount(i[own], n[own], ring.rank) == 1)
                         & (np.bincount(i[at_unit], n[at_unit], ring.rank) == 1))
    pos = np.full(ring.rank, -1)
    pos[inv] = np.arange(len(inv))
    # a product of invertibles is a single invertible with coefficient 1;
    # triples hold positive coefficients, so that is a pair whose
    # coefficients sum to 1, on a triple into an invertible
    on = (pos[i] >= 0) & (pos[j] >= 0)
    pair = pos[i[on]] * len(inv) + pos[j[on]]
    check_dense(len(inv) ** 2)
    if not ((np.bincount(pair, n[on], len(inv) ** 2) == 1).all() and (pos[k[on]] >= 0).all()):
        raise MalformedRingError("invertibles are not closed under fusion")
    table = np.empty((len(inv), len(inv)), dtype=np.int64)
    table.reshape(-1)[pair] = pos[k[on]]
    abelian = bool((table == table.T).all())
    group = None
    if abelian:
        try:
            group, _ = table_group(table, pos[ring.unit])
        except ValueError as exc:
            raise MalformedRingError("invertibles do not form a group: %s" % exc) from None
    return InvertiblesReport(inv.tolist(), group, abelian)


def universal_grading(ring):
    """The finest grading, as a Grading (group + degree per simple).

    Components are the equivalence classes of simples under "k appears in
    a (x) j for some adjoint a"; the group law is induced by fusion, and
    ``abelian.table_group`` types it.  Raises InconsistentGradingError if
    components do not multiply single-valuedly, multiply noncommutatively
    (which cannot happen for the rings here) or do not form a group.

    Degrees are in a normal form: for a cyclic group Z_n, the least-indexed
    simple whose degree generates Z_n has degree (1,).  Other groups keep
    the Smith coordinates of ``table_group``, which are fixed only up to an
    automorphism of the group.
    """
    r = ring.rank
    i, j, k, _ = ring.triples
    on = np.bincount(adjoint_subring(ring), minlength=r) > 0  # the adjoint simples
    # components numbered by least member
    least, comp = np.unique(components(r, j[on[i]], k[on[i]]), return_inverse=True)
    n_comp = len(least)

    if not np.bincount(i * r + j, minlength=r * r).all():
        raise InconsistentGradingError("empty fusion product (broken ring)")
    # the component product, read off one constituent of each product: a product
    # spanning two components and pairs that disagree both fail the one test
    ci, cj, ck = comp[i], comp[j], comp[k]
    prod = np.zeros((n_comp, n_comp), dtype=np.int64)
    prod[ci, cj] = ck
    bad = np.flatnonzero(prod[ci, cj] != ck)
    if len(bad):
        e = bad[0]
        raise InconsistentGradingError(
            "product of components %d,%d is not single-valued" % (ci[e], cj[e]))
    if (prod != prod.T).any():
        raise InconsistentGradingError("nonabelian universal grading")

    try:
        group, degrees = table_group(prod, comp[ring.unit])
    except ValueError as exc:
        raise InconsistentGradingError("components do not form a group: %s" % exc) from None
    deg = np.array(degrees, dtype=np.int64).reshape(n_comp, len(group.orders))[comp]
    if len(group.orders) == 1:
        # normal form: the least-indexed simple whose degree generates Z_n
        # has degree 1 (every component is a degree, so one generates)
        n = group.orders[0]
        deg *= pow(int(deg[np.gcd(deg[:, 0], n) == 1][0, 0]), -1, n)
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
    x = check_index(ring, x)
    t = ring.triples
    return Digraph(ring.rank, {(i, k): m for i, k, m in t[1:, t[0] == x].T.tolist()})


# ---------------------------------------------------------------------------
# restriction (plumbing shared by the constructions)


def restrict(ring, indices, grading=None):
    """Subring on a dual- and fusion-closed index set, reindexed from 0.

    ``indices`` must be closed (as produced by subring_generated); triples
    leaving the set would be dropped silently otherwise, so closure under
    fusion and duals is checked (MalformedRingError); adjoint and (1,1)
    subrings both come through here, read off ring.triples.  Labels are kept
    and ``grading`` is attached.  The kept triples are gathered into one
    array, relabelled in place and handed to from_triples read-only, which
    keeps it when the indices increase.
    """
    idx = list(indices)
    pos = np.full(ring.rank, -1)
    pos[idx] = np.arange(len(idx))
    i, j, k, _ = ring.triples
    inside = (pos[i] >= 0) & (pos[j] >= 0)
    if (pos[k[inside]] < 0).any():
        raise MalformedRingError("index set is not fusion-closed")
    dual = pos[ring.dual[idx]]
    if (dual < 0).any():
        raise MalformedRingError("index set is not dual-closed")
    t = np.compress(inside, ring.triples, axis=1)
    t[:3] = pos[t[:3]]
    t.setflags(write=False)
    return FusionRing.from_triples([ring.labels[x] for x in idx], pos[ring.unit], dual, t,
                                   grading)
