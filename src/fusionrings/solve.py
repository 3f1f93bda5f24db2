"""Completion of partially specified graded fusion rings.

The solver takes target dimensions, a (mandatory) grading, optionally a
partial dual and partially known fusion coefficients, and finds every
completion to a fusion ring.  Every step reads the dims through one rule,
_dim_classes: simples whose dims agree within the tolerance form a class,
and each class has one dimension, the unit's exactly 1.0.  The pipeline:

  1. enumerate dual involutions consistent with dims, grading and the
     known coefficients (branching when two same-dimension objects could be
     either mutually dual or separately self-dual); G, the group of
     permutations of the simples that the partial ring cannot tell apart,
     maps completions to completions, so only the first involution sigma
     of each G-conjugacy class is searched, and the leaves of each
     g sigma g^-1 are sigma's relabelled by g (G is known by a strong
     generating set from graphs.automorphism_generators);
  2. tie coefficients into Frobenius-reciprocity orbits (one variable per
     orbit, read off graphs.components), pre-fill unit laws, duality,
     grading zeros and known entries, and bound every variable by
     floor(d_i d_j / d_k + tol); the search state is these bounds alone,
     and a variable is assigned once they meet;
  3. propagate: row dimension sums (sum_k N_{ij}^k d_k = d_i d_j) are
     enumerated exactly per row, a row being re-solved only after a bound
     of one of its variables moved; the hull of a row depends only on its
     coefficients, bounds, target and tolerance, so each search keeps one
     memo of hulls keyed by these, shared by its dual branches, and
     enumerates each distinct row once; associativity is then checked by
     ring.associativity_sides on the instances (i, j, k, l) with
     deg l = deg i + deg j + deg k, the only ones where a term can be
     nonzero once the grading zeros are filled in, with one float64 product
     per degree block and m summed over one degree; an instance with a
     single open term assigns its unknown the integer it forces, and a pass
     is skipped when no bound moved since the last one began (the layout of
     the instances, ring.GradedInstances, is built once per search and
     shared like the memo; before the search ring.check_exact_sums checks
     that the products are exact, and ring.check_dense that an array of one
     entry per instance or per rank^3 coefficient fits
     config.MAX_DENSE_BYTES); the leaves' axiom check reuses that layout;
  4. branch on the narrowest remaining variable, smallest-dimension products
     first;
  5. verify the full axioms and the dimension sums on every leaf, the
     relabelled ones included;
  6. sort the survivors by tensor bytes (leaves never repeat: the tensor
     fixes the dual, and two leaves of one dual branch part at a branching),
     join each to its image under each generator of G (a missing image
     raises: the survivors must be closed under G) and class the first
     solution of each G-orbit against one representative per class found
     so far.
"""

import math
from fractions import Fraction

import numpy as np

from . import config
from .errors import (
    MalformedRingError,
    NoSolutionError,
    NonUniqueCompletionError,
    SearchCapExceededError,
    as_integer,
)
from .graphs import Digraph, automorphism_generators, bipartition, components, perron_vector
from .ring import (
    FusionRing,
    GradedInstances,
    Grading,
    associativity_sides,
    check_dense,
    check_exact_sums,
    find_isomorphisms,
    fp_dims,
    universal_grading,
    verify_axioms,
)


class PartialRing:
    """A partially specified fusion ring: dims + grading + known entries.

    ``known`` maps (i, j, k) to a coefficient; absent triples are unknown
    (an explicit 0 is a known zero).  ``dual`` may be None, a full
    involution, or a partial dict {i: j}; it is kept as a dict.  Indices
    and entries must be Python or numpy integers, else MalformedRingError.
    """

    def __init__(self, labels, unit, dims, grading, dual=None, known=None):
        self.labels = tuple(str(x) for x in labels)
        self.unit = as_integer(unit, MalformedRingError)
        self.dims = np.asarray(dims, dtype=np.float64)
        self.grading = grading
        r = len(self.labels)
        if r == 0:
            raise MalformedRingError("partial rings need at least one label")
        if not 0 <= self.unit < r:
            raise MalformedRingError("unit index out of range")
        if grading is None:
            raise MalformedRingError("partial rings require a grading (may be trivial)")
        if len(grading.deg) != r:
            raise MalformedRingError("grading does not match rank")
        if self.dims.shape != (r,):
            raise MalformedRingError("dims do not match rank")
        if not (np.isfinite(self.dims).all() and self.dims.min() > 0):
            raise MalformedRingError("dims must be finite and positive")
        if abs(self.dims[self.unit] - 1.0) > 1e-9:
            raise MalformedRingError("unit must have dimension 1")
        if dual is None:
            self.dual = None
        else:
            pairs = dual.items() if isinstance(dual, dict) else enumerate(dual)
            self.dual = {as_integer(i, MalformedRingError): as_integer(j, MalformedRingError)
                         for i, j in pairs}
            if not all(0 <= x < r for pair in self.dual.items() for x in pair):
                raise MalformedRingError("dual index out of range")
            if any(self.dual.get(j, i) != i for i, j in self.dual.items()):
                raise MalformedRingError("dual is not an involution")
        self.known = {tuple(as_integer(x, MalformedRingError) for x in ijk):
                      as_integer(n, MalformedRingError) for ijk, n in (known or {}).items()}
        for (i, j, k), v in self.known.items():
            if not (0 <= i < r and 0 <= j < r and 0 <= k < r) or v < 0:
                raise MalformedRingError("bad known entry %r" % (((i, j, k), v),))

    @property
    def rank(self):
        return len(self.labels)

    @classmethod
    def from_ring(cls, ring, forget=()):
        """Partial ring with every entry of a finished ring known, except the
        triples listed in ``forget``."""
        grading = ring.grading if ring.grading is not None else universal_grading(ring)
        forget = set(forget)
        known = {ijk: int(n) for ijk, n in np.ndenumerate(ring.tensor) if ijk not in forget}
        return cls(ring.labels, ring.unit, fp_dims(ring).dims, grading,
                   dual={i: int(d) for i, d in enumerate(ring.dual)}, known=known)


class SolveResult:
    """Completions found by the solver, grouped into isomorphism classes.

    ``solutions`` are sorted by tensor bytes; each class lists indices into
    them in increasing order, and its first index is its representative.
    ``stats`` counts what the search did: ``dual_branches`` (every dual
    involution), ``branches_by_symmetry`` (those filled in by relabelling
    the leaves of a searched one), and, over the searched ones only,
    ``nodes`` (values tried at branchings), ``propagation_rounds`` (row
    pass plus associativity pass), ``row_solves`` and ``row_enumerations``
    (row solves whose hull was not in the memo yet).
    """

    def __init__(self, solutions, classes, nodes, stats):
        self.solutions = list(solutions)
        self.classes = [list(c) for c in classes]
        self.nodes = nodes
        self.stats = stats

    def __len__(self):
        return len(self.solutions)

    def __iter__(self):
        return iter(self.solutions)

    def class_representatives(self):
        return [self.solutions[c[0]] for c in self.classes]

    def __repr__(self):
        return "<SolveResult %d solutions in %d classes (%d nodes)>" % (
            len(self.solutions), len(self.classes), self.nodes)


# ---------------------------------------------------------------------------
# dimension classes and dual involutions


def _dim_classes(partial, tol):
    """The class of each simple, named by its least member, and one dim per
    class, the unit's exactly 1.0 and any other the dim d of its least member.
    Classes open in increasing order of dim, each at a dim more than
    tol * max(1, d) from the d of the class before."""
    d = partial.dims
    dim_class = [0] * partial.rank
    least = None
    for i in np.argsort(d, kind="stable").tolist():
        if least is None or abs(d[i] - d[least]) > tol * max(1.0, d[least]):
            least = i
        dim_class[i] = least
    named = np.array(dim_class)
    return dim_class, np.where(named == dim_class[partial.unit], 1.0, d[named])


def _dual_branches(partial, tol):
    """All involutions consistent with dims, grading, and known entries."""
    r = partial.rank
    dim_class = _dim_classes(partial, tol)[0]
    g = partial.grading
    known = partial.known
    unit = partial.unit

    forced = {unit: unit}
    if partial.dual:
        for i, j in partial.dual.items():
            forced[int(i)] = int(j)
            forced[int(j)] = int(i)
    for (i, j, k), v in known.items():
        if k == unit and v == 1:
            forced.setdefault(i, j)
            forced.setdefault(j, i)
    for i, j in list(forced.items()):
        if forced.get(j, i) != i:
            return  # inconsistent forcing: no branch at all

    def compatible(i, j):
        if dim_class[i] != dim_class[j]:
            return False
        if g.degree(j) != g.neg(g.degree(i)):
            return False
        if known.get((i, j, unit), 1) == 0 or known.get((j, i, unit), 1) == 0:
            return False
        return True

    sigma = [-1] * r
    for i, j in forced.items():
        if not compatible(i, j):
            return
        sigma[i] = j

    def extend(i):
        while i < r and sigma[i] != -1:
            i += 1
        if i == r:
            yield list(sigma)
            return
        for j in range(i, r):
            if sigma[j] != -1 and j != i:
                continue
            if j in forced and forced[j] != i:
                continue
            if not compatible(i, j):
                continue
            sigma[i], sigma[j] = j, i
            yield from extend(i + 1)
            sigma[i] = -1
            if j != i:
                sigma[j] = -1

    yield from extend(0)


# ---------------------------------------------------------------------------
# orbit state


class _Conflict(Exception):
    pass


class _OverCap(Exception):
    pass


def _row_hull(cs, lo, hi, target, tol):
    """The integer solutions of sum_t cs[t] x_t = target (within tol) with
    lo[t] <= x_t <= hi[t], cs in decreasing order: (True, bounds) with
    bounds[t] the min and max of x_t over them; (False, bounds) with one
    round of interval tightening when their enumeration passes its cap; or
    a conflict message when there are none."""
    n = len(cs)
    min_tail = [0.0] * (n + 1)
    max_tail = [0.0] * (n + 1)
    for t in range(n - 1, -1, -1):
        min_tail[t] = min_tail[t + 1] + cs[t] * lo[t]
        max_tail[t] = max_tail[t + 1] + cs[t] * hi[t]
    if target < min_tail[0] - tol or target > max_tail[0] + tol:
        return ("row sum %.6f unreachable in [%.6f, %.6f]"
                % (target, min_tail[0], max_tail[0]))

    solutions = []
    cap = 20000
    nodes = [0]

    def rec(t, remaining, partial_vals):
        if nodes[0] > cap:
            raise _OverCap()
        nodes[0] += 1
        if t == n:
            if abs(remaining) <= tol:
                solutions.append(tuple(partial_vals))
            return
        if remaining < min_tail[t] - tol or remaining > max_tail[t] + tol:
            return
        for x in range(lo[t], hi[t] + 1):
            rec(t + 1, remaining - cs[t] * x, partial_vals + [x])

    try:
        rec(0, target, [])
    except _OverCap:
        bounds = []
        for t in range(n):
            others_min = sum(cs[s] * lo[s] for s in range(n) if s != t)
            others_max = sum(cs[s] * hi[s] for s in range(n) if s != t)
            new_hi = math.floor((target - others_min) / cs[t] + tol)
            new_lo = math.ceil((target - others_max) / cs[t] - tol)
            bounds.append((max(new_lo, 0), new_hi))
        return False, bounds
    if not solutions:
        return "no integer solution for a row dimension sum"
    return True, [(min(vals), max(vals)) for vals in zip(*solutions)]


class _State:
    """Search state for one dual branch: the bounds lo/hi of each orbit
    variable; a variable is assigned once its bounds meet.

    ``dirty[i*r + j]`` marks row (i, j) for a solve: it is set whenever a
    bound of one of the row's variables moves (v's rows are
    ``var_rows[var_start[v]:var_start[v + 1]]``) and cleared once the row is
    solved to its exact hull.  ``memo`` maps a row's inputs to their
    _row_hull result and ``layout``, the ring.GradedInstances of the
    grading, holds the associativity instances; both may be shared by the
    states of one search.  ``moves`` counts bound
    moves, ``assoc_seen`` is its value when the last associativity pass
    began (-1 after a restore), and ``rounds`` and ``row_solves`` count
    propagation rounds and row solves.
    """

    def __init__(self, partial, sigma, tol, memo=None, layout=None):
        r = partial.rank
        self.r = r
        self.dims = d = _dim_classes(partial, tol)[1]
        self.unit = partial.unit
        self.tol = tol
        self.memo = {} if memo is None else memo
        self.layout = GradedInstances(partial.grading, r) if layout is None else layout
        self.rounds = self.row_solves = 0
        g = partial.grading
        # the arrays below have rank^3 entries, and each associativity pass
        # holds a few float64 arrays of one entry per graded instance
        check_dense(max(self.layout.size, r ** 3))

        ub = np.floor(np.einsum("i,j,k->ijk", d, d, 1.0 / d) + tol).astype(np.int64)
        degs = np.array([g.degree(i) for i in range(r)], dtype=np.int64)
        orders = np.array(g.orders, dtype=np.int64) if g.orders else None
        if orders is not None:
            bad = (degs[:, None, None, :] + degs[None, :, None, :]
                   - degs[None, None, :, :]) % orders
            ub[np.any(bad != 0, axis=3)] = 0

        # orbit variables: the classes of (a, b, c) -> (a*, c, b) and
        # (a, b, c) -> (c, b*, a), numbered by least member
        flat = np.arange(r ** 3).reshape(r, r, r)
        sig = np.asarray(sigma)
        moves = [flat[sig].transpose(0, 2, 1), flat[:, sig].transpose(2, 1, 0)]
        least, var_of = np.unique(components(r ** 3, [flat, flat], moves), return_inverse=True)
        self.var_of = var_of.reshape(r, r, r)
        # per row (i, j): its variables, and d_i d_j
        self.row_vars = var_of.reshape(r * r, r).tolist()
        self.row_dims = np.outer(d, d).ravel().tolist()
        self.dim_list = d.tolist()
        self.first = list(zip(*(x.tolist() for x in np.unravel_index(least, (r, r, r)))))

        self.lo = np.zeros(len(least), dtype=np.int64)
        self.hi = np.full(len(least), np.iinfo(np.int64).max)
        np.minimum.at(self.hi, var_of, ub.ravel())
        check_exact_sums(r, int(self.hi.max()))  # the contractions sum r products of two values
        self.var_rows = np.argsort(var_of, kind="stable") // r
        self.var_start = [0] + np.cumsum(np.bincount(var_of)).tolist()
        self.dirty = np.ones(r * r, dtype=bool)
        self.moves = 0
        self.assoc_seen = -1

        # prefill, in this order: the unit laws and the duality row,
        # (unit, j, k), (j, unit, k) and (j, k, unit) for each (j, k), then
        # the known entries.  A variable takes its first value there; the
        # first entry outside its variable's bounds, or unlike that value, is
        # the conflict.  The grading zeros are filled in already: their
        # bound is 0.
        j, k = np.divmod(np.arange(r * r), r)
        u = np.full(r * r, self.unit)
        var = [np.stack([self.var_of[u, j, k], self.var_of[j, u, k],
                         self.var_of[j, k, u]], axis=1).ravel()]
        val = [np.stack([j == k, j == k, k == sig[j]], axis=1).ravel().astype(np.int64)]
        known = list(partial.known.values())
        if known:
            var.append(self.var_of[tuple(np.array(list(partial.known)).T)])
            # a value past 2**62 is past every bound (check_exact_sums)
            val.append(np.array([min(n, 1 << 62) for n in known], dtype=np.int64))
        var, val = np.concatenate(var), np.concatenate(val)
        _, at = np.unique(var, return_index=True)
        first = np.zeros(len(var), dtype=bool)
        first[at] = True
        value = np.zeros(len(least), dtype=np.int64)
        value[var[at]] = val[at]
        bad = np.where(first, val > self.hi[var], val != value[var])
        if bad.any():
            n = int(bad.argmax())
            v = var[n]
            lo, hi = (self.lo[v], self.hi[v]) if first[n] else (value[v], value[v])
            exc = "value %d for %r outside [%d, %d]" % (
                val[n] if n < 3 * r * r else known[n - 3 * r * r], self.first[v], lo, hi)
            raise NoSolutionError("inconsistent input: %s" % exc, conflict=exc)
        self.lo[var[at]] = self.hi[var[at]] = val[at]

    def assign(self, v, value):
        if value < self.lo[v] or value > self.hi[v]:
            raise _Conflict("value %d for %r outside [%d, %d]"
                            % (value, self.first[v], self.lo[v], self.hi[v]))
        if self.lo[v] != self.hi[v]:
            self._move(v)
        self.lo[v] = self.hi[v] = value

    def tighten(self, v, lo, hi):
        if lo > self.lo[v] or hi < self.hi[v]:
            self._move(v)
            self.lo[v] = max(lo, self.lo[v])
            self.hi[v] = min(hi, self.hi[v])
        if self.lo[v] > self.hi[v]:
            raise _Conflict("empty domain for %r" % (self.first[v],))

    def _move(self, v):
        self.moves += 1
        self.dirty[self.var_rows[self.var_start[v]:self.var_start[v + 1]]] = True

    def values(self):
        """N: a variable's value once assigned, else -1."""
        lo, hi = self.lo[self.var_of], self.hi[self.var_of]
        return np.where(lo == hi, lo, -1)

    def snapshot(self):
        # the flags go with the bounds: a row solved under a child's
        # tighter bounds must be dirty again once they are undone
        return self.lo.copy(), self.hi.copy(), self.dirty.copy()

    def restore(self, snap):
        self.lo, self.hi, self.dirty = (a.copy() for a in snap)
        self.assoc_seen = -1  # the restored bounds are not the ones last seen

    def unassigned(self):
        return np.flatnonzero(self.lo != self.hi)

    # -- propagation ------------------------------------------------------

    def propagate(self):
        while True:
            moves = self.moves
            self.rounds += 1
            self._rows_pass()
            # with no bound moved since the last associativity pass began,
            # this one would see the state that found no conflict and no value
            if self.moves != self.assoc_seen:
                self.assoc_seen = self.moves
                self._assoc_pass()
            if self.moves == moves:
                return

    def _rows_pass(self):
        # the rows open when the pass starts, in (i, j) order; a row is
        # solved if it is dirty when the pass reaches it
        r, d = self.r, self.dims
        var_rows = self.var_of.reshape(r * r, r)
        open_rows = (self.lo[var_rows] != self.hi[var_rows]).any(axis=1)
        for row in np.flatnonzero(open_rows).tolist():
            if not self.dirty[row]:
                continue
            var = var_rows[row]
            lo = self.lo[var]
            unknown = lo != self.hi[var]
            flags = unknown.tolist()
            if True not in flags:
                continue  # filled by an earlier row in this pass
            dd = self.row_dims[row]
            target = dd - float(np.dot(np.where(unknown, 0, lo), d))
            coef = {}
            for v, open_, dk in zip(self.row_vars[row], flags, self.dim_list):
                if open_:
                    coef[v] = coef.get(v, 0.0) + dk
            tol = self.tol * max(1.0, dd)
            # moves during the solve mark the row dirty again; solving
            # again from the exact hull returns the same hull
            self.dirty[row] = False
            if self._solve_row(coef, target, tol):
                self.dirty[row] = False

    def _solve_row(self, coef, target, tol):
        """Tighten the row's variables to the hull of its integer solutions,
        from the memo or else from _row_hull; returns False when it fell back
        to one round of interval tightening, after which a second solve may
        tighten further."""
        self.row_solves += 1
        vars_ = sorted(coef, key=coef.__getitem__, reverse=True)
        lo = self.lo[vars_].tolist()
        hi = self.hi[vars_].tolist()
        key = (tuple([coef[v] for v in vars_]), tuple(lo), tuple(hi), target, tol)
        hull = self.memo.get(key)
        if hull is None:
            hull = self.memo[key] = _row_hull(*key)
        if isinstance(hull, str):
            raise _Conflict(hull)
        exact, bounds = hull
        for v, a, b, (new_lo, new_hi) in zip(vars_, lo, hi, bounds):
            if new_lo > a or new_hi < b:  # else tighten would move nothing
                self.tighten(v, new_lo, new_hi)
        return exact

    def _assoc_pass(self):
        # one instance (i, j, k, l) per graded quadruple (every other one has
        # a known zero in each term, see ring.GradedInstances):
        #   sum_m N_ij^m N_mk^l  (left)  =  sum_m N_jk^m N_im^l  (right);
        # a term is open when one factor is unknown and the other is unknown
        # or known nonzero, so (u + w)(u + w) - w w counts it, with u marking
        # the unknowns and w the known nonzeros; the stacks [u + w, w] and
        # [u + w, -w] give that count in one product per block and side
        r = self.r
        val = self.values()
        unknown = val < 0
        val[unknown] = 0
        known_pos = val > 0
        w = known_pos.astype(np.float64)
        uw = unknown + w
        (chunk, occ, right), = associativity_sides(self.layout, np.stack([uw, w]),
                                                   np.stack([uw, -w]))
        occ += right
        closed = occ == 0
        single = np.flatnonzero(occ == 1)
        del occ, right  # at most three arrays of one float64 per instance are alive at once
        v = val.astype(np.float64)
        (_, left, gap), = associativity_sides(self.layout, v, v)
        gap -= left

        bad = np.flatnonzero(closed & (gap != 0))
        if len(bad):
            code = np.ravel_multi_index(self.layout.instances(chunk, bad), (r,) * 4)
            i, j, k, l = np.unravel_index(code.min(), (r,) * 4)
            raise _Conflict("associativity fails at (%d,%d,%d,%d)" % (i, j, k, l))

        # the single-open instances in (i, j, k, l) order; one is linear in
        # its unknown unless both factors are unknown; opens[n, m, p] marks
        # the term m whose factor p (left first, left second, right first,
        # right second) is unknown and the other known nonzero
        i, j, k, l = self.layout.instances(chunk, single)
        order = np.argsort(np.ravel_multi_index((i, j, k, l), (r,) * 4))
        single, i, j, k, l = single[order], i[order], j[order], k[order], l[order]
        opens = np.stack([
            unknown[i, j] & known_pos[:, k, l].T,
            known_pos[i, j] & unknown[:, k, l].T,
            unknown[j, k] & known_pos[i, :, l],
            known_pos[j, k] & unknown[i, :, l],
        ], axis=2).reshape(len(single), 4 * r)
        at = opens.argmax(axis=1)
        hit = np.flatnonzero(opens[np.arange(len(single)), at])
        i, j, k, l, gap = i[hit], j[hit], k[hit], l[hit], gap[single[hit]]
        m, p = np.divmod(at[hit], 4)
        var = np.choose(p, [self.var_of[i, j, m], self.var_of[m, k, l],
                            self.var_of[j, k, m], self.var_of[i, m, l]])
        coef = np.choose(p, [val[m, k, l], val[i, j, m], val[i, m, l], val[j, k, m]])
        gap = np.where(p < 2, 1, -1) * gap.astype(np.int64)

        # values are read at the start of the pass and applied in
        # (i, j, k, l) order: a variable is set by its first instance, and
        # later ones find it assigned
        _, first = np.unique(var, return_index=True)
        for n in np.sort(first).tolist():
            g, c = int(gap[n]), int(coef[n])
            if g % c or g // c < 0:
                raise _Conflict(
                    "associativity at (%d,%d,%d,%d) forces %s %s"
                    % (i[n], j[n], k[n], l[n], "non-integer" if g % c else "negative",
                       Fraction(g, c)))
            self.assign(int(var[n]), g // c)


# ---------------------------------------------------------------------------
# symmetries of the partial ring


def _known_tensor(partial, tol):
    """The known-entry tensor (-1 for unknown, the partial dual written in
    as unit-column entries) and the start colours of the simples (is-unit,
    dimension class, degree) whose automorphisms form G, the symmetry group
    of the partial ring: the set of its completions is closed under G."""
    r, unit = partial.rank, partial.unit
    known = np.full((r, r, r), -1, dtype=np.int64)
    for t, v in partial.known.items():
        known[t] = v
    for i, j in (partial.dual or {}).items():
        known[i, :, unit] = 0
        known[i, j, unit] = 1
    dim_class = _dim_classes(partial, tol)[0]
    return known, [(i == unit, dim_class[i]) + partial.grading.degree(i) for i in range(r)]


def _symmetries(partial, tol):
    """A strong generating set of G as index arrays."""
    return [np.array(g, dtype=np.intp)
            for g in automorphism_generators(*_known_tensor(partial, tol))]


def _relabel(tensor, g):
    """The tensor with each index i renamed g[i]."""
    inv = np.argsort(g)
    return tensor[np.ix_(inv, inv, inv)]


def _conjugates(sigma, gens):
    """The involutions g sigma g^-1 for g in the group the generators
    generate, each mapped to one such g; found by breadth-first search."""
    found = {tuple(sigma): np.arange(len(sigma))}
    queue = list(found)
    for s in queue:
        g = found[s]
        for h in gens:
            conj = np.empty(len(s), dtype=np.intp)
            conj[h] = h[list(s)]
            key = tuple(conj.tolist())
            if key not in found:
                found[key] = h[g]
                queue.append(key)
    return found


def _orbits(solutions, gens):
    """The G-orbits of the solutions as increasing index lists, in order of
    their least index.  Each solution is joined to its image under each
    generator; an image missing from the solutions means the set is not
    closed under G, which the symmetry argument rules out, and raises."""
    index = {ring.tensor.tobytes(): x for x, ring in enumerate(solutions)}
    src, dst = [], []
    for g in gens:
        for x, ring in enumerate(solutions):
            y = index.get(_relabel(ring.tensor, g).tobytes())
            if y is None:
                raise RuntimeError("completions are not closed under the symmetry %r"
                                   % (g.tolist(),))
            src.append(x)
            dst.append(y)
    orbits = {}
    for x, least in enumerate(components(len(solutions), src, dst).tolist()):
        orbits.setdefault(least, []).append(x)
    return list(orbits.values())


# ---------------------------------------------------------------------------
# search


def _dim_key(state, v):
    i, j, k = state.first[v]
    d = state.dims
    return (float(d[i] * d[j]), float(d[k]), (i, j, k))


def _search(state, out, cap, stats):
    # appends every leaf's tensor to out; returns the first conflict met, or None
    try:
        state.propagate()
    except _Conflict as exc:
        return str(exc)
    free = state.unassigned()
    if len(free) == 0:
        out.append(state.values())
        return None
    v = min(free, key=lambda x: (int(state.hi[x] - state.lo[x]), _dim_key(state, int(x))))
    v = int(v)
    snap = state.snapshot()
    first = None
    for value in range(int(state.lo[v]), int(state.hi[v]) + 1):
        stats["nodes"] += 1
        if stats["nodes"] > cap:
            raise SearchCapExceededError("search cap %d exceeded" % cap)
        try:
            state.assign(v, value)
            conflict = _search(state, out, cap, stats)
        except _Conflict as exc:
            conflict = str(exc)
        first = first or conflict
        state.restore(snap)
    return first


def complete_partial_ring(partial, search_cap=10_000_000):
    """All completions of a partial ring, grouped into isomorphism classes.

    Returns a SolveResult whose solutions all pass verify_axioms, extend the
    known entries exactly, match the target dims within tolerance and respect
    the grading.  Raises NoSolutionError (with the first conflict met in a
    searched dual branch) if there are none, SearchCapExceededError past the
    node budget.
    """
    tol = config.TOLERANCE
    gens = _symmetries(partial, tol)
    raw = []
    stats = dict.fromkeys(("nodes", "dual_branches", "branches_by_symmetry",
                           "propagation_rounds", "row_solves", "row_enumerations"), 0)
    memo = {}  # row hulls, shared by the dual branches
    layout = GradedInstances(partial.grading, partial.rank)  # shared likewise
    conjugate = {}  # each branch g sigma g^-1 of a searched sigma: g and sigma's leaves
    conflict = None
    for sigma in _dual_branches(partial, tol):
        stats["dual_branches"] += 1
        if tuple(sigma) in conjugate:
            g, tensors = conjugate[tuple(sigma)]
            stats["branches_by_symmetry"] += 1
            raw += [(_relabel(t, g), sigma) for t in tensors]
            continue
        tensors = []
        for key, g in _conjugates(sigma, gens).items():
            conjugate[key] = (g, tensors)
        try:
            state = _State(partial, sigma, tol, memo, layout)
        except NoSolutionError as exc:
            conflict = conflict or str(exc)
            continue
        found = _search(state, tensors, search_cap, stats)
        conflict = conflict or found
        stats["propagation_rounds"] += state.rounds
        stats["row_solves"] += state.row_solves
        for t in tensors:
            raw.append((t, sigma))
    stats["row_enumerations"] = len(memo)

    d = _dim_classes(partial, tol)[1]
    solutions = []
    for tensor, sigma in raw:
        ring = FusionRing(partial.labels, partial.unit, sigma, tensor, partial.grading)
        rep = verify_axioms(ring, layout)
        if not rep.ok:
            continue
        residual = float(np.max(np.abs(
            np.outer(d, d) - np.einsum("ijk,k->ij", tensor, d))))
        if residual > tol * float(d.max()) ** 2:
            continue
        solutions.append(ring)
    if not solutions:
        raise NoSolutionError(
            "no completion satisfies the constraints",
            conflict=conflict or "empty search space")

    solutions.sort(key=lambda ring: ring.tensor.tobytes())
    classes = []
    reps = []
    for orbit in _orbits(solutions, gens):
        for c, rep_ring in zip(classes, reps):
            if find_isomorphisms(rep_ring, solutions[orbit[0]], max_count=1):
                c += orbit
                break
        else:
            classes.append(orbit)
            reps.append(solutions[orbit[0]])
    return SolveResult(solutions, [sorted(c) for c in classes], stats["nodes"], stats)


# ---------------------------------------------------------------------------
# generator graphs


def _graph_partial(graph, unit, labels):
    adj = graph.adjacency() if isinstance(graph, Digraph) else np.asarray(graph, dtype=np.int64)
    n = adj.shape[0]
    unit = int(unit)
    nbrs = np.flatnonzero(adj[unit])
    if len(nbrs) != 1 or adj[unit, nbrs[0]] != 1:
        raise MalformedRingError("unit must have a unique, multiplicity-1 neighbor")
    gen = int(nbrs[0])
    dims = perron_vector(adj)
    dims = dims / dims[unit]
    if labels is None:
        labels = ["v%d" % i for i in range(n)]
    color = bipartition(adj | adj.T if (adj != adj.T).any() else adj)
    if color is not None and color[unit] != 0:
        color = [1 - c for c in color]
    if color is None:
        grading = Grading((), [() for _ in range(n)])
    else:
        grading = Grading((2,), [(c,) for c in color])
    known = {}
    for x in range(n):
        for y in range(n):
            known[(gen, x, y)] = int(adj[x, y])
    return PartialRing(labels, unit, dims, grading, known=known)


def ring_from_generator_graph(graph, unit=0, labels=None):
    """All fusion rings whose designated generator has the given fusion graph.

    The graph fixes the generator's full fusion row N_{g x}^y = A[x][y]; the
    unit's unique neighbor is the generator; dims are the Perron vector
    normalized at the unit; a bipartition (if one exists) provides the parity
    grading.  Everything else is delegated to complete_partial_ring.
    """
    partial = _graph_partial(graph, unit, labels)
    return list(complete_partial_ring(partial).solutions)


def unique_ring_from_graph(graph, unit=0, labels=None):
    """The one fusion ring with this generator graph, up to isomorphism.

    Raises NonUniqueCompletionError when the completions fall into more
    than one isomorphism class; returns the first class representative.
    """
    result = complete_partial_ring(_graph_partial(graph, unit, labels))
    if len(result.classes) != 1:
        raise NonUniqueCompletionError(
            "generator graph admits %d non-isomorphic completions" % len(result.classes))
    return result.solutions[0]
