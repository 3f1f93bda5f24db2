"""Completion of partially specified graded fusion rings.

The solver takes target dimensions, a (mandatory) grading, optionally a
partial dual and partially known fusion coefficients, and finds every
completion to a fusion ring.  The pipeline:

  1. enumerate dual involutions consistent with dims, grading and the
     known coefficients (branching when two same-dimension objects could be
     either mutually dual or separately self-dual);
  2. tie coefficients into Frobenius-reciprocity orbits (one variable per
     orbit, read off graphs.components), pre-fill unit laws, duality,
     grading zeros and known entries, and bound every variable by
     floor(d_i d_j / d_k + tol); the search state is these bounds alone,
     and a variable is assigned once they meet;
  3. propagate: row dimension sums (sum_k N_{ij}^k d_k = d_i d_j) are
     enumerated exactly per row, a row being re-solved only after a bound
     of one of its variables moved; associativity is then checked on all
     rank^4 instances with float64 matmuls, and an instance with a single
     open term assigns its unknown the integer it forces (the matmuls are
     exact while r * max(N)^2 < 2**53; that, and the size of one rank^4
     array against config.MAX_DENSE_BYTES, are checked up front);
  4. branch on the narrowest remaining variable, smallest-dimension products
     first;
  5. verify the full axioms on every leaf;
  6. sort the survivors by tensor bytes (leaves never repeat: the tensor
     fixes the dual, and two leaves of one dual branch part at a branching)
     and class each against one representative per class found so far.
"""

from fractions import Fraction

import numpy as np

from . import config
from .errors import (
    BoundsExceededError,
    MalformedRingError,
    NoSolutionError,
    NonUniqueCompletionError,
    SearchCapExceededError,
)
from .graphs import Digraph, bipartition, components, perron_vector
from .ring import (
    FusionRing,
    Grading,
    find_isomorphisms,
    fp_dims,
    universal_grading,
    verify_axioms,
)


class PartialRing:
    """A partially specified fusion ring: dims + grading + known entries.

    ``known`` maps (i, j, k) to a coefficient; absent triples are unknown
    (an explicit 0 is a known zero).  ``dual`` may be None, a full
    involution, or a partial dict {i: j}; it is kept as a dict.
    """

    def __init__(self, labels, unit, dims, grading, dual=None, known=None):
        self.labels = tuple(str(x) for x in labels)
        self.unit = int(unit)
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
        if self.dims.min() <= 0:
            raise MalformedRingError("dims must be positive")
        if abs(self.dims[self.unit] - 1.0) > 1e-9:
            raise MalformedRingError("unit must have dimension 1")
        if dual is None:
            self.dual = None
        else:
            pairs = dual.items() if isinstance(dual, dict) else enumerate(dual)
            self.dual = {int(i): int(j) for i, j in pairs}
            if not all(0 <= x < r for pair in self.dual.items() for x in pair):
                raise MalformedRingError("dual index out of range")
            if any(self.dual.get(j, i) != i for i, j in self.dual.items()):
                raise MalformedRingError("dual is not an involution")
        self.known = {tuple(int(x) for x in k): int(v) for k, v in (known or {}).items()}
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
    """

    def __init__(self, solutions, classes, nodes):
        self.solutions = list(solutions)
        self.classes = [list(c) for c in classes]
        self.nodes = nodes

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
# dual involutions


def _dual_branches(partial, tol):
    """All involutions consistent with dims, grading, and known entries."""
    r = partial.rank
    d = partial.dims
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
        if abs(d[i] - d[j]) > tol * max(1.0, d[i]):
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


class _State:
    """Search state for one dual branch: the bounds lo/hi of each orbit
    variable; a variable is assigned once its bounds meet.

    ``dirty[i*r + j]`` marks row (i, j) for a solve: it is set whenever a
    bound of one of the row's variables moves (``rows_of[v]`` lists v's
    rows) and cleared once the row is solved to its exact hull.
    """

    def __init__(self, partial, sigma, tol):
        r = partial.rank
        self.r = r
        self.dims = partial.dims
        self.unit = partial.unit
        self.tol = tol
        d = partial.dims
        g = partial.grading
        # each associativity pass holds a few rank^4 float64 arrays
        if 8 * r ** 4 > config.MAX_DENSE_BYTES:
            raise BoundsExceededError("rank-%d associativity contractions are past "
                                      "config.MAX_DENSE_BYTES" % r)

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
        self.first = list(zip(*(x.tolist() for x in np.unravel_index(least, (r, r, r)))))

        self.lo = np.zeros(len(least), dtype=np.int64)
        self.hi = np.full(len(least), np.iinfo(np.int64).max)
        np.minimum.at(self.hi, var_of, ub.ravel())
        # the contractions sum r products of two values: exact below 2**53
        if r * int(self.hi.max()) ** 2 >= 2 ** 53:
            raise BoundsExceededError(
                "associativity sums can reach %d * %d**2, past the exact float range 2**53"
                % (r, int(self.hi.max())))
        self.rows_of = np.zeros((len(least), r * r), dtype=bool)
        self.rows_of[var_of.reshape(r * r, r), np.arange(r * r)[:, None]] = True
        self.dirty = np.ones(r * r, dtype=bool)
        self.moves = 0

        # prefill: unit laws, duality row, known entries, grading zeros
        try:
            for j in range(r):
                for k in range(r):
                    self.set_entry((self.unit, j, k), 1 if j == k else 0)
                    self.set_entry((j, self.unit, k), 1 if j == k else 0)
                    self.set_entry((j, k, self.unit), 1 if k == sigma[j] else 0)
            for t, v in partial.known.items():
                self.set_entry(t, v)
            for v in np.flatnonzero(self.hi == 0):
                self.assign(int(v), 0)
        except _Conflict as exc:
            raise NoSolutionError("inconsistent input: %s" % exc, conflict=str(exc))

    def set_entry(self, t, value):
        v = int(self.var_of[t])
        self.assign(v, value)

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
        self.dirty |= self.rows_of[v]

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

    def unassigned(self):
        return np.flatnonzero(self.lo != self.hi)

    # -- propagation ------------------------------------------------------

    def propagate(self):
        while True:
            moves = self.moves
            self._rows_pass()
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
            if not unknown.any():
                continue  # filled by an earlier row in this pass
            i, j = divmod(row, r)
            target = float(d[i] * d[j]) - float(np.dot(np.where(unknown, 0, lo), d))
            coef = {}
            for k in np.flatnonzero(unknown).tolist():
                v = int(var[k])
                coef[v] = coef.get(v, 0.0) + float(d[k])
            tol = self.tol * max(1.0, float(d[i] * d[j]))
            # moves during the solve mark the row dirty again; solving
            # again from the exact hull returns the same hull
            self.dirty[row] = False
            if self._solve_row(coef, target, tol):
                self.dirty[row] = False

    def _solve_row(self, coef, target, tol):
        """Tighten the row's variables to the hull of its integer solutions;
        returns False when it fell back to one round of interval tightening,
        after which a second solve may tighten further."""
        vars_ = sorted(coef, key=lambda v: -coef[v])
        cs = [coef[v] for v in vars_]
        lo = [int(self.lo[v]) for v in vars_]
        hi = [int(self.hi[v]) for v in vars_]
        n = len(vars_)
        min_tail = [0.0] * (n + 1)
        max_tail = [0.0] * (n + 1)
        for t in range(n - 1, -1, -1):
            min_tail[t] = min_tail[t + 1] + cs[t] * lo[t]
            max_tail[t] = max_tail[t + 1] + cs[t] * hi[t]
        if target < min_tail[0] - tol or target > max_tail[0] + tol:
            raise _Conflict("row sum %.6f unreachable in [%.6f, %.6f]"
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
            # fall back to interval tightening
            for t, v in enumerate(vars_):
                others_min = sum(cs[s] * lo[s] for s in range(n) if s != t)
                others_max = sum(cs[s] * hi[s] for s in range(n) if s != t)
                new_hi = int(np.floor((target - others_min) / cs[t] + tol))
                new_lo = int(np.ceil((target - others_max) / cs[t] - tol))
                self.tighten(v, max(new_lo, 0), new_hi)
            return False
        if not solutions:
            raise _Conflict("no integer solution for a row dimension sum")
        for t, v in enumerate(vars_):
            vals = [s[t] for s in solutions]
            self.tighten(v, min(vals), max(vals))
        return True

    def _assoc_pass(self):
        # one instance (i, j, k, l) per rank^4 entry:
        #   sum_m N_ij^m N_mk^l  (left)  =  sum_m N_jk^m N_im^l  (right);
        # a term is open when one factor is unknown and the other is unknown
        # or known nonzero, so (u + w)(u + w) - w w counts it, with u marking
        # the unknowns and w the known nonzeros; stacking [u + w, w] against
        # [u + w, -w] along m gives that count in one product per side
        r = self.r
        val = self.values()
        unknown = val < 0
        val[unknown] = 0
        known_pos = val > 0
        w = known_pos.astype(np.float64)
        uw = unknown + w

        def left(x, y):
            # x[i, j, m] y[m, k, l] summed over m
            return (x.reshape(r * r, -1) @ y.reshape(-1, r * r)).reshape(r, r, r, r)

        def right(x, y):
            # x[j, k, m] y[i, m, l] summed over m
            xy = x.reshape(r * r, -1) @ y.transpose(1, 0, 2).reshape(-1, r * r)
            return xy.reshape(r, r, r, r).transpose(2, 0, 1, 3)

        pair = np.concatenate([uw, w], axis=2)
        occ = left(pair, np.concatenate([uw, -w]))
        occ += right(pair, np.concatenate([uw, -w], axis=1))
        closed = occ == 0
        single = np.flatnonzero(occ == 1)
        del occ  # at most two rank^4 float64 arrays are alive at once
        v = val.astype(np.float64)
        gap = right(v, v)
        gap -= left(v, v)

        bad = closed & (gap != 0)
        if bad.any():
            i, j, k, l = (int(x) for x in np.argwhere(bad)[0])
            raise _Conflict("associativity fails at (%d,%d,%d,%d)" % (i, j, k, l))

        # an instance with one open term is linear in its unknown unless both
        # factors are unknown; opens[n, m, p] marks the term m whose factor
        # p (left first, left second, right first, right second) is unknown
        # and the other known nonzero
        i, j, k, l = np.unravel_index(single, (r, r, r, r))
        opens = np.stack([
            unknown[i, j] & known_pos[:, k, l].T,
            known_pos[i, j] & unknown[:, k, l].T,
            unknown[j, k] & known_pos[i, :, l],
            known_pos[j, k] & unknown[i, :, l],
        ], axis=2).reshape(len(single), 4 * r)
        at = opens.argmax(axis=1)
        hit = np.flatnonzero(opens[np.arange(len(single)), at])
        i, j, k, l, gap = i[hit], j[hit], k[hit], l[hit], gap.ravel()[single[hit]]
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
# search


def _dim_key(state, v):
    i, j, k = state.first[v]
    d = state.dims
    return (float(d[i] * d[j]), float(d[k]), (i, j, k))


def _search(state, out, cap, counter):
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
        counter[0] += 1
        if counter[0] > cap:
            raise SearchCapExceededError("search cap %d exceeded" % cap)
        try:
            state.assign(v, value)
            conflict = _search(state, out, cap, counter)
        except _Conflict as exc:
            conflict = str(exc)
        first = first or conflict
        state.restore(snap)
    return first


def complete_partial_ring(partial, search_cap=10_000_000):
    """All completions of a partial ring, grouped into isomorphism classes.

    Returns a SolveResult whose solutions all pass verify_axioms, extend the
    known entries exactly, match the target dims within tolerance and respect
    the grading.  Raises NoSolutionError (with the first conflict) if there
    are none, SearchCapExceededError past the node budget.
    """
    tol = config.TOLERANCE
    raw = []
    counter = [0]
    conflict = None
    for sigma in _dual_branches(partial, tol):
        try:
            state = _State(partial, sigma, tol)
        except NoSolutionError as exc:
            conflict = conflict or str(exc)
            continue
        tensors = []
        found = _search(state, tensors, search_cap, counter)
        conflict = conflict or found
        for t in tensors:
            raw.append((t, sigma))

    d = partial.dims
    solutions = []
    for tensor, sigma in raw:
        ring = FusionRing(partial.labels, partial.unit, sigma, tensor, partial.grading)
        rep = verify_axioms(ring)
        if not rep.ok:
            continue
        residual = float(np.max(np.abs(
            np.outer(d, d) - np.einsum("ijk,k->ij", tensor.astype(np.float64), d))))
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
    for idx, ring in enumerate(solutions):
        for c, rep_ring in zip(classes, reps):
            if find_isomorphisms(rep_ring, ring, max_count=1):
                c.append(idx)
                break
        else:
            classes.append([idx])
            reps.append(ring)
    return SolveResult(solutions, classes, counter[0])


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


def ring_from_generator_graph(graph, unit=0, labels=None, search_cap=10_000_000):
    """All fusion rings whose designated generator has the given fusion graph.

    The graph fixes the generator's full fusion row N_{g x}^y = A[x][y]; the
    unit's unique neighbor is the generator; dims are the Perron vector
    normalized at the unit; a bipartition (if one exists) provides the parity
    grading.  Everything else is delegated to complete_partial_ring.
    """
    partial = _graph_partial(graph, unit, labels)
    return list(complete_partial_ring(partial, search_cap=search_cap).solutions)


def unique_ring_from_graph(graph, unit=0, labels=None, search_cap=10_000_000):
    """The one fusion ring with this generator graph, up to isomorphism.

    Raises NonUniqueCompletionError when the completions fall into more
    than one isomorphism class; returns the first class representative.
    """
    result = complete_partial_ring(_graph_partial(graph, unit, labels), search_cap=search_cap)
    if len(result.classes) != 1:
        raise NonUniqueCompletionError(
            "generator graph admits %d non-isomorphic completions" % len(result.classes))
    return result.solutions[0]
