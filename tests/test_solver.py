import collections
import itertools
import json
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from fusionrings import (
    PartialRing,
    ade_ring,
    complete_partial_ring,
    dynkin,
    e4_ring,
    e166_ring,
    find_isomorphisms,
    fp_dims,
    pointed_ring,
    ring_from_generator_graph,
    unique_ring_from_graph,
    verify_axioms,
)
from fusionrings import config, solve
from fusionrings.errors import (
    BoundsExceededError,
    MalformedRingError,
    NoSolutionError,
    SearchCapExceededError,
)
from fusionrings.graphs import Digraph, automorphism_generators, isomorphisms
from fusionrings.jsonio import load_partial, partial_from_dict, partial_to_dict
from fusionrings.ring import Grading
from fusionrings.solve import _Conflict, _dual_branches, _graph_partial, _known_tensor, _State
from conftest import data_path, load_json


def _e4_partial():
    return load_partial(data_path("e4_partial.json"))


def _e4_parity(e4):
    # e4 from its dimensions and the Z_2 parity of its Z_4 grading, with no
    # fusion coefficient known
    parity = Grading((2,), [(d[0] % 2,) for d in e4.grading.deg])
    return PartialRing(list(e4.labels), e4.unit, [float(x) for x in fp_dims(e4)], parity)


def test_forgotten_entries_are_recovered(a5):
    forget = [(1, 1, 0), (1, 1, 2), (2, 2, 0), (1, 2, 3)]
    partial = PartialRing.from_ring(a5, forget=forget)
    result = complete_partial_ring(partial)
    reps = result.class_representatives()
    assert len(reps) == 1
    assert find_isomorphisms(reps[0], a5)
    for ring in result:
        assert verify_axioms(ring).ok


def test_e4_completion_counts():
    result = complete_partial_ring(_e4_partial())
    assert len(result.solutions) == 4
    assert len(result.classes) == 1
    for ring in result:
        assert verify_axioms(ring).ok


def test_e4_from_dims_and_parity_only(e4):
    # the solver stress case
    result = complete_partial_ring(_e4_parity(e4))
    assert len(result.solutions) == 72
    assert sorted(len(c) for c in result.classes) == [12, 12, 24, 24]
    assert sorted(sum(result.classes, [])) == list(range(72))
    reps = result.class_representatives()
    assert sum(bool(find_isomorphisms(rep, e4, max_count=1)) for rep in reps) == 1
    assert not any(find_isomorphisms(a, b, max_count=1)
                   for x, a in enumerate(reps) for b in reps[x + 1:])
    keys = [ring.tensor.tobytes() for ring in result.solutions]
    assert len(set(keys)) == 72 and keys == sorted(keys)


def test_search_cap():
    with pytest.raises(SearchCapExceededError):
        complete_partial_ring(_e4_partial(), search_cap=1)


def test_no_solution_for_bad_dims():
    # a rank-2 ring with a non-unit of dimension 1.3 cannot close up
    partial = PartialRing(["e", "x"], 0, [1.0, 1.3], Grading((1,), [(0,), (0,)]))
    with pytest.raises(NoSolutionError) as info:
        complete_partial_ring(partial)
    assert info.value.conflict == "no integer solution for a row dimension sum"


def _stack_orbits(r, sigma):
    # oracle: each orbit of (a, b, c) -> (a*, c, b) and (a, b, c) -> (c, b*, a)
    # walked with a stack, numbered in lexicographic order of least members
    var_of = np.full((r, r, r), -1)
    first = []
    for start in itertools.product(range(r), repeat=3):
        if var_of[start] != -1:
            continue
        orbit, stack = set(), [start]
        while stack:
            t = stack.pop()
            if t not in orbit:
                orbit.add(t)
                a, b, c = t
                stack += [(sigma[a], c, b), (c, sigma[b], a)]
        for t in orbit:
            var_of[t] = len(first)
        first.append(min(orbit))
    return var_of, first


def test_orbit_variables_match_stack_orbits():
    partial = _e4_partial()
    tol = config.TOLERANCE
    branches = list(_dual_branches(partial, tol))
    assert len(branches) > 1
    for sigma in branches:
        state = _State(partial, sigma, tol)
        var_of, first = _stack_orbits(partial.rank, sigma)
        assert np.array_equal(state.var_of, var_of)
        assert state.first == first


def test_ring_from_generator_graph_a_series(a5):
    rings = ring_from_generator_graph(dynkin("A", 5))
    assert rings
    assert all(find_isomorphisms(r, a5) for r in rings)

    ring = unique_ring_from_graph(dynkin("A", 5), labels=list(a5.labels))
    assert ring.labels == a5.labels
    assert find_isomorphisms(ring, a5)


def test_generator_graph_needs_unique_neighbor():
    d4 = dynkin("D", 4)
    hub = int(np.argmax(d4.sum(axis=0)))  # three neighbors
    with pytest.raises(MalformedRingError):
        ring_from_generator_graph(d4, unit=hub)


def test_d_series_from_graph():
    d6 = ade_ring("D", 6)
    ring = unique_ring_from_graph(dynkin("D", 6))
    assert find_isomorphisms(ring, d6)
    np.testing.assert_allclose(sorted(fp_dims(ring)), sorted(fp_dims(d6)), atol=1e-8)


# ---------------------------------------------------------------------------
# incremental row propagation against the full pass


def _full_rows_pass(monkeypatch):
    # oracle: every row counts as dirty when a pass starts, so each pass
    # solves every row that still has an unknown
    rows_pass = _State._rows_pass

    def full(self):
        self.dirty.fill(True)
        rows_pass(self)

    monkeypatch.setattr(_State, "_rows_pass", full)


def _outcome(partial):
    try:
        result = complete_partial_ring(partial)
    except NoSolutionError as exc:
        return exc.conflict
    return ([ring.tensor.tobytes() + ring.dual.tobytes() for ring in result.solutions],
            result.classes, result.nodes)


def _same_as_full_pass(monkeypatch, partial):
    got = _outcome(partial)
    with monkeypatch.context() as m:
        _full_rows_pass(m)
        assert _outcome(partial) == got
    return got


def _e166_from_d10():
    e166, d10 = e166_ring(), ade_ring("D", 10)
    known = {(i, j, k): int(d10.tensor[i, j, k]) if k < 10 else 0
             for i in range(10) for j in range(10) for k in range(24)}
    return PartialRing(list(e166.labels), 0, [float(x) for x in fp_dims(e166)],
                       Grading((3,), [(0,)] * 10 + [(1,)] * 7 + [(2,)] * 7), known=known)


def _e4_graph():
    fig = load_json("e4_generator_graph.json")
    graph = Digraph.from_edge_list(fig["nodes"], [(a - 1, b - 1) for a, b in fig["edges"]])
    return _graph_partial(graph, 0, None)


SOLVE_CASES = {
    "e4 partial fixture": _e4_partial,
    "e166 from D10 block": _e166_from_d10,
    "A5 forgotten entries": lambda: PartialRing.from_ring(
        ade_ring("A", 5), forget=[(1, 1, 0), (1, 1, 2), (2, 2, 0), (1, 2, 3)]),
    "e4 generator graph": _e4_graph,
    "A5 Dynkin graph": lambda: _graph_partial(dynkin("A", 5), 0, None),
    "D6 Dynkin graph": lambda: _graph_partial(dynkin("D", 6), 0, None),
}


@pytest.mark.parametrize("name", sorted(SOLVE_CASES))
def test_incremental_rows_match_full_pass(monkeypatch, name):
    # e4 from Z_2 parity, the fourth completion case, is compared in
    # test_incremental_rows_save_row_solves
    _same_as_full_pass(monkeypatch, SOLVE_CASES[name]())


def _seeded_partials():
    # whole Frobenius orbits of a known ring forgotten at random, and some
    # with one known orbit raised by 1 where the dimension bounds allow it
    rng = random.Random(20261018)
    for ring in (ade_ring("A", 5), ade_ring("D", 6), ade_ring("E6"), e4_ring()):
        d = fp_dims(ring).dims
        var_of, first = _stack_orbits(ring.rank, [int(x) for x in ring.dual])
        orbits = [[tuple(t) for t in np.argwhere(var_of == v)] for v in range(len(first))]
        for case in range(5):
            frac = rng.choice([0.5, 0.8, 0.95, 1.0])
            forget = [t for orbit in orbits if rng.random() < frac for t in orbit]
            partial = PartialRing.from_ring(ring, forget=forget)
            yield partial
            known = dict(partial.known)
            room = [orbit for orbit in orbits if known.get(orbit[0], 0) >= 1
                    and all(d[i] * d[j] / d[k] >= known[orbit[0]] + 1 - 1e-9 for i, j, k in orbit)]
            if case % 2 and room:
                known.update({t: known[t] + 1 for t in rng.choice(room)})
                yield PartialRing(partial.labels, partial.unit, partial.dims, partial.grading,
                                  dual=partial.dual, known=known)


def test_incremental_rows_match_full_pass_on_seeded_partials(monkeypatch):
    outcomes = [_same_as_full_pass(monkeypatch, p) for p in _seeded_partials()]
    assert len(outcomes) >= 20
    conflicts = [o for o in outcomes if isinstance(o, str)]
    # some conflicts are met while propagating, past the input checks
    assert any(not c.startswith("inconsistent input") for c in conflicts)
    assert any(not isinstance(o, str) and o[2] > 0 for o in outcomes)


def test_incremental_rows_save_row_solves(monkeypatch, e4):
    calls = collections.Counter()
    rows_pass, solve_row = _State._rows_pass, _State._solve_row

    def counted_rows_pass(self):
        calls["rows_pass"] += 1
        rows_pass(self)

    def counted_solve_row(self, *args):
        calls["solve_row"] += 1
        return solve_row(self, *args)

    monkeypatch.setattr(_State, "_rows_pass", counted_rows_pass)
    monkeypatch.setattr(_State, "_solve_row", counted_solve_row)
    partial = _e4_parity(e4)
    got = _outcome(partial)
    incremental = dict(calls)
    calls.clear()
    with monkeypatch.context() as m:
        _full_rows_pass(m)
        assert _outcome(partial) == got
    assert incremental["rows_pass"] == calls["rows_pass"]
    assert incremental["solve_row"] <= 0.4 * calls["solve_row"]


# ---------------------------------------------------------------------------
# vectorised associativity pass against a loop over its instances


def _loop_assoc_pass(self):
    # oracle: tensordot contractions, then a Python loop over the instances
    # with one open occurrence, with float gap arithmetic
    val = self.values()
    known = val >= 0
    v = np.where(known, val, 0).astype(np.float64)
    w = (v > 0).astype(np.float64)  # known and nonzero
    u = (~known).astype(np.float64)
    uw = u + w

    def lhs_contract(x, y):
        return np.tensordot(x, y, axes=([2], [0]))

    def rhs_contract(x, y):
        return np.tensordot(x, y, axes=([2], [1])).transpose(2, 0, 1, 3)

    occ = (lhs_contract(uw, uw) - lhs_contract(w, w)
           + rhs_contract(uw, uw) - rhs_contract(w, w))
    lhs_v = lhs_contract(v, v)
    rhs_v = rhs_contract(v, v)

    fully = occ == 0
    bad = fully & (lhs_v != rhs_v)
    if bad.any():
        i, j, k, l = (int(x) for x in np.argwhere(bad)[0])
        raise _Conflict("associativity fails at (%d,%d,%d,%d)" % (i, j, k, l))

    for i, j, k, l in np.argwhere(occ == 1):
        i, j, k, l = int(i), int(j), int(k), int(l)
        hit = None
        for m in range(self.r):
            if val[i, j, m] < 0 and v[m, k, l] > 0:
                hit = (self.var_of[i, j, m], v[m, k, l], +1)
            elif v[i, j, m] > 0 and val[m, k, l] < 0:
                hit = (self.var_of[m, k, l], v[i, j, m], +1)
            elif val[j, k, m] < 0 and v[i, m, l] > 0:
                hit = (self.var_of[j, k, m], v[i, m, l], -1)
            elif v[j, k, m] > 0 and val[i, m, l] < 0:
                hit = (self.var_of[i, m, l], v[j, k, m], -1)
            if hit is not None:
                break
        if hit is None:
            continue  # the open occurrence is a product of two unknowns
        var, coef, side = int(hit[0]), float(hit[1]), hit[2]
        if self.lo[var] == self.hi[var]:
            continue
        gap = (rhs_v[i, j, k, l] - lhs_v[i, j, k, l]) * side
        value = gap / coef
        if abs(value - round(value)) > 1e-9 or round(value) < 0:
            raise _Conflict(
                "associativity at (%d,%d,%d,%d) forces %s %s"
                % (i, j, k, l, "non-integer" if abs(value - round(value)) > 1e-9 else "negative",
                   Fraction(int(gap), int(coef))))
        self.assign(var, int(round(value)))


def _outcome_and_assoc_passes(monkeypatch, partial, assoc_pass):
    calls = [0]

    def counted(self):
        calls[0] += 1
        assoc_pass(self)

    with monkeypatch.context() as m:
        m.setattr(_State, "_assoc_pass", counted)
        return _outcome(partial), calls[0]


def _same_as_loop_oracle(monkeypatch, partial):
    got = _outcome_and_assoc_passes(monkeypatch, partial, _State._assoc_pass)
    assert got == _outcome_and_assoc_passes(monkeypatch, partial, _loop_assoc_pass)
    return got


ASSOC_CASES = dict(SOLVE_CASES, **{"e4 from Z2 parity": lambda: _e4_parity(e4_ring())})


@pytest.mark.parametrize("name", sorted(ASSOC_CASES))
def test_assoc_pass_matches_loop_oracle(monkeypatch, name):
    _same_as_loop_oracle(monkeypatch, ASSOC_CASES[name]())


def test_assoc_pass_matches_loop_oracle_on_seeded_partials(monkeypatch):
    outcomes = [_same_as_loop_oracle(monkeypatch, p)[0] for p in _seeded_partials()]
    assert any(isinstance(o, str) and o.startswith("associativity fails at") for o in outcomes)


# ---------------------------------------------------------------------------
# row-hull memo against a memo that always misses


class _MissingMemo(dict):
    # every lookup misses, so every row solve runs _row_hull
    def get(self, key, default=None):
        return default


def _same_without_memo(monkeypatch, partial):
    got = _outcome(partial)
    init = _State.__init__

    def without_memo(self, partial, sigma, tol, memo=None):
        init(self, partial, sigma, tol, _MissingMemo())

    with monkeypatch.context() as m:
        m.setattr(_State, "__init__", without_memo)
        assert _outcome(partial) == got
    return got


@pytest.mark.parametrize("name", sorted(ASSOC_CASES))
def test_row_memo_matches_no_memo(monkeypatch, name):
    _same_without_memo(monkeypatch, ASSOC_CASES[name]())


def test_row_memo_matches_no_memo_on_seeded_partials(monkeypatch):
    outcomes = [_same_without_memo(monkeypatch, p) for p in _seeded_partials()]
    assert "no integer solution for a row dimension sum" in outcomes


def test_row_memo_enumerates_distinct_rows_once(monkeypatch, e4):
    # e4 from Z_2 parity searches 12 of its 40 dual branches, fills in the
    # other 28 by relabelling, and solves about 2,500 rows with under 200
    # distinct inputs
    counts = collections.Counter()

    def counted(name, f):
        def wrapper(*args):
            counts[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(_State, "_rows_pass", counted("propagation_rounds", _State._rows_pass))
    monkeypatch.setattr(_State, "_solve_row", counted("row_solves", _State._solve_row))
    monkeypatch.setattr(solve, "_row_hull", counted("row_enumerations", solve._row_hull))
    partial = _e4_parity(e4)
    result = complete_partial_ring(partial)
    assert result.stats == dict(
        counts, nodes=result.nodes, branches_by_symmetry=28,
        dual_branches=len(list(_dual_branches(partial, config.TOLERANCE))))
    assert counts["row_solves"] >= 2000 and counts["row_enumerations"] <= 300


def _a5_state(opened, raised):
    # every entry of A5 known, then the orbits of ``opened`` reopened to
    # [0, 9] and the orbit of ``raised`` raised by 2
    partial = PartialRing.from_ring(ade_ring("A", 5))
    state = _State(partial, next(_dual_branches(partial, config.TOLERANCE)),
                   config.TOLERANCE)
    for t in opened:
        v = state.var_of[t]
        state.lo[v], state.hi[v] = 0, 9
    if raised is not None:
        v = state.var_of[raised]
        state.lo[v] += 2
        state.hi[v] += 2
    return state


def _after_assoc_pass(state, assoc_pass):
    try:
        assoc_pass(state)
    except _Conflict as exc:
        return str(exc)
    return state.lo.tobytes(), state.hi.tobytes(), state.dirty.tobytes()


@pytest.mark.parametrize("opened,raised,fragment", [
    (((1, 1, 2), (1, 2, 3)), None, None),
    ((), (1, 1, 2), "associativity fails at (1,1,2,2)"),
    # two instances force non-integers; the first in (i, j, k, l) order
    # is reported
    (((2, 3, 3), (0, 2, 2), (2, 2, 4), (0, 4, 4)), (1, 1, 2),
     "associativity at (1,1,2,4) forces non-integer "),
    (((0, 0, 0), (0, 2, 2), (0, 3, 3), (1, 1, 2), (1, 2, 3)), (2, 4, 4),
     "associativity at (1,3,2,4) forces negative -1"),
])
def test_assoc_pass_unit_cases_match_loop_oracle(opened, raised, fragment):
    state = _a5_state(opened, raised)
    got = _after_assoc_pass(state, _State._assoc_pass)
    assert got == _after_assoc_pass(_a5_state(opened, raised), _loop_assoc_pass)
    if fragment is None:
        # single-open instances solve both reopened orbits in one pass
        assert np.array_equal(state.values(), ade_ring("A", 5).tensor)
    else:
        assert got.startswith(fragment) and "np." not in got
        if fragment.endswith("non-integer "):
            # an exact fraction, the same under every numpy version
            assert re.fullmatch(r"-?\d+(/\d+)?", got[len(fragment):]), got


def test_solver_contractions_past_the_dense_bound_raise(monkeypatch):
    partial = _e4_partial()
    monkeypatch.setattr(config, "MAX_DENSE_BYTES", 8 * partial.rank ** 4 - 1)
    with pytest.raises(BoundsExceededError):
        complete_partial_ring(partial)


def test_solver_sums_past_2_53_raise():
    # N_xx^e may reach 1e16, so associativity sums could reach 2e32
    partial = PartialRing(["e", "x"], 0, [1.0, 1e8], Grading((1,), [(0,), (0,)]))
    with pytest.raises(BoundsExceededError):
        complete_partial_ring(partial)


# ---------------------------------------------------------------------------
# partial-ring input


def _two_labels(**kw):
    args = dict(labels=["e", "x"], unit=0, dims=[1.0, 1.0], grading=Grading((2,), [(0,), (1,)]))
    args.update(kw)
    return PartialRing(**args)


@pytest.mark.parametrize("kw,fragment", [
    (dict(unit=2), "unit index out of range"),
    (dict(labels=[], dims=[], grading=Grading((), [])), "at least one label"),
    (dict(dual={1: 5}), "dual index out of range"),
    (dict(dual=[0, -1]), "dual index out of range"),
    (dict(dual=[1, 1]), "not an involution"),
    (dict(dims=[1.0, float("nan")]), "dims must be finite and positive"),
    (dict(dims=[1.0, float("inf")]), "dims must be finite and positive"),
    (dict(dims=[float("nan"), 1.0]), "dims must be finite and positive"),
    (dict(dims=[1.0, 0.0]), "dims must be finite and positive"),
    (dict(known={(0, 0, 0): 1.7}), "integer"),
    (dict(known={(0, 1.0, 1): 1}), "integer"),
    (dict(dual={1: 1.9}), "integer"),
    (dict(unit=0.9), "integer"),
])
def test_partial_ring_rejects_malformed_input(kw, fragment):
    with pytest.raises(MalformedRingError, match=fragment):
        _two_labels(**kw)


def test_partial_ring_takes_numpy_integers():
    partial = _two_labels(dual={np.int64(1): np.int64(1)}, known={(np.int64(0),) * 3: np.int64(1)})
    assert partial.dual == {1: 1} and partial.known == {(0, 0, 0): 1}
    assert all(type(x) is int for ijk, v in partial.known.items() for x in ijk + (v,))


def test_partial_dual_round_trips_through_json():
    partial = _e4_partial()
    half = PartialRing(partial.labels, partial.unit, partial.dims, partial.grading,
                       dual={4: 10}, known=partial.known)
    data = json.loads(json.dumps(partial_to_dict(half)))
    assert data["dual"] == [["5", "11"]]
    back = partial_from_dict(data)
    assert back.dual == {4: 10, 10: 4}
    assert _outcome(back) == _outcome(half)


def test_row_solve_reports_interval_fallback():
    # nine variables in [0, 9] summing to 9 have C(17, 8) = 24,310 integer
    # solutions, past the enumeration cap: the row gets one round of
    # interval tightening instead of its hull, so it must stay dirty
    partial = _e4_partial()
    state = _State(partial, next(_dual_branches(partial, config.TOLERANCE)), config.TOLERANCE)
    free = state.unassigned()[:9]
    state.lo[free], state.hi[free] = 0, 9
    over_cap = {int(v): 1.0 for v in free}
    assert state._solve_row(over_cap, 9.0, 1e-9) is False
    bounds = state.lo.tobytes(), state.hi.tobytes()
    # the second solve reads the fallback from the memo, still not exact
    assert state._solve_row(over_cap, 9.0, 1e-9) is False
    assert (state.lo.tobytes(), state.hi.tobytes()) == bounds
    assert len(state.memo) == 1 and state.row_solves == 2
    assert state._solve_row({int(v): 1.0 for v in free[:2]}, 3.0, 1e-9) is True

    # a cached conflict is raised again with the same message
    unreachable = {int(v): 1.0 for v in free[2:4]}
    for _ in range(2):
        with pytest.raises(_Conflict) as info:
            state._solve_row(unreachable, 100.0, 1e-9)
        assert str(info.value) == "row sum 100.000000 unreachable in [0.000000, 18.000000]"
    assert len(state.memo) == 3


# ---------------------------------------------------------------------------
# symmetry of the partial ring: searched branches, relabelled leaves, orbits


def _group_order(gens, n):
    # oracle: every element of the group the generators generate
    seen, stack = {tuple(range(n))}, [tuple(range(n))]
    while stack:
        a = stack.pop()
        for g in gens:
            b = tuple(int(g[x]) for x in a)
            if b not in seen:
                seen.add(b)
                stack.append(b)
    return len(seen)


SYMMETRY_INPUTS = {
    # name: (tensor, start colours), group order
    "e4 from Z2 parity": (lambda: _known_tensor(_e4_parity(e4_ring()), config.TOLERANCE), 96),
    "e4 partial fixture": (lambda: _known_tensor(_e4_partial(), config.TOLERANCE), 8),
    "pointed Z2^3": (lambda: (pointed_ring([2, 2, 2]).tensor, [0] * 8), 168),
    "D6 adjacency": (lambda: (dynkin("D", 6), [0] * 6), 2),
    "E7 adjacency": (lambda: (dynkin("E7"), [0] * 7), 1),
}


@pytest.mark.parametrize("name", sorted(SYMMETRY_INPUTS))
def test_automorphism_generators_match_enumeration(name):
    make, order = SYMMETRY_INPUTS[name]
    t, c = make()
    gens = automorphism_generators(t, c)
    assert _group_order(gens, len(c)) == len(isomorphisms(t, t, c, c)) == order
    for g in gens:
        g = list(g)
        assert sorted(g) == list(range(len(c)))
        assert np.array_equal(t[np.ix_(*[g] * t.ndim)], t)
        assert [c[x] for x in g] == list(c)


def _without_nodes(outcome):
    return outcome if isinstance(outcome, str) else outcome[:2]


def _e4_parity_pinned(e4):
    # e4 parity with N_{1 4}^5 = 1 known: 5 orbits of G in 4 classes, so a
    # class is assembled from several orbits
    p = _e4_parity(e4)
    return PartialRing(p.labels, p.unit, p.dims, p.grading, known={(1, 4, 5): 1})


def test_symmetry_matches_trivial_group(monkeypatch, e4):
    # with no generators every dual branch is searched and every solution
    # is its own orbit, which is the search without the symmetry step
    pinned = _e4_parity_pinned(e4)
    result = complete_partial_ring(pinned)
    gens = solve._symmetries(pinned, config.TOLERANCE)
    assert len(solve._orbits(result.solutions, gens)) > len(result.classes) > 1

    partials = [f() for f in ASSOC_CASES.values()] + [pinned] + list(_seeded_partials())
    got = [_outcome(p) for p in partials]
    with monkeypatch.context() as m:
        m.setattr(solve, "_symmetries", lambda partial, tol: [])
        plain = [_outcome(p) for p in partials]
    assert [_without_nodes(o) for o in got] == [_without_nodes(o) for o in plain]
    assert sum(isinstance(o, str) for o in got) == 3

    stats = complete_partial_ring(_e4_parity(e4)).stats
    assert (stats["dual_branches"], stats["branches_by_symmetry"]) == (40, 28)


def test_completions_not_closed_under_symmetry_raise(monkeypatch, e4):
    # drop one leaf of the first searched branch whose dual has a nontrivial
    # stabiliser in G: the stabiliser moves that leaf to another leaf of the
    # branch, so the completions lose their closure and the classing raises
    partial = _e4_parity(e4)
    gens = solve._symmetries(partial, config.TOLERANCE)
    order = _group_order(gens, partial.rank)
    search, depth, dropped = solve._search, [0], []

    def dropping(state, out, cap, stats):
        # _search recurses through this wrapper; depth 0 is a whole branch
        depth[0] += 1
        conflict = search(state, out, cap, stats)
        depth[0] -= 1
        if depth[0] == 0 and not dropped and len(out) > 1:
            sigma = state.values()[:, :, state.unit].argmax(axis=1).tolist()
            if len(solve._conjugates(sigma, gens)) < order:
                dropped.append(out.pop())
        return conflict

    monkeypatch.setattr(solve, "_search", dropping)
    with pytest.raises(RuntimeError, match="not closed under the symmetry"):
        complete_partial_ring(partial)
    assert dropped


def _relabelled(partial, perm):
    # the partial ring with simple i renamed perm[i]
    inv = np.argsort(perm)
    g = partial.grading
    dual = partial.dual and {perm[i]: perm[j] for i, j in partial.dual.items()}
    return PartialRing([partial.labels[x] for x in inv], perm[partial.unit], partial.dims[inv],
                       Grading(g.orders, [g.deg[x] for x in inv]), dual=dual,
                       known={(perm[i], perm[j], perm[k]): v
                              for (i, j, k), v in partial.known.items()})


@pytest.mark.parametrize("name", sorted(ASSOC_CASES))
def test_completions_follow_a_relabelling(name):
    # oracle without the symmetry code: solve a relabelled copy of the
    # partial ring and map its solutions back
    partial = ASSOC_CASES[name]()
    others = [x for x in range(partial.rank) if x != partial.unit]
    perm = list(range(partial.rank))
    for x, y in zip(others, random.Random(name).sample(others, len(others))):
        perm[x] = y
    inv = np.argsort(perm)

    def key(tensor, dual):
        return tensor.tobytes() + np.asarray(dual, dtype=np.int64).tobytes()

    def partition(result, key_of):
        keys = [key_of(ring) for ring in result.solutions]
        return set(keys), {frozenset(keys[x] for x in c) for c in result.classes}

    want = partition(complete_partial_ring(partial), lambda ring: key(ring.tensor, ring.dual))
    got = partition(complete_partial_ring(_relabelled(partial, perm)), lambda ring: key(
        ring.tensor[np.ix_(perm, perm, perm)], inv[ring.dual[perm]]))
    assert got == want
