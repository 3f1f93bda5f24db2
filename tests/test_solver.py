import itertools

import numpy as np
import pytest

from fusionrings import (
    PartialRing,
    ade_ring,
    complete_partial_ring,
    dynkin,
    find_isomorphisms,
    fp_dims,
    ring_from_generator_graph,
    unique_ring_from_graph,
    verify_axioms,
)
from fusionrings import config
from fusionrings.errors import (
    MalformedRingError,
    NoSolutionError,
    SearchCapExceededError,
)
from fusionrings.solve import _dual_branches, _State
from conftest import data_path


def _e4_partial():
    from fusionrings.jsonio import load_partial

    return load_partial(data_path("e4_partial.json"))


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
    # the solver stress case: e4 from its dimensions and the Z_2 parity of
    # its Z_4 grading, with no fusion coefficient known
    from fusionrings.ring import Grading

    parity = Grading((2,), [(d[0] % 2,) for d in e4.grading.deg])
    partial = PartialRing(list(e4.labels), e4.unit, [float(x) for x in fp_dims(e4)], parity)
    result = complete_partial_ring(partial)
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
    from fusionrings.ring import Grading

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
    tol = config.tolerance()
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
