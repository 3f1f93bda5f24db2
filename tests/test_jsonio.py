import json
import tracemalloc

import numpy as np
import pytest

from fusionrings import (
    ade_ring,
    config,
    find_isomorphisms,
    load_ring,
    pointed_ring,
    ring_from_dict,
    ring_to_dict,
    theorem_row,
)
from fusionrings.errors import BoundsExceededError, RingFormatError
from fusionrings.jsonio import dump_ring, load_partial, partial_from_dict, partial_to_dict
from conftest import data_path


def test_ring_round_trip(e4, tmp_path):
    path = tmp_path / "ring.json"
    dump_ring(e4, path)
    back = load_ring(path)
    assert back.labels == e4.labels
    assert back.unit == e4.unit
    assert list(back.dual) == list(e4.dual)
    assert np.array_equal(back.tensor, e4.tensor)
    assert back.grading == e4.grading


def test_extra_keys_tolerated(e4):
    data = ring_to_dict(e4)
    data["provenance"] = {"anything": True}
    back = ring_from_dict(data)
    assert np.array_equal(back.tensor, e4.tensor)


def test_grading_optional():
    a3 = ade_ring("A", 3)
    data = ring_to_dict(a3)
    del data["grading"]
    back = ring_from_dict(data)
    assert back.grading is None
    assert find_isomorphisms(back, a3)


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.pop("labels"), "labels"),
    (lambda d: d.__setitem__("labels", ["f0", "f0", "f1"]), "distinct"),
    (lambda d: d.__setitem__("unit", "zz"), "unit"),
    (lambda d: d.__setitem__("rank", 99), "rank"),
    (lambda d: d.pop("dual"), "dual"),
    (lambda d: d["dual"].append(["f0", "f2"]), "dual"),
    (lambda d: d["tensor"].append(["f0", "f0", "zz", 1]), "zz"),
    (lambda d: d["grading"].__setitem__("orders", [0]), "orders"),
    (lambda d: d["grading"]["deg"].pop(), "degree"),
])
def test_format_errors(mutate, fragment):
    data = ring_to_dict(ade_ring("A", 3))
    mutate(data)
    with pytest.raises(RingFormatError) as err:
        ring_from_dict(data)
    assert fragment in str(err.value)


def _set(path, value):
    # a mutation of the JSON data setting data[path[0]][path[1]]... to value
    def mutate(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return mutate


@pytest.mark.parametrize("ring,mutate", [
    (("A", 3), _set(("tensor", 0, 3), True)),            # would load as N = 1
    (("A", 3), _set(("grading", "orders"), [True])),     # would load as Z_1
    (("A", 3), _set(("grading", "deg", 1, 1), [True])),
    ((), _set(("rank",), True)),                          # the rank-1 ring
])
def test_json_booleans_are_not_integers(ring, mutate):
    data = ring_to_dict(ade_ring(*ring) if ring else pointed_ring(()))
    ring_from_dict(json.loads(json.dumps(data)))
    mutate(data)
    with pytest.raises(RingFormatError):
        ring_from_dict(data)


def test_partial_dims_are_not_booleans():
    data = partial_to_dict(load_partial(data_path("e4_partial.json")))
    unit = data["unit"]
    data["dims"] = [[l, True if l == unit else d] for l, d in data["dims"]]
    with pytest.raises(RingFormatError, match="numbers"):
        partial_from_dict(data)


def test_partial_round_trip(tmp_path):
    partial = load_partial(data_path("e4_partial.json"))
    assert partial.rank == 12
    assert partial.dual is None and partial.known == {}

    data = partial_to_dict(partial)
    again = partial_from_dict(data)
    assert again.labels == partial.labels
    np.testing.assert_allclose(again.dims, partial.dims)


def test_known_zero_vs_unknown():
    data = {
        "labels": ["e", "x"], "unit": "e",
        "dual": [["e", "e"], ["x", "x"]],
        "dims": [["e", 1.0], ["x", 1.0]],
        "grading": {"orders": [2], "deg": [["e", [0]], ["x", [1]]]},
        "known": [["x", "x", "x", 0]],
    }
    partial = partial_from_dict(data)
    # the explicit zero is a known entry; everything else stays unknown
    assert partial.known == {(1, 1, 1): 0}


def test_partial_dual_may_cover_some_labels():
    data = partial_to_dict(load_partial(data_path("e4_partial.json")))
    data["dual"] = [["5", "11"]]
    assert partial_from_dict(data).dual == {4: 10, 10: 4}
    data["dual"].append(["6", "11"])
    with pytest.raises(RingFormatError, match="conflicting duals"):
        partial_from_dict(data)


def test_partial_checks_surface_as_format_errors(tmp_path):
    data = partial_to_dict(load_partial(data_path("e4_partial.json")))
    unit = data["unit"]
    data["dims"] = [[l, 2.0 if l == unit else d] for l, d in data["dims"]]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(data))
    with pytest.raises(RingFormatError, match="unit must have dimension 1"):
        load_partial(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_partial_dims_must_be_finite_and_positive(tmp_path, value):
    # json writes and reads NaN and Infinity, so a file can carry them
    data = partial_to_dict(load_partial(data_path("e4_partial.json")))
    data["dims"][1][1] = value
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(data))
    with pytest.raises(RingFormatError, match="dims must be finite and positive"):
        load_partial(path)


def test_ring_from_dict_keeps_its_one_tensor():
    # the tensor is built once, from the triples, and kept read-only without
    # a copy (a second copy would make the peak 2x)
    ring = theorem_row("exc4-deq", M=4).ring
    assert ring.rank == 96
    data = ring_to_dict(ring)
    tracemalloc.start()
    try:
        back = ring_from_dict(data)
        back.tensor  # built from the triples on first read
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == ring
    assert not back.tensor.flags.writeable
    assert peak <= 1.5 * ring.tensor.nbytes


def test_load_ring_checks_the_dense_bound(e4, tmp_path, monkeypatch):
    path = tmp_path / "ring.json"
    dump_ring(e4, path)
    monkeypatch.setattr(config, "MAX_DENSE_BYTES", e4.tensor.nbytes - 1)
    with pytest.raises(BoundsExceededError):
        load_ring(path)
    monkeypatch.setattr(config, "MAX_DENSE_BYTES", e4.tensor.nbytes)
    assert load_ring(path) == e4
