import json
import math
import os

import numpy as np
import pytest

from fusionrings import (
    ade_ring,
    admissible_generator_bimodules,
    bp_catalog,
    extension_count,
    fp_dims,
    quantum_integer,
)
from fusionrings.catalog import _DATA_DIR
from fusionrings.errors import UnknownFamilyError
from conftest import load_json

CASES = [
    ("adA", 3), ("adA", 4), ("adA", 6), ("adA", 7), ("adA", 9), ("adA", 11),
    ("adD", 4), ("adD", 6), ("adD", 8), ("adD", 10),
    ("adE6", None), ("adE8", None),
]


def test_quantum_integers():
    assert abs(quantum_integer(1, 9) - 1) < 1e-12
    assert abs(quantum_integer(2, 4) - math.sqrt(2)) < 1e-12
    assert abs(quantum_integer(3, 6) - 2) < 1e-12
    assert abs(quantum_integer(3, 5) - (1 + math.sqrt(5)) / 2) < 1e-12


def test_case_routing():
    assert bp_catalog("adA", 3).case == "3"
    assert bp_catalog("adA", 7).case == "7"
    assert bp_catalog("adA", 4).case == "0mod2"
    assert bp_catalog("adA", 9).case == "1mod4"
    assert bp_catalog("adA", 11).case == "3mod4"
    assert bp_catalog("adD", 6).case == "generic"
    assert bp_catalog("adD", 4).case == "4"
    assert bp_catalog("adD", 10).case == "10"
    assert bp_catalog("adE6").case == "generic"
    for family, size in [("adD", 5), ("adD", 2), ("adA", 1), ("adE6", 7), ("xx", None)]:
        with pytest.raises(UnknownFamilyError):
            bp_catalog(family, size)


def test_identity_bimodule_is_first_and_matches_ring():
    for family, size in CASES:
        entry = bp_catalog(family, size)
        first = entry.bimodules[0]
        assert first.order == 1
        ring = ade_ring(family, size)
        np.testing.assert_allclose(
            sorted(first.dims), sorted(fp_dims(ring)), atol=1e-6)


def test_orders_divide_exponent_and_total_dim_is_constant():
    for family, size in CASES:
        entry = bp_catalog(family, size)
        fp0 = sum(d * d for d in entry.bimodules[0].dims)
        for b in entry.bimodules:
            assert entry.exponent % b.order == 0
            assert abs(sum(d * d for d in b.dims) - fp0) < 1e-6 * fp0


def test_brauer_picard_group_names():
    assert bp_catalog("adA", 3).brauer_picard == "Z_2"
    assert bp_catalog("adA", 7).brauer_picard == "D_8"
    assert [b.order for b in bp_catalog("adA", 7).bimodules] == [1, 2, 2, 2, 2, 4, 4, 2]
    d10 = bp_catalog("adD", 10)
    assert d10.brauer_picard == "S_3 x S_3"
    assert len(d10.bimodules) == 36
    # element-order profile of S_3 x S_3: identity, 15 of order 2, 8 of 3, 12 of 6
    from collections import Counter

    orders = Counter(b.order for b in d10.bimodules)
    assert orders == Counter({1: 1, 2: 15, 3: 8, 6: 12})


def test_d10_halved_spinor_piece_meets_e7_profile():
    entry = bp_catalog("adD", 10)
    d_odd = entry.bimodule("D_odd").dims
    e7_even = entry.bimodule("E7_even").dims
    # at q = e^{i pi/18} the odd quantum integers sqrt-rescale onto the
    # bipartite half of the E_7 Perron vector; the profiles coincide
    np.testing.assert_allclose(sorted(d_odd), sorted(e7_even), atol=1e-5)
    five = [round(x, 5) for x in sorted(entry.bimodule("E7_odd").dims)]
    assert five == [2.53209, 3.87939, 7.29086]


def test_admissible_generator_bimodules():
    ids = admissible_generator_bimodules
    assert ids("adA", 4) == ["A_even"]
    assert ids("adA", 6) == ["A_even"]
    assert ids("adA", 3) == ["A_odd"]
    # the order-2 half of the D_5 piece also carries sqrt(2+sqrt(2)) objects
    assert ids("adA", 7) == ["A_odd", "D5_odd", "tw:A_odd", "tw:D5_odd"]
    assert ids("adA", 9) == ["A_odd"]
    assert ids("adA", 11) == ["A_odd"]
    assert ids("adD", 4) == ["D_odd", "PQ:D_odd"]
    assert ids("adD", 6) == ["D_odd", "PQ:D_odd"]
    assert ids("adE6") == ["E_odd"]
    assert ids("adE8") == ["E_odd"]
    d10 = set(ids("adD", 10))
    assert len(d10) == 18
    assert d10 == set(bp_catalog("adD", 10).hom_candidates)


def _expected_total(family, size, M):
    if family == "adE8":
        return 0 if M % 2 else 1
    if family == "adE6":
        return 0 if M % 2 else 2
    if family == "adD":
        if M % 2:
            return 0
        if size in (4, 10):
            return 4 if M % 6 == 0 else 2
        return 2
    # adA
    if size % 2 == 0:
        return 1
    if M % 2:
        return 0
    if size == 3:
        return 2 if M % 4 == 0 else 1
    if size == 7:
        return 4 if M % 4 == 0 else 2
    return 2


def test_extension_counts_match_closed_forms():
    for family, size in CASES:
        for M in range(1, 25):
            rows = extension_count(family, size, M=M)
            total = sum(count for _, _, count in rows)
            assert total == _expected_total(family, size, M), (family, size, M)


def test_extension_count_reports_constraints():
    rows = extension_count("adE6", M=2)
    assert rows == [("1 -> E_odd", "2 | M", 2)]
    rows = extension_count("adA", 4, M=9)
    assert rows == [("1 -> A_even", "any M", 1)]
    for M, match in ((True, "integer"), (3.0, "integer"), (0, ">= 1")):
        with pytest.raises(ValueError, match=match):
            extension_count("adE6", M=M)


# ---------------------------------------------------------------------------
# the catalog tables were typed in twice; the two copies must agree


def _normalize_src(family):
    with open(os.path.join(_DATA_DIR, family + ".json")) as fh:
        data = json.load(fh)
    out = {}
    for case, c in data["cases"].items():
        homs = frozenset(
            (h["hom"], h["bimodule"], h.get("cocycle_fold")) for h in c["homs"])
        actions = {k: _norm_action(v) for k, v in c.get("actions", {}).items()}
        out[case] = (
            c["brauer_picard"], c["exponent"],
            tuple((bid, order) for bid, order in c["bimodules"]),
            tuple(c["inv_centre"]), tuple(c["inv_elements"]),
            actions, homs, tuple(c.get("hom_candidates", ())),
        )
    return out


def _normalize_fixture(records):
    out = {}
    for c in records:
        homs = frozenset((hom, bim, fold) for hom, bim, fold in c["extensions"])
        actions = {k: _norm_action(v) for k, v in c.get("actions", {}).items()}
        out[c["case"]] = (
            c["group"], c["exponent"],
            tuple((m["id"], m["order"]) for m in c["modules"]),
            tuple(c["centre"]["orders"]), tuple(c["centre"]["elements"]),
            actions, homs, tuple(c.get("candidates", ())),
        )
    return out


def _norm_action(a):
    if isinstance(a, str):
        return a
    return tuple(tuple(row) for row in a)


def test_double_transcription_agrees():
    fixture = load_json("invertible_bimodules.json")
    assert set(fixture) == {"adA", "adD", "adE6", "adE8"}
    for family, records in fixture.items():
        assert _normalize_src(family) == _normalize_fixture(records), family
