import tracemalloc

import pytest

from fusionrings import audit_all, audit_row, separation_check, theorem_row
from fusionrings.audit import AuditReport, K_HORIZON, SeparationVerdict
from fusionrings.construct import ROWS, TheoremRowSpec

CHECK_NAMES = {"generator_dim", "generates", "k_normal", "grading", "adjoint"}


def test_audit_row_pointed():
    r = audit_row("pointed", M=5)
    assert isinstance(r, AuditReport)
    assert r.passed
    assert r.failures == []
    assert set(r.checks) == CHECK_NAMES
    assert r.row == "pointed" and r.M == 5 and r.N is None
    assert r.rank == 5
    line = r.line()
    assert line.endswith("pass")
    assert "pointed" in line and "M=5" in line


def test_audit_report_to_dict():
    d = audit_row("pointed", M=2).to_dict()
    assert d["params"] == {"M": 2}
    assert d["passed"] is True
    assert set(d["checks"]) == CHECK_NAMES
    for c in d["checks"].values():
        assert set(c) == {"ok", "detail"}
    d = audit_row("a-odd", M=1).to_dict()
    assert d["params"] == {"N": 2, "M": 1}


def test_audit_row_accepts_spec():
    r = audit_row(TheoremRowSpec("a-even", M=2, N=3))
    assert r.passed
    assert r.N == 3


def test_short_horizon_fails_k_normality():
    r = audit_row("exc4", M=1, k_max=1)
    assert not r.passed
    assert r.failures == ["k_normal"]
    assert "FAIL(k_normal)" in r.line()
    full = audit_row("exc4", M=1, k_max=K_HORIZON)
    assert full.passed
    assert full.checks["k_normal"][1] == "2"


def test_audit_all_table_order():
    reports = audit_all(max_M=1)
    assert [r.row for r in reports] == list(ROWS)
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("a,b,invariant,detail", [
    (("a-odd", 2), ("a-odd-deq-1", 2), "invertible-group", "Z_2 x Z_2 vs Z_4"),
    (("d-even", 3, 2), ("d4-deq", 1), "invertible-group", "Z_3 x Z_3 vs Z_9"),
    (("exc4", 2), ("exc4-deq", 1), "invertible-group", "Z_2 x Z_2 vs Z_4"),
    (("a-odd", 1), ("a-odd-deq-1", 1), "self-dual-count",
     "dimension 1.73205: 2 vs 0"),
])
def test_separation_distinguishes(a, b, invariant, detail):
    v = separation_check(a, b)
    assert v.verdict == "ring-distinguishable"
    assert v.invariant == invariant
    assert v.detail == detail
    assert str(v) == "ring-distinguishable via %s: %s" % (invariant, detail)


def test_separation_isomorphic():
    v = separation_check(("d-even", 1), ("d-even", 1))
    assert v.verdict == "ring-isomorphic"
    assert v.invariant is None and v.detail is None
    assert str(v) == "ring-isomorphic"
    assert v.to_dict() == {"verdict": "ring-isomorphic", "invariant": None,
                           "detail": None}


def test_separation_needs_matching_grading():
    with pytest.raises(ValueError, match="different grading groups"):
        separation_check(("a-odd", 1), ("a3-deq", 1))


@pytest.mark.parametrize("row, M, rank, least_k", [
    ("d4-deq", 3, 36, "1"), ("d4-deq", 4, 48, "1"), ("exc4-deq", 4, 96, "2")])
def test_audit_rows_left_out_of_the_benchmark(row, M, rank, least_k):
    r = audit_row(row, M=M)
    assert r.passed
    assert r.rank == rank
    assert r.checks["k_normal"][1] == least_k


def test_exc4_deq_m4_builds_in_bounded_memory(e4):
    # the dense Deligne product alone would be 768**3 int64 entries, 3.6 GB,
    # and the (1,1) ring 192**3 of them, 57 MB; the quotient is summed from
    # the (1,1) ring's nonzero triples into the 96**3 result, 7.1 MB, and the
    # whole build peaks at about 10 MB, so the bound is about 1.4 times that
    tracemalloc.start()
    try:
        theorem_row("exc4-deq", M=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 10 ** 6
