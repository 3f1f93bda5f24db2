import math
from collections import Counter

import numpy as np
import pytest

from fusionrings import (
    FiniteAbelianGroup,
    FusionRing,
    Grading,
    TheoremRowSpec,
    ade_ring,
    adjoint_subring,
    audit_row,
    deligne_product,
    dequiv_free,
    find_isomorphisms,
    fp_dims,
    invertibles,
    is_k_normal,
    one_one_subring,
    pointed_ring,
    theorem_row,
    universal_grading,
    verify_axioms,
)
from fusionrings import config, construct
from fusionrings.construct import ROWS, expected_adjoint
from fusionrings.ring import restrict
from fusionrings.errors import (
    BoundsExceededError,
    DegenerateGradeError,
    FixedPointError,
    InconsistentGradingError,
    NotASubgroupError,
    UnknownFamilyError,
)


def test_pointed_labels():
    assert pointed_ring((4,)).labels == ("0", "1", "2", "3")
    assert pointed_ring((2, 2)).labels == ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
    assert pointed_ring(()).labels == ("0",)
    ring = pointed_ring(FiniteAbelianGroup((3,)))
    assert ring.dual[1] == 2  # inverse is the dual


def test_ade_families():
    for family, size, rank in [
        ("A", 5, 5), ("adA", 7, 4), ("D", 10, 10), ("adD", 10, 6),
        ("E6", None, 6), ("adE6", None, 3), ("E8", None, 8), ("adE8", None, 4),
    ]:
        ring = ade_ring(family, size)
        assert ring.rank == rank
        assert verify_axioms(ring).ok
    assert ade_ring("A", 5) is ade_ring("A", 5)  # cached
    with pytest.raises(UnknownFamilyError):
        ade_ring("B", 5)
    with pytest.raises(UnknownFamilyError):
        ade_ring("D", 5)
    with pytest.raises(UnknownFamilyError):
        ade_ring("E6", 7)
    with pytest.raises(UnknownFamilyError, match="integer"):
        ade_ring("A", 5.5)  # not truncated to A_5
    for family in ("A", "D", "E6"):
        with pytest.raises(UnknownFamilyError, match="integer"):
            ade_ring(family, "6")  # converted before it is compared
    assert ade_ring("A", np.int64(5)).rank == 5


def test_adjoint_rings_restrict_the_cached_ring(monkeypatch):
    # ade_ring("adX", n) cuts the adjoint subring out of the cached
    # ade_ring("X", n) instead of solving the Dynkin graph again
    def no_solve(*args, **kwargs):
        raise AssertionError("solved the graph again")

    for family, size in (("A", 5), ("D", 6), ("E6", None), ("E8", None)):
        ring = ade_ring(family, size)
        with monkeypatch.context() as m:
            m.setattr(construct, "unique_ring_from_graph", no_solve)
            ad = ade_ring.__wrapped__("ad" + family, size)
        idx = adjoint_subring(ring)
        assert ad == restrict(ring, idx, Grading((), [()] * len(idx)))
        assert ad == ade_ring("ad" + family, size) and ad.rank < ring.rank


def test_d_series_spinor_dims():
    # f0..f{2N-3} carry [1], [2], ...; the two halved spinors close the ring
    d10 = ade_ring("D", 10)
    assert d10.labels[-2:] == ("P", "Q")
    d = fp_dims(d10)
    from fusionrings import quantum_integer

    np.testing.assert_allclose(d[8], quantum_integer(9, 18) / 2, atol=1e-8)
    np.testing.assert_allclose(d[8], d[9], atol=1e-10)


def test_deligne_product(a5):
    z3 = pointed_ring((3,))
    prod = deligne_product(a5, z3)
    assert prod.rank == 15
    assert prod.labels[1] == "(f0,1)"
    da, dp = fp_dims(a5), fp_dims(prod)
    assert abs(dp.total - 3 * da.total) < 1e-6
    assert prod.grading.orders == (2, 3)
    assert verify_axioms(prod).ok


def test_one_one_subring_absorbs_matching_grading():
    a7 = ade_ring("A", 7)
    sub = one_one_subring(deligne_product(a7, pointed_ring((2,))),
                          deligne_product(a7, pointed_ring((2,))).grading)
    assert sub.rank == 7
    assert find_isomorphisms(sub, a7)


def test_one_one_subring_widens_grading():
    prod = deligne_product(ade_ring("E8"), pointed_ring((4,)))
    sub = one_one_subring(prod, prod.grading)
    assert sub.rank == 16
    assert universal_grading(sub).group == FiniteAbelianGroup.cyclic(4)


def test_one_one_grading_errors(a5):
    with pytest.raises(InconsistentGradingError):
        one_one_subring(a5, Grading((2,), [(0,), (0,), (0,), (1,), (0,)]))
    # a Z_4 grading supported on {0, 2} has no simples in degree 1
    z2 = pointed_ring((2,))
    with pytest.raises(DegenerateGradeError):
        one_one_subring(z2, Grading((4,), [(0,), (2,)]))


def test_dequiv_free_quotients():
    z4 = pointed_ring((4,))
    q = dequiv_free(z4, ["2"])
    assert q.rank == 2
    assert invertibles(q).group == FiniteAbelianGroup.cyclic(2)

    with pytest.raises(NotASubgroupError):
        dequiv_free(ade_ring("A", 5), ["f1"])

    with pytest.raises(FixedPointError) as err:
        dequiv_free(ade_ring("A", 7), ["f6"])
    assert err.value.invertible == "f6"
    assert err.value.fixed == "f3"

    # generators may be indices, and may repeat
    assert dequiv_free(z4, [2, "2"]) == q
    with pytest.raises(NotASubgroupError):
        dequiv_free(ade_ring("A", 5), [0, "f1"])


def test_dequiv_free_pipeline():
    prod = deligne_product(ade_ring("A", 5), pointed_ring((8,)))
    sub = one_one_subring(prod, prod.grading)
    quot = dequiv_free(sub, ["(f4,4)"])
    assert quot.rank == 10
    assert invertibles(quot).group == FiniteAbelianGroup.cyclic(4)
    assert universal_grading(quot).group == FiniteAbelianGroup.cyclic(4)
    assert verify_axioms(quot).ok


@pytest.fixture
def spy(monkeypatch):
    """Record the (args, result) of every call to a construct helper."""
    def install(name):
        calls = []
        real = getattr(construct, name)

        def record(*args):
            out = real(*args)
            calls.append((args, out))
            return out

        monkeypatch.setattr(construct, name, record)
        return calls
    return install


def test_one_one_product_matches_dense_oracle(spy):
    calls = spy("_one_one_product")
    checked = []
    for row in ROWS:
        for M in (1, 2, 3):
            start = len(calls)
            theorem_row(row, M=M)
            # every row at M <= 2, among them exc166 and d-even, whose bases
            # have multiplicities up to 5 and 2; at M = 3 every row whose
            # dense product has at most 150 simples
            for (base, n), one_one in calls[start:]:
                if M <= 2 or base.rank * n <= 150:
                    prod = deligne_product(base, pointed_ring((n,)))
                    assert one_one == one_one_subring(prod, prod.grading)
                    checked.append((row, M))
    # every row but pointed takes a (1,1) step, a-even on a trivially graded base
    assert len(calls) == 3 * (len(ROWS) - 1)
    assert {("exc166", 2), ("d-even", 2), ("exc4", 3), ("a-even", 3)} <= set(checked)
    assert sum(M == 3 for _, M in checked) == 10
    # a Z_2 x Z_2 graded base has simples, of degree (1, 0), with no pair
    base = deligne_product(ade_ring("A", 3), ade_ring("A", 5))
    for n in (2, 4):
        prod = deligne_product(base, pointed_ring((n,)))
        one_one = construct._one_one_product(base, n)
        assert one_one == one_one_subring(prod, prod.grading)
    # every pair is reached unless a product is empty; with y (x) x = 0 (not
    # a fusion ring) y is not, and the support goes through restrict
    t = np.zeros((3, 3, 3), dtype=np.int64)
    t[0] = t[:, 0] = np.eye(3, dtype=np.int64)
    t[1, 1, 0] = t[2, 2, 0] = 1
    base = FusionRing(["1", "x", "y"], 0, [0, 1, 2], t, Grading((2,), [(0,), (1,), (0,)]))
    prod = deligne_product(base, pointed_ring((4,)))
    one_one = construct._one_one_product(base, 4)
    assert len(one_one.labels) == 4
    assert one_one == one_one_subring(prod, prod.grading)


def test_moved_degree_fails_both_one_one_paths(a5):
    deg = list(a5.grading.deg)
    deg[1] = (0,)
    bad = FusionRing(a5.labels, a5.unit, a5.dual, a5.tensor, Grading((2,), deg))
    with pytest.raises(InconsistentGradingError):
        construct._one_one_product(bad, 4)
    prod = deligne_product(bad, pointed_ring((4,)))
    with pytest.raises(InconsistentGradingError):
        one_one_subring(prod, prod.grading)


def _orbit_ring_loop(ring, gen):
    # the orbit ring entry by entry: H = the powers of gen,
    # N_[i][j]^[k] = sum over h in H of N_ij^{h.k}
    move = {}
    h = ring.unit
    while h not in move:
        move[h] = [int(np.flatnonzero(ring.tensor[h, x])[0]) for x in range(ring.rank)]
        h = move[h][gen]
    reps, seen = [], set()
    for x in range(ring.rank):
        if x not in seen:
            reps.append(x)
            seen |= {p[x] for p in move.values()}
    t = np.zeros((len(reps),) * 3, dtype=np.int64)
    for a, i in enumerate(reps):
        for b, j in enumerate(reps):
            for c, k in enumerate(reps):
                t[a, b, c] = sum(int(ring.tensor[i, j, p[k]]) for p in move.values())
    return tuple("[%s]" % ring.labels[i] for i in reps), t


QUOTIENT_ROWS = [row for row, recipe in ROWS.items() if recipe.quotient is not None]


def test_dequiv_matches_loop_oracle(spy):
    # a quotient row hands _dequiv the (1,1) ring's nonzero triples; on the
    # dense ring they list, dequiv_free and the loop give the row's ring
    calls = spy("_dequiv")
    for row in QUOTIENT_ROWS:
        build = theorem_row(row, M=2)
        assert len(calls) == 1
        (one_one, (simple,)), (quot, _) = calls.pop()
        assert quot is build.ring
        ring = one_one
        labels, t = _orbit_ring_loop(ring, ring.index(simple))
        assert quot.labels == labels
        assert np.array_equal(quot.tensor, t)
        assert dequiv_free(ring, [simple]) == quot
        calls.clear()
    assert len(QUOTIENT_ROWS) == 6


def test_quotient_rows_match_dense_oracle():
    # theorem_row against dequiv_free on the dense (1,1) ring of the dense
    # product: every quotient row at M <= 2, and at M = 3 every one whose
    # dense product has at most 150 simples
    checked = []
    for row in QUOTIENT_ROWS:
        recipe = ROWS[row]
        N = recipe.N and recipe.N[1]
        base, _ = recipe.base(N)
        label, k = recipe.quotient
        for M in (1, 2, 3):
            n = recipe.n * M
            if M == 3 and base.rank * n > 150:
                continue
            prod = deligne_product(base, pointed_ring((n,)))
            dense = dequiv_free(one_one_subring(prod, prod.grading),
                                ["(%s,%d)" % (label(N), k * M)])
            assert theorem_row(row, M=M).ring == dense
            checked.append((row, M))
    assert len(checked) == 16
    assert ("d4-deq", 3) not in checked and ("exc4-deq", 3) not in checked


def test_dense_tensors_past_the_bound_raise_before_allocating():
    # 1600**3 int64 entries would take about 32.8 GB
    with pytest.raises(BoundsExceededError):
        deligne_product(ade_ring("A", 40), ade_ring("A", 40))
    # the least M whose returned ring, of rank 24M, passes 2**31 bytes; its
    # (1,1) ring would be 1296**3 entries, 17.4 GB
    assert 624 ** 3 * 8 <= config.MAX_DENSE_BYTES < 648 ** 3 * 8
    with pytest.raises(BoundsExceededError):
        theorem_row("exc4-deq", M=27)


def test_dense_bound_applies_to_the_returned_ring(monkeypatch):
    # exc4-deq at M=4 returns 96**3 int64 entries, 7.1 MB, while its (1,1)
    # ring would be 192**3 of them, 56.6 MB
    monkeypatch.setattr(config, "MAX_DENSE_BYTES", 8 * 10 ** 6)
    assert theorem_row("exc4-deq", M=4).ring.rank == 96
    with pytest.raises(BoundsExceededError):
        theorem_row("exc4-deq", M=5)  # rank 120, 13.8 MB
    with pytest.raises(BoundsExceededError):
        theorem_row("exc4", M=9)  # no quotient: its (1,1) ring, rank 108, is the result


def test_table_rows_stay_far_below_the_dense_bound(monkeypatch):
    monkeypatch.setattr(config, "MAX_DENSE_BYTES", config.MAX_DENSE_BYTES // 16)
    for row in ROWS:
        for M in range(1, 5):
            theorem_row(row, M=M)


def test_row_spec_validation():
    with pytest.raises(UnknownFamilyError):
        TheoremRowSpec("nonsense")
    with pytest.raises(ValueError):
        TheoremRowSpec("pointed", M=0)
    with pytest.raises(ValueError):
        TheoremRowSpec("e8", N=2)  # fixed-size row
    with pytest.raises(ValueError):
        TheoremRowSpec("d-even", N=1)  # series starts at D_4
    for kw in ({"M": True}, {"M": 2.0}):  # no bool or float is read as an integer
        with pytest.raises(ValueError, match="integer"):
            TheoremRowSpec("e6", **kw)
    with pytest.raises(ValueError, match="integer"):
        TheoremRowSpec("d-even", N=True)

    spec = TheoremRowSpec("exc4-deq", M=3)
    assert spec.grading_order == 24
    assert TheoremRowSpec("a-odd", M=2).grading_order == 4
    assert TheoremRowSpec("pointed", M=7).grading_order == 7
    assert "M" in ROWS[spec.row].display


def test_row_parameters_must_be_integers():
    # a non-integral M or N raises instead of being truncated
    for bad in ({"M": 2.5}, {"M": 2.0}, {"M": "2"}, {"N": 3.9}):
        row = "d-even" if "N" in bad else "e6"
        with pytest.raises(ValueError, match="integer"):
            TheoremRowSpec(row, **bad)
    with pytest.raises(ValueError):
        theorem_row("pointed", M=2.7)
    with pytest.raises(ValueError):
        audit_row("d-even", M=1, N=3.5)
    # Python and numpy integers both work
    spec = TheoremRowSpec("d-even", M=np.int64(2), N=np.int32(3))
    assert (spec.M, spec.N) == (2, 3) and type(spec.M) is int and type(spec.N) is int
    assert theorem_row("pointed", M=np.int64(3)).ring.rank == 3
    assert repr(TheoremRowSpec.at_order("e6", np.int64(4))) == "TheoremRowSpec('e6', M=2)"


def test_rows_table_shape():
    assert len(ROWS) == 14
    orders = []
    for row, recipe in ROWS.items():
        assert recipe._fields == ("display", "base", "n", "adjoint", "gen", "quotient", "N")
        orders.append(TheoremRowSpec(row).grading_order)
        assert (recipe.base is None) == (row == "pointed")
    # the grading orders at M = 1, in table order
    assert orders == [1, 1, 2, 2, 2, 4, 2, 6, 2, 2, 2, 4, 8, 6]


# the generator and construction steps of every row at M=2, default N
ROW_STEPS_M2 = {
    "pointed": ("1", ["pointed_ring(Z_2)"]),
    "a-even": ("(f2,1)", ["deligne_product(ad(A_4), Vec(Z_2))", "one_one_subring over Z_2"]),
    "a-odd": ("(f1,1)", ["deligne_product(A_5, Vec(Z_4))", "one_one_subring over Z_2 x Z_4"]),
    "a-odd-deq-1": ("[(f1,1)]", ["deligne_product(A_5, Vec(Z_8))",
                                 "one_one_subring over Z_2 x Z_8", "dequiv_free by <(f4,4)>"]),
    "a-odd-deq-3": ("[(f1,1)]", ["deligne_product(A_7, Vec(Z_8))",
                                 "one_one_subring over Z_2 x Z_8", "dequiv_free by <(f6,4)>"]),
    "a3-deq": ("[(f1,1)]", ["deligne_product(A_3, Vec(Z_16))",
                            "one_one_subring over Z_2 x Z_16", "dequiv_free by <(f2,8)>"]),
    "d-even": ("(f1,1)", ["deligne_product(D_6, Vec(Z_4))", "one_one_subring over Z_2 x Z_4"]),
    "d4-deq": ("[(f1,1)]", ["deligne_product(D_4, Vec(Z_36))",
                            "one_one_subring over Z_2 x Z_36", "dequiv_free by <(P,12)>"]),
    "e6": ("(f1,1)", ["deligne_product(E_6, Vec(Z_4))", "one_one_subring over Z_2 x Z_4"]),
    "e6-deq": ("[(f1,1)]", ["deligne_product(E_6, Vec(Z_8))",
                            "one_one_subring over Z_2 x Z_8", "dequiv_free by <(Z,4)>"]),
    "e8": ("(f1,1)", ["deligne_product(E_8, Vec(Z_4))", "one_one_subring over Z_2 x Z_4"]),
    "exc4": ("(5,1)", ["deligne_product(E4, Vec(Z_8))", "one_one_subring over Z_4 x Z_8"]),
    "exc4-deq": ("[(5,1)]", ["deligne_product(E4, Vec(Z_32))",
                             "one_one_subring over Z_4 x Z_32", "dequiv_free by <(4,16)>"]),
    "exc166": ("(a0,1)", ["deligne_product(E16,6, Vec(Z_12))",
                          "one_one_subring over Z_6 x Z_12"]),
}


def test_row_recipes_at_m2():
    assert set(ROW_STEPS_M2) == set(ROWS)
    for row, (generator, steps) in ROW_STEPS_M2.items():
        build = theorem_row(row, M=2)
        assert build.ring.labels[build.generator] == generator
        assert build.provenance["generator"] == generator
        assert build.provenance["steps"] == steps


def test_spec_coercion():
    spec = TheoremRowSpec("e6", M=1)
    assert TheoremRowSpec.coerce(spec) is spec
    assert repr(TheoremRowSpec.coerce(("d-even", 2, 4))) == "TheoremRowSpec('d-even', M=2, N=4)"
    assert repr(TheoremRowSpec.coerce("a-odd", N=3)) == "TheoremRowSpec('a-odd', M=1, N=3)"
    # M or N next to a spec or a tuple would be ignored, so they raise
    for given in (spec, ("e6", 1)):
        for extra in ({"M": 3}, {"N": 2}):
            with pytest.raises(ValueError):
                TheoremRowSpec.coerce(given, **extra)
    with pytest.raises(ValueError):
        theorem_row(TheoremRowSpec("d-even"), M=2, N=5)
    with pytest.raises(ValueError):
        audit_row(spec, M=3)


def test_spec_at_grading_order():
    assert repr(TheoremRowSpec.at_order("exc4-deq", 24)) == "TheoremRowSpec('exc4-deq', M=3)"
    # N reaches only the rows that take one
    assert TheoremRowSpec.at_order("e6", 4, N=5).N is None
    assert TheoremRowSpec.at_order("d-even", 4, N=5).N == 5
    with pytest.raises(ValueError):
        TheoremRowSpec.at_order("d4-deq", 4)
    with pytest.raises(UnknownFamilyError):
        TheoremRowSpec.at_order("nonsense", 4)


def test_theorem_row_builds():
    build = theorem_row("exc4", M=1)
    from fusionrings import e4_ring

    assert find_isomorphisms(build.ring, e4_ring())
    assert build.provenance["row"] == "exc4"
    assert build.provenance["generator"] == build.ring.labels[build.generator]
    assert set(build.provenance) >= {"row", "category", "params", "grading_order",
                                     "generator", "steps"}


def test_expected_adjoints():
    assert find_isomorphisms(expected_adjoint(TheoremRowSpec("exc166")),
                             ade_ring("adD", 10))
    assert find_isomorphisms(expected_adjoint(TheoremRowSpec("a-even", N=2)),
                             ade_ring("adA", 4))


def test_e4_ring_properties(e4):
    assert e4.rank == 12
    assert verify_axioms(e4).ok
    assert universal_grading(e4).group == FiniteAbelianGroup.cyclic(4)
    assert invertibles(e4).group == FiniteAbelianGroup.cyclic(2)
    d = fp_dims(e4)
    assert abs(d[e4.labels.index("5")] - math.sqrt(2 + math.sqrt(2))) < 1e-9
    # noncommutative: the strict 2-normality below depends on it
    assert not np.array_equal(e4.tensor, e4.tensor.transpose(1, 0, 2))
    assert is_k_normal(e4, e4.labels.index("5"), k_max=8).least == 2


def test_e166_ring_properties(e166):
    assert e166.rank == 24
    assert verify_axioms(e166).ok
    g = universal_grading(e166)
    assert g.group == FiniteAbelianGroup.cyclic(6)
    assert g.deg[e166.labels.index("a0")] == (1,)
    coarse = Counter(d[0] % 3 for d in g.deg)
    assert (coarse[0], coarse[1], coarse[2]) == (10, 7, 7)
    d = fp_dims(e166)
    assert abs(d[e166.labels.index("a0")] - 2 * math.cos(math.pi / 18)) < 1e-9
    adj_labels = {e166.labels[i] for i in
                  __import__("fusionrings").adjoint_subring(e166)}
    assert adj_labels == {"f0", "f2", "f4", "f6", "P", "Q"}
