import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fusionrings import (
    Digraph,
    FiniteAbelianGroup,
    FusionRing,
    Grading,
    ade_ring,
    adjoint_subring,
    decompose_word,
    digraph_iso,
    dynkin,
    find_isomorphisms,
    fp_dims,
    fusion_graph,
    invertibles,
    is_generator,
    is_k_normal,
    pointed_ring,
    quantum_integer,
    subring_generated,
    theorem_row,
    universal_grading,
    verify_axioms,
)
from fusionrings.construct import ROWS, dequiv_free
from fusionrings import config
from fusionrings.errors import (
    BoundsExceededError,
    FixedPointError,
    InconsistentGradingError,
    MalformedRingError,
)
from fusionrings.graphs import components, perron_vector, unique_rows
from fusionrings.ring import GradedInstances, associativity_sides, grading_violations, restrict
from conftest import group_from_presentation


def test_a_series_dims_are_quantum_integers(a5):
    assert verify_axioms(a5).ok
    d = fp_dims(a5)
    expected = [quantum_integer(m, 6) for m in range(1, 6)]
    np.testing.assert_allclose(d.tolist(), expected, atol=1e-8)
    assert d.residual < 1e-6
    assert abs(d.total - sum(x * x for x in expected)) < 1e-6


def test_axiom_violations_are_detected(a5):
    t = a5.tensor.copy()
    t[1, 1, 2] += 1  # breaks f1 (x) f1 = f0 + f2
    broken = FusionRing(a5.labels, a5.unit, a5.dual, t, a5.grading)
    report = verify_axioms(broken)
    assert not report.ok
    kinds = {kind for kind, _ in report.violations}
    assert "associativity" in kinds or "frobenius" in kinds


def _associativity_oracle(t):
    # exact int64 (N_i N_j)_k^l versus N_i (N_j N_k), every instance at once
    lhs = np.einsum("ijm,mkl->ijkl", t, t)
    rhs = np.einsum("jkm,iml->ijkl", t, t)
    return [tuple(int(x) for x in idx) for idx in np.argwhere(lhs != rhs)]


def _associativity_violations(ring):
    return [idx for kind, idx in verify_axioms(ring).violations if kind == "associativity"]


def test_associativity_matches_integer_oracle_above_rank_24():
    ring = theorem_row("exc166", M=2).ring
    assert ring.rank == 48 and verify_axioms(ring).ok
    t = ring.tensor.copy()
    i, j, k = next(ijk for ijk in zip(*np.nonzero(t)) if ring.unit not in ijk)
    t[i, j, k] += 1
    broken = FusionRing(ring.labels, ring.unit, ring.dual, t, ring.grading)
    found = _associativity_violations(broken)
    assert found and found == _associativity_oracle(t)


def test_associativity_bound_is_checked(a5):
    # r * max(N)**2 just below 2**53: still checked, and exactly
    big = math.isqrt((2 ** 53 - 1) // a5.rank)
    t = a5.tensor.copy()
    t[1, 1, 2] = big
    below = FusionRing(a5.labels, a5.unit, a5.dual, t, a5.grading)
    found = _associativity_violations(below)
    assert found and found == _associativity_oracle(t)
    t = t.copy()  # FusionRing froze the first copy
    t[1, 1, 2] = big + 1
    with pytest.raises(BoundsExceededError):
        verify_axioms(FusionRing(a5.labels, a5.unit, a5.dual, t, a5.grading))


def _cell_oracle(ring):
    # every identity, one cell at a time, in verify_axioms' order of kinds
    t, r, u, dual = ring.tensor.tolist(), ring.rank, ring.unit, ring.dual.tolist()
    cells = list(itertools.product(range(r), repeat=3))
    out = [("unit-left", (u, j, k)) for j in range(r) for k in range(r) if t[u][j][k] != (j == k)]
    out += [("unit-right", (i, u, k)) for i in range(r) for k in range(r) if t[i][u][k] != (i == k)]
    out += [("duality", (i, j, u)) for i in range(r) for j in range(r)
            if t[i][j][u] != (j == dual[i])]
    out += [("frobenius", (i, j, k)) for i, j, k in cells
            if not t[i][j][k] == t[dual[i]][k][j] == t[k][dual[j]][i]]
    out += [("associativity", (i, j, k, l)) for i, j, k in cells for l in range(r)
            if sum(t[i][j][m] * t[m][k][l] for m in range(r))
            != sum(t[j][k][m] * t[i][m][l] for m in range(r))]
    g = ring.grading
    if g is not None:
        out += [("grading", (i, j, k)) for i, j, k in cells
                if t[i][j][k] and g.add(g.degree(i), g.degree(j)) != g.degree(k)]
        out += [("grading-dual", (i,)) for i in range(r)
                if g.degree(dual[i]) != g.neg(g.degree(i))]
        if any(g.degree(u)):
            out.append(("grading-unit", (u,)))
    return out


def _axiom_oracle(ring):
    # the dense check, one left factor i at a time: both Frobenius identities
    # on r x r slices and both sides of associativity on all r^3 (j, k, l)
    t, r, u, dual = ring.tensor, ring.rank, ring.unit, ring.dual
    eye = np.eye(r, dtype=np.int64)
    out = [("unit-left", (u, int(j), int(k))) for j, k in np.argwhere(t[u] != eye)]
    out += [("unit-right", (int(i), u, int(k))) for i, k in np.argwhere(t[:, u, :] != eye)]
    dual_mat = np.zeros((r, r), dtype=np.int64)
    dual_mat[np.arange(r), dual] = 1
    out += [("duality", (int(i), int(j), u)) for i, j in np.argwhere(t[:, :, u] != dual_mat)]
    tf = t.astype(np.float64)
    frobenius, associativity = [], []
    for i in range(r):
        bad = (t[i] != t[dual[i]].T) | (t[i] != t[:, dual, i].T)
        frobenius += [("frobenius", (i, int(j), int(k))) for j, k in np.argwhere(bad)]
        lhs = (tf[i] @ tf.reshape(r, r * r)).reshape(r, r, r)    # sum_m N_ij^m N_mk^l
        rhs = (tf.reshape(r * r, r) @ tf[i]).reshape(r, r, r)    # sum_m N_jk^m N_im^l
        associativity += [("associativity", (i, int(j), int(k), int(l)))
                          for j, k, l in np.argwhere(lhs != rhs)]
    out += frobenius + associativity
    g = ring.grading
    if g is not None:
        out += [("grading", ijk) for ijk in _grading_violations_loop(t, g)]
        out += [("grading-dual", (i,)) for i in range(r)
                if g.degree(int(dual[i])) != g.neg(g.degree(i))]
        if any(g.degree(u)):
            out.append(("grading-unit", (u,)))
    return out


def test_axiom_violations_match_loop_oracle(e4):
    # one raised coefficient N_{1,j}^k, k of another degree than j: the unit
    # law, Frobenius, associativity and the grading all fail, and the broken
    # grading leaves the dense rank^4 check
    t = e4.tensor.copy()
    j = e4.index("5")
    k = next(k for k in range(e4.rank)
             if k != e4.unit and e4.grading.deg[k] != e4.grading.deg[j])
    t[e4.unit, j, k] += 1
    raised = FusionRing(e4.labels, e4.unit, e4.dual, t, e4.grading)
    found = verify_axioms(raised).violations
    assert {kind for kind, _ in found} == {"unit-left", "frobenius", "associativity", "grading"}
    assert found == _cell_oracle(raised) == _axiom_oracle(raised)
    # one swapped dual pair of Z_5 (1 <-> 3 and 2 <-> 4 instead of 1 <-> 4 and
    # 2 <-> 3): only duality and Frobenius fail, each Frobenius cell once
    z5 = pointed_ring((5,))
    swapped = FusionRing(z5.labels, z5.unit, [0, 3, 4, 1, 2], z5.tensor)
    found = verify_axioms(swapped).violations
    assert {kind for kind, _ in found} == {"duality", "frobenius"}
    assert found == _cell_oracle(swapped) == _axiom_oracle(swapped)
    assert verify_axioms(e4).violations == _cell_oracle(e4) == _axiom_oracle(e4) == []


def _with_one_raised(ring, rng):
    # the ring and a copy with one nonzero coefficient off the unit raised by
    # 1, when there is one (its grading stays multiplicative, so the graded
    # check runs on it)
    i, j, k, _ = ring.triples
    off_unit = np.flatnonzero((i != ring.unit) & (j != ring.unit) & (k != ring.unit))
    if not len(off_unit):
        return [ring]
    e = rng.choice(off_unit)
    t = ring.tensor.copy()
    t[i[e], j[e], k[e]] += 1
    return [ring, FusionRing(ring.labels, ring.unit, ring.dual, t, ring.grading)]


@pytest.mark.parametrize("row", ROWS)
def test_axiom_reports_match_per_factor_oracle(row):
    rng = np.random.default_rng(20261020)
    for M in (1, 2, 3):
        for ring in _with_one_raised(theorem_row(row, M=M).ring, rng):
            assert verify_axioms(ring).violations == _axiom_oracle(ring), (row, M)


def test_axiom_reports_match_per_factor_oracle_off_the_table(e4, e166):
    rng = np.random.default_rng(20261020)
    rings = [e4, e166, pointed_ring([2, 2, 2])]
    # a grading with violations: the one-degree (rank^4) check runs instead
    deg = list(e166.grading.deg)
    deg[e166.index("a0")] = (2,)
    rings.append(FusionRing(e166.labels, e166.unit, e166.dual, e166.tensor, Grading((6,), deg)))
    for ring in rings:
        for copy in _with_one_raised(ring, rng):
            found = verify_axioms(copy).violations
            assert found == _axiom_oracle(copy)
            assert ("associativity" in {kind for kind, _ in found}) == (copy is not ring)


# gradings of five or six simples: trivial, degrees that are no subgroup
# (1 + 1 = 2 is no simple's degree), two factors, and unequal components
KERNEL_GRADINGS = {
    "trivial": Grading((), [()] * 5),
    "Z4 on 0, 1, 3": Grading((4,), [(0,), (1,), (3,), (1,), (0,)]),
    "Z2 x Z2": Grading((2, 2), [(0, 0), (1, 0), (0, 1), (1, 1), (1, 1), (0, 0)]),
    "Z3 3, 2, 1": Grading((3,), [(0,), (0,), (1,), (0,), (1,), (2,)]),
}


@pytest.mark.parametrize("name", sorted(KERNEL_GRADINGS))
def test_associativity_sides_match_dense_contractions(name):
    g = KERNEL_GRADINGS[name]
    r = len(g.deg)
    rng = np.random.default_rng(20261020)
    deg = np.array(g.deg, dtype=np.int64).reshape(r, -1)
    orders = np.array(g.orders, dtype=np.int64)
    # two channels of random integers on the triples (i, j, m) with
    # deg m = deg i + deg j, zero elsewhere
    on = ~((deg[:, None, None] + deg[None, :, None] - deg[None, None, :]) % orders).any(axis=3)
    x, y = (rng.integers(-3, 4, (2, r, r, r)) * on for _ in range(2))
    graded = ~((deg[:, None, None, None] + deg[None, :, None, None] + deg[None, None, :, None]
                - deg[None, None, None, :]) % orders).any(axis=4)
    layout = GradedInstances(g, r)
    assert layout.size == graded.sum()
    per_factor = graded.sum(axis=(1, 2, 3))
    # budgets below one left factor and over several, then the one chunk of
    # every instance, which is kept from then on
    for budget in (1, 40, 300, None, 1):
        for stack in (x, y), (x[0], y[0]):
            a, b = (z.reshape(-1, r, r, r) for z in stack)
            lhs = np.einsum("cijm,cmkl->ijkl", a, b)
            rhs = np.einsum("cjkm,ciml->ijkl", a, b)
            assert not lhs[~graded].any() and not rhs[~graded].any()
            seen = np.zeros((r,) * 4, dtype=int)
            # left and right are read before the next chunk overwrites them
            for chunk, left, right in associativity_sides(layout, *stack, budget):
                ijkl = layout.instances(chunk, np.arange(chunk.size))
                factors = np.unique(ijkl[0])
                assert chunk.size == per_factor[factors].sum()  # whole left factors
                assert chunk.size == layout.size or chunk.size <= max(budget, per_factor.max())
                assert np.array_equal(left, lhs[ijkl]) and np.array_equal(right, rhs[ijkl])
                np.add.at(seen, ijkl, 1)
            assert np.array_equal(seen, graded)


def test_verify_axioms_peak_memory():
    # sized against the int64 tensor.  Under its Z_6 grading the row's check
    # holds the float64 block gathers of the tensor and one buffer for the
    # chunks' left sides, products and placed right sides (about 1.7x).
    # With the grading dropped it holds one float64 copy of the tensor, read
    # in place as the one block, and a buffer for a left factor's two sides,
    # r^3 entries each (about 3.3x; the dense loop over i it replaces held
    # 3.2x).  Gathering that block, or placing its products through an index
    # array, would take it past 4x, and an r^3 permuted copy per Frobenius
    # identity past 5x.
    ring = theorem_row("exc166", M=2).ring
    assert ring.rank == 48
    ungraded = FusionRing(ring.labels, ring.unit, ring.dual, ring.tensor, None)
    for rg, bound in ((ring, 4.5), (ungraded, 3.5)):
        tracemalloc.start()
        try:
            assert verify_axioms(rg).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * ring.tensor.nbytes


def _grading_violations_loop(tensor, g):
    # the per-nonzero check, one triple at a time
    out = []
    for i, j, k in np.argwhere(tensor > 0):
        if g.add(g.degree(int(i)), g.degree(int(j))) != g.degree(int(k)):
            out.append((int(i), int(j), int(k)))
    return out


def test_grading_violations_match_loop(e166):
    t = e166.tensor
    assert grading_violations(e166, e166.grading) == []
    assert grading_violations(e166, Grading((), [()] * e166.rank)) == []
    deg = list(e166.grading.deg)
    deg[e166.index("a0")] = (2,)
    rng = random.Random(20261018)
    wrong = [Grading((6,), deg),
             Grading((6, 2), [(rng.randrange(6), rng.randrange(2)) for _ in deg])]
    for g in wrong:
        bad = grading_violations(e166, g)
        assert bad and bad == _grading_violations_loop(t, g)
        ring = FusionRing(e166.labels, e166.unit, e166.dual, t, g)
        assert [idx for kind, idx in verify_axioms(ring).violations if kind == "grading"] == bad


def test_perron_vector_matches_eigenvector():
    # the iteration stops once a step moves less than 1e-13; on D_10 the top
    # two eigenvalues of A + I have ratio 0.92, which leaves about 1.1e-12
    for family, n in (("A", 5), ("D", 6), ("D", 10), ("E6", None), ("E7", None), ("E8", None)):
        a = dynkin(family, n)
        w, vecs = np.linalg.eig(a.astype(np.float64))
        x = np.abs(vecs[:, np.argmax(w.real)].real)
        np.testing.assert_allclose(perron_vector(a), x / x.max(), rtol=0, atol=2e-12)


def test_malformed_dual_rejected(a5):
    with pytest.raises(MalformedRingError):
        FusionRing(a5.labels, a5.unit, [0, 1, 2, 3, 3], a5.tensor)


def test_ring_unit_must_be_an_integer(a5):
    with pytest.raises(MalformedRingError, match="integer"):
        FusionRing(a5.labels, 0.9, a5.dual, a5.tensor)  # not truncated to 0
    assert FusionRing(a5.labels, np.int64(0), a5.dual, a5.tensor).unit == 0


def test_ring_neither_freezes_nor_shares_callers_arrays(a5):
    t = a5.tensor.copy()
    dual = np.array(a5.dual)
    ring = FusionRing(a5.labels, a5.unit, dual, t)
    assert t.flags.writeable and dual.flags.writeable
    t[:] = 0
    dual[:] = 0
    assert ring == FusionRing(a5.labels, a5.unit, a5.dual, a5.tensor)
    assert not ring.tensor.flags.writeable and not ring.dual.flags.writeable
    # a read-only array, such as another ring's tensor, is shared as is
    assert FusionRing(a5.labels, a5.unit, a5.dual, a5.tensor).tensor is a5.tensor


def test_from_triples_checks_its_arrays(a5):
    i, j, k, v = a5.triples
    head = (a5.labels, a5.unit, a5.dual)
    bad = [((i[:-1], j, k, v), "one length"),
           ((i, j, np.where(k == 4, 5, k), v), "out of range"),
           ((np.where(i == 4, -1, i), j, k, v), "out of range"),
           ((i, j, k, -v), "negative"),
           ((i, j, k, v.astype(float)), "integer arrays"),
           (tuple(np.append(a, a[0]) for a in (i, j, k, v)), "repeated")]
    for arrays, match in bad:
        with pytest.raises(MalformedRingError, match=match):
            FusionRing.from_triples(*head, *arrays)
    # an explicit zero, here N_{f1 f1}^{f4}, is dropped
    extra = (np.append(a, x) for a, x in zip((i, j, k, v), (1, 1, 4, 0)))
    zero = FusionRing.from_triples(*head, *extra, grading=a5.grading)
    assert zero == a5
    assert np.array_equal(zero.triples, a5.triples)


def test_from_triples_builds_its_tensor_past_the_dense_bound(a5, monkeypatch):
    ring = FusionRing.from_triples(a5.labels, a5.unit, a5.dual, *a5.triples)
    monkeypatch.setattr(config, "MAX_DENSE_BYTES", a5.tensor.nbytes - 1)
    assert subring_generated(ring, [1]) == tuple(range(5))  # reads triples only
    with pytest.raises(BoundsExceededError):
        ring.tensor
    monkeypatch.setattr(config, "MAX_DENSE_BYTES", a5.tensor.nbytes)
    assert np.array_equal(ring.tensor, a5.tensor)
    assert not ring.tensor.flags.writeable


def test_triples_view_matches_the_tensor(e4, e166, a5):
    # each view against the other, on every row at M <= 3 and eight named rings
    named = [e4, e166, a5, ade_ring("D", 10), ade_ring("E6"), ade_ring("adE8"),
             pointed_ring((2, 2, 2)), pointed_ring((4, 6))]
    rows = [theorem_row(row, M=M).ring for row in ROWS for M in (1, 2, 3)]
    rng = np.random.default_rng(20261019)
    for ring in rows + named:
        t = ring.triples
        want = np.nonzero(ring.tensor)
        assert np.array_equal(t[:3], want)
        assert np.array_equal(t[3], ring.tensor[want])
        assert not t.flags.writeable
        dense = FusionRing(ring.labels, ring.unit, ring.dual, ring.tensor.copy())
        assert np.array_equal(dense.triples, t)
        perm = rng.permutation(t.shape[1])
        back = FusionRing.from_triples(ring.labels, ring.unit, ring.dual, *t[:, perm],
                                       grading=ring.grading)
        assert back == ring
        assert np.array_equal(back.tensor, ring.tensor)


def test_pointed_ring_is_its_group():
    ring = pointed_ring(FiniteAbelianGroup((6,)))
    assert ring.rank == 6
    report = invertibles(ring)
    assert report.order == 6 and report.group == FiniteAbelianGroup.cyclic(6)
    assert universal_grading(ring).group == FiniteAbelianGroup.cyclic(6)
    np.testing.assert_allclose(fp_dims(ring).tolist(), [1.0] * 6)


def test_invertibles_of_a_series(a5):
    report = invertibles(a5)
    assert [a5.labels[i] for i in report.indices] == ["f0", "f4"]
    assert report.group == FiniteAbelianGroup.cyclic(2)


def _invertibles_loop(ring):
    # oracle: the invertible group pair by pair, one np.nonzero per product
    t = ring.tensor
    inv = [i for i in range(ring.rank)
           if int(t[i, ring.dual[i]].sum()) == 1 and t[i, ring.dual[i], ring.unit] == 1]
    pos = {g: a for a, g in enumerate(inv)}
    table = {}
    for gi in inv:
        for gj in inv:
            row = t[gi, gj]
            ks = np.nonzero(row)[0]
            if len(ks) != 1 or row[ks[0]] != 1 or int(ks[0]) not in pos:
                raise MalformedRingError("invertibles are not closed under fusion")
            table[(gi, gj)] = int(ks[0])
    abelian = all(table[(a, b)] == table[(b, a)] for a in inv for b in inv)
    group = None
    if abelian:
        group = group_from_presentation(len(inv), lambda a, b: pos[table[(inv[a], inv[b])]])
    return inv, group, abelian, table


def test_invertibles_match_loop_oracle(e4, e166):
    rings = [theorem_row(row, M=M).ring for row in sorted(ROWS) for M in (1, 2, 3)]
    for ring in rings + [e4, e166, _s3_group_ring()]:
        report = invertibles(ring)
        inv, group, abelian, table = _invertibles_loop(ring)
        assert report.indices == tuple(inv)
        assert all(type(i) is int for i in report.indices)
        assert report.group == group and report.abelian == abelian


def test_invertibles_not_closed_raise():
    # a and b are self-dual with a a* = b b* = 1, but a b is a + b in the
    # first ring and the non-invertible c in the second
    for ab, size in (([1, 2], 3), ([3], 4)):
        t = np.zeros((size,) * 3, dtype=np.int64)
        t[0] = t[:, 0] = np.eye(size, dtype=np.int64)
        for x in range(1, size):
            t[x, x, 0] = 1
        t[1, 2, ab] = t[2, 1, ab] = 1
        if size == 4:
            t[3, 3, 3] = 1
        ring = FusionRing([str(x) for x in range(size)], 0, range(size), t)
        with pytest.raises(MalformedRingError, match="not closed under fusion"):
            _invertibles_loop(ring)
        with pytest.raises(MalformedRingError, match="not closed under fusion"):
            invertibles(ring)


def test_invertibles_forming_a_loop_raise():
    # six invertibles whose table is a commutative loop with identity 0 that
    # is not associative, so no group; its element orders are those of Z_6
    loop = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
            [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]]
    t = np.zeros((6, 6, 6), dtype=np.int64)
    for a, b in itertools.product(range(6), repeat=2):
        t[a, b, loop[a][b]] = 1
    ring = FusionRing([str(x) for x in range(6)], 0, [0, 1, 4, 5, 2, 3], t)
    assert _invertibles_loop(ring)[2]  # commutative, every simple invertible
    with pytest.raises(MalformedRingError, match="do not form a group"):
        invertibles(ring)
    # every simple is its own component, so the components form the loop too
    with pytest.raises(InconsistentGradingError, match="do not form a group"):
        universal_grading(ring)


def test_restrict_whole_ring_shares_arrays_and_checks_subsets(a5):
    build = theorem_row("exc4", M=1)
    for ring in (a5, build.ring):
        whole = restrict(ring, range(ring.rank), grading=ring.grading)
        assert whole == ring
        assert np.shares_memory(whole.tensor, ring.tensor)
        assert np.shares_memory(whole.dual, ring.dual)
    # {f0, f1} is dual-closed but not fusion-closed (f1 f1 = f0 + f2)
    with pytest.raises(MalformedRingError, match="not fusion-closed"):
        restrict(a5, [0, 1])
    # in a ring it is an axiom failure for a fusion-closed set to miss a dual,
    # so take a tensor where 1 (x) 1 is empty: {0, 1} is closed but 1* = 2
    t = np.zeros((3, 3, 3), dtype=np.int64)
    t[0] = t[:, 0] = np.eye(3, dtype=np.int64)
    t[1, 2, 0] = t[2, 1, 0] = 1
    with pytest.raises(MalformedRingError, match="not dual-closed"):
        restrict(FusionRing(["0", "1", "2"], 0, [0, 2, 1], t), [0, 1])


def _restrict_oracle(ring, indices, grading=None):
    # the dense restriction: closure and subring read off gathers of the tensor
    idx = list(indices)
    pos = {g: a for a, g in enumerate(idx)}
    t = ring.tensor
    outside = np.delete(np.arange(ring.rank), idx)
    if len(outside) and np.any(t[np.ix_(idx, idx, outside)]):
        raise MalformedRingError("index set is not fusion-closed")
    if any(int(ring.dual[i]) not in pos for i in idx):
        raise MalformedRingError("index set is not dual-closed")
    dual = [pos[int(ring.dual[i])] for i in idx]
    return FusionRing([ring.labels[i] for i in idx], pos[ring.unit], dual,
                      t[np.ix_(idx, idx, idx)], grading)


def test_restrict_matches_dense_oracle(a5):
    checked = 0
    for row in ROWS:
        for M in (1, 2, 3):
            ring = theorem_row(row, M=M).ring
            idx = adjoint_subring(ring)
            trivial = Grading((), [()] * len(idx))
            for order in (idx, idx[::-1]):  # the reversed order is sorted anew
                assert restrict(ring, order, trivial) == _restrict_oracle(ring, order, trivial)
                checked += 1
    assert checked == 6 * len(ROWS)
    t = np.zeros((3, 3, 3), dtype=np.int64)
    t[0] = t[:, 0] = np.eye(3, dtype=np.int64)
    t[1, 2, 0] = t[2, 1, 0] = 1
    for ring, idx, match in [(a5, [0, 1], "not fusion-closed"),
                             (FusionRing(["0", "1", "2"], 0, [0, 2, 1], t), [0, 1],
                              "not dual-closed")]:
        for restriction in (restrict, _restrict_oracle):
            with pytest.raises(MalformedRingError, match=match):
                restriction(ring, idx)


def test_adjoint_and_generation():
    a7 = ade_ring("A", 7)
    adj = adjoint_subring(a7)
    assert [a7.labels[i] for i in adj] == ["f0", "f2", "f4", "f6"]
    assert universal_grading(a7).group == FiniteAbelianGroup.cyclic(2)
    assert is_generator(a7, a7.labels.index("f1"))
    assert not is_generator(a7, a7.labels.index("f2"))
    assert set(subring_generated(a7, [a7.labels.index("f2")])) == set(adj)


def _closure_loop(ring, seeds):
    # oracle: add the support of every product inside the set, and its
    # duals, until nothing new appears
    s = {ring.unit} | {int(x) for x in seeds} | {int(ring.dual[x]) for x in seeds}
    while True:
        idx = np.array(sorted(s))
        support = np.unique(np.nonzero(ring.tensor[np.ix_(idx, idx)])[2])
        new = set(int(k) for k in support) | set(int(ring.dual[k]) for k in support)
        if new <= s:
            return tuple(sorted(s))
        s |= new


@pytest.mark.parametrize("row", sorted(ROWS))
def test_subring_generated_matches_closure_loop(row):
    for M in (1, 2):
        build = theorem_row(row, M=M)
        ring = build.ring
        for seeds in [[build.generator]] + [[x] for x in range(ring.rank)]:
            assert subring_generated(ring, seeds) == _closure_loop(ring, seeds)


def _s3_group_ring():
    els = list(itertools.permutations(range(3)))
    pos = {p: i for i, p in enumerate(els)}
    t = np.zeros((6, 6, 6), dtype=np.int64)
    for i, p in enumerate(els):
        for j, q in enumerate(els):
            t[i, j, pos[tuple(p[x] for x in q)]] = 1
    dual = [pos[tuple(np.argsort(p).tolist())] for p in els]
    return FusionRing([str(p) for p in els], pos[(0, 1, 2)], dual, t)


def test_universal_grading_rejects_inconsistent_rings():
    # S_3 is its own universal grading group, which is not abelian
    with pytest.raises(InconsistentGradingError, match="nonabelian"):
        universal_grading(_s3_group_ring())
    # x (x) x is empty
    t = np.zeros((2, 2, 2), dtype=np.int64)
    t[0] = t[:, 0] = np.eye(2, dtype=np.int64)
    with pytest.raises(InconsistentGradingError, match="empty fusion product"):
        universal_grading(FusionRing(["e", "x"], 0, [0, 1], t))
    # Z_3 with 1 (x) 1 = 0 + 2: the adjoint is {0}, so every simple is its
    # own component and 1 (x) 1 spans two of them
    t = np.zeros((3, 3, 3), dtype=np.int64)
    for a, b in itertools.product(range(3), repeat=2):
        t[a, b, (a + b) % 3] = 1
    t[1, 1, 0] = 1
    with pytest.raises(InconsistentGradingError, match="not single-valued"):
        universal_grading(FusionRing(["0", "1", "2"], 0, [0, 2, 1], t))


def test_grading_rejects_bad_orders_and_arity():
    # the arity is checked on the given degrees, before zip could cut them
    for orders, deg, fragment in (((2,), [(0, 1), (1, 5)], "arity"),
                                  ((2, 3), [(0, 0), (1,)], "arity"),
                                  ((0,), [(0,)], "orders"),
                                  ((-3,), [(1,)], "orders"),
                                  ((2.5,), [(1,)], "integer"),
                                  ((2,), [(1.7,)], "integer"),
                                  ((True,), [(0,)], "integer"),
                                  ((2,), [(False,)], "integer")):
        with pytest.raises(MalformedRingError, match=fragment):
            Grading(orders, deg)
    assert Grading((np.int64(4),), [(np.int32(5),)]).deg == ((1,),)


def _grading_rings():
    for row in sorted(ROWS):
        for M in (1, 2, 3):
            yield "%s M=%d" % (row, M), theorem_row(row, M=M).ring
    yield "A5", ade_ring("A", 5)
    yield "D10", ade_ring("D", 10)
    yield "E6", ade_ring("E6")
    yield "E8", ade_ring("E8")


def _adjoint_classes(ring):
    # oracle: j ~ k when k appears in a (x) j for an adjoint a, closed by search
    adj = adjoint_subring(ring)
    label = [None] * ring.rank
    for start in range(ring.rank):
        if label[start] is None:
            label[start], stack = start, [start]
            while stack:
                j = stack.pop()
                for a in adj:
                    for k in np.flatnonzero(ring.tensor[a, j]).tolist():
                        if label[k] is None:
                            label[k] = start
                            stack.append(k)
    return label


def test_universal_grading_normal_form(e4, e166):
    rings = list(_grading_rings()) + [("e4", e4), ("e166", e166)]
    for name, ring in rings:
        g = universal_grading(ring)
        assert grading_violations(ring, g) == [], name
        # one degree per component, and every element of the group is one
        deg_of = {}
        for c, d in zip(_adjoint_classes(ring), g.deg):
            assert deg_of.setdefault(c, d) == d, name
        assert len(set(deg_of.values())) == len(deg_of) == g.group.order, name
        if len(g.orders) == 1:
            n = g.orders[0]
            first = next(d for d, in g.deg if math.gcd(d, n) == 1)
            assert first == 1, name
    assert e166.grading == universal_grading(e166)


def test_universal_grading_of_noncyclic_pointed_rings():
    # every simple is its own component: the grading is the group itself, with
    # Smith coordinates that are a bijection onto it
    for orders in ((2, 2, 2), (4, 6), (2, 4, 4)):
        ring = pointed_ring(FiniteAbelianGroup(orders))
        g = universal_grading(ring)
        assert g.group == FiniteAbelianGroup(orders), orders
        assert grading_violations(ring, g) == [], orders
        assert sorted(g.deg) == sorted(g.group.elements()), orders


def _k_normal_oracle(ring, x, k_max):
    # x^k x*^k against x*^k x^k, each word decomposed letter by letter
    return {k: bool(np.array_equal(decompose_word(ring, [x] * k + [(x, True)] * k),
                                   decompose_word(ring, [(x, True)] * k + [x] * k)))
            for k in range(1, k_max + 1)}


def test_k_normality_matches_word_oracle(e4, e166):
    for ring in (e4, e166, ade_ring("D", 10), pointed_ring((2, 4))):
        for x in range(ring.rank):
            assert is_k_normal(ring, x, k_max=5).equal_at == _k_normal_oracle(ring, x, 5)


def test_k_normality(e4, a5):
    # a commutative ring is 1-normal at every object
    report = is_k_normal(a5, 1, k_max=4)
    assert report.least == 1
    for k_max in (True, 2.0):  # the integer rule: not read as 1, not truncated
        with pytest.raises(ValueError, match="integer"):
            is_k_normal(a5, 1, k_max=k_max)
    for k_max in (0, -3):  # no horizon to report on
        with pytest.raises(ValueError, match="at least 1"):
            is_k_normal(a5, 1, k_max=k_max)
    # the rank-12 Z_4-graded ring is strictly 2-normal at its generator
    report = is_k_normal(e4, e4.labels.index("5"), k_max=6)
    assert report.least == 2
    assert report.equal_at[1] is False
    assert str(report) == "K=2 (horizon 6); k=1 fails"


def test_fusion_graph_and_figure(e4):
    from conftest import load_json

    g = fusion_graph(e4, e4.labels.index("5"))
    assert (g.n, g.edge_count) == (12, 20)
    fig = load_json("e4_generator_graph.json")
    target = Digraph.from_edge_list(
        fig["nodes"], [(a - 1, b - 1) for a, b in fig["edges"]])
    assert digraph_iso(g, target)


def test_object_indices_are_range_checked(a5):
    # a negative index would otherwise wrap around to f4, and True read as f1
    for x in (-1, a5.rank, True):
        with pytest.raises(IndexError):
            fusion_graph(a5, x)
        with pytest.raises(IndexError):
            is_k_normal(a5, x)
        with pytest.raises(IndexError):
            decompose_word(a5, [x])
        with pytest.raises(IndexError):
            dequiv_free(a5, [x])
    # f4 itself is invertible: it gets past the subgroup check, and fixes f2
    for x in (4, np.int64(4), "f4"):
        with pytest.raises(FixedPointError, match="fixes f2"):
            dequiv_free(a5, [x])


def test_find_isomorphisms(a5):
    autos = find_isomorphisms(a5, a5)
    # the A_5 diagram flip f_i -> f_{4-i} is the one nontrivial symmetry
    assert len(autos) == 2
    assert not find_isomorphisms(a5, ade_ring("A", 7))


def _unit_fixing_automorphisms(ring):
    # oracle: every bijection that fixes the unit, commutes with the dual
    # and preserves the tensor, found by trying all of them
    r, t, dual = ring.rank, ring.tensor, ring.dual
    others = [i for i in range(r) if i != ring.unit]
    found = []
    for images in itertools.permutations(others):
        p = np.arange(r)
        p[others] = images
        if np.array_equal(t[np.ix_(p, p, p)], t) and np.array_equal(dual[p], p[dual]):
            found.append(tuple(p.tolist()))
    return sorted(found)


@pytest.mark.parametrize("ring", [
    ade_ring("A", 3), ade_ring("A", 4), ade_ring("A", 5), ade_ring("A", 6),
    ade_ring("A", 7), ade_ring("D", 4), ade_ring("D", 6), ade_ring("E6"),
    ade_ring("E8"), ade_ring("adD", 10), pointed_ring([2, 2, 2]),
], ids=["A3", "A4", "A5", "A6", "A7", "D4", "D6", "E6", "E8", "adD10", "Z2^3"])
def test_find_isomorphisms_matches_brute_force(ring):
    assert find_isomorphisms(ring, ring) == _unit_fixing_automorphisms(ring)


def _relabelled(ring, p):
    # the copy of ring in which simple i is simple p[i]
    inv = np.argsort(p)
    return FusionRing([ring.labels[i] for i in inv], p[ring.unit],
                      [p[ring.dual[i]] for i in inv], ring.tensor[np.ix_(inv, inv, inv)])


@pytest.mark.parametrize("name,n_autos", [("e4", 4), ("e166", 2), ("d-even M=2", 4)])
def test_find_isomorphisms_of_relabelled_copies(request, name, n_autos):
    ring = (theorem_row("d-even", M=2).ring if name == "d-even M=2"
            else request.getfixturevalue(name))
    p = np.arange(ring.rank)
    random.Random(20261018).shuffle(p)
    copy = _relabelled(ring, p)
    autos = find_isomorphisms(ring, ring)
    assert len(autos) == n_autos
    isos = find_isomorphisms(ring, copy)
    assert isos == sorted(tuple(int(p[s[i]]) for i in range(ring.rank)) for s in autos)
    for m in map(np.array, isos):
        assert m[ring.unit] == copy.unit
        assert np.array_equal(copy.dual[m], m[ring.dual])
        for i, j, k in itertools.product(range(ring.rank), repeat=3):
            assert copy.tensor[m[i], m[j], m[k]] == ring.tensor[i, j, k]


def _brute_force_digraph_iso(a, b):
    perms = np.array(list(itertools.permutations(range(len(a)))))
    return bool(np.all(b[perms[:, :, None], perms[:, None, :]] == a, axis=(1, 2)).any())


def _random_digraph(rng, n, regular):
    # regular: a sum of one or two permutation matrices without its loops,
    # which colour refinement can hardly split
    if not regular:
        return np.array([[rng.choice([0, 0, 0, 1, 2]) for _ in range(n)] for _ in range(n)])
    a = np.zeros((n, n), dtype=np.int64)
    for _ in range(rng.randint(1, 2)):
        p = list(range(n))
        rng.shuffle(p)
        a[range(n), p] += 1
    np.fill_diagonal(a, 0)
    return a


def test_digraph_iso_matches_brute_force():
    rng = random.Random(20261018)
    seen = set()
    for _ in range(400):
        n, regular = rng.randint(1, 6), rng.random() < 0.5
        a = _random_digraph(rng, n, regular)
        if rng.random() < 0.5:
            b = _random_digraph(rng, n, regular)
        else:
            p = list(range(n))
            rng.shuffle(p)
            b = a[np.ix_(p, p)].copy()
            if b.any() and rng.random() < 0.5:
                # move one unit of multiplicity to a random place
                u, v = rng.choice(np.argwhere(b > 0).tolist())
                b[u, v] -= 1
                b[rng.randrange(n), rng.randrange(n)] += 1
        expected = _brute_force_digraph_iso(a, b)
        assert digraph_iso(Digraph.from_adjacency(a), Digraph.from_adjacency(b)) == expected
        seen.add(expected)
    assert seen == {True, False}
    # every node of a directed 6-cycle and of two directed 3-cycles has one
    # edge in and one out, so refinement alone cannot tell them apart
    hexagon = Digraph.from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)])
    triangles = Digraph.from_edge_list(6, [(i, 3 * (i // 3) + (i + 1) % 3) for i in range(6)])
    assert not digraph_iso(hexagon, triangles)
    assert digraph_iso(triangles, Digraph.from_edge_list(6, [(0, 2), (2, 4), (4, 0),
                                                             (1, 3), (3, 5), (5, 1)]))


@pytest.mark.parametrize("name,generator", [("e4", "5"), ("e166", "a0")])
def test_digraph_iso_on_relabelled_fusion_graphs(request, name, generator):
    ring = request.getfixturevalue(name)
    a = fusion_graph(ring, ring.labels.index(generator)).adjacency()
    rng = random.Random(20261018)
    p = list(range(len(a)))
    rng.shuffle(p)
    b = a[np.ix_(p, p)]
    assert digraph_iso(Digraph.from_adjacency(a), Digraph.from_adjacency(b))
    # move an edge u -> v to u -> w where v and w have the same in-degree:
    # the sorted in-degrees change, so no relabelling can match
    indeg = b.sum(axis=0)
    u, v = next((u, v) for u, v in np.argwhere(b > 0)
                if any(indeg[w] == indeg[v] and w != v for w in range(len(b))))
    w = next(w for w in range(len(b)) if indeg[w] == indeg[v] and w != v)
    moved = b.copy()
    moved[u, v] -= 1
    moved[u, w] += 1
    assert sorted(moved.sum(axis=0)) != sorted(indeg)
    assert not digraph_iso(Digraph.from_adjacency(a), Digraph.from_adjacency(moved))


def test_decompose_word():
    a3 = ade_ring("A", 3)
    word = decompose_word(a3, [1, 1])  # f1 (x) f1 = f0 + f2
    assert word[0] == 1 and word[2] == 1 and word[1] == 0


def test_dynkin_shapes():
    a4 = dynkin("A", 4)
    assert a4.shape == (4, 4) and a4.sum() == 6
    d4 = dynkin("D", 4)
    assert sorted(d4.sum(axis=0).tolist()) == [1, 1, 1, 3]
    assert dynkin("E8").shape == (8, 8)
    with pytest.raises(Exception):
        dynkin("F", 4)


def test_digraph_helpers():
    path = Digraph.from_adjacency(dynkin("A", 4))
    star = Digraph.from_adjacency(dynkin("D", 4))
    assert not digraph_iso(path, star)
    doubled = Digraph.from_edge_list(2, [(0, 1), (0, 1)])
    assert doubled.edges[(0, 1)] == 2 and doubled.edge_count == 2
    dot = path.to_dot(labels=["a", "b", "c", "d"])
    assert dot.startswith("digraph") and '"a" -> "b"' in dot


def test_digraph_takes_integers_only():
    for n, edges in [(2, {(0, 1): 1.7}), (2, {(0.0, 1): 1}), (2, {(0, 1.5): 1}),
                     (2.5, None), (True, None), (2, {(0, 1): True}), (2, {(False, 1): 1})]:
        with pytest.raises(ValueError, match="integer"):
            Digraph(n, edges)
    g = Digraph(np.int64(2), {(np.int32(0), 1): np.int64(2)})
    assert g.n == 2 and g.edges == {(0, 1): 2}
    assert all(type(x) is int for x in (g.n, *next(iter(g.edges)), g.edges[(0, 1)]))


def _bfs_components(n, edges):
    # oracle: breadth-first search from each unlabelled node in order
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    label = [-1] * n
    for s in range(n):
        if label[s] == -1:
            label[s], queue = s, [s]
            for u in queue:
                for v in nbrs[u]:
                    if label[v] == -1:
                        label[v] = s
                        queue.append(v)
    return label


graphs = st.integers(1, 16).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=24)))


@settings(max_examples=60, deadline=None)
@given(graphs)
def test_components_match_bfs(graph):
    n, edges = graph
    src, dst = [u for u, _ in edges], [v for _, v in edges]
    assert components(n, src, dst).tolist() == _bfs_components(n, edges)


def test_unique_rows_match_numpy_unique():
    # colour signatures: few distinct values, repeated rows, zero columns
    rng = np.random.default_rng(20261020)
    for _ in range(500):
        n, k = int(rng.integers(1, 50)), int(rng.integers(1, 26))
        a = rng.integers(-2, 3, (n, k)) * rng.integers(0, 2, (1, k))
        a = a[rng.integers(0, n, n)]
        rows, inverse = np.unique(a, axis=0, return_inverse=True)
        got_rows, got_inverse = unique_rows(a)
        assert np.array_equal(got_rows, rows) and np.array_equal(got_inverse, inverse.ravel())


def _relabel(ring, p):
    # the same ring with simple x renamed p[x]; the grading moves along
    def moved(values):
        out = [None] * ring.rank
        for x, value in enumerate(values):
            out[p[x]] = value
        return out

    i, j, k, v = ring.triples
    grading = None if ring.grading is None else Grading(ring.grading.orders,
                                                        moved(ring.grading.deg))
    return FusionRing.from_triples(moved(ring.labels), p[ring.unit], moved(p[ring.dual]),
                                   p[i], p[j], p[k], v, grading)


def _degree_blocks(grading, p=None):
    blocks = {}
    for x, d in enumerate(grading.deg):
        blocks.setdefault(d, set()).add(x if p is None else int(p[x]))
    return {frozenset(b) for b in blocks.values()}


def test_intrinsic_computations_follow_a_relabelling(e4, e166):
    # an oracle independent of every fast path: renaming the simples renames
    # each answer and changes no invariant
    cases = [(build.ring, build.generator)
             for build in (theorem_row(row, M=M) for row in sorted(ROWS) for M in (1, 2))]
    cases += [(e4, e4.labels.index("5")), (e166, e166.labels.index("a0"))]
    rng = np.random.default_rng(20261020)
    for ring, gen in cases:
        base = (verify_axioms(ring).violations, fp_dims(ring).dims, invertibles(ring),
                universal_grading(ring), adjoint_subring(ring),
                is_k_normal(ring, gen).equal_at, is_generator(ring, gen))
        for _ in range(2):
            p = rng.permutation(ring.rank)
            moved = _relabel(ring, p)
            name = "%s under %s" % (ring, p.tolist())
            violations, dims, inv, grading, adj, k_normal, generates = base
            assert sorted((kind, tuple(int(p[x]) for x in idx)) for kind, idx in violations) \
                == sorted(verify_axioms(moved).violations), name
            np.testing.assert_allclose(fp_dims(moved).dims[p], dims, rtol=1e-9)
            report = invertibles(moved)
            assert report.indices == tuple(sorted(p[list(inv.indices)].tolist())), name
            assert (report.group, report.abelian) == (inv.group, inv.abelian), name
            g = universal_grading(moved)
            assert g.group == grading.group, name
            assert _degree_blocks(g) == _degree_blocks(grading, p), name
            assert adjoint_subring(moved) == tuple(sorted(p[list(adj)].tolist())), name
            assert is_k_normal(moved, p[gen]).equal_at == k_normal, name
            assert is_generator(moved, p[gen]) == generates, name
            assert find_isomorphisms(moved, ring, max_count=1), name
