import itertools
import math
import random

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
from fusionrings.construct import ROWS
from fusionrings.errors import BoundsExceededError, InconsistentGradingError, MalformedRingError
from fusionrings.graphs import components, perron_vector
from fusionrings.ring import grading_violations


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


def _grading_violations_loop(tensor, g):
    # the per-nonzero check, one triple at a time
    out = []
    for i, j, k in np.argwhere(tensor > 0):
        if g.add(g.degree(int(i)), g.degree(int(j))) != g.degree(int(k)):
            out.append((int(i), int(j), int(k)))
    return out


def test_grading_violations_match_loop(e166):
    t = e166.tensor
    assert grading_violations(t, e166.grading) == []
    assert grading_violations(t, Grading((), [()] * e166.rank)) == []
    deg = list(e166.grading.deg)
    deg[e166.index("a0")] = (2,)
    rng = random.Random(20261018)
    wrong = [Grading((6,), deg),
             Grading((6, 2), [(rng.randrange(6), rng.randrange(2)) for _ in deg])]
    for g in wrong:
        bad = grading_violations(t, g)
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
        assert grading_violations(ring.tensor, g) == [], name
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


def test_k_normality(e4, a5):
    # a commutative ring is 1-normal at every object
    report = is_k_normal(a5, 1, k_max=4)
    assert report.least == 1
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
