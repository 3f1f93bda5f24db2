"""The triple-fed ring computations against the dense code they replaced.

fp_dims, is_k_normal, decompose_word, invertibles and the free quotient read
ring.triples and build no rank^3 tensor.  The dense forms below read
ring.tensor and are the reference: on the table rows at M <= 3, on e4 and
e166, and on every base ring a row construction or expected adjoint looks
up, each answer must be the same (fp_dims' residual, summed in another
order, within 1e-12).  pointed_ring, the A_N rings and deligne_product
compute their triples; the loops and the broadcast product below fill the
dense tensor they once filled, and each ring must equal the one they give.
"""

import numpy as np
import pytest

from fusionrings import (
    FusionRing,
    ade_ring,
    decompose_word,
    deligne_product,
    fp_dims,
    invertibles,
    is_k_normal,
    pointed_ring,
)
from fusionrings.abelian import FiniteAbelianGroup, quotient_with_map, table_group
from fusionrings.construct import ROWS, _a_ring, _dequiv, _one_one_product, theorem_row
from fusionrings.errors import FixedPointError, MalformedRingError, NotASubgroupError
from fusionrings.graphs import components, perron_vector
from fusionrings.ring import Grading, check_index

BASE_RINGS = [("A", 3), ("A", 5), ("A", 7), ("D", 4), ("D", 6), ("D", 10),
              ("E6", None), ("E8", None), ("adA", 3), ("adA", 4), ("adA", 5),
              ("adA", 7), ("adD", 4), ("adD", 6), ("adD", 10), ("adE6", None),
              ("adE8", None)]


@pytest.fixture(scope="module")
def rings(e4, e166):
    table = [theorem_row(row, M=M).ring for row in ROWS for M in (1, 2, 3)]
    return table + [e4, e166] + [ade_ring(family, size) for family, size in BASE_RINGS]


def _fp_dims_dense(ring):
    t = ring.tensor
    v = perron_vector(t.sum(axis=0))
    d = v / v[ring.unit]
    return d, float(np.max(np.abs(np.outer(d, d) - np.einsum("ijk,k->ij", t, d))))


def _decompose_word_dense(ring, word):
    v = np.zeros(ring.rank, dtype=np.int64)
    v[ring.unit] = 1
    for step in word:
        i, starred = step if isinstance(step, (tuple, list)) else (step, False)
        v = v @ ring.tensor[:, int(ring.dual[i]) if starred else i, :]
    return v


def _k_normal_dense(ring, x, k_max):
    t = ring.tensor
    xd = int(ring.dual[x])
    a = np.zeros(ring.rank, dtype=np.int64)
    a[ring.unit] = 1
    b = a
    equal_at = {}
    for k in range(1, k_max + 1):
        a = a @ t[x] @ t[:, xd]
        b = b @ t[xd] @ t[:, x]
        equal_at[k] = bool(np.array_equal(a, b))
    return equal_at


def _invertibles_dense(ring):
    t = ring.tensor
    own = t[np.arange(ring.rank), ring.dual]
    inv = np.flatnonzero((own.sum(axis=1) == 1) & (own[:, ring.unit] == 1))
    pos = np.full(ring.rank, -1)
    pos[inv] = np.arange(len(inv))
    block = t[inv[:, None], inv]
    table = pos[block.argmax(axis=2)]
    if not ((block.sum(axis=2) == 1) & (table >= 0)).all():
        raise MalformedRingError("invertibles are not closed under fusion")
    abelian = bool((table == table.T).all())
    group = table_group(table, pos[ring.unit])[0] if abelian else None
    return tuple(inv.tolist()), group, abelian


def _dequiv_dense(ring, h):
    # the orbit ring summed into its dense tensor by np.add.at
    i, j, k, v = ring.triples
    gens = [check_index(ring, x) if isinstance(x, (int, np.integer)) else ring.index(x) for x in h]
    for g in gens:
        own = (i == g) & (j == ring.dual[g])
        if own.sum() != 1 or k[own][0] != ring.unit or v[own][0] != 1:
            raise NotASubgroupError("%s is not invertible" % ring.labels[g])

    def moves(simples):
        row = np.full(ring.rank, -1)
        row[simples] = np.arange(len(simples))
        on = row[i] >= 0
        out = np.zeros((len(simples), ring.rank), dtype=np.intp)
        out[row[i[on]], j[on]] = k[on]
        return out

    step = moves(np.unique(np.array(gens, dtype=np.intp)))
    label = components(ring.rank, np.broadcast_to(np.arange(ring.rank), step.shape), step)
    H = np.flatnonzero(label == label[ring.unit])
    perms = moves(H)
    if ((perms == np.arange(ring.rank)) & (H != ring.unit)[:, None]).any():
        raise FixedPointError("not free")
    reps, orbit_of = np.unique(perms.min(axis=0), return_inverse=True)
    is_rep = np.zeros(ring.rank, dtype=bool)
    is_rep[reps] = True
    on = is_rep[i] & is_rep[j]
    r = len(reps)
    t = np.zeros((r,) * 3, dtype=np.int64)
    np.add.at(t.reshape(-1), (orbit_of[i[on]] * r + orbit_of[j[on]]) * r
              + orbit_of[k[on]], v[on])
    deg = ring.grading.deg.tolist()
    group, f = quotient_with_map(ring.grading.orders, [deg[g] for g in H.tolist()])
    grading = Grading(group.orders, np.array([f(deg[i]) for i in reps.tolist()],
                                             dtype=np.int64).reshape(r, len(group.orders)))
    labels = ["[%s]" % ring.labels[i] for i in reps]
    quotient = FusionRing(labels, orbit_of[ring.unit], orbit_of[ring.dual[reps]], t, grading)
    return quotient, orbit_of.tolist()


def test_fp_dims_match_dense(rings):
    for ring in rings:
        dims, residual = _fp_dims_dense(ring)
        got = fp_dims(ring)
        assert got.dims.tobytes() == dims.tobytes(), ring
        assert abs(got.residual - residual) <= 1e-12, ring


def test_words_and_k_normality_match_dense(rings):
    for ring in rings:
        for x in range(ring.rank):
            words = ([x, (x, True)], [(x, True), x, x], [])
            for word in words:
                assert np.array_equal(decompose_word(ring, word),
                                      _decompose_word_dense(ring, word)), (ring, word)
            assert is_k_normal(ring, x, k_max=8).equal_at == _k_normal_dense(ring, x, 8)


def test_invertibles_match_dense(rings):
    for ring in rings:
        report = invertibles(ring)
        assert (report.indices, report.group, report.abelian) == _invertibles_dense(ring)


def test_free_quotient_matches_dense():
    checked = 0
    for row, recipe in ROWS.items():
        if recipe.quotient is None:
            continue
        N = recipe.N and recipe.N[1]
        base, _ = recipe.base(N)
        label, k = recipe.quotient
        for M in (1, 2, 3):
            one_one = _one_one_product(base, recipe.n * M)
            simple = "(%s,%d)" % (label(N), k * M)
            quotient, orbit_of = _dequiv(one_one, [simple])
            assert (quotient, orbit_of) == _dequiv_dense(one_one, [simple]), (row, M)
            checked += 1
    assert checked == 18


def _pointed_ring_loop(orders):
    group = FiniteAbelianGroup(orders)
    els = list(group.elements())
    pos = {e: i for i, e in enumerate(els)}
    n = len(els)
    t = np.zeros((n, n, n), dtype=np.int64)
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            t[i, j, pos[group.add(a, b)]] = 1
    dual = [pos[group.neg(a)] for a in els]
    if len(group.orders) == 1:
        labels = [str(e[0]) for e in els]
    elif not group.orders:
        labels = ["0"]
    else:
        labels = ["(" + ",".join(map(str, e)) + ")" for e in els]
    return FusionRing(labels, pos[group.zero()], dual, t, Grading(group.orders, els))


def _verlinde_tensor(n):
    # sl_2 level n-1 truncation: a (x) b = |a-b|, |a-b|+2, ..., min(a+b, 2(n-1)-a-b)
    t = np.zeros((n, n, n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            for c in range(abs(a - b), min(a + b, 2 * (n - 1) - a - b) + 1, 2):
                t[a, b, c] = 1
    return t


def _deligne_product_dense(a, b):
    ra, rb = a.rank, b.rank
    t = (a.tensor[:, None, :, None, :, None] * b.tensor[None, :, None, :, None, :])
    labels = ["(%s,%s)" % (la, lb) for la in a.labels for lb in b.labels]
    dual = [int(a.dual[i]) * rb + int(b.dual[j]) for i in range(ra) for j in range(rb)]
    grading = None
    if a.grading is not None and b.grading is not None:
        deg = np.concatenate([np.repeat(a.grading.deg, rb, axis=0),
                              np.tile(b.grading.deg, (ra, 1))], axis=1)
        grading = Grading(a.grading.orders + b.grading.orders, deg)
    return FusionRing(labels, a.unit * rb + b.unit, dual,
                      t.reshape((ra * rb,) * 3), grading)


def _same(ring, want):
    # equal rings (labels, unit, dual, triples and grading), and equal tensors
    assert ring == want
    assert ring.tensor.tobytes() == want.tensor.tobytes()


def test_a_rings_match_the_loop():
    for n in range(2, 31):
        grading = Grading((2,), [(m % 2,) for m in range(n)])
        want = FusionRing(["f%d" % m for m in range(n)], 0, list(range(n)),
                          _verlinde_tensor(n), grading)
        _same(_a_ring(n), want)


def test_pointed_rings_match_the_loop():
    for orders in [(), (1,), (5,), (2, 2), (2, 4), (2, 2, 2), (4, 6), (2, 1, 3)]:
        _same(pointed_ring(orders), _pointed_ring_loop(orders))


def test_deligne_products_match_the_broadcast():
    pairs = [(ade_ring("A", 5), pointed_ring((8,))), (ade_ring("E6"), pointed_ring((4,))),
             (ade_ring("D", 6), pointed_ring((2, 2))), (ade_ring("adA", 7), pointed_ring((3,))),
             (ade_ring("A", 3), ade_ring("A", 5)),
             # a factor that is not self-dual first, and coefficients 2 second
             (pointed_ring((3,)), ade_ring("E6"))]
    for a, b in pairs:
        _same(deligne_product(a, b), _deligne_product_dense(a, b))
