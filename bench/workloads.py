"""The four benchmark workloads: their set-up, tasks and result checks.

A workload is built in two steps.  ``setup(fr, root, tracer)`` does what a
command-line user pays on every call (importing is done by the caller):
fill the lru_cached base rings and load the fixtures.  It returns the list
of tasks.  A task is ``(name, run, check)``: ``run()`` calls the library and
is the only timed part; ``check(result)`` returns None when the result is
right, or a message saying what is wrong.

The inputs are the paper's fixed objects, so the seed of a run only orders
the tasks within a pass (see run.py).
"""

import contextlib
import json
import math

# (row, M) -> (rank, least K) of the row ring, as the classification table
# gives them; every instance must also pass all five audit checks
AUDIT_TABLE = {
    ("pointed", 1): (1, 1), ("pointed", 2): (2, 1),
    ("pointed", 3): (3, 1), ("pointed", 4): (4, 1),
    ("a-even", 1): (2, 1), ("a-even", 2): (4, 1),
    ("a-even", 3): (6, 1), ("a-even", 4): (8, 1),
    ("a-odd", 1): (5, 1), ("a-odd", 2): (10, 1),
    ("a-odd", 3): (15, 1), ("a-odd", 4): (20, 1),
    ("a-odd-deq-1", 1): (5, 1), ("a-odd-deq-1", 2): (10, 1),
    ("a-odd-deq-1", 3): (15, 1), ("a-odd-deq-1", 4): (20, 1),
    ("a-odd-deq-3", 1): (7, 1), ("a-odd-deq-3", 2): (14, 1),
    ("a-odd-deq-3", 3): (21, 1), ("a-odd-deq-3", 4): (28, 1),
    ("a3-deq", 1): (6, 1), ("a3-deq", 2): (12, 1),
    ("a3-deq", 3): (18, 1), ("a3-deq", 4): (24, 1),
    ("d-even", 1): (6, 1), ("d-even", 2): (12, 1),
    ("d-even", 3): (18, 1), ("d-even", 4): (24, 1),
    ("d4-deq", 1): (12, 1), ("d4-deq", 2): (24, 1),
    ("e6", 1): (6, 1), ("e6", 2): (12, 1), ("e6", 3): (18, 1), ("e6", 4): (24, 1),
    ("e6-deq", 1): (6, 1), ("e6-deq", 2): (12, 1),
    ("e6-deq", 3): (18, 1), ("e6-deq", 4): (24, 1),
    ("e8", 1): (8, 1), ("e8", 2): (16, 1), ("e8", 3): (24, 1), ("e8", 4): (32, 1),
    ("exc4", 1): (12, 2), ("exc4", 2): (24, 2), ("exc4", 3): (36, 2), ("exc4", 4): (48, 2),
    ("exc4-deq", 1): (24, 2), ("exc4-deq", 2): (48, 2), ("exc4-deq", 3): (72, 2),
    ("exc166", 1): (24, 2), ("exc166", 2): (48, 2),
    ("exc166", 3): (72, 2), ("exc166", 4): (96, 2),
}
ROWS = ["pointed", "a-even", "a-odd", "a-odd-deq-1", "a-odd-deq-3", "a3-deq",
        "d-even", "d4-deq", "e6", "e6-deq", "e8", "exc4", "exc4-deq", "exc166"]
# each d4-deq instance at M >= 3 takes minutes, all in the SNF path that M = 2
# already exposes; exc4-deq at M = 4 needs a 3.7 GB dense product tensor
AUDIT_LARGE_SKIP = {("d4-deq", 3), ("d4-deq", 4), ("exc4-deq", 4)}

# every base ring a row construction or expected adjoint looks up
BASE_RINGS = [("A", 3), ("A", 5), ("A", 7), ("D", 4), ("D", 6), ("D", 10),
              ("E6", None), ("E8", None), ("adA", 3), ("adA", 4), ("adA", 5),
              ("adA", 7), ("adD", 4), ("adD", 6), ("adD", 10), ("adE6", None),
              ("adE8", None)]


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


@contextlib.contextmanager
def _unrecorded(tracer):
    # the benchmark's own checks call the library too; keep them out of spans
    if tracer is None:
        yield
        return
    tracer.recording = False
    try:
        yield
    finally:
        tracer.recording = True


def _same_ring(fr, a, b):
    return a.rank == b.rank and bool(fr.find_isomorphisms(a, b, max_count=1))


# ---------------------------------------------------------------------------
# audit-m2, audit-large


def _audit_setup(instances):
    def setup(fr, root, tracer):
        e4_file = fr.load_ring(str(root / "src/fusionrings/data/e4.json"))
        with _span(tracer, "bench.base_rings"):
            for family, size in BASE_RINGS:
                fr.ade_ring(family, size)
            e4 = fr.e4_ring()
            fr.e166_ring()
        with _unrecorded(tracer):
            if not _same_ring(fr, e4, e4_file):
                raise RuntimeError("e4_ring() is not the ring of data/e4.json")
        return [_audit_task(fr, row, M) for row, M in instances]
    return setup


def _audit_task(fr, row, M):
    rank, least_k = AUDIT_TABLE[(row, M)]
    spec = fr.TheoremRowSpec(row, M=M)
    order = spec.grading_order

    def check(report):
        if not report.passed:
            return "checks failed: %s" % ",".join(report.failures)
        if report.rank != rank:
            return "rank %d, expected %d" % (report.rank, rank)
        if report.checks["k_normal"][1] != str(least_k):
            return "least K %s, expected %d" % (report.checks["k_normal"][1], least_k)
        if not report.checks["grading"][1].startswith(
                str(fr.FiniteAbelianGroup.cyclic(order)) + " "):
            return "grading %s, expected Z_%d" % (report.checks["grading"][1], order)
        return None

    return ("%s M=%d" % (row, M), lambda: fr.audit_row(spec), check)


# ---------------------------------------------------------------------------
# solve


def _solve_setup(fr, root, tracer):
    from fusionrings.ring import Grading
    from fusionrings.graphs import Digraph

    data = root / "tests/data"
    e4 = fr.load_ring(str(root / "src/fusionrings/data/e4.json"))
    e4_partial = fr.load_partial(str(data / "e4_partial.json"))
    with open(data / "e4_generator_graph.json") as fh:
        fig = json.load(fh)
    e4_graph = Digraph.from_edge_list(fig["nodes"], [(a - 1, b - 1) for a, b in fig["edges"]])
    with _span(tracer, "bench.base_rings"):
        e166 = fr.e166_ring()
        a5, d6, d10 = fr.ade_ring("A", 5), fr.ade_ring("D", 6), fr.ade_ring("D", 10)

    # e166 from its D_10 block: every product of two D_10 simples is known
    known = {(i, j, k): int(d10.tensor[i, j, k]) if k < 10 else 0
             for i in range(10) for j in range(10) for k in range(24)}
    e166_partial = fr.PartialRing(
        list(e166.labels), 0, [float(x) for x in fr.fp_dims(e166)],
        Grading((3,), [(0,)] * 10 + [(1,)] * 7 + [(2,)] * 7), known=known)
    # e4 from its dimensions and the parity of its Z_4 grading only
    parity = Grading((2,), [(d[0] % 2,) for d in e4.grading.deg])
    e4_parity = fr.PartialRing(list(e4.labels), e4.unit,
                               [float(x) for x in fr.fp_dims(e4)], parity)
    a5_forgotten = fr.PartialRing.from_ring(
        a5, forget=[(1, 1, 0), (1, 1, 2), (2, 2, 0), (1, 2, 3)])

    def completion(name, partial, n_solutions, n_classes, ref):
        # exactly one class is the known ring
        def check(result):
            got = (len(result.solutions), len(result.classes))
            if got != (n_solutions, n_classes):
                return "%d solutions in %d classes, expected %d in %d" % (
                    got + (n_solutions, n_classes))
            same = sum(_same_ring(fr, rep, ref) for rep in result.class_representatives())
            if same != 1:
                return "%d class representatives match the known ring, expected 1" % same
            return None
        return (name, lambda: fr.complete_partial_ring(partial), check)

    def from_graph(name, graph, n_solutions, ref):
        def check(rings):
            if len(rings) != n_solutions:
                return "%d solutions, expected %d" % (len(rings), n_solutions)
            if not all(_same_ring(fr, r, ref) for r in rings):
                return "a solution is not isomorphic to the known ring"
            return None
        return (name, lambda: fr.ring_from_generator_graph(graph), check)

    return [
        completion("e4 partial fixture", e4_partial, 4, 1, e4),
        completion("e166 from D10 block", e166_partial, 2, 1, e166),
        completion("e4 from Z2 parity", e4_parity, 72, 4, e4),
        completion("A5 forgotten entries", a5_forgotten, 1, 1, a5),
        from_graph("e4 generator graph", e4_graph, 1, e4),
        from_graph("A5 Dynkin graph", fr.dynkin("A", 5), 1, a5),
        from_graph("D6 Dynkin graph", fr.dynkin("D", 6), 1, d6),
    ]


# ---------------------------------------------------------------------------
# cohomology

# criterion 4's brute-force cases: (orders, action preset); the non-trivial
# actions have order 2, so they are Z_m-actions only for even m
BRUTE_FORCE_CASES = [((2,), "trivial"), ((3,), "trivial"), ((2, 2), "trivial"),
                     ((2, 2), "swap"), ((3, 3), "inv2"), ((3, 3), "inv")]
SWEEP_M = range(1, 49)


def _closed_form(m, orders, action):
    """Invariant cyclic factors of H^n(Z_m, A), the same for n = 1, 2, 3.

    trivial on Z_a: Z_gcd(m, a) (A[m] or A/mA); inv (x -> -x, m even):
    Z_gcd(2, a); inv2: trivial on the first factor, inv on the second;
    swap on Z_a x Z_a (m even): Z_gcd(m/2, a).  Direct sums add up.
    """
    if action == "trivial":
        return [math.gcd(m, a) for a in orders]
    if action == "inv":
        return [math.gcd(2, a) for a in orders]
    if action == "inv2":
        return [math.gcd(m, orders[0])] + [math.gcd(2, a) for a in orders[1:]]
    if action == "swap":
        return [math.gcd(m // 2, orders[0])]
    raise ValueError(action)


def sweep_cases():
    """(m, orders, action) for the h_cyclic sweep, in a fixed order."""
    cases = []
    for m in SWEEP_M:
        for a in range(2, 13):
            cases.append((m, (a,), "trivial"))
        for a in range(2, 7):
            for b in range(a, 7):
                cases.append((m, (a, b), "trivial"))
        if m % 2:
            continue
        for a in range(3, 13):
            cases.append((m, (a,), "inv"))
        for a in range(2, 9):
            for b in range(3, 9):
                cases.append((m, (a, b), "inv2"))
        for a in range(2, 9):
            cases.append((m, (a, a), "swap"))
    return cases


def _cohomology_setup(fr, root, tracer):
    from fusionrings.cohomology import parse_action

    G = fr.FiniteAbelianGroup
    tasks = []
    for m, orders, action in sweep_cases():
        coeffs, act = G(orders), parse_action(action, m, orders)
        want = G(_closed_form(m, orders, action))
        for n in (1, 2, 3):
            tasks.append(("H^%d(Z_%d, %s, %s)" % (n, m, coeffs, action),
                          (lambda n=n, m=m, c=coeffs, a=act: fr.h_cyclic(n, m, c, a)),
                          _expect(want)))
    for m in SWEEP_M:
        tasks.append(("H^3(Z_%d, Q/Z)" % m, (lambda m=m: fr.h3_roots_of_unity(m)),
                      _expect(G.cyclic(m))))
    for m in range(1, 7):
        for orders, action in BRUTE_FORCE_CASES:
            if action != "trivial" and m % 2:
                continue
            coeffs, act = G(orders), parse_action(action, m, orders)
            want = G(_closed_form(m, orders, action))
            tasks.append(("brute H^2(Z_%d, %s, %s)" % (m, coeffs, action),
                          (lambda m=m, c=coeffs, a=act: fr.brute_force_h2(m, c, a)),
                          _expect_brute(fr, m, coeffs, act, want)))
    return tasks


def _expect(want):
    def check(got):
        return None if got == want else "got %s, expected %s" % (got, want)
    return check


def _expect_brute(fr, m, coeffs, action, want):
    def check(got):
        periodic = fr.h_cyclic(2, m, coeffs, action)
        if got != periodic:
            return "brute force gives %s, h_cyclic gives %s" % (got, periodic)
        return None if got == want else "got %s, expected %s" % (got, want)
    return check


WORKLOADS = {
    "audit-m2": _audit_setup([(row, M) for row in ROWS for M in (1, 2)]),
    "audit-large": _audit_setup([(row, M) for row in ROWS for M in (3, 4)
                                 if (row, M) not in AUDIT_LARGE_SKIP]),
    "solve": _solve_setup,
    "cohomology": _cohomology_setup,
}
