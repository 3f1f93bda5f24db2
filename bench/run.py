"""Benchmark of the fusionrings library, one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/``.  Workloads (see workloads.py and BENCHMARK.json):

    audit-m2     audit_row on all 14 table rows at M = 1, 2
    audit-large  audit_row on the rows at M = 3, 4 (d4-deq and exc4-deq M=4 left out)
    solve        complete_partial_ring and ring_from_generator_graph
    cohomology   h_cyclic sweep, h3_roots_of_unity, brute_force_h2 oracle

Load shape: a closed loop with one client.  One pass runs every task of the
workload once, one at a time, in an order drawn from the seed; passes repeat
while the next one is expected to end within --seconds (at least one runs).
Every result is checked, and a task that raises or returns a wrong result
counts as failed.

--trace 0 prints the end-to-end metrics:
    setup_s      median of 9 set-ups, each in a fresh interpreter: import
                 fusionrings, fill the cached base rings, load the fixtures
    wall_s       median over passes of the summed task times of a pass
    task_max_s   median over passes of the slowest task of a pass
    peak_rss_mb  peak resident memory of this process
--trace 1 alternates untraced and traced passes (at least one of each) and
prints the per-layer metrics of the set-up plus one traced pass (median over
traced passes), the traced wall time, and the tracing overhead (traced minus
untraced median wall).  Its spans are written to .bench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds run metadata.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 9
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "task_max_s": "s", "peak_rss_mb": "MB"}


def _cap_threads():
    """Cap numpy's thread pools at the number of usable CPUs, before numpy
    is imported; return (nproc, cap)."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(nproc))
    return nproc, int(os.environ["OPENBLAS_NUM_THREADS"])


def _import_library():
    if not (SRC / "fusionrings" / "__init__.py").is_file():
        raise SystemExit("bench: no fusionrings sources under %s; run from a "
                         "source checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import fusionrings

    if Path(fusionrings.__file__).resolve().parent != SRC / "fusionrings":
        raise SystemExit("bench: imported fusionrings from %s, not from %s"
                         % (fusionrings.__file__, SRC))
    return fusionrings


def _git_sha():
    """Commit of the checkout read from .git, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "fusionrings").rglob("*.py")))


def _metadata(args, nproc, cap):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": nproc,
        "numpy_threads": cap,
        "src.lines": _src_lines(),
    }


def _setup_sample(workload):
    """Set-up time of a fresh interpreter, which runs this file with --setup-only."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--setup-only"],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT))
    if proc.returncode != 0:
        raise RuntimeError("set-up sample failed:\n" + proc.stderr)
    return float(proc.stdout.split()[-1])


def _run_pass(tasks, order, pass_no, tracer, errors):
    """Run every task once; return (summed task seconds, slowest task, failures)."""
    total, slowest, failed = 0.0, 0.0, 0
    for i in order:
        name, run, check = tasks[i]
        if tracer is not None:
            tracer.task = (pass_no, name)
        try:
            t0 = time.perf_counter()
            result = run()
            dt = time.perf_counter() - t0
        except Exception:
            failed += 1
            errors.append("%s: %s" % (name, traceback.format_exc()))
            continue
        total += dt
        slowest = max(slowest, dt)
        if tracer is not None:
            tracer.recording = False
        try:
            problem = check(result)
        except Exception:
            problem = traceback.format_exc()
        if tracer is not None:
            tracer.recording = True
        if problem is not None:
            failed += 1
            errors.append("%s: %s" % (name, problem))
    return total, slowest, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    nproc, cap = _cap_threads()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r (choose from %s)"
                 % (args.workload, ", ".join(WORKLOADS)))
    setup = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    fr = _import_library()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(fr)
        tracer.install()
        tracer.task = (-1, "setup")
    tasks = setup(fr, ROOT, tracer)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(setup_s)
        return 0

    meta = _metadata(args, nproc, cap)
    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += [_setup_sample(args.workload) for _ in range(SETUP_SAMPLES - 1)]

    rng = random.Random(args.seed)
    errors = []
    walls, maxima = {False: [], True: []}, {False: [], True: []}
    attempted = failed = 0
    traced_failed = traced_attempted = 0
    traced_passes = []
    start = time.perf_counter()
    pass_no = 0
    while True:
        traced = bool(args.trace) and pass_no % 2 == 1
        if tracer is not None:
            (tracer.install if traced else tracer.uninstall)()
        order = list(range(len(tasks)))
        rng.shuffle(order)
        p0 = time.perf_counter()
        wall, slowest, bad = _run_pass(tasks, order, pass_no, tracer if traced else None,
                                       errors)
        pass_real = time.perf_counter() - p0
        walls[traced].append(wall)
        maxima[traced].append(slowest)
        attempted += len(tasks)
        failed += bad
        if traced:
            traced_passes.append(pass_no)
            traced_attempted += len(tasks)
            traced_failed += bad
        pass_no += 1
        elapsed = time.perf_counter() - start
        if args.trace and not (walls[False] and walls[True]):
            continue
        if elapsed + pass_real > args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    for e in errors[:20]:
        print("FAILED " + e, file=sys.stderr)
    correct = failed == 0
    meta.update({"passes": pass_no, "attempted": attempted, "failed": failed,
                 "error_rate": failed / attempted,
                 "setup_samples": setup_samples, "pass_walls": walls[False]})

    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(walls[False]),
            "task_max_s": statistics.median(maxima[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        from spans import layer_metrics, metric_specs

        per_pass = [layer_metrics(tracer.spans, {-1, p}) for p in traced_passes]
        specs = metric_specs()
        metrics = {}
        for name in specs:
            values = [m[name] for m in per_pass]
            metrics[name] = statistics.median(values)
            if (name.endswith(".calls") or name == "solve.nodes") and len(set(values)) > 1:
                correct = False
                print("FAILED %s differs between traced passes: %s" % (name, values),
                      file=sys.stderr)
        metrics["error_rate"] = traced_failed / traced_attempted
        metrics["trace.wall_s"] = statistics.median(walls[True])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls[False])
        units = {name: unit for name, (unit, _) in specs.items()}
        meta["traced_walls"] = walls[True]
        _write_trace(args, meta, metrics, tracer.spans)

    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _write_trace(args, meta, metrics, spans):
    OUT.mkdir(exist_ok=True)
    path = OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed))
    with open(path, "w") as fh:
        json.dump({"meta": meta, "metrics": metrics,
                   "span_fields": ["name", "site", "start", "end", "parent", "task",
                                   "nested", "extra"],
                   "spans": [s.to_list() for s in spans]}, fh)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
