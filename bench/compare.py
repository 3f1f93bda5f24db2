"""Check that two traced runs of one workload counted the same work.

    python3 bench/compare.py .bench_out/trace-solve-seed1.json OTHER.json

Wrapping the library must not change what it does, so every count a traced
run reports (``.calls``, the solver's nodes, solutions and classes, the
largest SNF input and dense tensor) must repeat exactly between two traced
runs of the same code, whatever their seeds.  Exits 1 and names the metrics
that differ otherwise; also fails when a run recorded failed tasks.
"""

import json
import sys

EXACT = ("solve.nodes", "solve.solutions", "solve.classes",
         "abelian.snf_cells_max", "construct.dense_bytes_max")


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    runs = []
    for path in argv:
        with open(path) as fh:
            runs.append(json.load(fh))
    a, b = (run["metrics"] for run in runs)
    names = sorted(n for n in a if n.endswith(".calls") or n in EXACT)
    differ = [n for n in names if a[n] != b.get(n)]
    for n in differ:
        print("%s: %s vs %s" % (n, a[n], b.get(n)))
    failed = [(path, run["metrics"]["error_rate"]) for path, run in zip(argv, runs)
              if run["metrics"]["error_rate"] != 0]
    for path, rate in failed:
        print("%s: error_rate %s" % (path, rate))
    print("%d counts compared, %d differ" % (len(names), len(differ)))
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
