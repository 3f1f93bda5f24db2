"""Command-line front end; every subcommand is a thin adapter over the library.

Subcommands::

    verify <ring.json>                       axiom check (exit 0 pass / 1 fail)
    dims <ring.json>                         Frobenius-Perron dimension per simple
    invertibles <ring.json>                  group of invertibles + its elements
    grading <ring.json>                      universal grading group + degrees
    knormal <ring.json> --object L [--kmax K]
    graph <ring.json> --object L --dot <out>  fusion digraph as DOT
    build ade --family F [--size N]
    build pointed --orders a,b,...
    build row --id R --M m [--N n]           classification-table row + provenance
    product a.json b.json                    Deligne product
    oneone <ring.json> [--grading g.json]    trivial-component subring
    deq <ring.json> --subgroup L1,L2,...     de-equivariantization quotient
    solve <partial.json> [--cap C]           complete a partial ring
    cohom --deg {1|2|3} --M m [--coeffs a,b] [--action spec]
    audit [--row R --M m [--N n] | --all [--max-M m]] [--json out]
    separate rowA rowB --M m [--N n]         m is the common grading order

Ring-producing subcommands print the ring JSON on stdout.  Exit codes:
0 success / property holds, 1 verification or audit failure, 2 malformed
input; any nonzero exit writes one JSON object describing the error to
stderr.
"""

import argparse
import json
import sys

from .abelian import FiniteAbelianGroup
from .audit import K_HORIZON, audit_all, audit_row, separation_check
from .cohomology import h3_roots_of_unity, h_cyclic, parse_action
from .construct import (
    ROWS,
    TheoremRowSpec,
    ade_ring,
    deligne_product,
    dequiv_free,
    one_one_subring,
    pointed_ring,
    theorem_row,
)
from .errors import (
    BoundsExceededError,
    DegenerateGradeError,
    FixedPointError,
    InconsistentGradingError,
    InvalidActionError,
    MalformedRingError,
    NoSolutionError,
    NonConvergenceError,
    NonUniqueCompletionError,
    NotASubgroupError,
    RingFormatError,
    SearchCapExceededError,
    UnknownFamilyError,
)
from .jsonio import grading_from_dict, load_partial, load_ring, ring_to_dict
from .ring import (
    fp_dims,
    fusion_graph,
    invertibles,
    is_k_normal,
    universal_grading,
    verify_axioms,
)
from .solve import complete_partial_ring

# Bad or ill-shaped input -> exit 2; a well-posed run whose mathematical
# outcome is negative (no completion, obstructed quotient, ...) -> exit 1.
_INPUT_ERRORS = (
    RingFormatError,
    MalformedRingError,
    UnknownFamilyError,
    NotASubgroupError,
    InvalidActionError,
    BoundsExceededError,
    json.JSONDecodeError,
    OSError,
    ValueError,
)
_DOMAIN_ERRORS = (
    NoSolutionError,
    NonUniqueCompletionError,
    FixedPointError,
    DegenerateGradeError,
    InconsistentGradingError,
    NonConvergenceError,
    SearchCapExceededError,
)


def _error_json(code, name, message, **extra):
    payload = {"error": name, "message": message}
    payload.update(extra)
    print(json.dumps(payload), file=sys.stderr)
    return code


def _fail(code, exc):
    extra = {}
    if isinstance(exc, FixedPointError):
        extra = {"invertible": exc.invertible, "fixed": exc.fixed}
    return _error_json(code, type(exc).__name__, str(exc), **extra)


def _emit_ring(ring, extra=None):
    data = ring_to_dict(ring)
    if extra:
        data.update(extra)
    print(json.dumps(data, indent=1))


def _index_of(ring, label):
    if label not in ring.labels:
        raise ValueError("no simple labelled %r in this ring" % label)
    return ring.labels.index(label)


def _int_list(text):
    try:
        return [int(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise ValueError("expected comma-separated integers, got %r" % text)


def _split_labels(text):
    """Split on commas outside parentheses, so "(f4,4),(f0,0)" is two labels."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        depth += (ch == "(") - (ch == ")")
        cur.append(ch)
    parts.append("".join(cur))
    return [p for p in parts if p != ""]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_verify(args):
    report = verify_axioms(load_ring(args.ring))
    print(report)
    if report.ok:
        return 0
    return _error_json(
        1, "AxiomViolation", str(report),
        violations=[[kind, list(idx)] for kind, idx in report.violations],
    )


def _cmd_dims(args):
    ring = load_ring(args.ring)
    for label, d in zip(ring.labels, fp_dims(ring)):
        print("%s %.6f" % (label, d))
    return 0


def _cmd_invertibles(args):
    ring = load_ring(args.ring)
    report = invertibles(ring)
    print(report)
    print(" ".join(ring.labels[i] for i in report.indices))
    return 0


def _cmd_grading(args):
    ring = load_ring(args.ring)
    grading = universal_grading(ring)
    print(grading.group)
    for label, deg in zip(ring.labels, grading.deg):
        print("%s (%s)" % (label, ",".join(str(c) for c in deg)))
    return 0


def _cmd_knormal(args):
    ring = load_ring(args.ring)
    report = is_k_normal(ring, _index_of(ring, args.object), k_max=args.kmax)
    print(report)
    if report.least is None:
        return _error_json(1, "NotKNormal", str(report), object=args.object)
    return 0


def _cmd_graph(args):
    ring = load_ring(args.ring)
    digraph = fusion_graph(ring, _index_of(ring, args.object))
    with open(args.dot, "w") as fh:
        fh.write(digraph.to_dot(labels=list(ring.labels)))
    print("%d nodes, %d edges -> %s" % (digraph.n, digraph.edge_count, args.dot))
    return 0


def _cmd_build_ade(args):
    _emit_ring(ade_ring(args.family, args.size))
    return 0


def _cmd_build_pointed(args):
    orders = _int_list(args.orders)
    if not orders:
        raise ValueError("--orders must name at least one cyclic factor")
    _emit_ring(pointed_ring(orders))
    return 0


def _cmd_build_row(args):
    build = theorem_row(args.id, M=args.M, N=args.N)
    _emit_ring(build.ring, extra={"provenance": build.provenance})
    return 0


def _cmd_product(args):
    _emit_ring(deligne_product(load_ring(args.a), load_ring(args.b)))
    return 0


def _cmd_oneone(args):
    ring = load_ring(args.ring)
    if args.grading is not None:
        with open(args.grading) as fh:
            data = json.load(fh)
        if "grading" not in data:
            data = {"grading": data}
        index = {l: i for i, l in enumerate(ring.labels)}
        grading = grading_from_dict(data, list(ring.labels), index)
    elif ring.grading is not None:
        grading = ring.grading
    else:
        grading = universal_grading(ring)
    _emit_ring(one_one_subring(ring, grading))
    return 0


def _cmd_deq(args):
    ring = load_ring(args.ring)
    labels = _split_labels(args.subgroup)
    if not labels:
        raise ValueError("--subgroup must name at least one invertible")
    for label in labels:
        _index_of(ring, label)
    _emit_ring(dequiv_free(ring, labels))
    return 0


def _cmd_solve(args):
    partial = load_partial(args.partial)
    result = complete_partial_ring(partial, search_cap=args.cap)
    reps = result.class_representatives()
    print(json.dumps({
        "raw_solutions": len(result.solutions),
        "iso_classes": len(result.classes),
        "nodes": result.nodes,
        "representatives": [ring_to_dict(r) for r in reps],
    }, indent=1))
    return 0


def _cmd_cohom(args):
    if args.coeffs is None:
        if args.deg != 3:
            raise ValueError("--coeffs is required for --deg 1 and 2")
        if args.action not in (None, "", "trivial"):
            raise ValueError("an action needs explicit --coeffs")
        print(h3_roots_of_unity(args.M))
        return 0
    orders = _int_list(args.coeffs)
    action = parse_action(args.action, args.M, orders)
    print(h_cyclic(args.deg, args.M, FiniteAbelianGroup(orders), action))
    return 0


def _cmd_audit(args):
    if args.all:
        if args.row is not None:
            raise ValueError("--all and --row are mutually exclusive")
        reports = audit_all(max_M=args.max_M)
    elif args.row is not None:
        reports = [audit_row(args.row, M=args.M, N=args.N)]
    else:
        raise ValueError("audit needs --row R or --all")
    for report in reports:
        print(report.line())
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=1)
            fh.write("\n")
    failed = [r for r in reports if not r.passed]
    print("audited %d row instance(s): %s"
          % (len(reports), "all pass" if not failed else "%d FAILED" % len(failed)))
    if failed:
        return _error_json(
            1, "AuditFailure", "%d of %d row instances failed" % (len(failed), len(reports)),
            failed=[{"row": r.row, "M": r.M, "checks": r.failures} for r in failed],
        )
    return 0


def _cmd_separate(args):
    spec_a = TheoremRowSpec.at_order(args.rowA, args.M, args.N)
    spec_b = TheoremRowSpec.at_order(args.rowB, args.M, args.N)
    print(separation_check(spec_a, spec_b))
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse routes every usage problem here; keep stderr machine-readable
        _error_json(2, "ArgumentError", message)
        raise SystemExit(2)


def _parser():
    p = _Parser(prog="fusionrings", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, handler, **kw):
        q = sub.add_parser(name, **kw)
        q.set_defaults(func=handler)
        return q

    q = add("verify", _cmd_verify, help="check the fusion-ring axioms")
    q.add_argument("ring")

    q = add("dims", _cmd_dims, help="Frobenius-Perron dimensions")
    q.add_argument("ring")

    q = add("invertibles", _cmd_invertibles, help="group of invertible simples")
    q.add_argument("ring")

    q = add("grading", _cmd_grading, help="universal grading")
    q.add_argument("ring")

    q = add("knormal", _cmd_knormal, help="horizon-bounded K-normality of an object")
    q.add_argument("ring")
    q.add_argument("--object", required=True, help="label of the object")
    q.add_argument("--kmax", type=int, default=K_HORIZON)

    q = add("graph", _cmd_graph, help="fusion digraph of an object, as DOT")
    q.add_argument("ring")
    q.add_argument("--object", required=True)
    q.add_argument("--dot", required=True, help="output path")

    q = add("build", None, help="construct a ring")
    bsub = q.add_subparsers(dest="what", required=True)
    b = bsub.add_parser("ade", help="A/D/E near-group ring or its adjoint")
    b.set_defaults(func=_cmd_build_ade)
    b.add_argument("--family", required=True)
    b.add_argument("--size", type=int, default=None)
    b = bsub.add_parser("pointed", help="group ring of a finite abelian group")
    b.set_defaults(func=_cmd_build_pointed)
    b.add_argument("--orders", required=True, help="cyclic factor orders, e.g. 2,4")
    b = bsub.add_parser("row", help="one classification-table row")
    b.set_defaults(func=_cmd_build_row)
    b.add_argument("--id", required=True, choices=sorted(ROWS))
    b.add_argument("--M", type=int, default=1)
    b.add_argument("--N", type=int, default=None)

    q = add("product", _cmd_product, help="Deligne product of two rings")
    q.add_argument("a")
    q.add_argument("b")

    q = add("oneone", _cmd_oneone, help="subring generated by the trivial component")
    q.add_argument("ring")
    q.add_argument("--grading", default=None,
                   help="grading JSON; defaults to the ring's own, else universal")

    q = add("deq", _cmd_deq, help="quotient by a free group of invertibles")
    q.add_argument("ring")
    q.add_argument("--subgroup", required=True, help="comma-separated labels")

    q = add("solve", _cmd_solve, help="complete a partial ring")
    q.add_argument("partial")
    q.add_argument("--cap", type=int, default=10_000_000, help="search-node budget")

    q = add("cohom", _cmd_cohom, help="group cohomology of a cyclic group")
    q.add_argument("--deg", type=int, required=True, choices=(1, 2, 3))
    q.add_argument("--M", type=int, required=True)
    q.add_argument("--coeffs", default=None,
                   help="coefficient orders, e.g. 3,3; omit with --deg 3 for roots of unity")
    q.add_argument("--action", default=None,
                   help="trivial | swap | inv | inv2 | matrix columns '1,0;0,-1'")

    q = add("audit", _cmd_audit, help="verify classification rows")
    q.add_argument("--row", default=None, choices=sorted(ROWS))
    q.add_argument("--M", type=int, default=1)
    q.add_argument("--N", type=int, default=None)
    q.add_argument("--all", action="store_true", help="every row")
    q.add_argument("--max-M", type=int, default=2, dest="max_M")
    q.add_argument("--json", default=None, help="also write the full report here")

    q = add("separate", _cmd_separate, help="distinguish two rows sharing a grading order")
    q.add_argument("rowA", choices=sorted(ROWS))
    q.add_argument("rowB", choices=sorted(ROWS))
    q.add_argument("--M", type=int, required=True, help="common grading order")
    q.add_argument("--N", type=int, default=None,
                   help="series parameter, applied to the rows that take one")

    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        return _fail(1, exc)
    except _INPUT_ERRORS as exc:
        return _fail(2, exc)


if __name__ == "__main__":
    sys.exit(main())
