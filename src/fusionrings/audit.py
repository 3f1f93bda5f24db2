"""End-to-end verification of the classification-table rows.

audit_row         build one row and check its five invariants
audit_all         every row at a range of M values, deterministic order
separation_check  compare two rows by ring invariants or certify isomorphism

A row passes when its designated generator has FP dimension below 2 and
tensor-generates the ring, the generator is K-normal for some K <= 2 at the
search horizon, the universal grading matches the table column, and the
adjoint subring is isomorphic to the expected adjoint ADE ring.
"""

from collections import Counter

from .abelian import FiniteAbelianGroup
from .construct import ROWS, TheoremRowSpec, expected_adjoint, theorem_row
from .ring import (
    adjoint_subring,
    find_isomorphisms,
    fp_dims,
    invertibles,
    is_generator,
    is_k_normal,
    restrict,
    universal_grading,
)

K_HORIZON = 8


class AuditReport:
    """Outcome of auditing one classification-table row."""

    def __init__(self, spec, rank, generator, checks):
        self.row = spec.row
        self.M = spec.M
        self.N = spec.N
        self.rank = rank
        self.generator = generator
        self.checks = checks  # name -> (ok, detail)

    @property
    def passed(self):
        return all(ok for ok, _ in self.checks.values())

    @property
    def failures(self):
        return [name for name, (ok, _) in self.checks.items() if not ok]

    def to_dict(self):
        return {
            "row": self.row,
            "params": {"M": self.M} if self.N is None else {"N": self.N, "M": self.M},
            "rank": self.rank,
            "generator": self.generator,
            "passed": self.passed,
            "checks": {k: {"ok": ok, "detail": detail}
                       for k, (ok, detail) in self.checks.items()},
        }

    def line(self):
        status = "pass" if self.passed else "FAIL(%s)" % ",".join(self.failures)
        n = "" if self.N is None else " N=%d" % self.N
        return "%-12s M=%-3d%s rank=%-3d gen=%-10s K=%s  %s" % (
            self.row, self.M, n, self.rank, self.generator,
            self.checks["k_normal"][1], status)

    def __str__(self):
        return self.line()


def audit_row(spec, M=None, N=None, k_max=K_HORIZON):
    """Build a table row and verify its five defining properties.

    Accepts what TheoremRowSpec.coerce accepts.
    """
    spec = TheoremRowSpec.coerce(spec, M, N)
    build = theorem_row(spec)
    ring, gen = build.ring, build.generator
    checks = {}

    d = float(fp_dims(ring)[gen])
    checks["generator_dim"] = (d < 2.0, "%.5f" % d)

    checks["generates"] = (is_generator(ring, gen), ring.labels[gen])

    kn = is_k_normal(ring, gen, k_max=k_max)
    checks["k_normal"] = (kn.least is not None and kn.least <= 2, str(kn.least))

    want = FiniteAbelianGroup.cyclic(spec.grading_order)
    got = universal_grading(ring).group
    checks["grading"] = (got == want, "%s (expected %s)" % (got, want))

    expected = expected_adjoint(spec)
    ad = restrict(ring, adjoint_subring(ring))
    same = ad.rank == expected.rank and bool(
        find_isomorphisms(ad, expected, max_count=1))
    checks["adjoint"] = (same, "rank %d" % ad.rank)

    return AuditReport(spec, ring.rank, ring.labels[gen], checks)


def audit_all(max_M=2):
    """Audit every classification row at M = 1..max_M, in table order."""
    return [audit_row(TheoremRowSpec(row, M=M)) for row in ROWS for M in range(1, max_M + 1)]


def _self_dual_profile(ring):
    dims = fp_dims(ring)
    prof = Counter()
    for i in range(ring.rank):
        if ring.dual[i] == i:
            prof[round(float(dims[i]), 5)] += 1
    return dict(prof)


class SeparationVerdict:
    def __init__(self, verdict, invariant=None, detail=None):
        self.verdict = verdict  # "ring-distinguishable" | "ring-isomorphic"
        self.invariant = invariant
        self.detail = detail

    def to_dict(self):
        return {"verdict": self.verdict, "invariant": self.invariant,
                "detail": self.detail}

    def __str__(self):
        if self.verdict == "ring-isomorphic":
            return "ring-isomorphic"
        return "ring-distinguishable via %s: %s" % (self.invariant, self.detail)


def separation_check(spec_a, spec_b):
    """Distinguish two rows by a ring invariant, or certify isomorphism.

    Compares the invertible-group types, then self-dual object counts per
    dimension class, then falls back to an exhaustive isomorphism search.
    Both specs must have the same grading group.
    """
    spec_a, spec_b = TheoremRowSpec.coerce(spec_a), TheoremRowSpec.coerce(spec_b)
    if spec_a.grading_order != spec_b.grading_order:
        raise ValueError("rows have different grading groups (Z_%d vs Z_%d)"
                         % (spec_a.grading_order, spec_b.grading_order))
    a = theorem_row(spec_a).ring
    b = theorem_row(spec_b).ring

    ga = invertibles(a).group
    gb = invertibles(b).group
    if ga != gb:
        return SeparationVerdict("ring-distinguishable", "invertible-group",
                                 "%s vs %s" % (ga, gb))

    pa = _self_dual_profile(a)
    pb = _self_dual_profile(b)
    if pa != pb:
        diff = sorted(set(pa) ^ set(pb) | {d for d in set(pa) & set(pb)
                                           if pa[d] != pb[d]})
        d0 = diff[0]
        return SeparationVerdict(
            "ring-distinguishable", "self-dual-count",
            "dimension %s: %d vs %d" % (d0, pa.get(d0, 0), pb.get(d0, 0)))

    if a.rank == b.rank and find_isomorphisms(a, b, max_count=1):
        return SeparationVerdict("ring-isomorphic")
    return SeparationVerdict("ring-distinguishable", "no-isomorphism",
                             "exhaustive search found no ring isomorphism")
