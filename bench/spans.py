"""Spans around the public functions of fusionrings, from outside the package.

Package modules import each other's functions by name (``from .ring import
fp_dims``), so one function is reachable through several module attributes.
``Tracer.install`` replaces every such attribute with a wrapper that knows
the module it was reached through (its *site*), and ``uninstall`` puts the
original functions back.  Calls that look a name up in a module at call time
(including function-local imports) see whichever object is installed.

Each wrapped call appends one span to an in-memory list: function, site,
start, end, parent span, task, whether the same function was already open
further up the stack, and a few numbers read off the arguments or result.
"""

import contextlib
import functools
import sys
import time

# (module, function): every module attribute bound to the function is wrapped
FUNCTIONS = [
    ("abelian", "smith_normal_form"),
    ("ring", "invertibles"),
    ("ring", "universal_grading"),
    ("ring", "fp_dims"),
    ("ring", "is_generator"),
    ("ring", "is_k_normal"),
    ("ring", "find_isomorphisms"),
    ("ring", "verify_axioms"),
    ("construct", "theorem_row"),
    ("construct", "deligne_product"),
    ("construct", "one_one_subring"),
    ("construct", "dequiv_free"),
    ("solve", "complete_partial_ring"),
    ("solve", "ring_from_generator_graph"),
    ("cohomology", "h_cyclic"),
    ("cohomology", "brute_force_h2"),
    ("cohomology", "h3_roots_of_unity"),
    ("audit", "audit_row"),
    ("jsonio", "load_ring"),
    ("jsonio", "load_partial"),
]

# (site, function): wrapped only where that module calls it; these spans
# split the adjoint check of audit_row away from its self time
SITE_ONLY = [
    ("audit", "adjoint_subring"),
    ("audit", "restrict"),
    ("audit", "expected_adjoint"),
]


def _snf_extra(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    return len(a) * (len(a[0]) if len(a) else 0)


def _product_extra(args, kwargs, result):
    return (result.rank, result.tensor.itemsize)


def _row_extra(args, kwargs, result):
    return result.ring.rank


def _solve_extra(args, kwargs, result):
    return (result.nodes, len(result.solutions), len(result.classes))


EXTRAS = {
    "abelian.smith_normal_form": _snf_extra,
    "construct.deligne_product": _product_extra,
    "construct.theorem_row": _row_extra,
    "solve.complete_partial_ring": _solve_extra,
}


class Span:
    __slots__ = ("name", "site", "start", "end", "parent", "task", "nested", "extra")

    def __init__(self, name, site, start, parent, task, nested):
        self.name = name
        self.site = site
        self.start = start
        self.end = None
        self.parent = parent
        self.task = task
        self.nested = nested
        self.extra = None

    @property
    def dur(self):
        return self.end - self.start

    def to_list(self):
        return [self.name, self.site, self.start, self.end, self.parent,
                self.task, self.nested, self.extra]


class Tracer:
    """Records spans while installed and ``recording`` is true."""

    def __init__(self, package):
        self.spans = []
        self.task = None
        self.recording = True
        self._stack = []
        self._open = {}
        self._patches = []  # (module, attribute, original, wrapper)
        modules = dict(_package_modules(package))
        for modname, fname in FUNCTIONS:
            original = getattr(modules[modname], fname)
            name = "%s.%s" % (modname, fname)
            for site, mod in modules.items():
                if getattr(mod, fname, None) is original:
                    self._patches.append(
                        (mod, fname, original, self._wrap(original, name, site)))
        for site, fname in SITE_ONLY:
            mod = modules[site]
            original = getattr(mod, fname)
            name = "%s:%s" % (site, fname)
            self._patches.append((mod, fname, original, self._wrap(original, name, site)))

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block of benchmark code."""
        span = self._enter(name, "bench")
        try:
            yield span
        finally:
            self._exit(span)

    def _enter(self, name, site):
        parent = self._stack[-1] if self._stack else -1
        depth = self._open.get(name, 0)
        self._open[name] = depth + 1
        span = Span(name, site, time.perf_counter(), parent, self.task, depth > 0)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        self._open[span.name] -= 1

    def _wrap(self, fn, name, site):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = self._enter(name, site)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if extra is not None:
                span.extra = extra(args, kwargs, result)
            return result

        return wrapper


def _package_modules(package):
    prefix = package.__name__ + "."
    yield "api", package
    for name, mod in sorted(sys.modules.items()):
        if name.startswith(prefix) and mod is not None:
            yield name[len(prefix):], mod


# ---------------------------------------------------------------------------
# per-layer metrics from a list of spans

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer
def metric_specs():
    specs = {}
    for modname, fname in FUNCTIONS:
        base = "%s.%s" % (modname, fname)
        if modname == "jsonio":
            specs[base + ".s"] = ("s", "lower")
            continue
        specs[base + ".calls"] = ("count", "lower")
        specs[base + ".s"] = ("s", "lower")
        specs[base + ".self_s"] = ("s", "lower")
    specs.update({
        "abelian.snf_cells_max": ("count", "lower"),
        "construct.dense_bytes_max": ("B", "lower"),
        "construct.kept_ratio": ("ratio", "higher"),
        "construct.base_rings.s": ("s", "lower"),
        "solve.verify.s": ("s", "lower"),
        "solve.classing.s": ("s", "lower"),
        "solve.nodes": ("count", "lower"),
        "solve.solutions": ("count", "higher"),
        "solve.classes": ("count", "higher"),
        "solve.solutions_per_node": ("ratio", "higher"),
        "audit.build.s": ("s", "lower"),
        "audit.check.generator_dim.s": ("s", "lower"),
        "audit.check.generates.s": ("s", "lower"),
        "audit.check.k_normal.s": ("s", "lower"),
        "audit.check.grading.s": ("s", "lower"),
        "audit.check.adjoint.s": ("s", "lower"),
        "error_rate": ("ratio", "lower"),
        "trace.wall_s": ("s", "lower"),
        "trace.overhead_s": ("s", "lower"),
    })
    return specs


AUDIT_CHECKS = {
    "generator_dim": ("ring.fp_dims",),
    "generates": ("ring.is_generator",),
    "k_normal": ("ring.is_k_normal",),
    "grading": ("ring.universal_grading",),
    "adjoint": ("ring.find_isomorphisms", "audit:adjoint_subring",
                "audit:restrict", "audit:expected_adjoint"),
}


def layer_metrics(spans, passes):
    """Per-layer values (without error_rate and trace.*) of the spans whose
    task belongs to one of ``passes`` (task ids are (pass, name) pairs; the
    set-up is pass -1)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.dur

    out = {name: 0 for name in metric_specs()}
    product_of = {}
    for i, s in enumerate(spans):
        if s.task[0] not in passes:
            continue
        name = s.name
        if name + ".s" in out:
            if name + ".calls" in out:
                out[name + ".calls"] += 1
            if not s.nested:
                out[name + ".s"] += s.dur
            if name + ".self_s" in out:
                out[name + ".self_s"] += s.dur - child_time[i]
        if name == "bench.base_rings":
            out["construct.base_rings.s"] += s.dur
        elif s.site == "solve" and name == "ring.verify_axioms":
            out["solve.verify.s"] += s.dur
        elif s.site == "solve" and name == "ring.find_isomorphisms":
            out["solve.classing.s"] += s.dur
        elif s.site == "audit":
            if name == "construct.theorem_row":
                out["audit.build.s"] += s.dur
            for check, names in AUDIT_CHECKS.items():
                if name in names:
                    out["audit.check.%s.s" % check] += s.dur
        if s.extra is None:
            continue
        if name == "abelian.smith_normal_form":
            out["abelian.snf_cells_max"] = max(out["abelian.snf_cells_max"], s.extra)
        elif name == "solve.complete_partial_ring":
            out["solve.nodes"] += s.extra[0]
            out["solve.solutions"] += s.extra[1]
            out["solve.classes"] += s.extra[2]
        elif name == "construct.deligne_product":
            rank, itemsize = s.extra
            out["construct.dense_bytes_max"] = max(
                out["construct.dense_bytes_max"], rank ** 3 * itemsize)
            # the product belongs to the nearest theorem_row above it
            row = _ancestor(spans, s, "construct.theorem_row")
            if row is not None:
                product_of[row] = max(product_of.get(row, 0), rank)

    kept = sum(spans[row].extra for row in product_of if spans[row].extra is not None)
    product = sum(rank for row, rank in product_of.items() if spans[row].extra is not None)
    out["construct.kept_ratio"] = kept / product if product else 0
    if out["solve.nodes"]:
        out["solve.solutions_per_node"] = out["solve.solutions"] / out["solve.nodes"]
    return out


def _ancestor(spans, span, name):
    p = span.parent
    while p >= 0:
        if spans[p].name == name:
            return p
        p = spans[p].parent
    return None
