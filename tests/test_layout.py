"""Rules on how the package's modules depend on each other."""

import ast
import importlib
import importlib.util
import pathlib
import sys

import fusionrings


def private_imports(source):
    """Underscore-prefixed names that relative imports in ``source`` bring in."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level >= 1
            for alias in node.names if alias.name.startswith("_")]


def test_private_import_check_reads_continuation_lines():
    source = "from .abelian import (\n    lattice_basis,\n    _helper,\n)\nfrom os import _exit\n"
    assert private_imports(source) == ["_helper"]


def test_no_module_imports_another_modules_private_helper():
    sources = sorted(pathlib.Path(fusionrings.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    hits = ["%s: %s" % (path.name, name)
            for path in sources for name in private_imports(path.read_text())]
    assert hits == []


def test_traced_names_are_package_attributes(monkeypatch):
    # bench/run.py --trace 1 wraps these (module, function) pairs by name, so
    # a renamed or removed function would break the traced run; the file is
    # loaded from its path without writing a bytecode cache next to it
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.FUNCTIONS and spans.SITE_ONLY
    for modname, fname in spans.FUNCTIONS + spans.SITE_ONLY:
        module = importlib.import_module("fusionrings." + modname)
        assert hasattr(module, fname), (modname, fname)


def bound_reads(source):
    """Reads of MAX_DENSE_BYTES and spellings of 2 ** 53 in ``source``'s
    code; docstrings and comments are not code."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "MAX_DENSE_BYTES"
                or isinstance(node, ast.Name) and node.id == "MAX_DENSE_BYTES"
                and isinstance(node.ctx, ast.Load)):
            hits.append("MAX_DENSE_BYTES")
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and isinstance(node.left, ast.Constant) and node.left.value == 2
              and isinstance(node.right, ast.Constant) and node.right.value == 53):
            hits.append("2 ** 53")
    return hits


def test_bound_check_reads_code_only():
    source = ('"""2 ** 53 and config.MAX_DENSE_BYTES."""\n'
              "MAX_DENSE_BYTES = 2 ** 31\n"
              "if 8 * n > config.MAX_DENSE_BYTES or r * b ** 2 >= 2**53:  # 2 ** 53\n"
              "    pass\n")
    assert bound_reads(source) == ["MAX_DENSE_BYTES", "2 ** 53"]


def test_only_ring_holds_the_dense_and_exact_sum_bounds():
    # ring.check_dense and ring.check_exact_sums are the one place each bound
    # is compared against; every other module calls them
    sources = sorted(pathlib.Path(fusionrings.__file__).parent.glob("*.py"))
    hits = ["%s: %s" % (path.name, hit) for path in sources if path.name != "ring.py"
            for hit in bound_reads(path.read_text())]
    assert hits == []


SCANS = ("nonzero", "argwhere", "flatnonzero")


def tensor_scans(source):
    """Calls of np.nonzero, np.argwhere or np.flatnonzero in ``source`` with
    an argument that reads a ``.tensor`` attribute."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in SCANS
                and any(isinstance(sub, ast.Attribute) and sub.attr == "tensor"
                        for arg in node.args + [k.value for k in node.keywords]
                        for sub in ast.walk(arg))):
            hits.append("%s line %d" % (node.func.attr, node.lineno))
    return hits


def test_tensor_scan_check_reads_arguments():
    source = ('"""np.nonzero(ring.tensor)"""\n'
              "i, j, k = np.nonzero(ring.tensor)\n"
              "bad = np.argwhere(t.tensor[x] > 0)  # np.nonzero(ring.tensor)\n"
              "ok = np.flatnonzero(ring.triples[0] == x) + np.nonzero(tensor)[0]\n")
    assert tensor_scans(source) == ["nonzero line 2", "argwhere line 3"]


def test_only_ring_scans_the_tensor_for_nonzeros():
    # FusionRing.triples is the one sparse view of a ring; every other module
    # reads it instead of scanning the dense tensor again
    sources = sorted(pathlib.Path(fusionrings.__file__).parent.glob("*.py"))
    hits = ["%s: %s" % (path.name, hit) for path in sources if path.name != "ring.py"
            for hit in tensor_scans(path.read_text())]
    assert hits == []
