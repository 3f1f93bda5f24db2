"""Rules on how the package's modules depend on each other."""

import ast
import pathlib

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
