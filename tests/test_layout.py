"""Rules on how the package's modules depend on each other."""

import pathlib
import re

import fusionrings

# a relative import that names an underscore-prefixed helper
PRIVATE_IMPORT = re.compile(r"^\s*from \.[a-z_]* import (.*[ (,])?_[a-z]", re.M)


def test_no_module_imports_another_modules_private_helper():
    sources = sorted(pathlib.Path(fusionrings.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    hits = ["%s: %s" % (path.name, m.group(0).strip())
            for path in sources for m in PRIVATE_IMPORT.finditer(path.read_text())]
    assert hits == []
