import json
import os
import re
import shutil
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest

import fusionrings
from fusionrings import (
    Grading,
    ade_ring,
    deligne_product,
    find_isomorphisms,
    one_one_subring,
    pointed_ring,
    ring_from_dict,
    universal_grading,
)
from fusionrings.jsonio import ring_to_dict
from conftest import data_path

E4_JSON = str(files("fusionrings") / "data" / "e4.json")


def ring_of(out):
    return ring_from_dict(json.loads(out))


def test_verify_shipped_ring(cli):
    code, out, err = cli("verify", E4_JSON)
    assert code == 0
    assert out.strip() == "pass"
    assert err == ""


def test_knormal_report(cli):
    code, out, _ = cli("knormal", E4_JSON, "--object", "5", "--kmax", "6")
    assert code == 0
    assert out.strip() == "K=2 (horizon 6); k=1 fails"


def test_cohom_with_action(cli):
    code, out, _ = cli("cohom", "--deg", "2", "--M", "12",
                       "--coeffs", "3,3", "--action", "inv2")
    assert code == 0
    assert out.strip() == "Z_3"


def test_cohom_whitehead(cli):
    code, out, _ = cli("cohom", "--deg", "3", "--M", "7")
    assert code == 0
    assert out.strip() == "Z_7"


def test_dims_format(cli):
    code, out, _ = cli("dims", E4_JSON)
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 12
    assert lines[0] == "1 1.000000"
    assert "9 3.414214" in lines
    assert all(re.match(r"^\S+ \d+\.\d{6}$", l) for l in lines)


def test_invertibles_output(cli):
    code, out, _ = cli("invertibles", E4_JSON)
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "Z_2"
    assert lines[1] == "1 4"


def test_grading_output(cli):
    code, out, _ = cli("grading", E4_JSON)
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "Z_4"
    assert "1 (0)" in lines and "5 (1)" in lines and "9 (2)" in lines


def test_graph_writes_dot(cli, tmp_path):
    dot = tmp_path / "e4.dot"
    code, out, _ = cli("graph", E4_JSON, "--object", "5", "--dot", dot)
    assert code == 0
    assert out.strip() == "12 nodes, 20 edges -> %s" % dot
    text = dot.read_text()
    assert text.startswith("digraph")
    assert '"1" -> "5"' in text


def test_build_ade(cli):
    code, out, _ = cli("build", "ade", "--family", "A", "--size", "5")
    assert code == 0
    ring = ring_of(out)
    assert list(ring.labels) == ["f0", "f1", "f2", "f3", "f4"]
    assert find_isomorphisms(ring, ade_ring("A", 5), max_count=1)


def test_build_pointed(cli):
    code, out, _ = cli("build", "pointed", "--orders", "2,4")
    assert code == 0
    assert ring_of(out).rank == 8


def test_build_row_has_provenance(cli):
    code, out, _ = cli("build", "row", "--id", "exc4", "--M", "1")
    assert code == 0
    data = json.loads(out)
    prov = data.pop("provenance")
    assert prov["row"] == "exc4"
    assert prov["grading_order"] == 4
    assert prov["generator"] == "(5,1)"
    assert ring_from_dict(data).rank == 12


def test_product_oneone_deq_pipeline(cli, tmp_path):
    a = tmp_path / "a5.json"
    z = tmp_path / "z8.json"
    p = tmp_path / "prod.json"
    o = tmp_path / "oo.json"
    _, out, _ = cli("build", "ade", "--family", "A", "--size", "5")
    a.write_text(out)
    _, out, _ = cli("build", "pointed", "--orders", "8")
    z.write_text(out)
    code, out, _ = cli("product", a, z)
    assert code == 0
    p.write_text(out)
    assert ring_of(out).rank == 40
    code, out, _ = cli("oneone", p)
    assert code == 0
    o.write_text(out)
    code, out, _ = cli("deq", o, "--subgroup", "(f4,4)")
    assert code == 0
    ring = ring_of(out)
    assert ring.rank == 10
    assert str(universal_grading(ring).group) == "Z_4"


def test_oneone_grading_sources(cli, tmp_path):
    # the grading comes from --grading, bare or under "grading", else the
    # ring's own, else the universal one; A_5 x Vec(Z_4) with only its Z_4
    # degrees has its whole ring of degree (1,1), with its own grading half
    ring = deligne_product(ade_ring("A", 5), pointed_ring([4]))
    coarse = Grading((4,), [(d[1],) for d in ring.grading.deg])
    bare = {"orders": [4], "deg": [[l, list(d)] for l, d in zip(ring.labels, coarse.deg)]}
    data = ring_to_dict(ring)
    del data["grading"]
    ungraded = tmp_path / "ring.json"
    ungraded.write_text(json.dumps(data))

    def oneone(*extra):
        code, out, err = cli("oneone", ungraded, *extra)
        assert code == 0, err
        return ring_of(out)

    def same(got, want):
        return list(got.labels) == list(want.labels) and (got.tensor == want.tensor).all()

    for name, grading in (("bare.json", bare), ("wrapped.json", {"grading": bare})):
        (tmp_path / name).write_text(json.dumps(grading))
        got = oneone("--grading", tmp_path / name)
        assert got.rank == 20 and same(got, one_one_subring(ring, coarse)), name
    got = oneone()
    assert got.rank == 10 and same(got, one_one_subring(ring, universal_grading(ring)))


def test_solve_reports_counts(cli):
    code, out, _ = cli("solve", data_path("e4_partial.json"))
    assert code == 0
    result = json.loads(out)
    assert result["raw_solutions"] == 4
    assert result["iso_classes"] == 1
    assert len(result["representatives"]) == 1
    assert ring_from_dict(result["representatives"][0]).rank == 12


def test_audit_single_row_with_json(cli, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = cli("audit", "--row", "pointed", "--M", "2", "--json", report)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("pointed") and lines[0].endswith("pass")
    assert lines[-1] == "audited 1 row instance(s): all pass"
    data = json.loads(report.read_text())
    assert data[0]["row"] == "pointed"
    assert data[0]["passed"] is True


def test_audit_all(cli):
    code, out, _ = cli("audit", "--all", "--max-M", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 15
    assert lines[-1] == "audited 14 row instance(s): all pass"


@pytest.mark.parametrize("rowA,rowB,M,N,expected", [
    ("a-odd", "a-odd-deq-1", 4, None,
     "ring-distinguishable via invertible-group: Z_2 x Z_2 vs Z_4"),
    ("d-even", "d4-deq", 6, 2,
     "ring-distinguishable via invertible-group: Z_3 x Z_3 vs Z_9"),
    ("exc4", "exc4-deq", 8, None,
     "ring-distinguishable via invertible-group: Z_2 x Z_2 vs Z_4"),
    ("a-odd", "a-odd-deq-1", 2, None,
     "ring-distinguishable via self-dual-count: dimension 1.73205: 2 vs 0"),
    ("d-even", "d-even", 2, None, "ring-isomorphic"),
])
def test_separate(cli, rowA, rowB, M, N, expected):
    argv = ["separate", rowA, rowB, "--M", M]
    if N is not None:
        argv += ["--N", N]
    code, out, _ = cli(*argv)
    assert code == 0
    assert out.strip() == expected


@pytest.mark.parametrize("argv", [
    ("verify", "/nonexistent/ring.json"),
    ("knormal", E4_JSON, "--object", "zz"),
    ("knormal", E4_JSON, "--object", "5", "--kmax", "0"),
    ("frobnicate",),
    ("audit", "--all", "--row", "pointed"),
    ("cohom", "--deg", "2", "--M", "4"),
    ("separate", "d-even", "d4-deq", "--M", "1"),
    ("build", "ade", "--family", "B", "--size", "4"),
    ("build", "pointed", "--orders", "x,y"),
])
def test_malformed_input_exits_2(cli, argv):
    code, out, err = cli(*argv)
    assert code == 2
    payload = json.loads(err)
    assert "error" in payload and "message" in payload


def test_obstructed_quotient_exits_1(cli, tmp_path):
    ring = tmp_path / "a7.json"
    _, out, _ = cli("build", "ade", "--family", "A", "--size", "7")
    ring.write_text(out)
    code, out, err = cli("deq", ring, "--subgroup", "f6")
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "FixedPointError"
    assert payload["invertible"] == "f6"
    assert payload["fixed"] == "f3"


def test_axiom_violation_exits_1(cli, tmp_path):
    data = json.loads(Path(E4_JSON).read_text())
    for entry in data["tensor"]:
        if entry[0] != "1" and entry[1] != "1" and entry[3] == 1:
            entry[3] = 2
            break
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = cli("verify", bad)
    assert code == 1
    assert out.startswith("FAIL")
    payload = json.loads(err)
    assert payload["error"] == "AxiomViolation"
    assert ["duality", [1, 1, 0]] in payload["violations"]


def _declared_script(name):
    """Return the ``module:function`` target of ``name`` in [project.scripts]."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def test_console_script():
    """The declared ``fusionrings`` entry point, run in a fresh interpreter
    the way the generated console-script wrapper runs it (and, where one is
    installed on PATH, that executable too), verifies the shipped e4 ring."""
    module, func = _declared_script("fusionrings").split(":")
    wrapper = "import sys\nfrom %s import %s\nsys.exit(%s())" % (module, func, func)
    src = str(Path(fusionrings.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    commands = [[sys.executable, "-c", wrapper, "verify", E4_JSON]]
    installed = shutil.which("fusionrings")
    if installed:
        commands.append([installed, "verify", E4_JSON])
    for argv in commands:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert proc.stdout.strip() == "pass"
        assert proc.stderr == ""


def test_verify_past_the_dense_bound_exits_2(cli, monkeypatch):
    from fusionrings import config

    monkeypatch.setattr(config, "MAX_DENSE_BYTES", 1000)
    code, out, err = cli("verify", E4_JSON)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BoundsExceededError"
