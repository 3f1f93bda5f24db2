import json
import os

import pytest

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_path(name):
    return os.path.join(DATA, name)


def load_json(name):
    with open(data_path(name)) as fh:
        return json.load(fh)


def group_from_presentation(n, mul):
    """Reference typing of the abelian group of order n with table ``mul``:
    the Smith normal form of the presentation with one generator per element
    and the relations e_i + e_j = e_{mul(i, j)} for every pair."""
    from fusionrings.abelian import FiniteAbelianGroup, diagonal_entries, smith_normal_form

    rels = []
    for i in range(n):
        for j in range(i, n):
            row = [0] * n
            row[i] += 1
            row[j] += 1
            row[mul(i, j)] -= 1
            rels.append(row)
    diag = diagonal_entries(smith_normal_form(rels).d)
    return FiniteAbelianGroup(tuple(d for d in diag if d > 1))


@pytest.fixture(scope="session")
def e4():
    from fusionrings import e4_ring

    return e4_ring()


@pytest.fixture(scope="session")
def e166():
    from fusionrings import e166_ring

    return e166_ring()


@pytest.fixture(scope="session")
def a5():
    from fusionrings import ade_ring

    return ade_ring("A", 5)


@pytest.fixture
def cli(capsys):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    from fusionrings.cli import main

    def run(*argv):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse-level rejection
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    return run
