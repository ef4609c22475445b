"""Byte-for-byte pins of `classify` output and descriptor rendering.

For every expression in CASES, golden_classify.json holds the canonical
rendering and the exact stdout of `sgclass classify EXPR`, as text and as
`--json`.  Table leaves name files by relative path, so the reports do not
depend on where the tests run.  Regenerate the file only when the output is
meant to change, and review the difference:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import tempfile

import pytest

from sgclass.cli import main, parse_descriptor, render_descriptor, render_table
from sgclass.core import chain_table, cyclic_table, taimanov_table

GOLDEN = pathlib.Path(__file__).with_name("golden_classify.json")

FILES = {
    "L3.tbl": chain_table(3),
    "T5.tbl": taimanov_table(5),
    "Z3.tbl": cyclic_table(3),
}

CASES = [
    "(table T5.tbl)",
    "(table Z3.tbl)",
    "(group (prufer 2))",
    "(group (cyclic 6) (cyclic 4 x 3))",
    "(group (integers))",
    "(group (cyclic-tower 3 x omega))",
    "(group (cyclic 1 x omega))",
    "(group (cyclic 2 x omega) (prufer 5 x 2))",
    "(semilattice chain-omega)",
    "(semilattice antichain-omega-zero)",
    "(semilattice (poset L3.tbl))",
    "(taimanov)",
    "(null)",
    "(product (taimanov) (semilattice chain-omega))",
    "(product (table T5.tbl) (group (cyclic 3)))",
    "(product (null) (group (cyclic 2)))",
    "(product (taimanov) (table T5.tbl))",
    "(product (semilattice antichain-omega-zero) (group (integers)))",
    "(product (group (cyclic 2 x omega)) (semilattice (poset L3.tbl)))",
    "(adjoin-zero (taimanov))",
    "(adjoin-identity (null))",
    "(adjoin-identity (adjoin-zero (group (prufer 3))))",
    "(adjoin-zero (product (table Z3.tbl) (semilattice (poset L3.tbl))))",
    "( product\n  (null)\t(adjoin-identity   (taimanov)) )",
]


def write_files(directory):
    for name, table in FILES.items():
        (directory / name).write_text(render_table(table))


def classify_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["classify"] + argv)
    assert code == 0, argv
    return out.getvalue()


def outputs(expr):
    return {
        "render": render_descriptor(parse_descriptor(expr)),
        "text": classify_stdout([expr]),
        "json": classify_stdout([expr, "--json"]),
    }


@pytest.fixture
def table_dir(tmp_path, monkeypatch):
    write_files(tmp_path)
    monkeypatch.chdir(tmp_path)


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_covers_exactly_the_cases():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("expr", CASES)
def test_classify_and_render_bytes(expr, table_dir):
    assert outputs(expr) == _golden()[expr]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        here = os.getcwd()
        write_files(pathlib.Path(work))
        os.chdir(work)
        try:
            golden = {expr: outputs(expr) for expr in CASES}
        finally:
            os.chdir(here)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print("wrote %d cases to %s" % (len(golden), GOLDEN))
