"""Byte-for-byte pins of `classify`, `analyze` and `power` output, of
descriptor rendering and of descriptor truncation.

For every expression in CASES, golden_classify.json holds the canonical
rendering and the exact stdout of `sgclass classify EXPR`, as text and as
`--json`.  Table leaves name files by relative path, so the reports do not
depend on where the tests run.

golden_tables.json holds, for every table in TABLES (one per isomorphism
class of order <= 4, plus five order-8 formula tables), its rows and the
sha256 of the stdout of `analyze FILE` and `analyze FILE --json`, and for
tables of order <= 3 also of `power FILE --json`.

golden_truncate.json holds, for every expression in CASES and every
budget in BUDGETS, the rows of `truncate(descriptor, budget)`, one string
of space-separated entries per row.

Regenerate the files only when the output is meant to change, and review
the difference:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile

import pytest

from sgclass.cli import main, parse_descriptor, render_descriptor, render_table
from sgclass.core import (CayleyTable, adjoin_zero, antichain_zero_table,
                          chain_table, cyclic_table, null_table,
                          taimanov_table)
from sgclass.descriptors import truncate
from sgclass.harness import enumerate_commutative

GOLDEN = pathlib.Path(__file__).with_name("golden_classify.json")
GOLDEN_TABLES = pathlib.Path(__file__).with_name("golden_tables.json")
GOLDEN_TRUNCATE = pathlib.Path(__file__).with_name("golden_truncate.json")

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


BUDGETS = range(1, 13)


def write_files(directory):
    for name, table in FILES.items():
        (directory / name).write_text(render_table(table))


def stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def classify_stdout(argv):
    return stdout_of(["classify"] + argv)


def outputs(expr):
    return {
        "render": render_descriptor(parse_descriptor(expr)),
        "text": classify_stdout([expr]),
        "json": classify_stdout([expr, "--json"]),
    }


def truncations(expr):
    d = parse_descriptor(expr)
    return {str(b): [" ".join(map(str, row)) for row in truncate(d, b).op]
            for b in BUDGETS}


def _tables():
    tables = {}
    for n in range(1, 5):
        for i, t in enumerate(enumerate_commutative(n, up_to_iso=True)):
            tables["order%d_%02d" % (n, i)] = t
    tables.update({
        "null8": null_table(8),
        "chain8": chain_table(8),
        "taimanov8": taimanov_table(8),
        "antichain_zero8": antichain_zero_table(8),
        "adjoin_zero_cyclic7": adjoin_zero(cyclic_table(7)),
    })
    return tables


TABLES = _tables()


def table_digests(name, rows, directory):
    path = directory / ("%s.tbl" % name)
    path.write_text(render_table(CayleyTable(rows)))
    commands = {"analyze": ["analyze", path.name],
                "analyze --json": ["analyze", path.name, "--json"]}
    if len(rows) <= 3:
        commands["power --json"] = ["power", path.name, "--json"]
    out = {"table": [list(r) for r in rows]}
    for key, argv in commands.items():
        out[key] = hashlib.sha256(stdout_of(argv).encode()).hexdigest()
    return out


@pytest.fixture
def table_dir(tmp_path, monkeypatch):
    write_files(tmp_path)
    monkeypatch.chdir(tmp_path)


def _golden(path=GOLDEN):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_covers_exactly_the_cases():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("expr", CASES)
def test_classify_and_render_bytes(expr, table_dir):
    assert outputs(expr) == _golden()[expr]


def test_table_golden_file_covers_exactly_the_tables():
    golden = _golden(GOLDEN_TABLES)
    assert sorted(golden) == sorted(TABLES)
    for name, table in TABLES.items():
        assert golden[name]["table"] == [list(r) for r in table.op], name


@pytest.mark.parametrize("name", sorted(TABLES))
def test_analyze_and_power_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = _golden(GOLDEN_TABLES)[name]
    assert table_digests(name, want["table"], tmp_path) == want


def test_truncate_golden_file_covers_exactly_the_cases():
    assert sorted(_golden(GOLDEN_TRUNCATE)) == sorted(CASES)


@pytest.mark.parametrize("expr", CASES)
def test_truncate_rows(expr, table_dir):
    assert truncations(expr) == _golden(GOLDEN_TRUNCATE)[expr]


def _write_golden(path, golden):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print("wrote %d cases to %s" % (len(golden), path))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        here = os.getcwd()
        work = pathlib.Path(work)
        write_files(work)
        os.chdir(work)
        try:
            golden = {expr: outputs(expr) for expr in CASES}
            truncated = {expr: truncations(expr) for expr in CASES}
            tables = {name: table_digests(name, t.op, work)
                      for name, t in TABLES.items()}
        finally:
            os.chdir(here)
    _write_golden(GOLDEN, golden)
    _write_golden(GOLDEN_TABLES, tables)
    _write_golden(GOLDEN_TRUNCATE, truncated)
