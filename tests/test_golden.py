"""Byte-for-byte pins of `classify`, `analyze` and `power` output, of
descriptor rendering and of descriptor truncation.

For every expression in CASES, golden_classify.json holds the canonical
rendering and the exact stdout of `sgclass classify EXPR`, as text and as
`--json`.  Table leaves name files by relative path, so the reports do not
depend on where the tests run.

golden_tables.json holds, for every table in TABLES (one per isomorphism
class of order <= 4, five order-8 formula tables, and the non-commutative
left-zero band and its product with Z3), its rows and the
sha256 of the stdout of `analyze FILE` and `analyze FILE --json`, and for
tables of order <= 3 also of `power FILE --json`.  POWER_DIGESTS below pins
`power FILE --json` on two larger bases, one of them non-commutative.

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
                          product_table, taimanov_table)
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


def stdout_of(argv, code=0):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = main(argv)
    assert got == code, argv
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
        "left_zero2": CayleyTable([[0, 0], [1, 1]]),
        "left_zero2_x_cyclic3": product_table(CayleyTable([[0, 0], [1, 1]]),
                                              cyclic_table(3)),
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


# sha256 of the stdout of `power FILE --json`: 65,025 cells for cyclic8, and a
# left-zero band times Z3, where a build that swaps U and V changes the bytes.
POWER_DIGESTS = {
    "cyclic8": (cyclic_table(8),
                "4a587b759855b1250e45d967601b60e1b53823eeeb647023038e67c11076139f"),
    "left_zero2_x_cyclic3": (
        product_table(CayleyTable([[0, 0], [1, 1]]), cyclic_table(3)),
        "1bb1e7720603b3a66c1b32041d24f7f739f1ba808dad6e1b364d22bbb9829c68"),
}


# sha256 and exit code of the stdout of every other `--json` report, taken
# while `--json` still went through json.dumps(obj, sort_keys=True, indent=2).
JSON_FILES = {
    "T5.tbl": taimanov_table(5),
    "skew3.tbl": CayleyTable([[0, 0, 1], [2, 1, 0], [0, 1, 2]]),
    "lz2_x_z3.tbl": product_table(CayleyTable([[0, 0], [1, 1]]),
                                  cyclic_table(3)),
}
JSON_DIGESTS = {
    "validate associative": (
        ["validate", "lz2_x_z3.tbl", "--json"], 0,
        "b8c92ce04b39008c6a7375b89180448e143c87b8fe7029b73d7087adf6b3cc21"),
    "validate non-associative": (
        ["validate", "skew3.tbl", "--json"], 1,
        "f06ec8542e9d68b0c566ee945254493ca0df6a9c86ddac28c2c0d4f132b0ed86"),
    "quotient pairs": (
        ["quotient", "--pairs", "0=1", "lz2_x_z3.tbl", "--json"], 0,
        "222cb22d6efc5ed30826d17b97ccdc9f1c5ba0d3d384990fe251341034cfbc62"),
    "quotient ideal": (
        ["quotient", "--ideal", "0,1", "T5.tbl", "--json"], 0,
        "6da8862714bc290f0ca1a8a9d703f36017a3e6fdc0b4ce7ab872ffd33223ec3d"),
    "enumerate 4": (
        ["enumerate", "--order", "4", "--json"], 0,
        "b71fdaf375a6d3238069c0acb3b2812e1600926581595d10968b51cca5b87f5f"),
    "enumerate 5 up to iso": (
        ["enumerate", "--order", "5", "--up-to-iso", "--json"], 0,
        "6f9d3c967b2efd8eee80265cfcc57912888f4ac3c3686382cca121f9b0693657"),
    "suite 3": (
        ["suite", "--max-order", "3", "--json"], 0,
        "299fb2c951de80444189fc66f55c87b1606e8e7022c0129de81e1cd3fd3a13b7"),
}


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


@pytest.mark.parametrize("name", sorted(POWER_DIGESTS))
def test_large_base_power_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    table, digest = POWER_DIGESTS[name]
    path = tmp_path / ("%s.tbl" % name)
    path.write_text(render_table(table))
    out = stdout_of(["power", path.name, "--json"])
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(JSON_DIGESTS))
def test_json_report_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for file, table in JSON_FILES.items():
        (tmp_path / file).write_text(render_table(table))
    argv, code, digest = JSON_DIGESTS[name]
    out = stdout_of(argv, code)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
