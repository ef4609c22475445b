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
`power FILE --json` on three larger bases, two of them non-commutative.

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

from sgclass.cli import main
from sgclass.core import (CayleyTable, adjoin_zero, antichain_zero_table,
                          chain_table, cyclic_table, null_table,
                          product_table, render_table, taimanov_table)
from sgclass.descriptors import parse_descriptor, truncate
from sgclass.harness import enumerate_commutative

from oracles import render_descriptor

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


# sha256 of the stdout of `power FILE --json`: 65,025 cells for cyclic8, and
# left-zero bands times Z3, where a build that swaps U and V changes the bytes.
# The order-9 one has subset masks up to 511, past one byte.
POWER_DIGESTS = {
    "cyclic8": (cyclic_table(8),
                "4a587b759855b1250e45d967601b60e1b53823eeeb647023038e67c11076139f"),
    "left_zero2_x_cyclic3": (
        product_table(CayleyTable([[0, 0], [1, 1]]), cyclic_table(3)),
        "1bb1e7720603b3a66c1b32041d24f7f739f1ba808dad6e1b364d22bbb9829c68"),
    "left_zero3_x_cyclic3": (
        product_table(CayleyTable([[x] * 3 for x in range(3)]),
                      cyclic_table(3)),
        "38aee05e40106fa5c83b89a961e433dc53fe64f5aca893de5b24193a95254534"),
}


# sha256 and exit code of the stdout of every other report.  The `--json`
# digests were taken while `--json` still went through json.dumps(obj,
# sort_keys=True, indent=2), the text digests while each command printed its
# own text.  Items past the digest name the fixtures a run needs; "replays" and
# "out" are directories the run writes, relative to the test's directory.
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
    # the exhaustive frontier: every class of order 5, labeled and checked
    "enumerate 5": (
        ["enumerate", "--order", "5", "--json"], 0,
        "e33ccbf004cb65a655ad382132d84b9a0b2cf9fb8413f3c9ed45907dd90e02dc"),
    "suite 5": (
        ["suite", "--max-order", "5", "--json"], 0,
        "af5547dd3011be603c018ae84be40eb48adfae16e2a2901c640d635f72817c19"),
    "validate associative text": (
        ["validate", "lz2_x_z3.tbl"], 0,
        "5e3d434f44e4c0e7843a4f86316a6d08925cc002f6ac851c66e827a3618975e3"),
    "validate non-associative text": (
        ["validate", "skew3.tbl"], 1,
        "43200f4f3a702b2b4c383fe5f9c3a2e5c4a0f47479d0550ff5fbe35b5eff0514"),
    "quotient pairs text": (
        ["quotient", "--pairs", "0=1", "lz2_x_z3.tbl"], 0,
        "b0fb937be210b86f46a572e368a90c1d9769b7bf692b18bf3a7e702852e45283"),
    "quotient ideal text": (
        ["quotient", "--ideal", "0,1", "T5.tbl"], 0,
        "c504c71ee9adb1d72604f5188238165b9a03c48ba58323d78f0fa4eecffee68d"),
    "power text": (
        ["power", "T5.tbl"], 0,
        "06a54f6fc0c59fb460a8ca00ac4057c77c811e01ceac0b6667525e49144ca4f0"),
    "enumerate 3 text": (
        ["enumerate", "--order", "3"], 0,
        "cd5a4507b04e6570795839a41d0b1102ca120414d2a9c7002d866cbf5aaa69f6"),
    "enumerate 3 out text": (
        ["enumerate", "--order", "3", "--out", "out"], 0,
        "540bc1c0c6d707609820108b3ab6b5ca97fd9ec6b1c25b79a9a7f48e319448a3"),
    "suite 3 text": (
        ["suite", "--max-order", "3"], 0,
        "902f2a3102584e55badbf412cd863a2debcda0a94290f35d64b38b64415109db"),
    "suite 5 text": (
        ["suite", "--max-order", "5"], 0,
        "4b52afecbba60a5a6741a7489363255bd795b4d8bfb15da16d2bc9bbaa613b01"),
    "suite 2 failing text": (
        ["suite", "--max-order", "2", "--out", "replays"], 1,
        "2931113c253a23b586f4cb43777c148aad25b1d995069e863f9b1046480e3a53",
        "collapsed_projections"),
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
def test_json_report_bytes(name, tmp_path, monkeypatch, request):
    monkeypatch.chdir(tmp_path)
    for file, table in JSON_FILES.items():
        (tmp_path / file).write_text(render_table(table))
    argv, code, digest, *fixtures = JSON_DIGESTS[name]
    for fixture in fixtures:
        request.getfixturevalue(fixture)
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
