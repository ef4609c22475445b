"""The benchmark's workloads: the CLI operations each one runs, the checks
on every output, and the layer counts a traced pass gave when the benchmark
was defined.

Every fingerprint here is hard-coded or committed with the benchmark; none
is read from the program under test.  A wrong output is a failed operation.
A layer count that differs from its baseline is only reported: an
optimisation may rightly change how much work a layer does.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
from typing import Callable, Iterator, NamedTuple, Optional

import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")

# Commutative semigroups of order n: labeled tables, and isomorphism
# classes (OEIS A001426).
LABELED = {1: 1, 2: 6, 3: 63, 4: 1140, 5: 30730}
CLASSES = {1: 1, 2: 3, 3: 12, 4: 58, 5: 325}
# Congruences summed over one table per class, at each order.
CONGRUENCES = {1: 1, 2: 6, 3: 44, 4: 392, 5: 4106}
SUITE_CHECKS = 7


class Op(NamedTuple):
    argv: tuple
    tables: int                      # tables emitted, checked or read
    check: Callable[[object, str], Optional[str]]   # (exit code, stdout)
    category: str


class Workload(NamedTuple):
    name: str
    prepare: Callable[[int], Iterator[Op]]   # seed -> endless operations
    round_ops: int                   # operations in one round of the mix
    trace_ops: int                   # operations in one traced pass
    baseline: Callable[[list], dict]  # traced ops -> layer counts
    verify: Callable[[], list]       # problems found after the last operation


def load_cli():
    """Import sgclass from this checkout's src/ and return sgclass.cli."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sgclass", "__init__.py")):
        raise SystemExit("perfbench: no sgclass sources under %s" % src)
    sys.path.insert(0, src)
    import sgclass.cli
    where = os.path.dirname(os.path.abspath(sgclass.__file__))
    if where != os.path.join(src, "sgclass"):
        raise SystemExit("perfbench: imported sgclass from %s, not %s"
                         % (where, src))
    return sgclass.cli


def _json_or_problem(code, out):
    if code != 0:
        return None, "exit code %r, expected 0" % (code,)
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, "stdout is not JSON: %s" % exc


class _FirstInFull:
    """Checks the first output in full and later ones by digest, so that
    checking a large output adds little to the worker's memory peak."""

    def __init__(self, full_check):
        self.full_check = full_check
        self.first = None
        self.digest = None
        self.repeats = 0

    def __call__(self, code, out):
        digest = (code, hashlib.sha256(out.encode("utf-8")).hexdigest())
        if self.digest is None:
            self.first, self.digest = (code, out), digest
        elif digest != self.digest:
            return "output differs from the first operation's"
        self.repeats += 1
        return None

    def verify(self):
        """Problems of the operations that gave the first output."""
        if self.first is None:
            return []
        problem = self.full_check(*self.first)
        self.first = None
        return [problem] * self.repeats if problem else []


def enumerate_labeled(order):
    def full_check(code, out):
        doc, problem = _json_or_problem(code, out)
        if problem:
            return problem
        tables = doc.get("tables", [])
        if doc.get("count") != LABELED[order] or len(tables) != LABELED[order]:
            return "count %r, %d tables; expected %d" % (
                doc.get("count"), len(tables), LABELED[order])
        flat = {tuple(v for row in t for v in row) for t in tables}
        if len(flat) != len(tables):
            return "tables repeat"
        if any(len(t) != order * order for t in flat):
            return "a table is not %d by %d" % (order, order)
        return None

    check = _FirstInFull(full_check)
    op = Op(("enumerate", "--order", str(order), "--json"), LABELED[order],
            check, "enumerate")
    return Workload("enumerate-labeled-%d" % order,
                    lambda seed: itertools.repeat(op), 1, 1,
                    lambda ops: {"kernel.gen_calls": 1,
                                 "kernel.tables_generated": LABELED[order],
                                 "kernel.iso_tests": 0},
                    check.verify)


def suite(max_order):
    orders = range(1, max_order + 1)
    classes = sum(CLASSES[n] for n in orders)

    def check(code, out):
        doc, problem = _json_or_problem(code, out)
        if problem:
            return problem
        got = (doc.get("tables"), doc.get("checks"), doc.get("ok"),
               doc.get("failures"))
        if got != (classes, SUITE_CHECKS, True, []):
            return "tables/checks/ok/failures %r, expected %r" % (
                got, (classes, SUITE_CHECKS, True, []))
        return None

    op = Op(("suite", "--max-order", str(max_order), "--json"), classes, check,
            "suite")
    return Workload("suite-%d" % max_order,
                    lambda seed: itertools.repeat(op), 1, 1,
                    lambda ops: {
                        "kernel.iso_tests": sum(LABELED[n] for n in orders),
                        "kernel.iso_kept": classes,
                        "harness.suite_tables": classes,
                        # both quotient checks enumerate every congruence
                        "quotients.congruences_kept":
                            2 * sum(CONGRUENCES[n] for n in orders)},
                    list)


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def _golden_check(expected):
    code_want, digest_want = expected

    def check(code, out):
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if (code, digest) != (code_want, digest_want):
            return "exit %r digest %s, expected exit %r digest %s" % (
                code, digest[:12], code_want, digest_want[:12])
        return None
    return check


def cli_mix():
    """Seeded rounds over the fixed pool; writes the pool's files to the
    working directory, which every path in the pool is relative to."""

    def prepare(seed):
        files, items = corpus.build_pool()
        golden = load_golden()
        if golden["pool_digest"] != corpus.pool_digest(files, items):
            raise SystemExit("perfbench: golden.json does not match the pool; "
                             "rebuild it with make_golden.py")
        for name, text in files.items():
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        ops = {item.key: Op(item.argv, item.tables,
                            _golden_check(golden["items"][item.key]),
                            item.category)
               for item in items}
        return (ops[item.key]
                for batch in corpus.rounds(items, seed) for item in batch)

    def baseline(ops):
        # counts that the operations' arguments alone decide
        sound = [op for op in ops if op.category != "malformed"]
        return {
            "kernel.gen_calls": 0,
            "power.builds": sum(1 for op in sound if op.argv[0] == "power"),
            "quotients.closure_calls": sum(
                1 for op in sound if op.argv[:2] == ("quotient", "--pairs")),
            "classify.calls": sum(1 for op in sound
                                  if op.argv[0] == "classify"),
        }

    round_ops = sum(k for _, k in corpus.ROUND)
    return Workload("cli-mix", prepare, round_ops, 2 * round_ops, baseline,
                    list)


WORKLOADS = {
    "enumerate-labeled-5": lambda: enumerate_labeled(5),
    "suite-5": lambda: suite(5),
    "cli-mix": cli_mix,
}
