"""Fast self-test of the benchmark: order-3 and order-4 variants of the
enumeration and suite workloads, a few cli-mix rounds, the tracer's
arithmetic, and run.py's output contract.  Takes seconds.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile

import corpus
import tracer
import workloads
from worker import Tally, call, timed_pass, traced_pass

ROOT = workloads.ROOT
HERE = workloads.HERE


class Checks:
    def __init__(self):
        self.passed = 0
        self.failed = []

    def __call__(self, ok, what):
        if ok:
            self.passed += 1
        else:
            self.failed.append(what)
            print("FAIL %s" % what)


def associative_commutative(t):
    n = len(t)
    return (all(t[x][y] == t[y][x] for x in range(n) for y in range(n))
            and all(t[t[x][y]][z] == t[x][t[y][z]]
                    for x in range(n) for y in range(n) for z in range(n)))


def partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def congruence_count(t):
    """Compatible partitions, by brute force over every partition."""
    n = len(t)
    count = 0
    for part in partitions(list(range(n))):
        cls = [0] * n
        for k, block in enumerate(part):
            for x in block:
                cls[x] = k
        if all(cls[t[a][x]] == cls[t[a][y]]
               for x in range(n) for y in range(n) if cls[x] == cls[y]
               for a in range(n)):
            count += 1
    return count


def check_counts(check, cli):
    for n in range(1, 5):
        code, out = call(cli.main, ["enumerate", "--order", str(n), "--json"])
        check(code == 0 and json.loads(out)["count"] == workloads.LABELED[n],
              "labeled count at order %d" % n)
        code, out = call(cli.main, ["enumerate", "--order", str(n),
                                    "--up-to-iso", "--json"])
        reps = json.loads(out)["tables"]
        check(code == 0 and len(reps) == workloads.CLASSES[n],
              "class count at order %d" % n)
        check(all(associative_commutative(t) for t in reps),
              "class representatives at order %d are commutative semigroups"
              % n)
        check(sum(congruence_count(t) for t in reps)
              == workloads.CONGRUENCES[n],
              "congruence count at order %d" % n)


def check_workload(check, cli, workload, seed=0):
    ops = workload.prepare(seed)
    tally = Tally()
    samples, _, _ = timed_pass(cli.main, ops, 0.0, tally)
    tally.problems += workload.verify()
    check(len(samples) == 1 and not tally.problems,
          "%s: one timed operation checks out %s"
          % (workload.name, tally.problems))
    batch = list(itertools.islice(ops, workload.trace_ops))
    tally = Tally()
    first = traced_pass(cli.main, batch, tally)
    again = traced_pass(cli.main, batch, tally)
    tally.problems += workload.verify()
    check(not tally.problems, "%s: traced operations check out %s"
          % (workload.name, tally.problems))
    check(set(first) == set(tracer.UNITS),
          "%s: the traced pass gives every per-layer metric" % workload.name)
    counts = {k: v for k, v in first.items() if tracer.UNITS[k] == "count"}
    check(counts == {k: again[k] for k in counts},
          "%s: layer counts repeat exactly" % workload.name)
    for name, want in sorted(workload.baseline(batch).items()):
        if first[name] != want:
            print("note: %s: %s is %r, %r when the benchmark was defined"
                  % (workload.name, name, first[name], want))
    return first


def check_tracer(check):
    tr = tracer.Tracer()
    outer, inner = tr.span_id("outer"), tr.span_id("inner")
    a = tr.open(outer)
    for _ in range(3):
        b = tr.open(inner)
        sum(range(20000))
        tr.close(b)
    tr.close(a)
    secs, spans = tr.self_times()
    whole = tr.end[a] - tr.start[a]
    check(spans == {"outer": 1, "inner": 3}, "tracer counts spans")
    check([tracer.bell(n) for n in range(6)] == [1, 1, 2, 5, 15, 52],
          "Bell numbers")
    check(abs(secs["outer"] + secs["inner"] - whole) < 1e-9 * max(1, whole)
          and 0 < secs["outer"] < whole,
          "self times add up to the root span")
    check(tr.root_seconds() == whole, "shares are taken over the root spans")
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    check(not tr.missing, "every layer boundary is found: %s" % tr.missing)


def check_contract(check, scratch):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "cli-mix", "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
        last = json.loads(proc.stdout.splitlines()[-1])
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {k: v["unit"] for k, v in last["metrics"].items()}
        check(proc.returncode == 0 and last["correct"] and last["failed"] == 0
              and set(last) == {"correct", "attempted", "failed", "metrics"},
              "run.py --trace %d passes and prints the result line" % trace)
        check(got == want, "run.py --trace %d prints the %s metrics"
              % (trace, key))
    # with only the benchmark's own files there is no program to measure
    bare = os.path.join(scratch, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py fails without a result when the program is missing")


def main():
    check = Checks()
    cli = workloads.load_cli()
    base = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(base, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as scratch:
        os.chdir(scratch)
        check_counts(check, cli)
        check_tracer(check)
        check_workload(check, cli, workloads.enumerate_labeled(4))
        check_workload(check, cli, workloads.suite(4))
        layers = check_workload(check, cli, workloads.cli_mix(), seed=3)
        check(layers["power.cells"] > 0 and layers["cli.parse_calls"] > 0,
              "cli-mix reaches the power and parse layers")
        malformed = [i for i in corpus.build_pool()[1]
                     if i.category == "malformed"]
        check(all(call(cli.main, i.argv)[0] == 2 for i in malformed),
              "every malformed input exits with code 2")
        os.chdir(ROOT)
        check_contract(check, scratch)
    print("selftest: %d passed, %d failed" % (check.passed, len(check.failed)))
    return 1 if check.failed else 0


if __name__ == "__main__":
    sys.exit(main())
