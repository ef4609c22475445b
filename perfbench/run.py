"""The sgclass benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  The program is built from the checkout's
sources (`setup.py build_ext --inplace`, which compiles the optional kernel
only where its build tools exist) and imported from src/.  Each worker is a
fresh interpreter with no threads, and one runs at a time (the measuring
worker waits while a set-up probe runs): a closed loop with one client.
With --trace 0 the run prints every end-to-end metric; with
--trace 1 it runs a fixed batch untraced and then traced, and prints every
per-layer metric.  Human-readable lines come first; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 only when every output checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("enumerate-labeled-5", "suite-5", "cli-mix")
# Set-up-only workers per timed run, started at even steps of its operation
# time; setup_s is the median over them and the measuring worker.  Spread
# over the run, they see the same machine as the operations: the speed of
# the machine the benchmark was built on drifts in episodes of 20-60 s.
PROBES = 24
# Allowed beyond --seconds for the set-ups and the last operation.
DEADLINE_MARGIN_S = 110

sys.path.insert(0, HERE)
import tracer  # noqa: E402


def fail(message, code=2):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(code)


def build():
    """Build the program in place; a no-op when nothing needs compiling."""
    if not os.path.isfile(os.path.join(ROOT, "setup.py")):
        return
    temp = os.path.join(ROOT, ".bench_build", "perfbench", "build")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", temp],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=600)
    if proc.returncode != 0:
        fail("building the program failed:\n%s" % proc.stdout)


def git_revision():
    """The checked-out commit, read from .git/ without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    parts = line.split()
                    if len(parts) == 2 and parts[1] == ref:
                        return parts[0]
    except (NotADirectoryError, FileNotFoundError):
        pass
    return None


def run_worker(args, work, deadline, extra=(), probe=None):
    """Run one worker to its end and return its result.

    While it runs, the worker may ask for set-up probes ("probe K" on its
    stdout); `probe` is called K times while the worker waits, and the
    worker is then told to go on.
    """
    os.makedirs(work)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work]
    cmd += list(extra) + ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    lines = []
    try:
        for line in proc.stdout:
            if line.startswith("probe "):
                for _ in range(int(line.split()[1])):
                    probe()
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                lines.append(line)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    if time.monotonic() >= deadline:
        fail("worker ran past the deadline", 3)
    if proc.returncode != 0 or not lines:
        fail("worker exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def end_to_end(results):
    main = results[-1]
    samples = main["samples"]
    busy = sum(samples)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "tables_per_s": (main["tables"] / busy, "1/s"),
        "commands_per_s": (len(samples) / busy, "1/s"),
        "peak_rss_mb": (main["peak_rss_kb"] / 1024.0, "MB"),
    }


def latencies(samples):
    """Operation-time percentiles printed beside the result line: the
    median, and p95 where at least ten samples lie beyond it."""
    out = {"op_p50_s": (statistics.median(samples), "s")}
    if len(samples) >= 200:
        out["op_p95_s"] = (statistics.quantiles(samples, n=20)[18], "s")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed operations run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result record "
                                      "(environment, metrics) to this file")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "sgclass", "__init__.py")):
        fail("no program sources under %s" % os.path.join(ROOT, "src"))

    build()
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
    base = os.path.join(ROOT, ".bench_build", "perfbench")
    work = os.path.join(base, "work-%d" % os.getpid())
    results = []

    def probe():
        results.append(run_worker(
            args, os.path.join(work, "setup%d" % len(results)), deadline,
            ["--setup-only"]))

    try:
        if args.trace:
            os.makedirs(os.path.join(base, "traces"), exist_ok=True)
            spans = os.path.join(base, "traces", "%s-seed%d.tsv"
                                 % (args.workload, args.seed))
            results.append(run_worker(args, os.path.join(work, "main"),
                                      deadline, ["--spans", spans]))
        else:
            main_result = run_worker(args, os.path.join(work, "main"),
                                     deadline, ["--probes", str(PROBES)],
                                     probe)
            while len(results) < PROBES:
                probe()
            results.append(main_result)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    main_result = results[-1]
    env = dict(main_result["env"], git_revision=git_revision(),
               workload=args.workload)
    problems = main_result["problems"]
    attempted = main_result["attempted"]
    if args.trace:
        metrics = {name: (main_result["layers"][name], unit)
                   for name, unit in tracer.UNITS.items()}
        reported = {name: metric for name, metric in metrics.items()
                    if name not in tracer.PARTIAL_TIMES}
    else:
        reported = end_to_end(results)
        metrics = dict(reported, **latencies(main_result["samples"]))

    print("perfbench %s seed=%d trace=%d backend=%s python=%s cpus=%d/%d "
          "rev=%s" % (
              args.workload, args.seed, args.trace, env["kernel_backend"],
              env["python"], env["cpus_usable"], env["cpus"],
              env["git_revision"] or "none"))
    print("operations: %d attempted, %d failed, failed_ratio %.6g"
          % (attempted, len(problems), len(problems) / attempted))
    for problem in problems[:20]:
        print("  FAILED %s" % problem)
    for name, (value, unit) in metrics.items():
        print("%-28s %14.6g %s%s" % (
            name, value, unit, "" if name in reported else "  (not in JSON)"))
    if args.trace:
        for name, want in sorted(main_result["baseline"].items()):
            got = main_result["layers"][name]
            print("baseline %-28s %10d %s" % (
                name, want, "same" if got == want else "now %d" % got))
    else:
        print("(setup_s: median of %d set-ups; op times over %d operations)"
              % (len(results), len(main_result["samples"])))

    record = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(dict(record, env=env, problems=problems,
                           layers=main_result.get("layers"),
                           setup_samples=[r["setup_s"] for r in results],
                           op_samples=main_result.get("samples")),
                      fh, indent=1, sort_keys=True)
    print(json.dumps(record))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
