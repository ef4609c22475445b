"""One benchmark process: set up a workload, run it, print one JSON line.

run.py starts this in a fresh interpreter for every set-up it measures.
Set-up is interpreter start, importing sgclass from the checkout's src/,
and making the workload's inputs; it ends when the first operation could
start.  Each operation is one call of sgclass.cli.main(argv) with stdout
and stderr captured in memory; its output is checked after the clock stops.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import sys
import time
import traceback

import tracer
import workloads


def call(main, argv):
    """Run one CLI command in-process; return (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:   # argparse rejects a usage error this way
            code = exc.code
        except Exception as exc:    # a crash is a failed operation
            traceback.print_exc(file=sys.__stderr__)
            code = "uncaught %s" % type(exc).__name__
    return code, out.getvalue()


class Tally:
    """Operations attempted, and the problems of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.problems = []

    def check(self, op, code, out):
        self.attempted += 1
        problem = op.check(code, out)
        if problem is not None:
            self.problems.append("%s: %s" % (" ".join(op.argv), problem))


def peak_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def timed_pass(main, ops, seconds, tally, round_ops=1, pause=None):
    """Run operations for at most about `seconds`, and at least one.

    Between operations `pause`, if given, is called with the share of
    `seconds` done so far; the time it takes is not counted.  Returns the
    per-operation times, the number of tables the operations handled, and
    the peak RSS after the first round of operations: what one pass over
    the workload's mix needs, before the allocator's leftovers from later
    rounds add to it.
    """
    samples = []
    tables = 0
    peak = None
    paused = 0.0
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        code, out = call(main, op.argv)
        samples.append(time.perf_counter() - t0)
        if len(samples) == round_ops:
            peak = peak_rss_kb()
        tally.check(op, code, out)
        tables += op.tables
        # stop when one more operation of average length would overrun
        elapsed = time.perf_counter() - start - paused
        if elapsed * (len(samples) + 1) / len(samples) > seconds:
            break
        if pause is not None:
            t0 = time.perf_counter()
            pause(elapsed / seconds)
            paused += time.perf_counter() - t0
    return samples, tables, peak if peak is not None else peak_rss_kb()


class Probes:
    """Asks run.py for set-up probes while the timed pass runs, `total` of
    them spread evenly over it, so that the set-ups sample the same minute
    as the operations.  run.py starts them one at a time while this process
    waits, and starts those not yet asked for after it ends."""

    def __init__(self, total):
        self.total = total
        self.asked = 0

    def __call__(self, done):
        due = min(self.total, int(done * self.total)) - self.asked
        if due > 0:
            sys.stdout.write("probe %d\n" % due)
            sys.stdout.flush()
            sys.stdin.readline()
            self.asked += due


def traced_pass(main, batch, tally, spans_path=None):
    """Run `batch` untraced, then traced; return the per-layer metrics."""
    untraced = 0.0
    for op in batch:
        t0 = time.perf_counter()
        code, out = call(main, op.argv)
        untraced += time.perf_counter() - t0
        tally.check(op, code, out)
    tr = tracer.Tracer()
    root = tr.span_id("cli.op")
    tr.install()
    try:
        traced = 0.0
        for op in batch:
            t0 = time.perf_counter()
            sid = tr.open(root)
            try:
                code, out = call(main, op.argv)
            finally:
                tr.close(sid)
            traced += time.perf_counter() - t0
            tr.counts["cli.render_bytes"] += len(out.encode("utf-8"))
            tally.check(op, code, out)
    finally:
        tr.uninstall()
    layers = tr.layer_metrics()
    layers["trace.overhead_ratio"] = traced / untraced
    if spans_path is not None:
        tr.dump(spans_path)
    for name in tr.missing:
        print("perfbench: not traced, no longer in the program: %s" % name,
              file=sys.stderr)
    return layers


def environment(seed):
    import sgclass
    backend = getattr(sgclass, "kernel_backend", None)
    return {
        "kernel_backend": backend() if backend is not None else "none",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--work", required=True,
                        help="empty directory for the workload's files")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probes", type=int, default=0,
                        help="set-up probes to ask for during the timed pass")
    parser.add_argument("--spans", help="write the traced spans here")
    args = parser.parse_args()

    cli = workloads.load_cli()
    workload = workloads.WORKLOADS[args.workload]()
    os.chdir(args.work)
    ops = workload.prepare(args.seed)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        tally = Tally()
        if args.trace:
            batch = list(itertools.islice(ops, workload.trace_ops))
            layers = traced_pass(cli.main, batch, tally, args.spans)
            result["layers"] = layers
            result["baseline"] = workload.baseline(batch)
        else:
            samples, tables, peak = timed_pass(
                cli.main, ops, args.seconds, tally, workload.round_ops,
                Probes(args.probes) if args.probes else None)
            result["samples"] = samples
            result["tables"] = tables
            result["peak_rss_kb"] = peak
        tally.problems += workload.verify()
        result["attempted"] = tally.attempted
        result["problems"] = tally.problems
        result["env"] = environment(args.seed)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
