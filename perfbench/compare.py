"""Compare two sets of result records written by `run.py --out`.

    python3 perfbench/compare.py --base a1.json a2.json --new b1.json b2.json

For every workload and end-to-end metric in BENCHMARK.json this prints the
median and quartile spread of each side and the change, as a share of the
base median, in the direction that is worse.  A change past the metric's
bound is a regression (exit 1); a base spread wider than the bound makes
the metric unresolved.  Records made with different kernel backends are
not compared (exit 2): the difference would be the backend, not the code.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(paths):
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    base, new = load(args.base), load(args.new)

    backends = {r["env"]["kernel_backend"] for r in base + new}
    if len(backends) != 1:
        print("compare: refusing to compare records made with different "
              "kernel backends: %s" % ", ".join(sorted(backends)),
              file=sys.stderr)
        return 2

    regressed = False
    workloads = sorted({r["env"]["workload"] for r in base + new})
    print("%-20s %-15s %12s %7s %12s %7s %8s  %s" % (
        "workload", "metric", "base", "iqr", "new", "iqr", "worse", "verdict"))
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base
                 if r["env"]["workload"] == workload and name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new
                 if r["env"]["workload"] == workload and name in r["metrics"]]
            if not b or not n:
                continue
            bmed, bspread = spread(b)
            nmed, nspread = spread(n)
            worse = (nmed - bmed) / bmed
            if metric["better"] == "higher":
                worse = -worse
            if worse > metric["bound"]:
                verdict = "REGRESSED"
                regressed = True
            elif bspread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print("%-20s %-15s %12.6g %6.1f%% %12.6g %6.1f%% %7.1f%%  %s" % (
                workload, name, bmed, 100 * bspread, nmed, 100 * nspread,
                100 * worse, verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
