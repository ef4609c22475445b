"""Spans and counts at the layer boundaries of sgclass, for the traced run.

The tracer wraps library functions from the outside; the program is not
changed.  A function is replaced in every sgclass module that binds it, so
calls through `harness.congruences`, `harness.quotient_by_congruence`,
`quotients.quotient_by_congruence` (which `lift_idempotent` calls),
`cli.enumerate_commutative` and the `_kernel` attributes are all seen.
Generators are timed per next() call, not at the call that creates them.

Spans (name, start, end, parent) are kept in flat arrays and written out
when the run ends.  A span's self time is its length minus the time its
child spans cover; every `*_s` layer metric is a sum of self times, and
its `*_share` twin is that sum over the traced operations' wall time.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter

ALGEBRA = ("idempotents", "h_class", "pi_map", "natural_le", "root_inf",
           "z_sets", "center", "clifford_part", "max_chain_length")

# Per-layer metrics and their units, in report order.
UNITS = {
    "kernel.gen_calls": "count",
    "kernel.tables_generated": "count",
    "kernel.gen_s": "s",
    "kernel.iso_tests": "count",
    "kernel.iso_kept": "count",
    "kernel.iso_keep_ratio": "ratio",
    "kernel.iso_s": "s",
    "core.tables_built": "count",
    "core.table_build_s": "s",
    "core.validate_calls": "count",
    "core.validate_s": "s",
    "core.algebra_calls": "count",
    "core.algebra_s": "s",
    "quotients.congruence_enums": "count",
    "quotients.partitions_tested": "count",
    "quotients.congruences_kept": "count",
    "quotients.keep_ratio": "ratio",
    "quotients.enum_s": "s",
    "quotients.quotient_calls": "count",
    "quotients.quotient_s": "s",
    "quotients.lift_calls": "count",
    "quotients.lift_s": "s",
    "quotients.closure_calls": "count",
    "quotients.closure_s": "s",
    "harness.suite_tables": "count",
    "harness.suite_self_s": "s",
    "harness.enum_self_s": "s",
    "power.builds": "count",
    "power.cells": "count",
    "power.build_s": "s",
    "cli.parse_calls": "count",
    "cli.parse_bytes": "bytes",
    "cli.parse_s": "s",
    "cli.descriptor_parse_s": "s",
    "cli.render_bytes": "bytes",
    "cli.render_s": "s",
    "classify.calls": "count",
    "classify.s": "s",
    "trace.overhead_ratio": "ratio",
}


def share_name(name):
    """`kernel.gen_s` -> `kernel.gen_share`, `classify.s` -> `classify.share`."""
    return name[:-1] + "share"


TIMES = [name for name, unit in UNITS.items() if unit == "s"]
UNITS.update((share_name(name), "ratio") for name in TIMES)

# Layer times that suite-5 or cli-mix never reaches.  On that workload they
# read exactly 0 on every run, and a time that cannot change is no
# measurement, so the result line carries them only as shares of operation
# time (a share reads 0 like a count does); the seconds are printed.
PARTIAL_TIMES = frozenset((
    "kernel.gen_s", "kernel.iso_s", "core.validate_s", "quotients.enum_s",
    "quotients.lift_s", "quotients.closure_s", "harness.suite_self_s",
    "harness.enum_self_s", "power.build_s", "cli.parse_s",
    "cli.descriptor_parse_s", "classify.s",
))


def bell(n):
    """Number of set partitions of n elements."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


class _TracedIter:
    __slots__ = ("tracer", "nid", "it", "on_item")

    def __init__(self, tracer, nid, it, on_item):
        self.tracer = tracer
        self.nid = nid
        self.it = it
        self.on_item = on_item

    def __iter__(self):
        return self

    def __next__(self):
        sid = self.tracer.open(self.nid)
        try:
            item = next(self.it)
        finally:
            self.tracer.close(sid)
        if self.on_item is not None:
            self.on_item()
        return item


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = Counter()
        self._patches = []
        self.missing = []

    # -- spans ---------------------------------------------------------------

    def span_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, span, on_call=None):
        nid = self.span_id(span)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if on_call is not None:
                on_call(args, result)
            return result
        return traced

    def wrap_generator(self, fn, span, on_start=None, on_item=None):
        nid = self.span_id(span)
        tracer = self

        def traced(*args, **kwargs):
            if on_start is not None:
                on_start(args)
            return _TracedIter(tracer, nid, fn(*args, **kwargs), on_item)
        return traced

    # -- installing ----------------------------------------------------------

    def _replace(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "sgclass" and not modname.startswith("sgclass."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def install(self):
        """Wrap every layer boundary of the imported sgclass package.

        A boundary the program no longer has is skipped and named in
        `self.missing`; its layer then reads 0.
        """
        c = self.counts

        def gen_done(args, result):
            c["kernel.tables_generated"] += len(result)

        def iso_done(args, result):
            c["kernel.iso_tests"] += 1
            c["kernel.iso_kept"] += bool(result)

        def congruences_start(args):
            c["quotients.congruence_enums"] += 1
            c["quotients.partitions_tested"] += bell(args[0].n)

        def congruence_kept():
            c["quotients.congruences_kept"] += 1

        def power_done(args, result):
            c["power.cells"] += ((1 << args[0].n) - 1) ** 2

        def parse_done(args, result):
            c["cli.parse_bytes"] += len(args[0].encode("utf-8"))

        functions = [
            ("_kernel", "commutative_tables", "kernel.gen", gen_done),
            ("_kernel", "is_canonical", "kernel.iso", iso_done),
            ("_kernel", "canonical_form", "kernel.iso", None),
            ("core", "validate", "core.validate", None),
            ("quotients", "quotient_by_congruence", "quotients.quotient", None),
            ("quotients", "rees_quotient", "quotients.quotient", None),
            ("quotients", "lift_idempotent", "quotients.lift", None),
            ("quotients", "congruence_closure", "quotients.closure", None),
            ("harness", "lemma_suite", "harness.suite", None),
            ("power", "power_semigroup", "power.build", power_done),
            ("cli", "parse_table", "cli.parse", parse_done),
            ("cli", "parse_descriptor", "cli.descriptor_parse", None),
            ("cli", "_print_json", "cli.render", None),
            ("cli", "render_table", "cli.render", None),
            ("classify", "explain", "cli.render", None),
            ("classify", "classify", "classify", None),
        ]
        functions += [("core", f, "core.algebra", None) for f in ALGEBRA]
        generators = [
            ("quotients", "congruences", "quotients.enum", congruences_start,
             congruence_kept),
            ("harness", "enumerate_commutative", "harness.enum", None, None),
        ]
        for modname, attr, span, on_call in functions:
            fn = self._lookup(modname, attr)
            if fn is not None:
                self._replace(fn, self.wrap(fn, span, on_call))
        for modname, attr, span, on_start, on_item in generators:
            fn = self._lookup(modname, attr)
            if fn is not None:
                self._replace(fn, self.wrap_generator(fn, span, on_start,
                                                      on_item))
        table = self._lookup("core", "CayleyTable")
        if table is not None:
            init = table.__init__
            table.__init__ = self.wrap(init, "core.table_build")
            self._patches.append((table, "__init__", init))

    def _lookup(self, modname, attr):
        # by module path: the package rebinds some submodule names
        try:
            value = getattr(importlib.import_module("sgclass." + modname),
                            attr)
        except (ImportError, AttributeError):
            self.missing.append("sgclass.%s.%s" % (modname, attr))
            return None
        return value

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches = []

    # -- results -------------------------------------------------------------

    def root_seconds(self):
        """Wall time covered by the spans that have no parent."""
        return sum(self.end[i] - self.start[i]
                   for i, p in enumerate(self.parent) if p < 0)

    def self_times(self):
        """(self seconds, span count) per span name."""
        covered = [0.0] * len(self.name)
        start, end, parent = self.start, self.end, self.parent
        for i, p in enumerate(parent):
            if p >= 0:
                covered[p] += end[i] - start[i]
        seconds = [0.0] * len(self.names)
        spans = [0] * len(self.names)
        for i, nid in enumerate(self.name):
            seconds[nid] += end[i] - start[i] - covered[i]
            spans[nid] += 1
        return ({self.names[k]: v for k, v in enumerate(seconds)},
                {self.names[k]: v for k, v in enumerate(spans)})

    def layer_metrics(self):
        """Every per-layer metric of UNITS but trace.overhead_ratio."""
        secs, spans = self.self_times()
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        layers = {
            "kernel.gen_calls": spans.get("kernel.gen", 0),
            "kernel.tables_generated": c["kernel.tables_generated"],
            "kernel.gen_s": secs.get("kernel.gen", 0.0),
            "kernel.iso_tests": c["kernel.iso_tests"],
            "kernel.iso_kept": c["kernel.iso_kept"],
            "kernel.iso_keep_ratio": ratio(c["kernel.iso_kept"],
                                           c["kernel.iso_tests"]),
            "kernel.iso_s": secs.get("kernel.iso", 0.0),
            "core.tables_built": spans.get("core.table_build", 0),
            "core.table_build_s": secs.get("core.table_build", 0.0),
            "core.validate_calls": spans.get("core.validate", 0),
            "core.validate_s": secs.get("core.validate", 0.0),
            "core.algebra_calls": spans.get("core.algebra", 0),
            "core.algebra_s": secs.get("core.algebra", 0.0),
            "quotients.congruence_enums": c["quotients.congruence_enums"],
            "quotients.partitions_tested": c["quotients.partitions_tested"],
            "quotients.congruences_kept": c["quotients.congruences_kept"],
            "quotients.keep_ratio": ratio(c["quotients.congruences_kept"],
                                          c["quotients.partitions_tested"]),
            "quotients.enum_s": secs.get("quotients.enum", 0.0),
            "quotients.quotient_calls": spans.get("quotients.quotient", 0),
            "quotients.quotient_s": secs.get("quotients.quotient", 0.0),
            "quotients.lift_calls": spans.get("quotients.lift", 0),
            "quotients.lift_s": secs.get("quotients.lift", 0.0),
            "quotients.closure_calls": spans.get("quotients.closure", 0),
            "quotients.closure_s": secs.get("quotients.closure", 0.0),
            "harness.suite_tables": spans.get("harness.suite", 0),
            "harness.suite_self_s": secs.get("harness.suite", 0.0),
            "harness.enum_self_s": secs.get("harness.enum", 0.0),
            "power.builds": spans.get("power.build", 0),
            "power.cells": c["power.cells"],
            "power.build_s": secs.get("power.build", 0.0),
            "cli.parse_calls": spans.get("cli.parse", 0),
            "cli.parse_bytes": c["cli.parse_bytes"],
            "cli.parse_s": secs.get("cli.parse", 0.0),
            "cli.descriptor_parse_s": secs.get("cli.descriptor_parse", 0.0),
            "cli.render_bytes": c["cli.render_bytes"],
            "cli.render_s": secs.get("cli.render", 0.0),
            "classify.calls": spans.get("classify", 0),
            "classify.s": secs.get("classify", 0.0),
        }
        whole = self.root_seconds()
        layers.update((share_name(name), ratio(layers[name], whole))
                      for name in TIMES)
        return layers

    def dump(self, path):
        """Write every span as a tab-separated line: id, parent, name,
        start and end in seconds."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for i, nid in enumerate(self.name):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\n" % (
                    i, self.parent[i], names[nid], self.start[i], self.end[i]))
