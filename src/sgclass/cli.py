"""Command-line front end: the commands validate, analyze, classify,
quotient, power, enumerate and suite, each printing a text report or, with
`--json`, a JSON one.  Table files are read by `core.parse_table`,
descriptor expressions by `descriptors.parse_descriptor`.  Only `classify`
reads descriptors, so only it loads the descriptor layer.

Exit codes: 0 success, 1 property-failure findings, 2 usage/parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .classify import classify, explain
from .core import (CayleyTable, PreconditionError, _decimal, _Digits,
                   _members, center, clifford_part, h_classes, idempotents,
                   max_chain_length, natural_le, parse_table, pi_map,
                   render_table, validate)
from .harness import (MAX_ENUM_ORDER, SUITE_CHECK_NAMES,
                      enumerate_commutative, kernel_backend, suite_reports)
from .power import power_semigroup
from .quotients import (congruence_closure, quotient_by_congruence,
                        rees_quotient)


# -- commands ----------------------------------------------------------------

def _json_chunks(obj):
    """The text of json.dumps(obj, sort_keys=True, indent=2), written faster
    and in pieces, where a CayleyTable anywhere in obj stands for its `op`.

    With an indent, `json` falls back to its pure-Python encoder, which
    visits every table cell in Python.  Here a table's rows, and any other
    list whose items are all of type exactly int (never bool), are each
    written with one join over memoised digit strings; a table's cells are
    such ints by construction, so they are not scanned for their type.
    Every other scalar goes to the C encoder, which keeps ensure_ascii, NaN
    and the float repr.  Dict keys must be str.

    A top-level dict comes out key by key, and each row of a table value or
    item of a list value that is not all ints as a piece of its own, so the
    whole document is never held at once; deeper levels are written whole,
    which is faster.
    """
    scalar = json.JSONEncoder().encode
    digits = _Digits()

    def ints(xs, pad):
        inner = pad + "  "
        body = (",\n" + inner).join(map(digits.__getitem__, xs))
        return "[\n" + inner + body + "\n" + pad + "]"

    def write(x, pad):
        inner = pad + "  "
        sep = ",\n" + inner
        if isinstance(x, dict):
            if not x:
                return "{}"
            body = sep.join([scalar(k) + ": " + write(x[k], inner)
                             for k in sorted(x)])
            return "{\n" + inner + body + "\n" + pad + "}"
        if isinstance(x, CayleyTable):
            body = sep.join([ints(row, inner) for row in x.op])
        elif isinstance(x, (list, tuple)):
            if not x:
                return "[]"
            if set(map(type, x)) == {int}:
                return ints(x, pad)
            body = sep.join([write(v, inner) for v in x])
        else:
            return scalar(x)
        return "[\n" + inner + body + "\n" + pad + "]"

    if not isinstance(obj, dict) or not obj:
        yield write(obj, "")
        return
    for i, k in enumerate(sorted(obj)):
        yield ("{\n  " if i == 0 else ",\n  ") + scalar(k) + ": "
        v = obj[k]
        if isinstance(v, CayleyTable):
            items, each = v.op, ints
        elif (isinstance(v, (list, tuple)) and v
              and set(map(type, v)) != {int}):
            items, each = v, write
        else:
            yield write(v, "  ")
            continue
        for j, item in enumerate(items):
            yield "[\n    " if j == 0 else ",\n    "
            yield each(item, "    ")
        yield "\n  ]"
    yield "\n}"


def _print_json(obj):
    write = sys.stdout.write
    for chunk in _json_chunks(obj):
        write(chunk)
    write("\n")


def _sorted(xs):
    return " ".join(str(x) for x in sorted(xs))


def _lines(*lines):
    return "".join(line + "\n" for line in lines)


def _holds(name, holds, witness):
    return "%s: %s" % (name, "yes" if holds else "no (witness: %r)" % (witness,))


# Each handler takes the parsed arguments and the loaded table file (None for
# commands that read none), and returns its exit code and two functions: one
# builds the object `--json` prints, the other the text.  `main` calls the one
# it prints.

def cmd_validate(args, table):
    report = validate(table)
    return (0 if report.associative else 1), lambda: {
        "order": table.n,
        "associative": report.associative,
        "assoc_witness": report.assoc_witness,
        "commutative": report.commutative,
        "comm_witness": report.comm_witness,
    }, lambda: _lines(
        "order: %d" % table.n,
        _holds("associative", report.associative, report.assoc_witness),
        _holds("commutative", report.commutative, report.comm_witness))


def _hasse_pairs(table):
    es = sorted(idempotents(table))
    lt = {(e, f) for e in es for f in es
          if e != f and natural_le(table, e, f)}
    covers = [(e, f) for (e, f) in sorted(lt)
              if not any((e, g) in lt and (g, f) in lt for g in es)]
    return covers


def cmd_analyze(args, table):
    z = center(table)
    commutative = len(z) == table.n
    es = idempotents(table)
    covers = _hasse_pairs(table)
    classes = list(dict.fromkeys(h_classes(table)))
    try:
        pi = pi_map(table)
        pi_note = None
    except PreconditionError as exc:
        pi = None
        pi_note = str(exc)
    clifford = clifford_part(table)
    length, chain = max_chain_length(table)
    return 0, lambda: {
        "order": table.n,
        "commutative": commutative,
        "idempotents": sorted(es),
        "natural_order_covers": covers,
        "h_classes": [sorted(h) for h in classes],
        "pi": pi,
        "pi_note": pi_note,
        "center": sorted(z),
        "clifford_part": sorted(clifford),
        "max_chain": {"length": length, "witness": sorted(chain)},
    }, lambda: _lines(
        "order: %d" % table.n,
        "commutative: %s" % ("yes" if commutative else "no"),
        "idempotents: %s" % _sorted(es),
        "natural order covers: %s"
        % (" ".join("%d<%d" % c for c in covers) or "(none)"),
        "h-classes: %s" % " ".join("{%s}" % _sorted(h) for h in classes),
        "pi: %s" % (" ".join("%d->%d" % (x, pi[x]) for x in table.elements)
                    if pi is not None else "undefined (%s)" % pi_note),
        "center: %s" % _sorted(z),
        "clifford part: %s" % _sorted(clifford),
        "max chain: %d (witness: %s)" % (length, _sorted(chain)))


def parse_descriptor(text):
    """`descriptors.parse_descriptor(text)`, loading that module on first
    use."""
    from .descriptors import parse_descriptor
    return parse_descriptor(text)


def _verdict_json(verdict):
    from .descriptors import describe
    p = verdict.profile
    return {
        "input": describe(verdict.descriptor),
        "profile": {
            "cardinality": p.size,
            "periodic": p.periodic,
            "chain_finite": p.chain_finite,
            "subgroups_bounded": p.subgroups_bounded,
            "exponent": p.exponent,
            "clifford": p.clifford,
            "almost_clifford": p.almost_clifford,
            "has_singleton_square": p.has_singleton_square,
            "witness": dict(p.witness),
        },
        "c_closed": verdict.c_closed,
        "ideally_closed": verdict.ideally_closed,
        "projectively_closed": verdict.projectively_closed,
        "failing_condition": list(verdict.failing_condition)
        if verdict.failing_condition else None,
        "citation": verdict.citation,
    }


def cmd_classify(args, table):
    verdict = classify(parse_descriptor(args.expr))
    return 0, lambda: _verdict_json(verdict), lambda: _lines(explain(verdict))


def cmd_quotient(args, table):
    if args.ideal is not None:
        elems = _parse_elems(args.ideal)
        quotient, proj = rees_quotient(table, elems)
        detail = {"ideal": sorted(elems)}
        comment = "quotient of %s by the ideal {%s}" % (args.table,
                                                        _sorted(elems))
    else:
        pairs = _parse_pairs(args.pairs)
        cong = congruence_closure(table, pairs)
        quotient, proj = quotient_by_congruence(table, cong)
        detail = {"classes": [sorted(c) for c in cong.classes]}
        comment = "quotient of %s by the congruence closing %s" % (
            args.table, " ".join("%d=%d" % p for p in pairs))
    return 0, lambda: {
        "order": quotient.n,
        "table": quotient,
        "projection": proj,
        **detail,
    }, lambda: render_table(quotient, comment=comment) + _lines(
        "projection: %s" % " ".join("%d->%d" % (x, proj[x])
                                    for x in range(table.n)))


def cmd_power(args, table):
    ps = power_semigroup(table)
    return 0, lambda: {
        "base_order": table.n,
        "order": ps.table.n,
        "elements": [_members(i + 1) for i in range(ps.table.n)],
        "table": ps.table,
    }, lambda: _lines(
        "base order: %d" % table.n,
        "subsets: %d" % ps.table.n,
        *("%d: {%s}" % (i, _sorted(s)) for i, s in enumerate(ps.elements))
    ) + render_table(ps.table, comment="power semigroup")


def cmd_enumerate(args, table):
    tables = list(enumerate_commutative(args.order, up_to_iso=args.up_to_iso))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for i, t in enumerate(tables):
            name = os.path.join(args.out, "order%d_%04d.tbl" % (args.order, i))
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(render_table(t))

    def as_text():
        if args.out:
            return _lines("wrote %d tables to %s" % (len(tables), args.out))
        return "".join(
            render_table(t, comment="%d of %d" % (i + 1, len(tables))) + "\n"
            for i, t in enumerate(tables)) + _lines("count: %d" % len(tables))

    return 0, lambda: {
        "order": args.order,
        "up_to_iso": args.up_to_iso,
        "count": len(tables),
        "tables": tables,
    }, as_text


def cmd_suite(args, table):
    if not 1 <= args.max_order <= MAX_ENUM_ORDER:
        raise ValueError("--max-order must be in 1..%d" % MAX_ENUM_ORDER)
    failures = []
    total = 0
    out = args.out or "."
    for n, idx, report in suite_reports(args.max_order):
        total += 1
        if report.ok:
            continue
        failed = [r.name for r in report.failures]
        path = os.path.join(out, "suite_fail_order%d_%04d.tbl" % (n, idx))
        os.makedirs(out, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_table(
                report.table, comment="failed checks: %s" % ", ".join(failed)))
        failures.append({"order": n, "index": idx, "table": report.table,
                         "failed": failed, "replay": path})

    def as_text():
        if not failures:
            return _lines("all properties hold (orders 1..%d, %d tables, "
                          "backend %s)" % (args.max_order, total,
                                           kernel_backend()))
        return _lines(*("FAIL order %d table %d: %s (replay: %s)"
                        % (f["order"], f["index"], ", ".join(f["failed"]),
                           f["replay"]) for f in failures))

    return (1 if failures else 0), lambda: {
        "max_order": args.max_order,
        "tables": total,
        "checks": len(SUITE_CHECK_NAMES),
        "ok": not failures,
        "failures": failures,
    }, as_text


def _parse_elems(text):
    try:
        return frozenset(_decimal(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise PreconditionError("ideal elements must be integers: %r" % text)


def _parse_pairs(text):
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split("=")
        if len(parts) != 2:
            raise PreconditionError("pairs look like a=b, got %r" % chunk)
        try:
            x, y = _decimal(parts[0].strip()), _decimal(parts[1].strip())
        except ValueError:
            raise PreconditionError("pair members must be integers: %r" % chunk)
        pairs.append((x, y))
    return pairs


def _int_option(text):
    # argparse's type=int, reading only ASCII decimal tokens as files and
    # descriptors do, with the message type=int gives
    try:
        return _decimal(text.strip())
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None


def _register(p, func, table=True, require_associative=True):
    """Finish a command's parser with what every command has: its table
    file argument (when `table`), `--json` and the handler `main` calls.
    `require_associative=False` lets the table file be non-associative."""
    if table:
        p.add_argument("table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=func, takes_table=table,
                   require_associative=require_associative)


_PROG = "sgclass"

# The commands, in the order `sgclass -h` lists them, with their help lines.
_COMMANDS = {
    "validate": "check a table file for associativity and commutativity",
    "analyze": "idempotents, natural order, h-classes, pi, center, chains",
    "classify": "closedness verdicts for a descriptor expression",
    "quotient": "Rees or congruence quotient of a table",
    "power": "power semigroup of nonempty subsets",
    "enumerate": "all commutative semigroups of one order",
    "suite": "run every structural check on every table up to an order",
}


def _add_arguments(p, command):
    """Give the parser `p` of `command` its arguments and handler."""
    if command == "validate":
        _register(p, cmd_validate, require_associative=False)
    elif command == "analyze":
        _register(p, cmd_analyze)
    elif command == "classify":
        p.add_argument("expr")
        _register(p, cmd_classify, table=False)
    elif command == "quotient":
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--ideal", help="comma-separated element indices")
        group.add_argument("--pairs",
                           help="comma-separated a=b pairs to identify")
        _register(p, cmd_quotient)
    elif command == "power":
        _register(p, cmd_power)
    elif command == "enumerate":
        p.add_argument("--order", type=_int_option, required=True)
        p.add_argument("--up-to-iso", action="store_true")
        p.add_argument("--out", help="write tables into this directory")
        _register(p, cmd_enumerate, table=False)
    else:
        p.add_argument("--max-order", type=_int_option, default=4)
        p.add_argument("--out", help="directory for failure replay files")
        _register(p, cmd_suite, table=False)


def build_parser():
    """The full parser: every command's sub-parser with its arguments.
    Built only for argv not led by a command, or with tokens left over."""
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Classify commutative semigroups for closedness and "
                    "analyze finite Cayley tables.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in _COMMANDS.items():
        _add_arguments(sub.add_parser(command, help=summary), command)
    return parser


def _parse_args(argv):
    """`build_parser().parse_args(argv)`, building less.  No top-level
    option takes a value, so the full parser hands a command-led argv's
    tail unchanged to that command's parser: built alone, it gives the same
    result unless tokens are left over, which the full parser reports."""
    if argv and argv[0] in _COMMANDS:
        p = argparse.ArgumentParser(prog=_PROG + " " + argv[0])
        _add_arguments(p, argv[0])
        args, rest = p.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run one command and return its exit code.  argv (sys.argv[1:] when
    None) may be any iterable of strings, listed once for `_parse_args`."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_args(argv)
    try:
        table = None
        if args.takes_table:
            with open(args.table, "r", encoding="utf-8") as fh:
                table = parse_table(
                    fh.read(), require_associative=args.require_associative)
        code, as_json, as_text = args.func(args, table)
        if args.json:
            _print_json(as_json())
        else:
            sys.stdout.write(as_text())
        return code
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
