"""Command-line front end: table files, descriptor expressions, reports.

Table file format: `#` starts a comment line; the first data line holds the
order n; the next n lines hold n space-separated entries in [0, n); the row
index is the left operand.

Descriptor expression grammar:

    desc   := "(" ( "table" PATH | "group" factor+ | "semilattice" slspec
                  | "product" desc desc | "adjoin-zero" desc
                  | "adjoin-identity" desc | "taimanov" | "null" ) ")"
    factor := "(" ( "cyclic" INT | "prufer" PRIME | "integers"
                  | "cyclic-tower" PRIME ) [ "x" (INT | "omega") ] ")"
    slspec := "chain-omega" | "antichain-omega-zero" | "(" "poset" PATH ")"

Exit codes: 0 success, 1 property-failure findings, 2 usage/parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import fields

from .classify import classify, explain
from .core import (CayleyTable, PreconditionError, center, clifford_part,
                   h_classes, idempotents, max_chain_length, natural_le,
                   pi_map, validate)
from .descriptors import (CONSTRUCTORS, MAX_DEPTH, OMEGA, SEMILATTICE_WORDS,
                          Factor, FinitePoset, FiniteTable, Group, GroupSpec,
                          NotCommutativeError, Semilattice, describe, spell)
from .harness import (MAX_ENUM_ORDER, SUITE_CHECK_NAMES,
                      enumerate_commutative, kernel_backend, lemma_suite)
from .power import power_semigroup
from .quotients import (congruence_closure, quotient_by_congruence,
                        rees_quotient)


class TableParseError(ValueError):
    """Table file does not parse (position is included in the message)."""


class DescriptorSyntaxError(ValueError):
    """Descriptor expression does not parse; carries line and column."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = "line %d, column %d: %s" % (line, col, message)
        super().__init__(message)
        self.line = line
        self.col = col


# -- table files -------------------------------------------------------------

def parse_table(text, require_associative=True) -> CayleyTable:
    """Parse the table format; rejects non-associative tables by default
    (pass require_associative=False for validate-only use)."""
    rows = []
    n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise TableParseError(
                    "line %d: expected the order, got %r" % (lineno, line))
            if n < 1:
                raise TableParseError("line %d: order must be >= 1" % lineno)
            continue
        if len(rows) == n:
            raise TableParseError("line %d: more than %d rows" % (lineno, n))
        entries = line.split()
        if len(entries) != n:
            raise TableParseError("line %d: expected %d entries, got %d"
                                  % (lineno, n, len(entries)))
        row = []
        col = 1
        for tok in entries:
            pos = raw.index(tok, col - 1) + 1
            try:
                v = int(tok)
            except ValueError:
                raise TableParseError(
                    "line %d, column %d: %r is not an integer" % (lineno, pos, tok))
            if not 0 <= v < n:
                raise TableParseError(
                    "line %d, column %d: entry %d out of range [0, %d)"
                    % (lineno, pos, v, n))
            row.append(v)
            col = pos + len(tok)
        rows.append(row)
    if n is None:
        raise TableParseError("no data lines")
    if len(rows) != n:
        raise TableParseError("expected %d rows, got %d" % (n, len(rows)))
    table = CayleyTable._trusted(rows)
    if require_associative:
        report = validate(table)
        if not report.associative:
            raise TableParseError("table is not associative: witness %r"
                                  % (report.assoc_witness,))
    return table


class _Digits(dict):
    # memo of the decimal text of each int written
    def __missing__(self, x):
        text = self[x] = int.__repr__(x)
        return text


def render_table(table, comment=None) -> str:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append("# %s" % part)
    lines.append(str(table.n))
    digits = _Digits()
    for row in table.op:
        lines.append(" ".join(map(digits.__getitem__, row)))
    return "\n".join(lines) + "\n"


def load_table_file(path, require_associative=True) -> CayleyTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_table(fh.read(), require_associative=require_associative)


# -- descriptor expressions --------------------------------------------------

_TOKEN = re.compile(r"\n|[()]|[^() \t\r\n]+")


class _Tokens:
    def __init__(self, text):
        self.items = []
        line, line_start = 1, 0
        for m in _TOKEN.finditer(text):
            tok = m.group()
            if tok == "\n":
                line += 1
                line_start = m.end()
            else:
                self.items.append((tok, line, m.start() - line_start + 1))
        self.pos = 0
        self.end = (line, len(text) - line_start + 1)

    def peek(self):
        return self.items[self.pos][0] if self.pos < len(self.items) else None

    def take(self):
        if self.pos >= len(self.items):
            raise DescriptorSyntaxError("unexpected end of input", *self.end)
        item = self.items[self.pos]
        self.pos += 1
        return item

    def expect(self, value):
        tok, line, col = self.take()
        if tok != value:
            raise DescriptorSyntaxError("expected %r, got %r" % (value, tok),
                                        line, col)
        return tok, line, col

    def atom(self, what="name"):
        tok, line, col = self.take()
        if tok in "()":
            raise DescriptorSyntaxError("expected %s, got %r" % (what, tok),
                                        line, col)
        return tok, line, col


def _parse_int(tk, what):
    tok, line, col = tk.atom(what)
    try:
        return int(tok), line, col
    except ValueError:
        raise DescriptorSyntaxError("%s must be an integer, got %r"
                                    % (what, tok), line, col)


def _parse_factor(tk):
    _, line, col = tk.expect("(")
    kind, kline, kcol = tk.atom("factor kind")
    if kind not in ("cyclic", "prufer", "integers", "cyclic-tower"):
        raise DescriptorSyntaxError("unknown factor kind %r" % kind, kline, kcol)
    param = None
    if kind != "integers":
        param, pline, pcol = _parse_int(tk, "%s parameter" % kind)
    else:
        pline, pcol = kline, kcol
    mult = 1
    if tk.peek() == "x":
        tk.take()
        tok, mline, mcol = tk.atom("multiplicity")
        if tok == OMEGA:
            mult = OMEGA
        else:
            try:
                mult = int(tok)
            except ValueError:
                raise DescriptorSyntaxError(
                    "multiplicity must be an integer or 'omega', got %r" % tok,
                    mline, mcol)
            if mult < 1:
                raise DescriptorSyntaxError("multiplicity must be >= 1",
                                            mline, mcol)
    tk.expect(")")
    try:
        return Factor(kind, param, mult)
    except ValueError as exc:
        raise DescriptorSyntaxError(str(exc), pline, pcol)


def _parse_slspec(tk, loader):
    if tk.peek() == "(":
        _, line, col = tk.take()
        head, hline, hcol = tk.atom("semilattice spec")
        if head != "poset":
            raise DescriptorSyntaxError("unknown semilattice spec %r" % head,
                                        hline, hcol)
        path, pline, pcol = tk.atom("poset path")
        tk.expect(")")
        try:
            return FinitePoset(loader(path), path=path)
        except (OSError, ValueError) as exc:
            raise DescriptorSyntaxError(str(exc), pline, pcol) from exc
    tok, line, col = tk.atom("semilattice spec")
    if tok in SEMILATTICE_WORDS:
        return SEMILATTICE_WORDS[tok]()
    raise DescriptorSyntaxError("unknown semilattice spec %r" % tok, line, col)


def _parse_desc(tk, loader, depth=1):
    _, line, col = tk.expect("(")
    if depth > MAX_DEPTH:
        raise DescriptorSyntaxError("descriptor nested deeper than %d levels"
                                    % MAX_DEPTH, line, col)
    head, hline, hcol = tk.atom("constructor")
    cls = CONSTRUCTORS.get(head)
    if cls is not None:
        children = []
        for _ in fields(cls):
            children.append(_parse_desc(tk, loader, depth + 1))
        tk.expect(")")
        return cls(*children)
    if head == "table":
        path, pline, pcol = tk.atom("table path")
        tk.expect(")")
        try:
            return FiniteTable(loader(path), path=path)
        except (OSError, ValueError) as exc:
            raise DescriptorSyntaxError(str(exc), pline, pcol) from exc
    if head == "group":
        factors = []
        while tk.peek() == "(":
            factors.append(_parse_factor(tk))
        if not factors:
            raise DescriptorSyntaxError("group needs at least one factor",
                                        hline, hcol)
        tk.expect(")")
        return Group(GroupSpec(tuple(factors)))
    if head == "semilattice":
        spec = _parse_slspec(tk, loader)
        tk.expect(")")
        return Semilattice(spec)
    raise DescriptorSyntaxError("unknown constructor %r" % head, hline, hcol)


def parse_descriptor(text, loader=None):
    """Parse a descriptor expression; `loader` maps a path to a table."""
    if loader is None:
        loader = load_table_file
    tk = _Tokens(text)
    desc = _parse_desc(tk, loader)
    if tk.peek() is not None:
        tok, line, col = tk.take()
        raise DescriptorSyntaxError("trailing input %r" % tok, line, col)
    return desc


def _render_leaf(x):
    word = "poset" if isinstance(x, FinitePoset) else "table"
    if x.path is None:
        raise ValueError("cannot render a %s descriptor without a path" % word)
    return "(%s %s)" % (word, x.path)


def render_descriptor(d) -> str:
    """Canonical text for a parsed descriptor; fixed under parse+render."""
    return spell(d, _render_leaf)


# -- commands ----------------------------------------------------------------

def _json_text(obj):
    """The text of json.dumps(obj, sort_keys=True, indent=2), written faster.

    With an indent, `json` falls back to its pure-Python encoder, which
    visits every table cell in Python.  Here a list whose items are all of
    type exactly int (never bool) is written with one join over memoised
    digit strings; every other scalar goes to the C encoder, which keeps
    ensure_ascii, NaN and the float repr.  Dict keys must be str.
    """
    scalar = json.JSONEncoder().encode
    digits = _Digits()

    def write(x, pad):
        inner = pad + "  "
        sep = ",\n" + inner
        if isinstance(x, dict):
            if not x:
                return "{}"
            body = sep.join([scalar(k) + ": " + write(x[k], inner)
                             for k in sorted(x)])
            return "{\n" + inner + body + "\n" + pad + "}"
        if isinstance(x, (list, tuple)):
            if not x:
                return "[]"
            if set(map(type, x)) == {int}:
                body = sep.join(map(digits.__getitem__, x))
            else:
                body = sep.join([write(v, inner) for v in x])
            return "[\n" + inner + body + "\n" + pad + "]"
        return scalar(x)

    return write(obj, "")


def _print_json(obj):
    print(_json_text(obj))


def _sorted(xs):
    return " ".join(str(x) for x in sorted(xs))


def cmd_validate(args):
    table = load_table_file(args.table, require_associative=False)
    report = validate(table)
    if args.json:
        _print_json({
            "order": table.n,
            "associative": report.associative,
            "assoc_witness": report.assoc_witness,
            "commutative": report.commutative,
            "comm_witness": report.comm_witness,
        })
    else:
        print("order: %d" % table.n)
        if report.associative:
            print("associative: yes")
        else:
            print("associative: no (witness: %r)" % (report.assoc_witness,))
        if report.commutative:
            print("commutative: yes")
        else:
            print("commutative: no (witness: %r)" % (report.comm_witness,))
    return 0 if report.associative else 1


def _hasse_pairs(table):
    es = sorted(idempotents(table))
    lt = {(e, f) for e in es for f in es
          if e != f and natural_le(table, e, f)}
    covers = [(e, f) for (e, f) in sorted(lt)
              if not any((e, g) in lt and (g, f) in lt for g in es)]
    return covers


def cmd_analyze(args):
    table = load_table_file(args.table)
    z = center(table)
    es = idempotents(table)
    covers = _hasse_pairs(table)
    classes = list(dict.fromkeys(h_classes(table)))
    try:
        pi = pi_map(table)
        pi_note = None
    except PreconditionError as exc:
        pi = None
        pi_note = str(exc)
    length, chain = max_chain_length(table)
    if args.json:
        _print_json({
            "order": table.n,
            "commutative": len(z) == table.n,
            "idempotents": sorted(es),
            "natural_order_covers": covers,
            "h_classes": [sorted(h) for h in classes],
            "pi": pi,
            "pi_note": pi_note,
            "center": sorted(z),
            "clifford_part": sorted(clifford_part(table)),
            "max_chain": {"length": length, "witness": sorted(chain)},
        })
    else:
        print("order: %d" % table.n)
        print("commutative: %s" % ("yes" if len(z) == table.n else "no"))
        print("idempotents: %s" % _sorted(es))
        print("natural order covers: %s"
              % (" ".join("%d<%d" % c for c in covers) or "(none)"))
        print("h-classes: %s" % " ".join("{%s}" % _sorted(h) for h in classes))
        if pi is not None:
            print("pi: %s" % " ".join("%d->%d" % (x, pi[x])
                                      for x in table.elements))
        else:
            print("pi: undefined (%s)" % pi_note)
        print("center: %s" % _sorted(z))
        print("clifford part: %s" % _sorted(clifford_part(table)))
        print("max chain: %d (witness: %s)" % (length, _sorted(chain)))
    return 0


def _verdict_json(verdict):
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


def cmd_classify(args):
    try:
        desc = parse_descriptor(args.expr)
    except DescriptorSyntaxError as exc:
        if isinstance(exc.__cause__, NotCommutativeError):
            raise DescriptorSyntaxError(
                "classification covers commutative semigroups only; %s" % exc)
        raise
    verdict = classify(desc)
    if args.json:
        _print_json(_verdict_json(verdict))
    else:
        print(explain(verdict))
    return 0


def cmd_quotient(args):
    table = load_table_file(args.table)
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
    if args.json:
        out = {"order": quotient.n,
               "table": quotient.op,
               "projection": proj}
        out.update(detail)
        _print_json(out)
    else:
        sys.stdout.write(render_table(quotient, comment=comment))
        print("projection: %s" % " ".join("%d->%d" % (x, proj[x])
                                          for x in range(table.n)))
    return 0


def cmd_power(args):
    table = load_table_file(args.table)
    ps = power_semigroup(table)
    if args.json:
        _print_json({
            "base_order": table.n,
            "order": ps.table.n,
            "elements": [sorted(s) for s in ps.elements],
            "table": ps.table.op,
        })
    else:
        print("base order: %d" % table.n)
        print("subsets: %d" % ps.table.n)
        for i, s in enumerate(ps.elements):
            print("%d: {%s}" % (i, _sorted(s)))
        sys.stdout.write(render_table(ps.table, comment="power semigroup"))
    return 0


def cmd_enumerate(args):
    tables = list(enumerate_commutative(args.order, up_to_iso=args.up_to_iso))
    if args.json:
        _print_json({
            "order": args.order,
            "up_to_iso": args.up_to_iso,
            "count": len(tables),
            "tables": [t.op for t in tables],
        })
        return 0
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for i, t in enumerate(tables):
            name = os.path.join(args.out, "order%d_%04d.tbl" % (args.order, i))
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(render_table(t))
        print("wrote %d tables to %s" % (len(tables), args.out))
        return 0
    for i, t in enumerate(tables):
        sys.stdout.write(render_table(t, comment="%d of %d" % (i + 1, len(tables))))
        print()
    print("count: %d" % len(tables))
    return 0


def cmd_suite(args):
    if not 1 <= args.max_order <= MAX_ENUM_ORDER:
        raise ValueError("--max-order must be in 1..%d" % MAX_ENUM_ORDER)
    failures = []
    total = 0
    for n in range(1, args.max_order + 1):
        for idx, table in enumerate(enumerate_commutative(n, up_to_iso=True)):
            total += 1
            report = lemma_suite(table)
            if not report.ok:
                failures.append((n, idx, table, report))
    replays = []
    if failures:
        out = args.out or "."
        os.makedirs(out, exist_ok=True)
        for n, idx, table, report in failures:
            names = ", ".join(r.name for r in report.failures)
            path = os.path.join(out, "suite_fail_order%d_%04d.tbl" % (n, idx))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render_table(table, comment="failed checks: %s" % names))
            replays.append((names, path))
    if args.json:
        _print_json({
            "max_order": args.max_order,
            "tables": total,
            "checks": len(SUITE_CHECK_NAMES),
            "ok": not failures,
            "failures": [
                {"order": n, "index": idx,
                 "table": t.op,
                 "failed": [r.name for r in rep.failures],
                 "replay": path}
                for (n, idx, t, rep), (_, path) in zip(failures, replays)
            ],
        })
    elif failures:
        for (n, idx, _, _), (names, path) in zip(failures, replays):
            print("FAIL order %d table %d: %s (replay: %s)"
                  % (n, idx, names, path))
    else:
        print("all properties hold (orders 1..%d, %d tables, backend %s)"
              % (args.max_order, total, kernel_backend()))
    return 1 if failures else 0


def _parse_elems(text):
    try:
        return frozenset(int(tok) for tok in text.replace(",", " ").split())
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
            x, y = int(parts[0]), int(parts[1])
        except ValueError:
            raise PreconditionError("pair members must be integers: %r" % chunk)
        pairs.append((x, y))
    return pairs


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sgclass",
        description="Classify commutative semigroups for closedness and "
                    "analyze finite Cayley tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a table file for "
                                        "associativity and commutativity")
    p.add_argument("table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="idempotents, natural order, "
                                       "h-classes, pi, center, chains")
    p.add_argument("table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="closedness verdicts for a "
                                        "descriptor expression")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("quotient", help="Rees or congruence quotient of a table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ideal", help="comma-separated element indices")
    group.add_argument("--pairs", help="comma-separated a=b pairs to identify")
    p.add_argument("table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("power", help="power semigroup of nonempty subsets")
    p.add_argument("table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("enumerate", help="all commutative semigroups of one order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--out", help="write tables into this directory")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("suite", help="run every structural check on every "
                                     "table up to an order")
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--out", help="directory for failure replay files")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
