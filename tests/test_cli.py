import argparse
import contextlib
import io
import json
import os
import pathlib
import re
import resource
import subprocess
import sys
import tracemalloc

import pytest

import sgclass
from sgclass import cli, core, descriptors, harness
from sgclass.cli import main
from sgclass.core import (TableParseError, chain_table, cyclic_table,
                          parse_table, render_table, taimanov_table)
from sgclass.descriptors import (CONSTRUCTORS, MAX_DEPTH, OMEGA,
                                 SEMILATTICE_WORDS, DescriptorSyntaxError,
                                 Factor, FiniteTable, Group, Product,
                                 Semilattice, Taimanov, parse_descriptor)

from oracles import render_descriptor

L3_TEXT = "3\n0 0 0\n0 1 1\n0 1 2\n"


def load_table_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_table(fh.read())


@pytest.fixture
def l3_file(tmp_path):
    path = tmp_path / "L3.tbl"
    path.write_text(L3_TEXT)
    return str(path)


@pytest.fixture
def t5_file(tmp_path):
    path = tmp_path / "T5.tbl"
    path.write_text(render_table(taimanov_table(5)))
    return str(path)


@pytest.fixture
def lz2_file(tmp_path):
    path = tmp_path / "LZ2.tbl"
    path.write_text("2\n0 0\n1 1\n")
    return str(path)


class TestParseTable:
    def test_chain(self):
        assert parse_table(L3_TEXT) == chain_table(3)

    def test_comments_and_blanks(self):
        text = "# a chain\n\n2\n# rows follow\n0 0\n0 1\n"
        assert parse_table(text) == chain_table(2)

    def test_rejects_non_associative(self):
        with pytest.raises(TableParseError, match=r"witness \(0, 0, 1\)"):
            parse_table("2\n1 0\n0 0\n")

    def test_bypass_for_validate_mode(self):
        table = parse_table("2\n1 0\n0 0\n", require_associative=False)
        assert table.op == ((1, 0), (0, 0))

    def test_out_of_range_entry_names_position(self):
        with pytest.raises(TableParseError, match="line 3, column 3: entry 2"):
            parse_table("2\n0 1\n1 2\n")

    def test_wrong_row_width(self):
        with pytest.raises(TableParseError, match="expected 2 entries"):
            parse_table("2\n0\n0 1\n")

    def test_too_many_rows(self):
        with pytest.raises(TableParseError, match="more than 2 rows"):
            parse_table("2\n0 0\n0 1\n0 0\n")

    def test_missing_rows(self):
        with pytest.raises(TableParseError, match="expected 2 rows, got 1"):
            parse_table("2\n0 0\n")

    def test_round_trip(self):
        for table in (chain_table(3), cyclic_table(4), taimanov_table(5)):
            assert parse_table(render_table(table)) == table

    # int() also reads these tokens, as 2, 1, 10 and 3
    @pytest.mark.parametrize("text,message", [
        ("+2\n0 0\n0 1\n", "line 1: expected the order, got '+2'"),
        ("\u0662\n0 0\n0 1\n", "line 1: expected the order, got '\u0662'"),
        ("2\n0 0\n0 +1\n", "line 3, column 3: '+1' is not an integer"),
        ("2\n0 0\n0 1_0\n", "line 3, column 3: '1_0' is not an integer"),
        ("4\n0 0 0 0\n0 \u0663 0 0\n0 0 0 0\n0 0 0 0\n",
         "line 3, column 3: '\u0663' is not an integer"),
    ])
    def test_only_ascii_decimal_integers(self, text, message):
        with pytest.raises(TableParseError) as exc:
            parse_table(text)
        assert str(exc.value) == message

    # the column counts each character of the line, a tab as one
    @pytest.mark.parametrize("text,message", [
        ("2\n0 0\n0\tx\n", "line 3, column 3: 'x' is not an integer"),
        ("3\n0 0 0\n1   01\t1x\n0 0 0\n",
         "line 3, column 8: '1x' is not an integer"),
        ("3\n0 0 0\n0 0 0\n  1 2\t21\n",
         "line 4, column 7: entry 21 out of range [0, 3)"),
        ("3\n0 0 0\n0 0 0\n0 -0\t-2\n",
         "line 4, column 6: entry -2 out of range [0, 3)"),
    ])
    def test_bad_entry_position(self, text, message):
        with pytest.raises(TableParseError) as exc:
            parse_table(text, require_associative=False)
        assert str(exc.value) == message

    def test_signed_and_zero_padded_decimals_keep_their_meaning(self):
        with pytest.raises(TableParseError, match="^line 1: order must be >= 1$"):
            parse_table("-0\n")
        with pytest.raises(TableParseError,
                           match=r"^line 2, column 1: entry -1 out of range"):
            parse_table("1\n-1\n")
        assert parse_table("02\n00 0\n0 01\n") == chain_table(2)
        assert parse_table("2\n-0 0\n0 1\n") == chain_table(2)


class TestParseDescriptor:
    def test_group_prufer(self):
        d = parse_descriptor("(group (prufer 2))")
        assert isinstance(d, Group)
        assert d.factors == (Factor("prufer", 2),)

    def test_product(self):
        d = parse_descriptor("(product (taimanov) (semilattice chain-omega))")
        assert isinstance(d, Product)
        assert isinstance(d.left, Taimanov)
        assert isinstance(d.right, Semilattice)

    def test_non_prime_prufer(self):
        with pytest.raises(DescriptorSyntaxError, match="4 is not prime"):
            parse_descriptor("(group (prufer 4))")

    def test_unknown_constructor_position(self):
        with pytest.raises(DescriptorSyntaxError, match="line 1, column 2"):
            parse_descriptor("(frobnicate)")

    @pytest.mark.parametrize("text,message", [
        ("(product\n\t(null)\r\n  (bogus))",
         "line 3, column 4: unknown constructor 'bogus'"),
        ("(product\n (null)\n", "line 3, column 1: unexpected end of input"),
        ("(adjoin-zero (null)) \n  x", "line 2, column 3: trailing input 'x'"),
    ])
    def test_error_positions_past_the_first_line(self, text, message):
        with pytest.raises(DescriptorSyntaxError) as exc:
            parse_descriptor(text)
        assert str(exc.value) == message

    def test_arity_errors(self):
        with pytest.raises(DescriptorSyntaxError, match="at least one factor"):
            parse_descriptor("(group)")
        with pytest.raises(DescriptorSyntaxError, match="expected '\\)'"):
            parse_descriptor("(taimanov extra)")
        with pytest.raises(DescriptorSyntaxError, match="unexpected end"):
            parse_descriptor("(null")

    @pytest.mark.parametrize("text,message", [
        ("(table)", "line 1, column 7: expected table path, got ')'"),
        ("(group (cyclic x))",
         "line 1, column 16: cyclic parameter must be an integer, got 'x'"),
        ("(group (cyclic 2 x foo))", "line 1, column 20: multiplicity must "
         "be an integer or 'omega', got 'foo'"),
        ("(semilattice (foo))",
         "line 1, column 15: unknown semilattice spec 'foo'"),
        ("(group (cyclic 0))",
         "line 1, column 16: cyclic order must be a positive integer"),
        ("(group (cyclic -0))",
         "line 1, column 16: cyclic order must be a positive integer"),
        ("(group (cyclic 2 x -1))",
         "line 1, column 20: multiplicity must be >= 1"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(DescriptorSyntaxError) as exc:
            parse_descriptor(text)
        assert str(exc.value) == message

    # int() also reads these tokens, as 10, 3, 3 and 2
    @pytest.mark.parametrize("text,message", [
        ("(group (cyclic 1_0))",
         "line 1, column 16: cyclic parameter must be an integer, got '1_0'"),
        ("(group (cyclic +3))",
         "line 1, column 16: cyclic parameter must be an integer, got '+3'"),
        ("(group (prufer \u0663))", "line 1, column 16: prufer parameter "
         "must be an integer, got '\u0663'"),
        ("(group (cyclic 2 x +2))", "line 1, column 20: multiplicity must "
         "be an integer or 'omega', got '+2'"),
    ])
    def test_only_ascii_decimal_integers(self, text, message):
        with pytest.raises(DescriptorSyntaxError) as exc:
            parse_descriptor(text)
        assert str(exc.value) == message

    def test_non_decimal_integer_exits_two(self, capsys):
        assert main(["classify", "(group (cyclic 1_0))"]) == 2
        assert capsys.readouterr() == ("", "error: line 1, column 16: cyclic "
                                       "parameter must be an integer, "
                                       "got '1_0'\n")

    def test_non_associative_leaves_are_refused_once_at_their_path(
            self, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text("2\n1 0\n0 0\n")
        with pytest.raises(DescriptorSyntaxError) as exc:
            parse_descriptor("(table %s)" % path)
        assert str(exc.value) == ("line 1, column 8: table is not "
                                  "associative: witness (0, 0, 1)")
        with pytest.raises(DescriptorSyntaxError) as exc:
            parse_descriptor("(semilattice (poset %s))" % path)
        assert str(exc.value) == ("line 1, column 21: poset table is not "
                                  "associative: witness (0, 0, 1)")

    def test_each_leaf_is_validated_once(self, l3_file, monkeypatch):
        calls = []
        real = core.validate
        for module in (core, descriptors):
            monkeypatch.setattr(module, "validate",
                                lambda t: calls.append(t) or real(t))
        parse_descriptor("(product (table %s) (semilattice (poset %s)))"
                         % (l3_file, l3_file))
        assert calls == [chain_table(3)] * 2

    def test_multiplicities(self):
        d = parse_descriptor("(group (cyclic 2 x omega) (cyclic 3 x 2))")
        assert d.factors == (Factor("cyclic", 2, OMEGA),
                             Factor("cyclic", 3, 2))

    def test_table_loading(self, l3_file):
        d = parse_descriptor("(table %s)" % l3_file)
        assert isinstance(d, FiniteTable)
        assert d.table == chain_table(3)

    def test_noncommutative_table_rejected(self, lz2_file):
        with pytest.raises(DescriptorSyntaxError, match="not commutative"):
            parse_descriptor("(table %s)" % lz2_file)

    def test_poset_spec(self, l3_file):
        d = parse_descriptor("(semilattice (poset %s))" % l3_file)
        assert d.table == chain_table(3)


ROUND_TRIP_CORPUS = [
    "(null)",
    "(taimanov)",
    "(group (cyclic 4))",
    "(group (cyclic 2 x omega) (prufer 5))",
    "(group (integers) (cyclic-tower 3 x 2))",
    "(semilattice chain-omega)",
    "(semilattice antichain-omega-zero)",
    "(product (null) (group (cyclic 2)))",
    "(adjoin-zero (taimanov))",
    "(adjoin-identity (product (null) (null)))",
]


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

_factor_st = st.builds(
    lambda kind, small, prime, mult: Factor(
        kind,
        small if kind == "cyclic" else None if kind == "integers" else prime,
        mult),
    st.sampled_from(["cyclic", "prufer", "integers", "cyclic-tower"]),
    st.integers(1, 9),
    st.sampled_from([2, 3, 5, 7]),
    st.sampled_from([1, 2, 5, OMEGA]),
)

# path-free descriptors: everything the grammar can spell without files
_pathfree_leaf_st = st.one_of(
    st.builds(lambda fs: parse_descriptor(
        "(group %s)" % " ".join(f.text() for f in fs)),
        st.lists(_factor_st, min_size=1, max_size=3)),
    st.just(parse_descriptor("(semilattice chain-omega)")),
    st.just(parse_descriptor("(semilattice antichain-omega-zero)")),
    st.just(parse_descriptor("(taimanov)")),
    st.just(parse_descriptor("(null)")),
)

_pathfree_descriptor_st = st.recursive(
    _pathfree_leaf_st,
    lambda inner: st.one_of(
        st.builds(Product, inner, inner),
        st.builds(lambda d: parse_descriptor(
            "(adjoin-zero %s)" % render_descriptor(d)), inner),
        st.builds(lambda d: parse_descriptor(
            "(adjoin-identity %s)" % render_descriptor(d)), inner),
    ),
    max_leaves=5,
)


class TestRenderRoundTrip:
    @settings(max_examples=120)
    @given(_pathfree_descriptor_st)
    def test_parse_render_round_trip_property(self, d):
        rendered = render_descriptor(d)
        assert parse_descriptor(rendered) == d
        assert render_descriptor(parse_descriptor(rendered)) == rendered

    def test_render_is_fixed_point_of_parse(self):
        for text in ROUND_TRIP_CORPUS:
            d = parse_descriptor(text)
            rendered = render_descriptor(d)
            assert parse_descriptor(rendered) == d
            assert render_descriptor(parse_descriptor(rendered)) == rendered

    def test_normalizes_whitespace_once(self):
        messy = "( product   (null)\n  (group (cyclic 2 x 1)) )"
        d = parse_descriptor(messy)
        rendered = render_descriptor(d)
        assert rendered == "(product (null) (group (cyclic 2)))"
        assert render_descriptor(parse_descriptor(rendered)) == rendered

    def test_table_paths_survive(self, l3_file):
        text = "(table %s)" % l3_file
        d = parse_descriptor(text)
        assert render_descriptor(d) == text


_space_run_st = st.lists(st.sampled_from([" ", "\t", "\n", "\r\n"]),
                         max_size=3).map("".join)


@st.composite
def _broken_descriptor_text_st(draw):
    """A valid descriptor text re-spaced with runs of whitespace, then
    broken once: a `)` dropped, the atom `bogus` inserted, or cut short."""
    rendered = render_descriptor(draw(_pathfree_descriptor_st))
    tokens = rendered.replace("(", " ( ").replace(")", " ) ").split()
    mutation = draw(st.sampled_from(["drop", "insert", "cut"]))
    if mutation == "drop":
        del tokens[draw(st.sampled_from(
            [i for i, tok in enumerate(tokens) if tok == ")"]))]
    elif mutation == "insert":
        tokens.insert(draw(st.integers(0, len(tokens))), "bogus")
    text = draw(_space_run_st)
    for prev, tok in zip([None] + tokens, tokens):
        gap = draw(_space_run_st)
        if not gap and prev not in (None, "(", ")") and tok not in "()":
            gap = " "  # two atoms need a space between them
        text += gap + tok
    text += draw(_space_run_st)
    if mutation == "cut":
        text = text[:draw(st.integers(0, text.rindex(")")))]
    return text


def _offset_of(text, line, col):
    """The offset of (line, col) in text, walking it one character at a
    time; len(text) for the position one past the last character."""
    at = (1, 1)
    for i, ch in enumerate(text):
        if at == (line, col):
            return i
        at = (at[0] + 1, 1) if ch == "\n" else (at[0], at[1] + 1)
    assert at == (line, col), "position past the end of the text"
    return len(text)


class TestErrorPositionOracle:
    @settings(max_examples=200)
    @given(_broken_descriptor_text_st())
    def test_the_position_holds_the_token_the_message_quotes(self, text):
        with pytest.raises(DescriptorSyntaxError) as exc:
            parse_descriptor(text)
        m = re.fullmatch(r"line (\d+), column (\d+): (.*)", str(exc.value))
        at = _offset_of(text, int(m[1]), int(m[2]))
        message = m[3]
        if message == "unexpected end of input":
            assert at == len(text)
        elif message == "group needs at least one factor":
            assert text.startswith("group", at)  # reported at the constructor
        else:
            quoted = re.search(r"'([^']*)'$", message)
            assert quoted, message
            assert text.startswith(quoted[1], at)


_json_scalar_st = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2 ** 64), st.integers(max_value=-2 ** 64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
    st.text(st.characters(max_codepoint=0x1f) | st.characters(min_codepoint=0x80)),
)

_json_st = st.recursive(
    st.one_of(
        _json_scalar_st,
        st.lists(st.integers(-3, 300)),
        st.lists(st.integers() | st.booleans()).map(tuple),
    ),
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(st.text(), inner),
    ),
    max_leaves=12,
)

_table_st = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    min_size=n, max_size=n)).map(core.CayleyTable)

# documents with tables among their leaves, at any depth
_json_tables_st = st.recursive(
    _table_st | _json_scalar_st | st.lists(st.integers(-3, 300)),
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(st.text(), inner),
    ),
    max_leaves=8,
)


def _plain(obj):
    """obj with each CayleyTable in it replaced by its op."""
    if isinstance(obj, core.CayleyTable):
        return obj.op
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(_plain, obj))
    return obj


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(_json_st)
    def test_matches_json_dumps(self, obj):
        assert "".join(cli._json_chunks(obj)) == json.dumps(
            obj, sort_keys=True, indent=2)

    @pytest.mark.parametrize("obj", [
        [], {}, (), [[]], {"": {}}, [True, 1, False, 0], [1, 2.0],
        [float("nan"), float("inf"), -float("inf")], [2 ** 70, -2 ** 70],
        {"\u00e9\n\x00": ["\ud800", "\U0001f600"]}, ((0, 1), (1, 0)),
        {"a": [], "b": [[]], "c": ((0, 1), {}), "d": [1, [2]], "e": {"f": 1}},
    ])
    def test_edge_cases(self, obj):
        assert "".join(cli._json_chunks(obj)) == json.dumps(
            obj, sort_keys=True, indent=2)

    @settings(max_examples=100, deadline=None)
    @given(_json_tables_st)
    def test_tables_are_written_as_their_op(self, obj):
        assert "".join(cli._json_chunks(obj)) == json.dumps(
            _plain(obj), sort_keys=True, indent=2)

    @pytest.mark.parametrize("obj", [
        cyclic_table(3), [cyclic_table(1)], (chain_table(2), [cyclic_table(2)]),
        {"t": cyclic_table(3)}, {"t": [chain_table(3), 1]},
        {"a": {"t": cyclic_table(2)}, "b": [[cyclic_table(1)]], "c": 0},
    ])
    def test_table_leaves(self, obj):
        assert "".join(cli._json_chunks(obj)) == json.dumps(
            _plain(obj), sort_keys=True, indent=2)

    def test_prints_without_holding_the_document(self, monkeypatch):
        class CountingSink:
            size = 0

            def write(self, text):
                self.size += len(text)
                return len(text)

        _, as_json, _ = cli.cmd_power(None, cyclic_table(8))
        obj = as_json()
        sink = CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            cli._print_json(obj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.size == len(json.dumps(_plain(obj), sort_keys=True,
                                           indent=2)) + 1
        assert peak < sink.size / 4, (peak, sink.size)


def grammar_of(text):
    """The descriptor grammar in `text`, from `desc :=` to the end of the
    `slspec :=` line, with runs of whitespace collapsed to one space."""
    match = re.search(r"^\s*desc\s*:=.*?^\s*slspec\s*:=[^\n]*", text,
                      re.MULTILINE | re.DOTALL)
    assert match, "no descriptor grammar found"
    return " ".join(match.group().split())


class TestGrammarDocs:
    README = pathlib.Path(__file__).parents[1] / "README.md"

    def test_readme_grammar_equals_the_descriptors_docstring(self):
        readme = grammar_of(self.README.read_text(encoding="utf-8"))
        assert readme == grammar_of(descriptors.__doc__)

    def test_grammar_names_every_keyword(self):
        quoted = set(re.findall(r'"([^"]+)"', grammar_of(descriptors.__doc__)))
        words = (set(CONSTRUCTORS) | set(SEMILATTICE_WORDS)
                 | {"table", "group", "semilattice", "poset"})
        assert words <= quoted


class TestCommands:
    def test_validate_ok(self, l3_file, capsys):
        assert main(["validate", l3_file]) == 0
        out = capsys.readouterr().out
        assert "associative: yes" in out and "commutative: yes" in out

    def test_validate_failure_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.tbl"
        path.write_text("2\n1 0\n0 0\n")
        assert main(["validate", str(path)]) == 1
        assert "witness: (0, 0, 1)" in capsys.readouterr().out

    def test_validate_malformed_exits_two(self, tmp_path, capsys):
        path = tmp_path / "oor.tbl"
        path.write_text("2\n0 1\n1 2\n")
        assert main(["validate", str(path)]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_analyze(self, l3_file, capsys):
        assert main(["analyze", l3_file]) == 0
        out = capsys.readouterr().out
        assert "idempotents: 0 1 2" in out
        assert "natural order covers: 0<1 1<2" in out
        assert "pi: 0->0 1->1 2->2" in out
        assert "max chain: 3" in out

    def test_analyze_rejects_non_semigroup(self, tmp_path, capsys):
        path = tmp_path / "bad.tbl"
        path.write_text("2\n1 0\n0 0\n")
        assert main(["analyze", str(path)]) == 2

    def test_analyze_noncommutative_reports_pi_undefined(self, lz2_file, capsys):
        assert main(["analyze", lz2_file]) == 0
        out = capsys.readouterr().out
        assert "commutative: no" in out
        assert "pi: undefined (idempotent 0 is not central)" in out

    def test_classify_null(self, capsys):
        assert main(["classify", "(null)"]) == 0
        out = capsys.readouterr().out
        assert "C-closed: no" in out
        assert "Theorem 1.4" in out
        assert "whole carrier" in out

    def test_classify_taimanov(self, capsys):
        assert main(["classify", "(taimanov)"]) == 0
        out = capsys.readouterr().out
        assert "C-closed: yes" in out
        assert "ideally C-closed: no" in out

    def test_classify_noncommutative_table_exits_two(self, lz2_file, capsys):
        assert main(["classify", "(table %s)" % lz2_file]) == 2
        assert capsys.readouterr().err == (
            "error: line 1, column 8: table is not commutative: "
            "witness (0, 1); classification covers commutative semigroups "
            "only\n")
        assert main(["classify", "(semilattice (poset %s))" % lz2_file]) == 2
        assert capsys.readouterr().err == (
            "error: line 1, column 21: poset table is not commutative: "
            "witness (0, 1); classification covers commutative semigroups "
            "only\n")

    def test_classify_table_file_parse_error_has_no_scope_sentence(
            self, tmp_path, capsys):
        # a file that does not parse is reported at its position only,
        # whatever words its content holds
        path = tmp_path / "F.tbl"
        path.write_text("not commutative\n")
        assert main(["classify", "(table %s)" % path]) == 2
        assert capsys.readouterr().err == (
            "error: line 1, column 8: line 1: expected the order, "
            "got 'not commutative'\n")

    def test_classify_parse_error_exits_two(self, capsys):
        assert main(["classify", "(group (prufer 4))"]) == 2
        assert "not prime" in capsys.readouterr().err

    def test_quotient_ideal(self, t5_file, capsys):
        assert main(["quotient", "--ideal", "0,1", t5_file]) == 0
        out = capsys.readouterr().out
        assert "4\n0 0 0 0\n0 0 0 0\n0 0 0 0\n0 0 0 0" in out
        assert "projection: 0->0 1->0 2->1 3->2 4->3" in out

    def test_quotient_pairs(self, l3_file, capsys):
        assert main(["quotient", "--pairs", "1=2", l3_file]) == 0
        out = capsys.readouterr().out
        assert "2\n0 0\n0 1" in out

    def test_quotient_non_ideal_exits_two(self, l3_file, capsys):
        assert main(["quotient", "--ideal", "2", l3_file]) == 2
        assert "not an ideal" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, message", [
        ("--pairs", "1-2", "pairs look like a=b, got '1-2'"),
        ("--pairs", "a=b", "pair members must be integers: 'a=b'"),
        ("--ideal", "x", "ideal elements must be integers: 'x'"),
        # int() alone would read these as 1; table files refuse them too
        ("--pairs", "+1=2", "pair members must be integers: '+1=2'"),
        ("--ideal", "\u0661,2", "ideal elements must be integers: '\u0661,2'"),
    ])
    def test_quotient_malformed_option_exits_two(self, option, value, message,
                                                 l3_file, capsys):
        assert main(["quotient", option, value, l3_file]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message

    # "--pairs -1=0" would read as an option, so the value is attached
    @pytest.mark.parametrize("option", ["--ideal=0,7", "--ideal=-1",
                                        "--pairs=0=9", "--pairs=-1=0"])
    def test_quotient_out_of_range_exits_two(self, option, l3_file, capsys):
        assert main(["quotient", option, l3_file]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_power(self, tmp_path, capsys):
        path = tmp_path / "c2.tbl"
        path.write_text("2\n0 0\n0 1\n")
        assert main(["power", str(path)]) == 0
        out = capsys.readouterr().out
        assert "subsets: 3" in out
        assert "0: {0}" in out and "2: {0 1}" in out

    def test_enumerate_stdout(self, capsys):
        assert main(["enumerate", "--order", "2", "--up-to-iso"]) == 0
        assert "count: 3" in capsys.readouterr().out

    def test_enumerate_corpus_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        assert main(["enumerate", "--order", "3", "--up-to-iso",
                     "--out", str(out_dir)]) == 0
        files = sorted(out_dir.iterdir())
        assert len(files) == 12
        # emitted files are replayable
        assert main(["validate", str(files[0])]) == 0

    def test_enumerate_out_writes_the_same_files_with_json(self, tmp_path,
                                                           capsys):
        assert main(["enumerate", "--order", "3", "--json"]) == 0
        report = capsys.readouterr().out
        text_dir, json_dir = tmp_path / "text", tmp_path / "json"
        assert main(["enumerate", "--order", "3", "--out", str(text_dir)]) == 0
        assert main(["enumerate", "--order", "3", "--out", str(json_dir),
                     "--json"]) == 0
        assert capsys.readouterr().out == (
            "wrote 63 tables to %s\n" % text_dir + report)
        names = sorted(os.listdir(text_dir))
        assert len(names) == 63
        assert sorted(os.listdir(json_dir)) == names
        for name in names:
            assert ((json_dir / name).read_bytes()
                    == (text_dir / name).read_bytes()), name

    def test_suite_passes(self, capsys):
        assert main(["suite", "--max-order", "3"]) == 0
        assert "all properties hold" in capsys.readouterr().out

    @pytest.mark.parametrize("order", ["0", "-1", "6"])
    def test_suite_refuses_max_order_up_front(self, order, monkeypatch,
                                              capsys):
        calls = []
        real = harness.lemma_suite
        monkeypatch.setattr(harness, "lemma_suite",
                            lambda *a: calls.append(a) or real(*a))
        assert main(["suite", "--max-order", order]) == 2
        assert capsys.readouterr() == (
            "", "error: --max-order must be in 1..5\n")
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ["suite", "--max-order", "\u0662"],
        ["enumerate", "--order", "+2"],
    ])
    def test_order_options_read_only_ascii_decimals(self, argv, monkeypatch,
                                                    capsys):
        calls = []
        monkeypatch.setattr(harness, "lemma_suite", lambda *a: calls.append(a))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and calls == []
        assert err.endswith("error: argument %s: invalid int value: %r\n"
                            % (argv[1], argv[2]))

    def test_suite_failure_writes_replay_files(self, collapsed_projections,
                                              tmp_path, capsys):
        out = str(tmp_path / "replays")
        first = os.path.join(out, "suite_fail_order2_0001.tbl")
        second = os.path.join(out, "suite_fail_order2_0002.tbl")
        assert main(["suite", "--max-order", "2", "--out", out]) == 1
        assert capsys.readouterr().out == (
            "FAIL order 2 table 1: quotient-idempotent-image, "
            "quotient-h-class-lift (replay: %s)\n"
            "FAIL order 2 table 2: quotient-h-class-lift (replay: %s)\n"
            % (first, second))
        assert sorted(os.listdir(out)) == [os.path.basename(first),
                                           os.path.basename(second)]
        assert load_table_file(first) == chain_table(2)
        assert load_table_file(second) == cyclic_table(2)
        with open(first, encoding="utf-8") as fh:
            assert fh.readline() == ("# failed checks: quotient-idempotent-"
                                     "image, quotient-h-class-lift\n")

        assert main(["suite", "--max-order", "2", "--out", out,
                     "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert (payload["tables"], payload["ok"]) == (4, False)
        assert payload["failures"] == [
            {"order": 2, "index": 1, "table": [[0, 0], [0, 1]],
             "failed": ["quotient-idempotent-image", "quotient-h-class-lift"],
             "replay": first},
            {"order": 2, "index": 2, "table": [[0, 1], [1, 0]],
             "failed": ["quotient-h-class-lift"], "replay": second},
        ]

    def test_json_outputs_are_byte_identical(self, l3_file, capsys):
        runs = []
        for _ in range(2):
            assert main(["classify", "(product (taimanov) (null))",
                         "--json"]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]
        payload = json.loads(runs[0])
        assert payload["c_closed"] is False
        assert payload["failing_condition"][0] == "singleton-square"

    def test_json_analyze_shape(self, l3_file, capsys):
        assert main(["analyze", l3_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["idempotents"] == [0, 1, 2]
        assert payload["max_chain"] == {"length": 3, "witness": [0, 1, 2]}

    def test_missing_file_exits_two(self, capsys):
        assert main(["analyze", "/nonexistent/nowhere.tbl"]) == 2


# -- the per-command parser --------------------------------------------------

def exit_outcome(f, argv):
    """What f(argv) returns, or the exit code it raises with stdout and
    stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return f(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


PARSE_CASES = [
    [], ["-h"], *([command, "-h"] for command in cli._COMMANDS),
    ["nosuch"], ["quotient", "x.tbl"], ["enumerate"],
    ["--bogus", "suite"], ["suite", "--bogus"],
    ["-h", "suite"], ["--", "suite", "--max-order", "3"], ["classify", "suite"],
    ["va"], ["-1"], ["--json", "validate", "x.tbl"],
    ["validate", "x.tbl", "--bogus"], ["suite", "--max-order", "3", "extra"],
    ["classify", "--", "-x"], ["validate", "--", "x.tbl"],
    ["validate", "x.tbl", "-h"], ["suite", "--max=2"],
    ["enumerate", "--ord=4", "--up"], ["quotient", "--pa", "1=2", "x.tbl"],
]

_ARGV_TOKENS = [*cli._COMMANDS, "-h", "--json", "--max-order", "--order",
                "--up-to-iso", "--out", "--ideal", "--pairs", "--", "-1", "3",
                "x.tbl", "(null)", "bogus", "--json=1", "--max", "--up",
                "--pa", "-", "1=2"]


class TestPerCommandParser:
    """`_parse_args(argv)` parses argv as `build_parser().parse_args` does:
    same namespace, or same exit code, stdout and stderr."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
    def test_fixed_cases(self, argv):
        assert (exit_outcome(cli._parse_args, argv)
                == exit_outcome(cli.build_parser().parse_args, argv))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(
        st.lists(st.sampled_from(_ARGV_TOKENS), max_size=6),
        st.builds(lambda command, rest: [command, *rest],
                  st.sampled_from(list(cli._COMMANDS)),
                  st.lists(st.sampled_from(_ARGV_TOKENS), max_size=5))))
    def test_drawn_argv(self, argv):
        assert (exit_outcome(cli._parse_args, argv)
                == exit_outcome(cli.build_parser().parse_args, argv))

    @pytest.mark.parametrize("argv,built", [
        (["classify", "(null)"], 1),  # the command's parser alone
        (["-h"], 8),  # the full parser: the top level and seven commands
        (["validate", "x.tbl", "--bogus"], 9),  # both: the full one reports
    ], ids=lambda x: " ".join(x) if isinstance(x, list) else str(x))
    def test_parsers_built(self, argv, built, monkeypatch):
        calls = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            calls.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        exit_outcome(cli._parse_args, argv)
        assert len(calls) == built

    @pytest.mark.parametrize("argv", [["suite", "-h"], ["quotient", "x.tbl"],
                                      ["nosuch"]], ids=" ".join)
    def test_main_reads_an_iterator_once(self, argv):
        # each argv exits while parsing, so no command runs
        assert exit_outcome(main, iter(argv)) == exit_outcome(main, argv)


def nested(depth, head="adjoin-zero", leaf="(null)"):
    """A descriptor `depth` levels deep: `head` wrapped around one leaf."""
    return "(%s " % head * (depth - 1) + leaf + ")" * (depth - 1)


class TestDepthGuard:
    @pytest.mark.parametrize("head", ["adjoin-zero", "adjoin-identity"])
    def test_deepest_accepted_nesting_classifies(self, head, capsys):
        expr = nested(MAX_DEPTH, head)
        assert main(["classify", expr]) == 0
        assert "C-closed: no" in capsys.readouterr().out
        assert main(["classify", expr, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["c_closed"] is False
        d = parse_descriptor(expr)
        assert render_descriptor(d) == expr
        assert d == parse_descriptor(expr)
        assert hash(d) == hash(parse_descriptor(expr))
        assert repr(d).count("(") == MAX_DEPTH

    def test_deepest_accepted_product_nesting_classifies(self, capsys):
        expr = nested(MAX_DEPTH, "product (taimanov)", "(group (cyclic 2))")
        assert main(["classify", expr, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["ideally_closed"] is False

    def test_one_level_deeper_is_a_syntax_error(self):
        expr = nested(MAX_DEPTH + 1)
        column = len("(adjoin-zero ") * MAX_DEPTH + 1
        with pytest.raises(DescriptorSyntaxError,
                           match="line 1, column %d: .*deeper than %d"
                           % (column, MAX_DEPTH)):
            parse_descriptor(expr)

    def test_1200_levels_exit_two_without_traceback(self):
        src = os.path.dirname(os.path.dirname(sgclass.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for extra in ([], ["--json"]):
            run = subprocess.run(
                [sys.executable, "-m", "sgclass", "classify", nested(1201)]
                + extra, capture_output=True, text=True, env=env)
            assert run.returncode == 2
            assert run.stderr.startswith("error:")
            assert "Traceback" not in run.stderr
            assert run.stdout == ""


def run_sgclass(*argv, **kwargs):
    src = os.path.dirname(os.path.dirname(sgclass.__file__))
    return subprocess.run([sys.executable, "-m", "sgclass"] + list(argv),
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src), **kwargs)


class TestStandsAlone:
    def test_runs_with_only_src_on_its_path(self, tmp_path):
        # from an empty directory, so neither tests/ nor the checkout's
        # root can be imported
        for argv in (["suite", "--max-order", "4"], ["classify", "(null)"]):
            run = run_sgclass(*argv, cwd=tmp_path)
            assert run.returncode == 0, run.stderr


# Runs commands in one fresh interpreter and prints, after the table
# commands and again after a classify command, which of HEAVY are loaded.
FOOTPRINT_SCRIPT = """
import contextlib, io, json, sys
import sgclass.cli
HEAVY = ("sgclass.descriptors", "dataclasses", "inspect")
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert sgclass.cli.main(list(argv)) == 0, argv
def loaded():
    return [m for m in HEAVY if m in sys.modules]
for argv in (["suite", "--max-order", "2", "--json"], ["validate", "t.tbl"],
             ["analyze", "t.tbl"], ["quotient", "t.tbl", "--ideal", "0"],
             ["power", "t.tbl"]):
    run(*argv)
print(json.dumps(loaded()))
run("classify", "(null)")
print(json.dumps(loaded()))
"""


class TestImportFootprint:
    def test_only_classify_loads_the_descriptor_layer(self, tmp_path):
        (tmp_path / "t.tbl").write_text(L3_TEXT)
        src = os.path.dirname(os.path.dirname(sgclass.__file__))
        run = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT],
                             capture_output=True, text=True, timeout=60,
                             cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src))
        assert run.returncode == 0, run.stderr
        tables, after_classify = map(json.loads, run.stdout.splitlines())
        assert tables == []
        assert "sgclass.descriptors" in after_classify


def _cap_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


class TestHugeNumbers:
    @pytest.mark.parametrize("expr,what", [
        ("(group (cyclic 2 x 15000))", "group order"),
        ("(group (cyclic 3 x 1000000000))", "group order"),
        ("(group (cyclic 2 x %d))" % 10 ** 400, "group order"),
        ("(product (group (cyclic 2 x 7000)) (group (cyclic 2 x 7000)))",
         "order"),
        ("(group (cyclic %d x omega) (cyclic %d x omega))"
         % (2 ** 7000, 3 ** 4800), "group exponent"),
        ("(product (group (cyclic %d x omega)) (group (cyclic %d x omega)))"
         % (2 ** 7000, 3 ** 4800), "exponent"),
    ], ids=["order", "slow-power", "float-overflow", "product", "exponent",
            "product-exponent"])
    def test_past_the_digit_bound_exits_two_at_once(self, expr, what):
        run = run_sgclass("classify", expr)
        assert run.returncode == 2
        assert run.stderr == ("error: %s has more than 4000 decimal digits\n"
                              % what)
        assert run.stdout == ""

    def test_order_within_the_bound_prints_exactly(self, capsys):
        assert len(str(2 ** 13000)) == 3914
        assert main(["classify", "(group (cyclic 2 x 13000))", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["profile"]["cardinality"] \
            == 2 ** 13000

    def test_power_past_the_base_order_bound_exits_two_at_once(self,
                                                               tmp_path):
        # an order-13 base has 8191^2 subset products, several GB; the 1 GiB
        # address-space cap makes a missing guard fail fast instead
        path = tmp_path / "L13.tbl"
        path.write_text(render_table(chain_table(13)))
        run = run_sgclass("power", str(path), "--json",
                          preexec_fn=_cap_address_space)
        assert run.returncode == 2
        assert run.stderr == ("error: power semigroup is limited to base "
                              "order <= 12 (got 13)\n")
        assert run.stdout == ""

    def test_huge_prime_parameter_is_refused_at_once(self):
        run = run_sgclass("classify", "(group (prufer 1000000000000000003))")
        assert run.returncode == 2
        assert run.stderr == ("error: line 1, column 16: prime parameters are "
                              "limited to 10^12\n")


# -- fuzzing the input boundary ----------------------------------------------

def main_outcome(argv):
    """Exit code, stdout and stderr of `main(argv)`; an exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, err, codes):
    assert code in codes
    if code == 2:
        assert err.startswith("error:")


# integers of any size that still print (Python's limit is 4300 digits)
_int_text_st = st.one_of(st.integers(-2, 12),
                         st.integers(-2 ** 14000, 2 ** 14000)).map(str)


def _mutate(text, kind, at, insert):
    at %= len(text) + 1
    if kind == 1:
        return text[:at] + text[at + 1:]
    if kind == 2:
        return text[:at] + insert + text[at:]
    if kind == 3:
        return text[:at]
    return text


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "Z3.tbl").write_text(render_table(cyclic_table(3)))
    (directory / "L3.tbl").write_text(L3_TEXT)
    (directory / "LZ2.tbl").write_text("2\n0 0\n1 1\n")
    (directory / "bad.tbl").write_text("2\n1 0\n0 0\n")
    return directory


class TestInputFuzz:
    @staticmethod
    def descriptor_text_st(directory):
        paths = [str(directory / name) for name in
                 ("Z3.tbl", "L3.tbl", "LZ2.tbl", "bad.tbl", "missing.tbl")]
        factor = st.builds(
            "({} {}{})".format,
            st.sampled_from(["cyclic", "prufer", "integers", "cyclic-tower",
                             "bogus"]),
            _int_text_st,
            st.one_of(st.just(""), st.builds(" x {}".format, st.one_of(
                _int_text_st, st.just("omega")))))
        leaf = st.one_of(
            st.builds(lambda fs: "(group %s)" % " ".join(fs),
                      st.lists(factor, max_size=3)),
            st.sampled_from(["(taimanov)", "(null)", "(semilattice chain-omega)",
                             "(semilattice antichain-omega-zero)"]),
            st.builds("(table {})".format, st.sampled_from(paths)),
            st.builds("(semilattice (poset {}))".format, st.sampled_from(paths)),
        )
        tree = st.recursive(leaf, lambda inner: st.one_of(
            st.builds("(product {} {})".format, inner, inner),
            st.builds("(adjoin-zero {})".format, inner),
            st.builds("(adjoin-identity {})".format, inner),
        ), max_leaves=6)
        return st.one_of(
            st.builds(_mutate, tree, st.integers(0, 6), st.integers(0, 400),
                      st.text(max_size=4)),
            st.text(),
        )

    @staticmethod
    def table_text_st(max_order):
        entry = st.one_of(st.integers(0, max_order - 1).map(str), _int_text_st,
                          st.text(max_size=3))
        rows = st.integers(1, max_order).flatmap(lambda n: st.tuples(
            st.one_of(st.just(str(n)), _int_text_st),
            st.lists(st.lists(entry, min_size=n, max_size=n),
                     min_size=n, max_size=n)))
        generated = rows.map(lambda t: "\n".join(
            [t[0]] + [" ".join(r) for r in t[1]]) + "\n")
        known = st.sampled_from([
            render_table(cyclic_table(3)), L3_TEXT, "2\n0 0\n1 1\n",
            render_table(taimanov_table(5)), "# comment\n\n1\n0\n"])
        return st.builds(_mutate, st.one_of(generated, known, st.text()),
                         st.integers(0, 6), st.integers(0, 200),
                         st.text(max_size=4))

    def test_classify_any_text(self, fuzz_dir):
        @settings(max_examples=200, deadline=None)
        @given(self.descriptor_text_st(fuzz_dir), st.booleans())
        def check(text, as_json):
            argv = ["classify"] + (["--json"] if as_json else []) + ["--", text]
            code, _, err = main_outcome(argv)
            assert_contract(code, err, (0, 2))

        check()

    # `power` is kept to base order <= 6: order 12 is accepted by design and
    # builds about 1.7e7 cells
    COMMANDS = [
        (["validate"], (0, 1, 2)),
        (["analyze"], (0, 2)),
        (["quotient", "--ideal", "0"], (0, 2)),
        (["quotient", "--pairs", "0=1"], (0, 2)),
        (["power"], (0, 2)),
    ]

    def test_table_commands_any_file(self, fuzz_dir):
        path = fuzz_dir / "input.tbl"

        @settings(max_examples=150, deadline=None)
        @given(self.table_text_st(6), st.booleans())
        def check(text, as_json):
            path.write_text(text, encoding="utf-8")
            for command, codes in self.COMMANDS:
                argv = command + (["--json"] if as_json else []) + [str(path)]
                code, _, err = main_outcome(argv)
                assert_contract(code, err, codes)

        check()
