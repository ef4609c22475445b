import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import sgclass
from sgclass import cli
from sgclass.cli import (MAX_DEPTH, DescriptorSyntaxError, TableParseError,
                         load_table_file, main, parse_descriptor, parse_table,
                         render_descriptor, render_table)
from sgclass.core import chain_table, cyclic_table, taimanov_table
from sgclass.descriptors import (CONSTRUCTORS, OMEGA, SEMILATTICE_WORDS,
                                 Factor, FiniteTable, Group, Null, Product,
                                 Semilattice, Taimanov)

L3_TEXT = "3\n0 0 0\n0 1 1\n0 1 2\n"


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


class TestParseDescriptor:
    def test_group_prufer(self):
        d = parse_descriptor("(group (prufer 2))")
        assert isinstance(d, Group)
        assert d.spec.factors == (Factor("prufer", 2),)

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

    def test_multiplicities(self):
        d = parse_descriptor("(group (cyclic 2 x omega) (cyclic 3 x 2))")
        assert d.spec.factors == (Factor("cyclic", 2, OMEGA),
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
        assert d.spec.table == chain_table(3)


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


from hypothesis import given, settings
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


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(_json_st)
    def test_matches_json_dumps(self, obj):
        assert cli._json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)

    @pytest.mark.parametrize("obj", [
        [], {}, (), [[]], {"": {}}, [True, 1, False, 0], [1, 2.0],
        [float("nan"), float("inf"), -float("inf")], [2 ** 70, -2 ** 70],
        {"\u00e9\n\x00": ["\ud800", "\U0001f600"]}, ((0, 1), (1, 0)),
    ])
    def test_edge_cases(self, obj):
        assert cli._json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)


def grammar_of(text):
    """The descriptor grammar in `text`, from `desc :=` to the end of the
    `slspec :=` line, with runs of whitespace collapsed to one space."""
    match = re.search(r"^\s*desc\s*:=.*?^\s*slspec\s*:=[^\n]*", text,
                      re.MULTILINE | re.DOTALL)
    assert match, "no descriptor grammar found"
    return " ".join(match.group().split())


class TestGrammarDocs:
    README = pathlib.Path(__file__).parents[1] / "README.md"

    def test_readme_grammar_equals_the_cli_docstring(self):
        readme = grammar_of(self.README.read_text(encoding="utf-8"))
        assert readme == grammar_of(cli.__doc__)

    def test_grammar_names_every_keyword(self):
        quoted = set(re.findall(r'"([^"]+)"', grammar_of(cli.__doc__)))
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
            "error: classification covers commutative semigroups only; "
            "line 1, column 8: table is not commutative: witness (0, 1)\n")
        assert main(["classify", "(semilattice (poset %s))" % lz2_file]) == 2
        assert capsys.readouterr().err == (
            "error: classification covers commutative semigroups only; "
            "line 1, column 21: poset table is not commutative: "
            "witness (0, 1)\n")

    def test_classify_parse_error_naming_commutativity_gets_no_prefix(
            self, tmp_path, capsys):
        # the prefix follows the refusal's type, not words in the message
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

    def test_suite_passes(self, capsys):
        assert main(["suite", "--max-order", "3"]) == 0
        assert "all properties hold" in capsys.readouterr().out

    @pytest.mark.parametrize("order", ["0", "-1", "6"])
    def test_suite_refuses_max_order_up_front(self, order, monkeypatch,
                                              capsys):
        calls = []
        real = cli.lemma_suite
        monkeypatch.setattr(cli, "lemma_suite",
                            lambda table: calls.append(table) or real(table))
        assert main(["suite", "--max-order", order]) == 2
        assert capsys.readouterr() == (
            "", "error: --max-order must be in 1..5\n")
        assert calls == []

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


def run_sgclass(*argv):
    src = os.path.dirname(os.path.dirname(sgclass.__file__))
    return subprocess.run([sys.executable, "-m", "sgclass"] + list(argv),
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))


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

    # `power` is kept to base order <= 6: order 16 is accepted by design and
    # builds about 4e9 cells
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
