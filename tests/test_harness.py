import random

import pytest

from sgclass import _kernel, cli, harness
from sgclass._kernel import canonical_form, commutative_tables
from sgclass.core import (CayleyTable, PreconditionError, chain_table,
                          cyclic_table, h_classes, idempotents, null_table,
                          pi_map, taimanov_table, validate)
from sgclass.harness import CheckResult, enumerate_commutative, lemma_suite
from sgclass.quotients import (congruences, quotient_by_congruence,
                               rees_quotient)

from oracles import (SUITE_FAILURES, enumerate_commutative_naive,
                     iso_class_count, labeled_tables, singleton_square_scan)


class TestEnumerator:
    def test_order_one(self):
        assert [t.op for t in enumerate_commutative(1)] == [((0,),)]

    def test_order_two_classes(self):
        tables = list(enumerate_commutative(2, up_to_iso=True))
        assert len(tables) == 3

    def test_guards(self):
        with pytest.raises(ValueError):
            list(enumerate_commutative(0))
        with pytest.raises(ValueError):
            list(enumerate_commutative(6))
        with pytest.raises(ValueError):
            list(enumerate_commutative_naive(4))

    def test_refuses_a_bool_order(self):
        with pytest.raises(ValueError, match=r"^order must be an integer "
                                             r"in 1\.\.5$"):
            list(enumerate_commutative(True))

    def test_all_outputs_are_commutative_semigroups(self):
        for n in (2, 3, 4):
            for t in enumerate_commutative(n):
                report = validate(t)
                assert report.associative and report.commutative

    def test_emission_order_is_deterministic(self):
        for kwargs in ({}, {"up_to_iso": True}):
            first = [t.op for t in enumerate_commutative(3, **kwargs)]
            second = [t.op for t in enumerate_commutative(3, **kwargs)]
            assert first == second
        # the all-zero table is the lexicographic minimum, so it comes first
        assert next(enumerate_commutative(3)).op == ((0,) * 3,) * 3

    def test_matches_naive_oracle(self):
        for n in (1, 2, 3):
            fast = {t.op for t in enumerate_commutative(n)}
            naive = {t.op for t in enumerate_commutative_naive(n)}
            assert fast == naive

    def test_iso_counts_against_orbit_oracle(self):
        for n, expected in ((1, 1), (2, 3), (3, 12)):
            reps = list(enumerate_commutative(n, up_to_iso=True))
            assert len(reps) == expected
            assert iso_class_count(enumerate_commutative_naive(n)) == expected

    def test_iso_regression_counts(self):
        # frozen after cross-checking the enumerator against the naive
        # oracle at orders <= 3
        assert sum(1 for _ in enumerate_commutative(4, up_to_iso=True)) == 58
        assert sum(1 for _ in enumerate_commutative(5, up_to_iso=True)) == 325

    def test_orbit_count_agrees_with_canonical_rejection_at_order_4(self):
        # orbit sweeping over the row-wise labeled tables is independent of
        # the canonical-form kernel
        tables = [harness._unflatten(f) for f in labeled_tables(4)]
        assert iso_class_count(tables) == 58

    def test_representatives_are_canonical_and_cover(self):
        n = 3
        reps = {t.op for t in enumerate_commutative(n, up_to_iso=True)}
        for flat in labeled_tables(n):
            canon = _kernel.canonical_form(flat, n)
            as_rows = tuple(tuple(canon[i * n + j] for j in range(n))
                            for i in range(n))
            assert as_rows in reps


class TestOrderlyGeneration:
    def test_equals_filtered_labeled_output(self):
        for n in (1, 2, 3, 4):
            filtered = [f for f in labeled_tables(n)
                        if canonical_form(f, n) == f]
            assert commutative_tables(n, lex_least=True) == filtered

    def test_every_emitted_table_is_canonical(self):
        for n in (1, 2, 3, 4, 5):
            for f in commutative_tables(n, lex_least=True):
                assert canonical_form(f, n) == f

    def test_one_table_per_class_in_sorted_order(self):
        # the walk fills cells in row-major order with ascending values, so
        # the classes come out sorted, like the row-wise labeled tables
        for n in (2, 3, 4):
            labeled = labeled_tables(n)
            assert labeled == sorted(set(labeled))
            assert commutative_tables(n, lex_least=True) == \
                sorted({canonical_form(f, n) for f in labeled})

    def test_a_beaten_prefix_has_no_canonical_completion(self):
        # rows 0..1 of the order-3 table below: swapping 1 and 2 turns row 0
        # into (0, 0, 1), which is smaller, so no completion is lex-least
        prefix = [0, 1, 0, 1, 1, 1, 0, 1, -1]
        assert not _kernel.is_canonical(prefix, 3, 2)
        for v in range(3):
            full = tuple(prefix[:8]) + (v,)
            assert canonical_form(full, 3) != full
        # an unset image cell leaves the prefix undecided
        assert _kernel.is_canonical([0, 0, 0, 0, 1, -1, 0, -1, -1], 3, 1)


class TestLemmaSuite:
    def test_group_passes(self, z4):
        report = lemma_suite(z4)
        assert report.ok
        assert len(report.results) == 7
        assert not report.failures

    def test_taimanov_passes(self, t5):
        assert lemma_suite(t5).ok

    def test_check_names_are_stable(self, z3):
        names = [r.name for r in lemma_suite(z3).results]
        assert names == [
            "root-ideal-absorption", "pi-homomorphism", "h-class-products",
            "pi-product-lower-bound", "z-sets-ascending",
            "quotient-idempotent-image", "quotient-h-class-lift",
        ]


    def test_one_sweep_one_projection_per_congruence_one_table_per_quotient(
            self, corpus4, monkeypatch):
        calls = {"congruences": 0, "projections": 0, "tables": 0}
        real_leaves = harness._congruence_leaves
        real_cells = harness._quotient_cells
        real_unflatten = harness._unflatten

        def counted_leaves(table):
            calls["congruences"] += 1
            return real_leaves(table)

        def counted_cells(table, class_of, reps):
            calls["projections"] += 1
            return real_cells(table, class_of, reps)

        def counted_unflatten(flat):
            calls["tables"] += 1
            return real_unflatten(flat)

        monkeypatch.setattr(harness, "_congruence_leaves", counted_leaves)
        monkeypatch.setattr(harness, "_quotient_cells", counted_cells)
        monkeypatch.setattr(harness, "_unflatten", counted_unflatten)
        for table in corpus4:
            calls.update(congruences=0, projections=0, tables=0)
            assert lemma_suite(table).ok
            congs = list(congruences(table))
            quotients = {quotient_by_congruence(table, c)[0].op for c in congs}
            assert calls == {"congruences": 1, "projections": len(congs),
                             "tables": len(quotients)}
            # the cells are the quotient table's rows, flattened
            assert {real_cells(table, *leaf)[0]
                    for leaf in real_leaves(table)} == \
                {sum(q, ()) for q in quotients}


    def test_each_fact_once_per_table_and_per_distinct_quotient(
            self, corpus5, monkeypatch):
        calls = {"h_classes": 0, "idempotents": 0}
        for name in calls:
            def counted(table, real=getattr(harness, name), name=name):
                calls[name] += 1
                return real(table)
            monkeypatch.setattr(harness, name, counted)
        distinct = {n: 0 for n in range(1, 6)}
        congruence_count = 0
        for table in corpus5:
            congs = list(congruences(table))
            quotients = {quotient_by_congruence(table, c)[0].op for c in congs}
            distinct[table.n] += len(quotients)
            congruence_count += len(congs)
            calls.update(h_classes=0, idempotents=0)
            assert lemma_suite(table).ok
            # the table is its own quotient by the identity congruence
            assert table.op in quotients
            assert calls == {"h_classes": len(quotients),
                             "idempotents": len(quotients)}
        assert distinct == {1: 1, 2: 6, 3: 40, 4: 310, 5: 2805}
        assert congruence_count == 4549

    def test_each_fact_once_per_distinct_table_in_a_suite_run(
            self, corpus5, monkeypatch, capsys):
        # the tables and all their quotients, orders 1..5
        distinct = {quotient_by_congruence(table, cong)[0].op
                    for table in corpus5
                    for cong in congruences(table)}
        assert len(distinct) == 446
        calls = {"h_classes": 0, "idempotents": 0}
        for name in calls:
            def counted(table, real=getattr(harness, name), name=name):
                calls[name] += 1
                return real(table)
            monkeypatch.setattr(harness, name, counted)
        runs = []
        for _ in range(2):
            calls.update(h_classes=0, idempotents=0)
            assert cli.main(["suite", "--max-order", "5"]) == 0
            runs.append(dict(calls))
        capsys.readouterr()
        # nothing is kept from one run to the next
        assert runs == [{"h_classes": 446, "idempotents": 446}] * 2

    def test_refuses_a_non_commutative_table(self):
        # associative, ab = 3 but ba = 0 for a = 1, b = 2; the idempotent 0
        # is central, so every check would pass if the suite ran them
        table = CayleyTable([[0, 0, 0, 0], [0, 0, 3, 0],
                             [0, 0, 0, 0], [0, 0, 0, 0]])
        report = validate(table)
        assert report.associative and not report.commutative
        with pytest.raises(PreconditionError,
                           match=r"requires a commutative table"):
            lemma_suite(table)

    def test_refuses_tables_past_the_congruence_order_before_any_check(
            self, monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "_SUITE", tuple(
            (name, lambda table, facts, name=name: ran.append(name))
            for name, _ in harness._SUITE))
        with pytest.raises(PreconditionError,
                           match=r"limited to order <= 6"):
            lemma_suite(cyclic_table(7))
        assert ran == []


def semilattice_congruence_mismatch(table):
    """None when exactly one of the congruences whose quotient is a band
    refines all the others and its classes are the fibres of `pi_map`;
    else what differs.

    A finite commutative semigroup's least semilattice congruence has its
    archimedean components as classes (Tamura), and x lies in the component
    of the idempotent among its powers.  The congruence search and `pi_map`
    share no code, so each checks the other.
    """
    op = table.op
    bands = [c.class_of for c in congruences(table)
             if all(c.class_of[op[x][x]] == c.class_of[x]
                    for x in table.elements)]

    def refines(a, b):
        return len(set(zip(a, b))) == len(set(a))

    least = [a for a in bands if all(refines(a, b) for b in bands)]
    if len(least) != 1:
        return "%d band congruences refine all the others" % len(least)
    classes, fibres = blocks(least[0]), blocks(pi_map(table))
    if classes != fibres:
        return "classes %s, pi_map fibres %s" % (classes, fibres)
    return None


def blocks(labels):
    """The fibres of a map given as a tuple of labels: ascending lists,
    sorted."""
    fibres = {}
    for x, label in enumerate(labels):
        fibres.setdefault(label, []).append(x)
    return sorted(fibres.values())


class TestLeastSemilatticeCongruence:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_is_unique_and_has_the_pi_map_fibres(self, corpus5, order):
        tables = [t for t in corpus5 if t.n == order]
        assert [semilattice_congruence_mismatch(t) for t in tables] == \
            [None] * len(tables)


@pytest.fixture(scope="module")
def classes6():
    return [harness._unflatten(flat)
            for flat in commutative_tables(6, lex_least=True)]


class TestOrderSix:
    def test_congruence_total(self, classes6):
        assert len(classes6) == 2143
        assert sum(1 for t in classes6 for _ in congruences(t)) == 51993

    def test_every_class_passes_with_one_shared_memo(self, monkeypatch):
        memos = []
        real = harness.lemma_suite

        def recording(table, known):
            memos.append(known)
            return real(table, known)

        monkeypatch.setattr(harness, "lemma_suite", recording)
        reports = list(harness.suite_reports(6))
        assert len(reports) == 2542
        assert [(n, i) for n, i, r in reports if not r.ok] == []
        known = memos[0]
        assert all(memo is known for memo in memos)
        # the distinct quotients of the classes, less the 2143 order-6
        # tables' own entries
        assert len(known) == 989

    def test_least_semilattice_congruence_is_unique_with_pi_map_fibres(
            self, classes6):
        assert [i for i, t in enumerate(classes6)
                if semilattice_congruence_mismatch(t) is not None] == []


class TestSuiteReports:
    @pytest.mark.parametrize("collapsed", [False, True])
    def test_the_shared_memo_never_changes_a_report(self, corpus4, collapsed,
                                                    request):
        if collapsed:  # order-2 tables then fail
            request.getfixturevalue("collapsed_projections")
        index = {}
        fresh = []
        for t in corpus4:
            index[t.n] = index.get(t.n, -1) + 1
            fresh.append((t.n, index[t.n], lemma_suite(t).results))
        shared = [(n, i, r.results) for n, i, r in harness.suite_reports(4)]
        assert shared == fresh
        assert collapsed == any(not r.passed
                                for *_, results in fresh for r in results)

    def test_refuses_past_the_congruence_order_before_any_walk(
            self, monkeypatch):
        walked = []
        monkeypatch.setattr(_kernel, "commutative_tables",
                            lambda n, lex_least=False: walked.append(n) or [])
        reports = harness.suite_reports(7)
        with pytest.raises(PreconditionError,
                           match=r"limited to order <= 6"):
            next(reports)
        assert walked == []
        assert [n for n, _, _ in harness.suite_reports(6)] == []
        assert walked == [1, 2, 3, 4, 5, 6]


class TestSuiteFailurePath:
    def test_quotient_checks_report_the_first_failing_congruence(
            self, collapsed_projections):
        semilattice = CayleyTable([[0, 0], [0, 1]])
        report = lemma_suite(semilattice)
        assert not report.ok
        assert report.failures == (
            CheckResult("quotient-idempotent-image", False,
                        "congruence [[0], [1]]"),
            CheckResult("quotient-h-class-lift", False,
                        "congruence [[0], [1]] class 1"),
        )
        assert lemma_suite(cyclic_table(2)).failures == (
            CheckResult("quotient-h-class-lift", False,
                        "congruence [[0], [1]] class 0"),
        )

    def test_a_quotient_idempotent_class_without_a_lift_fails(
            self, monkeypatch):
        # every two-class quotient of the null semigroup {0, 1, 2} has the
        # cells (0, 0, 0, 0); making class 1 idempotent there leaves it
        # with no idempotent of the table to lift
        real = harness._quotient_cells

        def corrupted(table, *leaf):
            cells, proj = real(table, *leaf)
            return (0, 0, 0, 1) if cells == (0,) * 4 else cells, proj

        monkeypatch.setattr(harness, "_quotient_cells", corrupted)
        assert lemma_suite(null_table(3)).failures == (
            CheckResult("quotient-idempotent-image", False,
                        "congruence [[0, 1], [2]]"),
            CheckResult("quotient-h-class-lift", False,
                        "congruence [[0, 1], [2]] class 1"),
        )

    # each check below reads only the facts it is handed, as bitmasks; a
    # wrong fact makes it fail on a table that passes the suite

    @staticmethod
    def facts(**given):
        return harness._Facts(**{name: given.get(name)
                                 for name in harness._Facts._fields})

    def test_root_ideal_absorption_reports_the_first_escape(self):
        # the subgroup at 0 in Z2 is {0, 1}; claimed as {0}, the root 1 of
        # {0} times 0 leaves it
        facts = self.facts(idempotents=(0,), h_classes=(0b01, 0b10),
                           powers=((0, 0, 0, 0), (1, 0, 1, 0)))
        check = harness._check_root_absorption
        assert check(cyclic_table(2), facts) == "e=0 x=1 y=0"

    def test_pi_homomorphism_reports_the_first_failing_pair(self):
        # swapping the idempotents 1 and 2 of the chain 0 < 1 < 2 breaks min
        facts = self.facts(pi=(0, 2, 1))
        check = harness._check_pi_homomorphism
        assert check(chain_table(3), facts) == "x=1 y=2"

    def test_h_class_products_reports_the_first_escape(self):
        # {0, 1} claimed as the subgroup at 0 in Z3 is not closed: 1 + 1 = 2
        facts = self.facts(idempotents=(0,),
                           h_classes=(0b011, 0b011, 0b100))
        check = harness._check_h_class_products
        assert check(cyclic_table(3), facts) == "e=0 f=0 a=1 b=1"

    def test_z_sets_ascending_reports_the_first_shrinking_layer(self):
        # with the subgroup at 0 in Z2 claimed as {0}, 1 has its even
        # powers in it but not its odd ones
        facts = self.facts(idempotents=(0,), h_classes=(0b01, 0b10),
                           powers=((0, 0, 0, 0), (1, 0, 1, 0)))
        check = harness._check_z_sets_ascending
        assert check(cyclic_table(2), facts) == "e=0 k=2"

    def test_pi_product_lower_bound_reports_the_first_failing_pair(self):
        # the check reads only facts.pi; this map sends 2 to 1, so
        # pi(1)pi(2) = 1 is not below pi(1*2) = pi(0) = 0
        facts = self.facts(pi=(0, 1, 1))
        check = harness._check_pi_product_lower_bound
        assert check(CayleyTable([[0, 0, 0], [0, 1, 0], [0, 0, 2]]),
                     facts) == "x=1 y=2"


def crafted_facts(table, rng):
    """The table's own facts with some redrawn at random: the pi map at a
    few elements, a few bits of the H-class masks (which then may overlap),
    and the idempotents (a random selection in random order)."""
    n = table.n
    pi = list(pi_map(table))
    for x in rng.sample(range(n), rng.randint(1, n)):
        pi[x] = rng.randrange(n)
    hs = [sum(1 << x for x in h) for h in h_classes(table)]
    for x in rng.sample(range(n), rng.randint(1, n)):
        hs[x] ^= 1 << rng.randrange(n)
    es = sorted(idempotents(table)) + rng.sample(range(n), rng.randint(0, n))
    es = rng.sample(sorted(set(es)), len(set(es)))
    powers = [[x] for x in table.elements]
    for seq, row in zip(powers, table.op):
        for _ in range(n + 1):
            seq.append(row[seq[-1]])
    return harness._Facts(tuple(es), tuple(hs), tuple(pi), powers, None)


class TestChecksAgainstFullScans:
    """The checks that read a triangle, or each element's powers once,
    against the full scans in tests/oracles.py."""

    @staticmethod
    def first(scan):
        return lambda table, facts: next(scan(table, facts), None)

    def test_the_suite_reports_what_the_full_scans_report(
            self, corpus5, monkeypatch):
        assert len(corpus5) == 399
        fast = [lemma_suite(t).results for t in corpus5]
        monkeypatch.setattr(harness, "_SUITE", tuple(
            (name, self.first(SUITE_FAILURES[name])
             if name in SUITE_FAILURES else check)
            for name, check in harness._SUITE))
        assert [lemma_suite(t).results for t in corpus5] == fast

    @pytest.mark.parametrize("name", sorted(SUITE_FAILURES))
    def test_each_check_reports_the_first_of_several_failures(
            self, corpus4, name):
        check = dict(harness._SUITE)[name]
        rng = random.Random(20)
        several = 0
        for table in corpus4 * 10:
            facts = crafted_facts(table, rng)
            failures = list(SUITE_FAILURES[name](table, facts))
            assert check(table, facts) == (failures[0] if failures else None)
            several += len(failures) >= 2
        assert several >= 200


class TestSingletonSquareScan:
    def test_null_whole_carrier(self, n3):
        assert singleton_square_scan(n3) == {0, 1, 2}

    def test_group_has_none(self, z3):
        assert singleton_square_scan(z3) is None

    def test_taimanov_quotient(self, t5):
        quotient, _ = rees_quotient(t5, {0, 1})
        # the quotient is null, so the maximal witness is everything
        assert singleton_square_scan(quotient) == {0, 1, 2, 3}

    def test_cap_trims_witness(self, n3):
        assert singleton_square_scan(n3, max_subset=2) == {0, 1}
        assert singleton_square_scan(n3, max_subset=1) is None

    def test_matches_exhaustive_scan(self, corpus4):
        from itertools import combinations
        for table in corpus4:
            best = 0
            for size in range(2, table.n + 1):
                for a in combinations(range(table.n), size):
                    if len({table.op[x][y] for x in a for y in a}) == 1:
                        best = max(best, size)
            witness = singleton_square_scan(table)
            if best == 0:
                assert witness is None
            else:
                assert witness is not None and len(witness) == best
                assert len({table.op[x][y]
                            for x in witness for y in witness}) == 1

    def test_witness_is_first_largest_for_the_least_product(self, corpus4):
        from itertools import combinations
        for table in corpus4:
            n = table.n
            found = [(table.op[a[0]][a[0]], a)
                     for size in range(2, n + 1)
                     for a in combinations(range(n), size)
                     if len({table.op[x][y] for x in a for y in a}) == 1]
            if not found:
                assert singleton_square_scan(table) is None
                continue
            largest = max(len(a) for _, a in found)
            _, first = min((s, a) for s, a in found if len(a) == largest)
            for cap in range(2, n + 1):
                assert singleton_square_scan(table, cap) == set(first[:cap])
            assert singleton_square_scan(table) == set(first)

    def test_taimanov_truncations_have_finite_shadows(self):
        # {0, 1, x} multiplies entirely to 0, so the finite truncation
        # carries a (finite) witness even though no infinite one exists
        for n in range(3, 9):
            assert singleton_square_scan(taimanov_table(n)) == {0, 1, 2}
