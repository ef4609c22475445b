import pytest

from sgclass import _kernel, harness
from sgclass._kernel import canonical_form, commutative_tables
from sgclass.core import (CayleyTable, PreconditionError, cyclic_table,
                          taimanov_table, validate)
from sgclass.harness import (CheckResult, enumerate_commutative,
                             enumerate_commutative_naive, iso_class_count,
                             lemma_suite,
                             singleton_square_scan)
from sgclass.quotients import rees_quotient


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
        # orbit sweeping over all labeled tables is independent of the
        # canonical-form kernel
        assert iso_class_count(enumerate_commutative(4)) == 58

    def test_representatives_are_canonical_and_cover(self):
        n = 3
        reps = {t.op for t in enumerate_commutative(n, up_to_iso=True)}
        for t in enumerate_commutative(n):
            flat = tuple(v for row in t.op for v in row)
            canon = _kernel.canonical_form(flat, n)
            as_rows = tuple(tuple(canon[i * n + j] for j in range(n))
                            for i in range(n))
            assert as_rows in reps


class TestOrderlyGeneration:
    def test_equals_filtered_labeled_output(self):
        for n in (1, 2, 3, 4):
            filtered = [f for f in commutative_tables(n)
                        if canonical_form(f, n) == f]
            assert commutative_tables(n, lex_least=True) == filtered

    def test_every_emitted_table_is_canonical(self):
        for n in (1, 2, 3, 4, 5):
            for f in commutative_tables(n, lex_least=True):
                assert canonical_form(f, n) == f

    def test_one_table_per_class_in_sorted_order(self):
        # the walk fills cells in row-major order with ascending values, so
        # both outputs come out sorted
        for n in (2, 3, 4):
            labeled = commutative_tables(n)
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


    def test_one_congruence_sweep_and_one_quotient_per_congruence(
            self, corpus4, monkeypatch):
        calls = {"congruences": 0, "quotients": 0}
        real_congruences = harness.congruences
        real_quotient = harness.quotient_by_congruence

        def counted_congruences(table):
            calls["congruences"] += 1
            return real_congruences(table)

        def counted_quotient(table, cong):
            calls["quotients"] += 1
            return real_quotient(table, cong)

        monkeypatch.setattr(harness, "congruences", counted_congruences)
        monkeypatch.setattr(harness, "quotient_by_congruence",
                            counted_quotient)
        for table in corpus4:
            calls.update(congruences=0, quotients=0)
            assert lemma_suite(table).ok
            assert calls == {"congruences": 1,
                             "quotients": len(list(real_congruences(table)))}


    def test_refuses_tables_past_the_congruence_order_before_any_check(
            self, monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "_SUITE", tuple(
            (name, lambda table, quotients, name=name: ran.append(name))
            for name, _ in harness._SUITE))
        with pytest.raises(PreconditionError,
                           match=r"limited to order <= 6"):
            lemma_suite(cyclic_table(7))
        assert ran == []


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
