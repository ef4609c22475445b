from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgclass import (CayleyTable, PreconditionError, chain_table,
                     cyclic_table, h_class, idempotents, null_table,
                     product_table, taimanov_table, validate)
from sgclass._kernel import canonical_form
from sgclass.quotients import (Congruence, congruence_closure,
                               congruence_violation, congruences,
                               generated_ideal, ideal_violation,
                               is_congruence, is_ideal,
                               lift_idempotent, quotient_by_congruence,
                               rees_congruence, rees_quotient)


def _restricted_growth_strings(n):
    rgs = [0] * n

    def rec(i, maxc):
        if i == n:
            yield tuple(rgs)
            return
        for c in range(maxc + 2):
            rgs[i] = c
            yield from rec(i + 1, max(maxc, c))

    yield from rec(0, -1)


def bell_filter_congruences(table):
    """Oracle: every set partition, in restricted-growth-string order, kept
    when it is compatible with the table."""
    for rgs in _restricted_growth_strings(table.n):
        groups = {}
        for x, c in enumerate(rgs):
            groups.setdefault(c, []).append(x)
        cong = Congruence(groups.values())
        if is_congruence(table, cong):
            yield cong


class TestIsIdeal:
    def test_taimanov_special_pair(self, t5):
        assert is_ideal(t5, {0, 1})

    def test_chain_top_is_not(self, l3):
        assert not is_ideal(l3, {2})

    def test_empty_set(self, z3, l3, t5):
        for table in (z3, l3, t5):
            assert is_ideal(table, frozenset())


class TestGeneratedIdeal:
    def test_chain(self, l3):
        assert generated_ideal(l3, {1}) == {0, 1}

    def test_group_has_no_proper_ideals(self, z3):
        assert generated_ideal(z3, {1}) == {0, 1, 2}

    def test_taimanov(self, t5):
        assert generated_ideal(t5, {4}) == {0, 1, 4}

    def test_seed_may_be_any_iterable(self, l3):
        assert generated_ideal(l3, iter([1])) == {0, 1}
        assert ideal_violation(l3, (x for x in (0, 1))) is None

    def test_result_is_least(self, corpus3):
        for table in corpus3:
            for x in table.elements:
                ideal = generated_ideal(table, {x})
                assert is_ideal(table, ideal)
                # least: drop any non-seed element and absorption breaks
                for y in sorted(ideal - {x}):
                    assert not is_ideal(table, ideal - {y})


class TestNonElements:
    # a negative index would wrap round and a large one raise IndexError

    @pytest.mark.parametrize("subset", [{0, -1}, {-1}, {5}, {0, 3}, {True}])
    @pytest.mark.parametrize("routine", [ideal_violation, is_ideal,
                                         generated_ideal, rees_congruence,
                                         rees_quotient])
    def test_ideal_routines_refuse_them(self, routine, subset, n3):
        with pytest.raises(PreconditionError, match="out of range"):
            routine(n3, subset)

    @pytest.mark.parametrize("pair", [(0, 1.5), (0, 3), (-1, 0), (0, None)])
    def test_congruence_closure_refuses_them(self, pair, z3):
        with pytest.raises(PreconditionError, match="out of range"):
            congruence_closure(z3, [(0, 0), pair])


class TestReesQuotient:
    def test_taimanov_quotient_is_null(self, t5):
        quotient, proj = rees_quotient(t5, {0, 1})
        assert quotient == null_table(4)
        assert proj == (0, 0, 1, 2, 3)

    def test_collapsing_singleton_bottom_of_chain(self, l3):
        quotient, proj = rees_quotient(l3, {0})
        assert quotient == chain_table(3)
        assert proj == (0, 1, 2)

    def test_collapsing_everything(self, z3):
        quotient, proj = rees_quotient(z3, {0, 1, 2})
        assert quotient.n == 1
        assert proj == (0, 0, 0)

    def test_empty_ideal_is_identity(self, t5):
        quotient, proj = rees_quotient(t5, frozenset())
        assert quotient is t5
        assert proj == (0, 1, 2, 3, 4)

    def test_rejects_non_ideal(self, l3):
        with pytest.raises(PreconditionError, match="not an ideal"):
            rees_quotient(l3, {2})

    def test_sink_absorbs(self, t5):
        quotient, proj = rees_quotient(t5, {0, 1})
        assert all(quotient.op[0][c] == 0 and quotient.op[c][0] == 0
                   for c in quotient.elements)

    def test_projection_is_homomorphism(self, corpus4):
        for table in corpus4:
            for x in table.elements:
                ideal = generated_ideal(table, {x})
                quotient, proj = rees_quotient(table, ideal)
                for a in table.elements:
                    for b in table.elements:
                        assert proj[table.op[a][b]] == \
                            quotient.op[proj[a]][proj[b]]


class TestCongruenceClosure:
    def test_chain_pair_already_compatible(self, l3):
        assert congruence_closure(l3, [(1, 2)]) == Congruence([(0,), (1, 2)])

    def test_chain_pair_that_spreads(self, l3):
        assert congruence_closure(l3, [(0, 2)]) == Congruence([(0, 1, 2)])

    def test_empty_gives_identity(self, z4):
        assert congruence_closure(z4, []) == Congruence.identity(4)

    @settings(max_examples=60)
    @given(st.data())
    def test_least_congruence_containing_pairs(self, corpus3, data):
        table = data.draw(st.sampled_from(corpus3))
        k = data.draw(st.integers(0, 2))
        pairs = [
            (data.draw(st.integers(0, table.n - 1)),
             data.draw(st.integers(0, table.n - 1)))
            for _ in range(k)
        ]
        closure = congruence_closure(table, pairs)
        assert is_congruence(table, closure)
        cf = closure.class_of
        assert all(cf[x] == cf[y] for x, y in pairs)
        # least: every congruence containing the pairs is coarser
        for cong in congruences(table):
            if all(cong.class_of[x] == cong.class_of[y] for x, y in pairs):
                assert all(
                    cong.class_of[a] == cong.class_of[b]
                    for cls in closure.classes
                    for a in cls for b in cls)


class TestQuotientByCongruence:
    def test_chain_modulo_top_pair(self, l3):
        quotient, proj = quotient_by_congruence(l3, Congruence([(0,), (1, 2)]))
        assert quotient == chain_table(2)
        assert proj == (0, 1, 1)

    def test_matches_rees_construction(self, t5):
        by_cong, proj_c = quotient_by_congruence(t5, rees_congruence(t5, {0, 1}))
        by_rees, proj_r = rees_quotient(t5, {0, 1})
        assert by_cong == by_rees
        assert proj_c == proj_r

    def test_cosets_of_z4(self, z4):
        quotient, proj = quotient_by_congruence(z4, Congruence([(0, 2), (1, 3)]))
        assert quotient == cyclic_table(2)
        assert proj == (0, 1, 0, 1)

    def test_rejects_incompatible_partition(self, l3):
        bad = Congruence([(0, 2), (1,)])
        assert congruence_violation(l3, bad) is not None
        with pytest.raises(PreconditionError, match="not a congruence"):
            quotient_by_congruence(l3, bad)

    def test_idempotents_surject(self, corpus4):
        for table in corpus4:
            source = idempotents(table)
            for cong in congruences(table):
                quotient, proj = quotient_by_congruence(table, cong)
                assert idempotents(quotient) == {proj[e] for e in source}


class TestLiftIdempotent:
    def test_chain(self, l3):
        cong = Congruence([(0,), (1, 2)])
        assert lift_idempotent(l3, cong, 1) == 1
        quotient, proj = quotient_by_congruence(l3, cong)
        assert {proj[x] for x in h_class(l3, 1)} == h_class(quotient, 1)

    def test_z4_cosets(self, z4):
        assert lift_idempotent(z4, Congruence([(0, 2), (1, 3)]), 0) == 0

    def test_taimanov_sink(self, t5):
        assert lift_idempotent(t5, rees_congruence(t5, {0, 1}), 0) == 0

    def test_rejects_non_idempotent_class(self, z4):
        cong = Congruence([(0, 2), (1, 3)])
        with pytest.raises(PreconditionError, match="not idempotent"):
            lift_idempotent(z4, cong, 1)

    def test_rejects_noncommutative_table(self, lz2):
        with pytest.raises(PreconditionError, match="commutative table"):
            lift_idempotent(lz2, Congruence.identity(2), 0)

    def test_subgroup_image_exhaustive(self, corpus4):
        # the subgroup at the lifted idempotent projects onto the subgroup
        # at the quotient idempotent, over every congruence
        for table in corpus4:
            for cong in congruences(table):
                quotient, proj = quotient_by_congruence(table, cong)
                for e_class in sorted(idempotents(quotient)):
                    s = lift_idempotent(table, cong, e_class)
                    assert {proj[x] for x in h_class(table, s)} == \
                        h_class(quotient, e_class)


    def test_oracle_least_idempotent_of_every_class(self, corpus4):
        # brute force, independent of any quotient: the lift is the
        # idempotent of the class below every other one in the natural
        # order; a class with no idempotent and a class index past the
        # last are refused
        for table in corpus4:
            op = table.op
            es = idempotents(table)
            for cong in congruences(table):
                for e_class, cls in enumerate(cong.classes):
                    inside = [f for f in sorted(cls) if f in es]
                    if not inside:
                        with pytest.raises(PreconditionError,
                                           match="not idempotent"):
                            lift_idempotent(table, cong, e_class)
                        continue
                    s = lift_idempotent(table, cong, e_class)
                    assert s in inside
                    assert all(op[s][f] == s for f in inside)
                for bad in (-1, len(cong.classes)):
                    with pytest.raises(PreconditionError, match="out of range"):
                        lift_idempotent(table, cong, bad)


class TestReesComposition:
    def test_ideal_image_is_ideal_and_quotients_compose(self, corpus4, t5):
        for table in list(corpus4[-20:]) + [t5]:
            elements = list(table.elements)
            seeds = [(elements[0],), (elements[-1],)]
            for seed_i in seeds:
                for seed_j in seeds:
                    i = generated_ideal(table, seed_i)
                    j = generated_ideal(table, seed_j)
                    once, proj1 = rees_quotient(table, i)
                    image = {proj1[x] for x in j} | {0}
                    assert is_ideal(once, image)
                    twice, _ = rees_quotient(once, image)
                    direct, _ = rees_quotient(table, i | j)
                    flat = lambda t: tuple(v for row in t.op for v in row)
                    assert canonical_form(flat(twice), twice.n) == \
                        canonical_form(flat(direct), direct.n)


class TestSubgroupSubsetGrowth:
    def test_products_inside_one_subgroup_do_not_shrink(self, corpus5):
        # |AA| >= |A| for A inside a single subgroup: group shifts are
        # injective
        for table in corpus5:
            for e in sorted(idempotents(table)):
                he = sorted(h_class(table, e))
                for size in range(2, len(he) + 1):
                    for a in combinations(he, size):
                        products = {table.op[x][y] for x in a for y in a}
                        assert len(products) >= size


class TestCongruenceEnumeration:
    def test_counts_against_partition_filter(self, l3, z4):
        # oracle: congruences are exactly the compatible partitions
        assert len(list(congruences(l3))) == 4
        assert len(list(congruences(z4))) == 3  # one per subgroup of Z4

    def test_constant_operation_accepts_every_partition(self):
        # Bell(4) = 15 partitions, all compatible with a null table
        assert len(list(congruences(null_table(4)))) == 15

    def test_prime_cyclic_group_has_only_trivial_quotients(self):
        assert len(list(congruences(cyclic_table(5)))) == 2

    def test_guard(self):
        with pytest.raises(PreconditionError):
            next(congruences(null_table(7)))

    def test_same_list_as_bell_filter_on_corpus5(self, corpus5):
        for table in corpus5:
            assert list(congruences(table)) == \
                list(bell_filter_congruences(table))

    def test_same_list_as_bell_filter_on_every_small_table(self, associative3):
        # the non-commutative tables need both translation sides
        for table in associative3:
            assert list(congruences(table)) == \
                list(bell_filter_congruences(table))

    def test_same_list_as_bell_filter_beside_a_left_zero_band(self, lz2):
        for right in (cyclic_table(3), chain_table(3)):
            table = product_table(lz2, right)
            assert list(congruences(table)) == \
                list(bell_filter_congruences(table))

    def test_totals_per_order(self, corpus5):
        totals = {}
        for table in corpus5:
            totals[table.n] = totals.get(table.n, 0) + \
                len(list(congruences(table)))
        assert totals == {1: 1, 2: 6, 3: 44, 4: 392, 5: 4106}
