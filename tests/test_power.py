import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgclass import (CayleyTable, PreconditionError, chain_table,
                     cyclic_table, null_table, product_table, validate)
from sgclass.power import MAX_BASE_ORDER, power_semigroup

from oracles import subset_product


def left_zero_table(n):
    # xy = x: associative, and not commutative once n >= 2
    return CayleyTable([[x] * n for x in range(n)])


def assert_continuity(table, ps, i, j, k, m):
    """Subsets k of U = elements[i] and m of V = elements[j] multiply into
    UV, and so does each product xy of x in k and y in m, read in the base:
    the law for the members of the basic open sets of U and V."""
    op = ps.table.op
    uv = ps.elements[op[i][j]]
    b1b2 = ps.elements[op[k][m]]
    assert b1b2 <= uv
    assert all(table.op[x][y] in b1b2
               for x in ps.elements[k] for y in ps.elements[m])


class TestSubsetProduct:
    def test_chain_bottom_absorbs(self, l3):
        assert subset_product(l3, {1, 2}, {0}) == {0}

    def test_group_sums(self, z3):
        assert subset_product(z3, {0, 1}, {0, 1}) == {0, 1, 2}

    def test_singletons(self, t5):
        for x in range(5):
            for y in range(5):
                assert subset_product(t5, {x}, {y}) == {t5.op[x][y]}

    def test_rejects_empty(self, l3):
        with pytest.raises(PreconditionError, match="nonempty"):
            subset_product(l3, frozenset(), {0})


class TestPowerSemigroup:
    def test_two_chain_gives_three_chain(self):
        ps = power_semigroup(chain_table(2))
        assert ps.elements == (frozenset({0}), frozenset({1}), frozenset({0, 1}))
        # {0} <= {0,1} <= {1} under the subset product
        assert ps.table.op == ((0, 0, 0), (0, 1, 2), (0, 2, 2))

    def test_element_count(self, l3):
        assert power_semigroup(l3).table.n == 7

    def test_null_base_collapses(self, n3):
        ps = power_semigroup(n3)
        assert all(ps.table.op[i][j] == ps.index_of({0})
                   for i in range(7) for j in range(7))

    def test_index_i_holds_the_subset_with_mask_i_plus_1(self, corpus5):
        for table in corpus5:
            ps = power_semigroup(table)
            assert len(ps.elements) == (1 << table.n) - 1
            for i, subset in enumerate(ps.elements):
                assert subset == frozenset(
                    x for x in table.elements if (i + 1) >> x & 1)
                assert ps.index_of(subset) == ps.index_of(sorted(subset)) == i

    def test_index_of_refuses_the_empty_set(self, l3):
        with pytest.raises(PreconditionError,
                           match="the empty set is not an element"):
            power_semigroup(l3).index_of(set())

    def test_size_guard(self):
        for n in (MAX_BASE_ORDER + 1, 17):
            with pytest.raises(PreconditionError,
                               match=r"order <= 12 \(got %d\)" % n):
                power_semigroup(null_table(n))

    def test_table_matches_subset_product(self, corpus4, associative3, lz2):
        # associative3 and the two products hold non-commutative bases, so a
        # build that swaps the operands of U x V fails here
        z3 = cyclic_table(3)
        noncommutative6 = [product_table(lz2, z3), product_table(z3, lz2)]
        for table in corpus4 + associative3 + noncommutative6:
            ps = power_semigroup(table)
            for i, u in enumerate(ps.elements):
                for j, v in enumerate(ps.elements):
                    assert ps.elements[ps.table.op[i][j]] == \
                        subset_product(table, u, v)

    def test_sampled_cells_of_an_order_9_base(self):
        # masks up to 511 need more than one byte per cell
        table = product_table(left_zero_table(3), cyclic_table(3))
        ps = power_semigroup(table)
        rng = random.Random(9)
        for _ in range(2000):
            i, j = rng.randrange(511), rng.randrange(511)
            assert ps.elements[ps.table.op[i][j]] == subset_product(
                table, ps.elements[i], ps.elements[j])

    def test_associative_and_commutative_for_commutative_base(self, corpus3):
        for table in corpus3:
            report = validate(power_semigroup(table).table)
            assert report.associative
            assert report.commutative

    def test_noncommutative_base_stays_noncommutative(self, lz2):
        report = validate(power_semigroup(lz2).table)
        assert report.associative
        assert not report.commutative

    @pytest.mark.parametrize("x", [5, True, -1, 3])
    def test_singleton_index_rejects_non_elements(self, l3, x):
        ps = power_semigroup(l3)
        with pytest.raises(PreconditionError, match="out of range"):
            ps.singleton_index(x)

    def test_singleton_embedding(self, corpus3):
        for table in corpus3:
            ps = power_semigroup(table)
            images = {ps.singleton_index(x) for x in table.elements}
            assert len(images) == table.n
            for x in table.elements:
                for y in table.elements:
                    assert ps.table.op[ps.singleton_index(x)][ps.singleton_index(y)] \
                        == ps.singleton_index(table.op[x][y])


class TestContinuityLaw:
    def test_exhaustive_small(self, associative3):
        # every associative base of order <= 3, so a build that swaps the
        # operands of U x V breaks the law on the non-commutative ones
        for table in associative3:
            ps = power_semigroup(table)
            below = [[k for k, b in enumerate(ps.elements) if b <= u]
                     for u in ps.elements]
            for i, j in product(range(len(ps.elements)), repeat=2):
                for k in below[i]:
                    for m in below[j]:
                        assert_continuity(table, ps, i, j, k, m)

    @settings(max_examples=80)
    @given(st.data())
    def test_sampled_order_4_and_5(self, corpus5, data):
        lz2 = left_zero_table(2)
        noncommutative = [left_zero_table(4), left_zero_table(5),
                          product_table(lz2, cyclic_table(2)),
                          product_table(chain_table(2), lz2)]
        pool = data.draw(st.sampled_from(
            [noncommutative, [t for t in corpus5 if t.n >= 4]]))
        table = data.draw(st.sampled_from(pool))
        ps = power_semigroup(table)
        mask = st.integers(1, (1 << table.n) - 1)
        b1 = data.draw(mask)
        b2 = data.draw(mask)
        u = data.draw(mask) | b1  # force b1 <= u, b2 <= v
        v = data.draw(mask) | b2
        # index i holds the subset with mask i + 1
        assert_continuity(table, ps, u - 1, v - 1, b1 - 1, b2 - 1)
