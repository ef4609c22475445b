"""Tables built through `CayleyTable._trusted`, and congruences built
through `Congruence._trusted`, both of which skip the checks.

Each trusted path must still give a table equal to the checked one: `op` a
tuple of tuples of int, since equality and hashing compare `op`, and a list
there would make equal tables compare unequal without any error.  Likewise
each searched congruence must carry the same `n`, `classes` and `class_of`
as the checked constructor would give it.
"""

import pytest

from sgclass import CayleyTable, cyclic_table, harness, product_table
from sgclass.core import parse_table, render_table
from sgclass.power import power_semigroup
from sgclass.quotients import (Congruence, congruences,
                               quotient_by_congruence, rees_quotient)

from oracles import generated_ideal


def assert_checked_equal(t):
    assert type(t.op) is tuple
    assert all(type(row) is tuple for row in t.op)
    assert all(type(v) is int for row in t.op for v in row)
    checked = CayleyTable(t.op)
    assert t == checked and hash(t) == hash(checked)
    assert t.n == checked.n


@pytest.fixture(scope="module")
def bases(corpus4):
    lz2 = CayleyTable([[0, 0], [1, 1]])
    return corpus4 + [product_table(lz2, cyclic_table(3))]


def test_enumerated_tables(corpus4):
    for t in corpus4:
        assert_checked_equal(t)


def test_parsed_tables(corpus4):
    for t in corpus4:
        parsed = parse_table(render_table(t))
        assert_checked_equal(parsed)
        assert parsed == t


def test_power_semigroup_tables(bases):
    for t in bases:
        assert_checked_equal(power_semigroup(t).table)


def test_congruence_quotients(bases):
    for t in bases:
        for cong in congruences(t):
            assert_checked_equal(quotient_by_congruence(t, cong)[0])


def test_rees_quotients(bases):
    for t in bases:
        for x in t.elements:
            assert_checked_equal(rees_quotient(t, generated_ideal(t, {x}))[0])
        assert_checked_equal(rees_quotient(t, set(t.elements))[0])


def test_searched_congruences_equal_checked_ones(corpus5):
    for t in corpus5:
        for cong in congruences(t):
            checked = Congruence(cong.classes)
            assert cong.n == checked.n == t.n
            assert cong.classes == checked.classes
            assert cong.class_of == checked.class_of
            assert type(cong.classes) is tuple
            assert all(type(c) is frozenset for c in cong.classes)
            assert type(cong.class_of) is tuple
            assert cong == checked and hash(cong) == hash(checked)


def test_suite_quotients_equal_checked_ones(corpus5):
    # the suite skips quotient_by_congruence's check for searched congruences
    for t in corpus5:
        for cong in congruences(t):
            cells, proj = harness._quotient_cells(t, cong)
            quotient = harness._unflatten(cells)
            assert_checked_equal(quotient)
            assert (quotient, proj) == quotient_by_congruence(t, cong)
