"""Tables built through `CayleyTable._trusted`, which skips the checks.

Each trusted path must still give a table equal to the checked one: `op` a
tuple of tuples of int, since equality and hashing compare `op`, and a list
there would make equal tables compare unequal without any error.
"""

import pytest

from sgclass import CayleyTable, cyclic_table, product_table
from sgclass.cli import parse_table, render_table
from sgclass.power import power_semigroup
from sgclass.quotients import (congruences, generated_ideal,
                               quotient_by_congruence, rees_quotient)


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
