"""Oracles for the orderly generator's relabeling test.

`is_canonical` runs `_advance`, the routine the orderly walk advances its
live relabelings with, over every relabeling; `ungrouped_is_canonical` is
the plain loop written out on its own (the test names keep the word from
the pair-grouped test it once checked).  The orbit sum checks the
generator at orders where the labeled filter is too slow to run.  The
labeled output, the classes' relabelings, is checked against the row-wise
`labeled_tables`, which shares no kernel code.
"""

import gc
import hashlib
import random
from functools import lru_cache
from itertools import product
from math import factorial

import pytest

from sgclass._kernel import _relabelings, commutative_tables, is_canonical
from sgclass.core import CayleyTable
from sgclass.quotients import congruences

from oracles import labeled_prefixes, labeled_tables


def ungrouped_is_canonical(flat, n, rows):
    end = rows * n
    for perm, src, _ in _relabelings(n):
        for k in range(end):
            a = flat[src[k]]
            if a < 0:
                break
            v = perm[a]
            w = flat[k]
            if v != w:
                if v < w:
                    return False
                break
    return True


def symmetric_prefixes(n, rows):
    """Every prefix whose rows 0..rows-1, mirrored into the columns, hold
    any values, associative or not; the other cells are unset."""
    cells = [(i, j) for i in range(rows) for j in range(i, n)]
    for values in product(range(n), repeat=len(cells)):
        flat = [-1] * (n * n)
        for (i, j), v in zip(cells, values):
            flat[i * n + j] = flat[j * n + i] = v
        yield flat


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_grouped_agrees_with_ungrouped_on_the_labeled_walk(n):
    answers = []
    for flat, rows in labeled_prefixes(n):
        answer = is_canonical(flat, n, rows)
        assert answer == ungrouped_is_canonical(flat, n, rows), (flat, rows)
        answers.append(answer)
    assert True in answers
    assert (False in answers) == (n >= 2)


@pytest.mark.parametrize("n, rows", [
    (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
    (4, 1), (4, 2), (5, 1),
])
def test_grouped_agrees_with_ungrouped_on_any_prefix(n, rows):
    answers = {"0*0 > 0": set(), "0*1 >= 2": set()}
    for flat in symmetric_prefixes(n, rows):
        answer = is_canonical(flat, n, rows)
        assert answer == ungrouped_is_canonical(flat, n, rows), (flat, rows)
        if flat[0] > 0:
            answers["0*0 > 0"].add(answer)
        if n > 1 and flat[1] >= 2:
            answers["0*1 >= 2"].add(answer)
    if rows and n >= 3:
        assert answers == {"0*0 > 0": {False, True}, "0*1 >= 2": {False, True}}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_grouped_agrees_with_ungrouped_on_partial_tables(n):
    # rows 0..rows-1 set, every other cell unset or any value, commutative
    # or not: past the row-complete prefixes of the walk, a group's second
    # cell can be unset while its first is set
    rng = random.Random(n)
    answers = set()
    for _ in range(4000):
        rows = rng.randint(1, n)
        flat = [rng.randrange(n) if k < rows * n or rng.random() < 0.5
                else -1 for k in range(n * n)]
        answer = is_canonical(flat, n, rows)
        assert answer == ungrouped_is_canonical(flat, n, rows), (flat, rows)
        answers.add(answer)
    assert answers == {False, True}


def automorphism_count(flat, n):
    count = 1  # the identity
    for perm, src, _ in _relabelings(n):
        for k in range(n * n):
            if perm[flat[src[k]]] != flat[k]:
                break
        else:
            count += 1
    return count


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_relabeling_data_is_read_from_perm(n):
    # src[i * n + j] holds the cell that perm carries to (i, j); settles[w]
    # the v with perm[v] = w and the bitmask of the v with perm[v] < w
    rels = _relabelings(n)
    assert len(rels) == factorial(n) - 1
    assert tuple(range(n)) not in [perm for perm, _, _ in rels]
    for perm, src, settles in rels:
        assert src == tuple(perm.index(i) * n + perm.index(j)
                            for i in range(n) for j in range(n))
        assert settles == tuple(
            (perm.index(w), sum(1 << v for v in range(n) if perm[v] < w))
            for w in range(n))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_equal_settle_pairs_are_one_object(n):
    # one object per distinct (v, mask), so the cache holds at most
    # n * 2^(n - 1) pairs however many relabelings share them
    pairs = [pair for _, _, settles in _relabelings(n) for pair in settles]
    assert len({id(pair) for pair in pairs}) == len(set(pairs))
    assert len(set(pairs)) <= n * 2 ** (n - 1) < len(pairs)


@lru_cache(maxsize=None)
def classes(n):
    # one enumeration per order, shared by the orbit sum and the digest pin
    return commutative_tables(n, lex_least=True)


# Commutative semigroups on n labeled elements (counted by the row-wise
# `labeled_tables` at orders 1..5; by a counting copy of an earlier labeled
# walk at order 6).
LABELED = {1: 1, 2: 6, 3: 63, 4: 1140, 5: 30730, 6: 1185072}


@pytest.mark.parametrize("n", sorted(LABELED))
def test_orbit_sum_over_classes_is_the_labeled_count(n):
    # orbit-stabilizer: the class of T holds n!/|Aut T| labeled tables, so
    # one table per class, and no class missed, sums to the labeled count
    total = 0
    for flat in classes(n):
        size, rest = divmod(factorial(n), automorphism_count(flat, n))
        assert rest == 0
        total += size
    assert total == LABELED[n]


def emission_digest(tables):
    h = hashlib.sha256()
    for flat in tables:
        h.update(bytes(flat))
    return h.hexdigest()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_expansion_equals_the_row_wise_labeled_tables(n):
    # order 5 takes the row-wise reference seconds; the pinned digest below
    # holds the labeled output there
    assert commutative_tables(n) == labeled_tables(n)


def test_labeled_emission_order_is_pinned():
    tables = commutative_tables(5)
    assert len(tables) == 30730
    assert emission_digest(tables) == (
        "dec1909f22b595c4d77b3665f95cb205f8d9fe0ed8038b9cd05c07f937fd038c")


def test_orderly_emission_order_is_pinned():
    tables = classes(6)
    assert len(tables) == 2143
    assert emission_digest(tables) == (
        "cdf67f50e0a0a47a45d0fd0b19bd30defd763201487398a6c5d1d62f4f239b51")


def test_the_walk_and_the_congruence_search_leave_no_cyclic_garbage():
    # both recurse through a nested function that names itself; with that
    # cycle broken, refcounting alone frees their state
    tables = [CayleyTable._trusted([flat[i * 4:(i + 1) * 4] for i in range(4)])
              for flat in classes(4)]
    gc.collect()
    gc.disable()
    try:
        for n in range(1, 6):
            commutative_tables(n, lex_least=True)
        for table in tables:
            list(congruences(table))
        assert gc.collect() == 0
    finally:
        gc.enable()
