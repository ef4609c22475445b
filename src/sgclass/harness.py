"""Exhaustive small-order enumerator plus the property-verification suite.

The backtracking enumerator is cross-checked against a naive filter over
all tables at orders <= 3, which lives with the other test-only oracles in
tests/oracles.py; the suite then asserts the structural facts every
commutative table must satisfy, which is the acceptance backbone for
everything built on top.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import _kernel
from .core import (CayleyTable, PreconditionError, _first_idempotent, _mask,
                   _members, _positive_int, _unflatten, center, h_classes,
                   idempotents)
from .quotients import (Congruence, _check_congruence_order,
                        _congruence_leaves, _lifts, _quotient_cells)

MAX_ENUM_ORDER = 5


def kernel_backend() -> str:
    """The enumeration kernel in use; the only one is pure Python."""
    return "python"


def enumerate_commutative(n, up_to_iso=False):
    """Every commutative associative table of order n, exactly once.

    With up_to_iso, only tables equal to their own canonical (lex-least)
    relabeling are emitted, one per isomorphism class; they are generated
    orderly, without building the other labeled tables.  Without it, the
    labeled tables are those classes' relabelings.  Either way tables come
    in ascending order of their rows, so the classes keep their labeled
    order.
    """
    if not _positive_int(n) or n > MAX_ENUM_ORDER:
        raise ValueError("order must be an integer in 1..%d" % MAX_ENUM_ORDER)
    for flat in _kernel.commutative_tables(n, lex_least=up_to_iso):
        yield _unflatten(flat)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    counterexample: Optional[str] = None


class SuiteReport(NamedTuple):
    table: CayleyTable
    results: tuple

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> tuple:
        return tuple(r for r in self.results if not r.passed)


class _Facts(NamedTuple):
    """What the checks of one `lemma_suite` call share, each computed once
    per call or, for the quotient facts, once per `known`.  Sets of
    elements are int bitmasks.  powers[x] is x, x^2, ..., x^(n+2), and
    quotients holds (class_of, projection, quotient idempotents, quotient
    H-classes) for every congruence of the table, in search order, class_of
    being the congruence's restricted-growth labels.
    """
    idempotents: tuple  # ascending
    h_classes: tuple  # entry x: the H-class of x
    pi: tuple
    powers: list
    quotients: list


def _check_root_absorption(table, facts):
    # products of the root set of a maximal subgroup (the x some power of
    # which lies in it) with the subgroup itself must stay inside it
    op = table.op
    reach = [_mask(seq) for seq in facts.powers]
    for e in facts.idempotents:
        he = facts.h_classes[e]
        for x in range(table.n):
            if reach[x] & he:
                for y in _members(he):
                    if not (he >> op[x][y]) & (he >> op[y][x]) & 1:
                        return "e=%d x=%d y=%d" % (e, x, y)
    return None


# The table is commutative, so the pair checks below fail at (x, y) exactly
# when they fail at (y, x), for any facts: the first failure in row-major
# order lies in the triangle x <= y, and only that triangle is read.

def _check_pi_homomorphism(table, facts):
    pi = facts.pi
    op = table.op
    for x in table.elements:
        row = op[x]
        image = op[pi[x]]
        for y in range(x, table.n):
            if pi[row[y]] != image[pi[y]]:
                return "x=%d y=%d" % (x, y)
    return None


def _check_h_class_products(table, facts):
    # the triangle is over the positions of e and f in facts.idempotents,
    # and over a <= b when both are the same position
    op = table.op
    es = facts.idempotents
    hs = facts.h_classes
    for i, e in enumerate(es):
        row = op[e]
        he = _members(hs[e])
        for j in range(i, len(es)):
            f = es[j]
            target = hs[row[f]]
            hf = _members(hs[f])
            for k, a in enumerate(he):
                products = op[a]
                for b in he[k:] if i == j else hf:
                    if not target >> products[b] & 1:
                        return "e=%d f=%d a=%d b=%d" % (e, f, a, b)
    return None


def _check_pi_product_lower_bound(table, facts):
    # e and f are idempotent by construction, so natural_le's checks are skipped
    pi = facts.pi
    op = table.op
    for x in table.elements:
        row = op[x]
        image = op[pi[x]]
        for y in range(x, table.n):
            e = image[pi[y]]
            f = pi[row[y]]
            if not op[e][f] == e == op[f][e]:
                return "x=%d y=%d" % (x, y)
    return None


def _check_z_sets_ascending(table, facts):
    # layer k of z_sets(table, e, n + 2) holds the z, all central in a
    # commutative table, with z^(k+1) in the maximal subgroup at e.  A layer
    # loses z exactly where z^k lies in it and z^(k+1) does not, so each z's
    # powers are read once, with bit i of owners[x] set when x lies in the
    # subgroup at the i-th idempotent.
    es = facts.idempotents
    hs = facts.h_classes
    owners = [0] * table.n
    for i, e in enumerate(es):
        for x in _members(hs[e]):
            owners[x] |= 1 << i
    lost = [0] * (table.n + 2)  # entry k: the i whose layer k loses a z
    for seq in facts.powers:
        for k in range(1, table.n + 2):
            lost[k] |= owners[seq[k - 1]] & ~owners[seq[k]]
    if not any(lost):
        return None
    i = min((m & -m).bit_length() - 1 for m in lost if m)
    k = next(k for k, m in enumerate(lost) if m >> i & 1)
    return "e=%d k=%d" % (es[i], k)


def _congruence_text(class_of):
    return "congruence %r" % (
        [sorted(c) for c in Congruence._trusted(class_of).classes],)


def _check_quotient_idempotent_image(table, facts):
    source_e = facts.idempotents
    for class_of, proj, quotient_e, _ in facts.quotients:
        image = 0
        for e in source_e:
            image |= 1 << proj[e]
        if image != quotient_e:
            return _congruence_text(class_of)
    return None


def _check_quotient_h_class_lift(table, facts):
    # the lift is grouped by the congruence's classes and its image taken
    # through the projection; a finite quotient's idempotent class holds an
    # idempotent, and the lift is one, as the idempotents commute.  A class
    # that holds none has no lift and an empty image, which fails, as the
    # quotient H-class holds the class itself.
    es = facts.idempotents
    subgroups = {e: _members(facts.h_classes[e]) for e in es}
    for class_of, proj, quotient_e, quotient_hs in facts.quotients:
        lifts = _lifts(table, class_of, es)
        for e_class in _members(quotient_e):
            image = 0
            if e_class in lifts:
                for x in subgroups[lifts[e_class]]:
                    image |= 1 << proj[x]
            if image != quotient_hs[e_class]:
                return "%s class %d" % (_congruence_text(class_of), e_class)
    return None


_SUITE = (
    ("root-ideal-absorption", _check_root_absorption),
    ("pi-homomorphism", _check_pi_homomorphism),
    ("h-class-products", _check_h_class_products),
    ("pi-product-lower-bound", _check_pi_product_lower_bound),
    ("z-sets-ascending", _check_z_sets_ascending),
    ("quotient-idempotent-image", _check_quotient_idempotent_image),
    ("quotient-h-class-lift", _check_quotient_h_class_lift),
)

SUITE_CHECK_NAMES = tuple(name for name, _ in _SUITE)


# a passing check allocates nothing; only a failure carries its own result
_PASSED = {name: CheckResult(name, True) for name, _ in _SUITE}


def lemma_suite(table, known=None) -> SuiteReport:
    """Run every structural check on one commutative table.

    Failures come back as data (name plus minimal counterexample), never
    as exceptions, for commutative tables of order up to
    quotients.MAX_CONGRUENCE_ORDER.  A non-commutative table, or a larger
    one, is refused with PreconditionError before any check runs; each
    pair check then reads only the triangle x <= y of the table.

    The seven checks share one `_Facts`.  The congruences come from
    `quotients._congruence_leaves`, the search behind `congruences`, each
    as its labels and its classes' least members, so no `Congruence` is
    built unless a check fails.  Each quotient's cells come from
    `quotients._quotient_cells`, the builder `quotient_by_congruence` uses,
    and each lift from `quotients._lifts`, as `lift_idempotent` reads it.
    The idempotents and H-classes of each distinct quotient are computed
    once and kept in `known`, a dict keyed by the quotient's flat cells and
    holding its bitmasks; a quotient table is built only when its cells are
    missing.  The table's own facts come from there too, as the entry its
    identity congruence, the last one searched, finds.  Its powers are
    walked once per call, and its pi map is read from them with
    `core._first_idempotent`, as `pi_map` reads it.  `suite_reports` passes
    one `known` to every table of its run, so a quotient met again is not
    recomputed; without one, a fresh dict serves this call alone.
    """
    if known is None:
        known = {}
    if len(center(table)) != table.n:
        raise PreconditionError("the lemma suite requires a commutative table")
    # every congruence comes from the search, so each quotient skips
    # quotient_by_congruence's compatibility check
    quotients = []
    for class_of, reps in _congruence_leaves(table):
        cells, proj = _quotient_cells(table, class_of, reps)
        shared = known.get(cells)
        if shared is None:
            quotient = _unflatten(cells)
            shared = known[cells] = (_mask(idempotents(quotient)),
                                     tuple(map(_mask, h_classes(quotient))))
        quotients.append((class_of, proj) + shared)
    es, hs = shared  # the identity congruence's: the table's own
    powers = [[x] for x in table.elements]
    for seq, row in zip(powers, table.op):
        for _ in range(table.n + 1):
            seq.append(row[seq[-1]])
    pi = tuple(_first_idempotent(table, x, seq) for x, seq in enumerate(powers))
    facts = _Facts(_members(es), hs, pi, powers, quotients)
    results = []
    for name, check in _SUITE:
        ce = check(table, facts)
        results.append(_PASSED[name] if ce is None
                       else CheckResult(name, False, ce))
    return SuiteReport(table, tuple(results))


def suite_reports(max_order):
    """(order, index, report) for the lex-least table of each class at
    orders 1..max_order, in `enumerate --up-to-iso` order, all sharing one
    `known`, which keeps no top-order table's own entry past its report.
    A max_order that the congruence search refuses is refused at the first
    `next()`, before any walk.
    """
    _check_congruence_order(max_order)
    known = {}
    for n in range(1, max_order + 1):
        tables = _kernel.commutative_tables(n, lex_least=True)
        for idx, flat in enumerate(tables):
            yield n, idx, lemma_suite(_unflatten(flat), known)
            if n == max_order:  # every other quotient has a lower order
                del known[flat]


__all__ = [
    "CheckResult", "SuiteReport", "enumerate_commutative", "kernel_backend",
    "lemma_suite", "suite_reports",
]
