"""Exhaustive small-order enumerator plus the property-verification suite.

The backtracking enumerator is cross-checked against a naive filter over
all tables at orders <= 3, which lives with the other test-only oracles in
tests/oracles.py; the suite then asserts the structural facts every
commutative table must satisfy, which is the acceptance backbone for
everything built on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import _kernel
from .core import (CayleyTable, _positive_int, _z_sets, center, h_classes,
                   idempotents, pi_map, root_inf)
from .quotients import _lift_idempotent, _quotient, congruences

MAX_ENUM_ORDER = 5


def kernel_backend() -> str:
    """The enumeration kernel in use; the only one is pure Python."""
    return "python"


def _unflatten(flat, n):
    return CayleyTable._trusted([flat[i * n:(i + 1) * n] for i in range(n)])


def enumerate_commutative(n, up_to_iso=False):
    """Every commutative associative table of order n, exactly once.

    With up_to_iso, only tables equal to their own canonical (lex-least)
    relabeling are emitted, one per isomorphism class; they are generated
    orderly, without building the other labeled tables.  Order of emission
    is deterministic, and the same as the labeled order.
    """
    if not _positive_int(n) or n > MAX_ENUM_ORDER:
        raise ValueError("order must be an integer in 1..%d" % MAX_ENUM_ORDER)
    for flat in _kernel.commutative_tables(n, lex_least=up_to_iso):
        yield _unflatten(flat, n)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    counterexample: Optional[str] = None


@dataclass(frozen=True)
class SuiteReport:
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
    per call or, for the quotient facts, once per `known`.

    quotients holds (congruence, projection, quotient idempotents, quotient
    H-classes) for every congruence of the table, in search order.
    """
    idempotents: frozenset
    h_classes: tuple
    pi: tuple
    center: list  # sorted
    quotients: list


def _check_root_absorption(table, facts):
    # products of the root set of a maximal subgroup with the subgroup
    # itself must stay inside the subgroup
    op = table.op
    hs = facts.h_classes
    for e in sorted(facts.idempotents):
        he = hs[e]
        roots = root_inf(table, he)
        for x in sorted(roots):
            for y in sorted(he):
                if op[x][y] not in he or op[y][x] not in he:
                    return "e=%d x=%d y=%d" % (e, x, y)
    return None


def _check_pi_homomorphism(table, facts):
    pi = facts.pi
    op = table.op
    for x in table.elements:
        for y in table.elements:
            if pi[op[x][y]] != op[pi[x]][pi[y]]:
                return "x=%d y=%d" % (x, y)
    return None


def _check_h_class_products(table, facts):
    op = table.op
    es = sorted(facts.idempotents)
    hs = facts.h_classes
    for e in es:
        for f in es:
            target = hs[op[e][f]]
            for a in sorted(hs[e]):
                for b in sorted(hs[f]):
                    if op[a][b] not in target:
                        return "e=%d f=%d a=%d b=%d" % (e, f, a, b)
    return None


def _check_pi_product_lower_bound(table, facts):
    # e and f are idempotent by construction, so natural_le's checks are skipped
    pi = facts.pi
    op = table.op
    for x in table.elements:
        for y in table.elements:
            e = op[pi[x]][pi[y]]
            f = pi[op[x][y]]
            if not op[e][f] == e == op[f][e]:
                return "x=%d y=%d" % (x, y)
    return None


def _check_z_sets_ascending(table, facts):
    hs = facts.h_classes
    for e in sorted(facts.idempotents):
        layers = _z_sets(table, hs[e], facts.center, table.n + 2)
        for k in range(len(layers) - 1):
            if not layers[k] <= layers[k + 1]:
                return "e=%d k=%d" % (e, k + 1)
    return None


def _check_quotient_idempotent_image(table, facts):
    source_e = facts.idempotents
    for cong, proj, quotient_e, _ in facts.quotients:
        if quotient_e != frozenset(proj[e] for e in source_e):
            return "congruence %r" % (sorted(sorted(c) for c in cong.classes),)
    return None


def _check_quotient_h_class_lift(table, facts):
    # every congruence here comes from congruences(table), so the lift
    # skips lift_idempotent's checks; a finite quotient has an idempotent
    source_e = facts.idempotents
    hs = facts.h_classes
    for cong, proj, quotient_e, quotient_hs in facts.quotients:
        for e_class in sorted(quotient_e):
            s = _lift_idempotent(table, cong, e_class, source_e)
            image = frozenset(proj[x] for x in hs[s])
            if image != quotient_hs[e_class]:
                return "congruence %r class %d" % (
                    sorted(sorted(c) for c in cong.classes), e_class)
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


def lemma_suite(table, known=None) -> SuiteReport:
    """Run every structural check on one commutative table.

    Failures come back as data (name plus minimal counterexample), never
    as exceptions, for tables of order up to quotients.MAX_CONGRUENCE_ORDER;
    a larger table is refused with PreconditionError before any check runs.

    The seven checks share one `_Facts`.  The idempotents and H-classes of
    each distinct quotient table are computed once and kept in `known`, a
    dict from quotient cells to (idempotents, H-classes); the table's own
    come from there too, since it is its own quotient by the identity
    congruence.  Its pi map and center are computed once per call.  A
    caller that runs many tables, as `suite` does, passes one `known` to
    all of them, so a quotient met again is not recomputed; without one,
    a fresh dict serves this call alone.
    """
    if known is None:
        known = {}
    # every congruence comes from congruences(table), so each quotient skips
    # quotient_by_congruence's compatibility check
    quotients = []
    for cong in congruences(table):
        quotient, proj = _quotient(table, cong)
        shared = known.get(quotient.op)
        if shared is None:
            shared = known[quotient.op] = (idempotents(quotient),
                                           h_classes(quotient))
        quotients.append((cong, proj) + shared)
    facts = _Facts(*known[table.op], pi_map(table), sorted(center(table)),
                   quotients)
    results = []
    for name, check in _SUITE:
        ce = check(table, facts)
        results.append(CheckResult(name, ce is None, ce))
    return SuiteReport(table, tuple(results))


__all__ = [
    "CheckResult", "SuiteReport", "enumerate_commutative", "kernel_backend",
    "lemma_suite",
]
