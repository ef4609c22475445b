"""Exhaustive small-order enumerator plus the property-verification suite.

The backtracking enumerator is cross-checked against a naive filter over
all tables at orders <= 3; the suite then asserts the structural facts
every commutative table must satisfy, which is the acceptance backbone for
everything built on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Optional

from . import _kernel
from .core import (CayleyTable, _max_clique, h_class, idempotents, natural_le,
                   pi_map, relabel, root_inf, validate, z_sets)
from .quotients import congruences, lift_idempotent, quotient_by_congruence

MAX_ENUM_ORDER = 5
MAX_NAIVE_ORDER = 3


def kernel_backend() -> str:
    """The enumeration kernel in use; the only one is pure Python."""
    return "python"


def _unflatten(flat, n):
    return CayleyTable([flat[i * n:(i + 1) * n] for i in range(n)])


def enumerate_commutative(n, up_to_iso=False):
    """Every commutative associative table of order n, exactly once.

    With up_to_iso, only tables equal to their own canonical (lex-least)
    relabeling are emitted, one per isomorphism class; they are generated
    orderly, without building the other labeled tables.  Order of emission
    is deterministic, and the same as the labeled order.
    """
    if not isinstance(n, int) or not 1 <= n <= MAX_ENUM_ORDER:
        raise ValueError("order must be an integer in 1..%d" % MAX_ENUM_ORDER)
    for flat in _kernel.commutative_tables(n, lex_least=up_to_iso):
        yield _unflatten(flat, n)


def enumerate_commutative_naive(n):
    """Independent oracle: filter all n^(n*n) tables directly."""
    if not isinstance(n, int) or not 1 <= n <= MAX_NAIVE_ORDER:
        raise ValueError("naive enumeration is limited to 1..%d" % MAX_NAIVE_ORDER)
    for values in product(range(n), repeat=n * n):
        table = CayleyTable([values[i * n:(i + 1) * n] for i in range(n)])
        report = validate(table)
        if report.associative and report.commutative:
            yield table


def iso_class_count(tables) -> int:
    """Number of isomorphism classes, by orbit sweeping (no canonical forms)."""
    seen = set()
    count = 0
    for t in tables:
        if t.op in seen:
            continue
        count += 1
        for perm in permutations(range(t.n)):
            seen.add(relabel(t, perm).op)
    return count


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


def _check_root_absorption(table, quotients):
    # products of the root set of a maximal subgroup with the subgroup
    # itself must stay inside the subgroup
    op = table.op
    for e in sorted(idempotents(table)):
        he = h_class(table, e)
        roots = root_inf(table, he)
        for x in sorted(roots):
            for y in sorted(he):
                if op[x][y] not in he or op[y][x] not in he:
                    return "e=%d x=%d y=%d" % (e, x, y)
    return None


def _check_pi_homomorphism(table, quotients):
    pi = pi_map(table)
    op = table.op
    for x in table.elements:
        for y in table.elements:
            if pi[op[x][y]] != op[pi[x]][pi[y]]:
                return "x=%d y=%d" % (x, y)
    return None


def _check_h_class_products(table, quotients):
    op = table.op
    es = sorted(idempotents(table))
    hs = {e: h_class(table, e) for e in es}
    for e in es:
        for f in es:
            target = hs[op[e][f]] if op[e][f] in hs else h_class(table, op[e][f])
            for a in sorted(hs[e]):
                for b in sorted(hs[f]):
                    if op[a][b] not in target:
                        return "e=%d f=%d a=%d b=%d" % (e, f, a, b)
    return None


def _check_pi_product_lower_bound(table, quotients):
    pi = pi_map(table)
    op = table.op
    for x in table.elements:
        for y in table.elements:
            if not natural_le(table, op[pi[x]][pi[y]], pi[op[x][y]]):
                return "x=%d y=%d" % (x, y)
    return None


def _check_z_sets_ascending(table, quotients):
    for e in sorted(idempotents(table)):
        layers = z_sets(table, e, table.n + 2)
        for k in range(len(layers) - 1):
            if not layers[k] <= layers[k + 1]:
                return "e=%d k=%d" % (e, k + 1)
    return None


def _check_quotient_idempotent_image(table, quotients):
    source_e = idempotents(table)
    for cong, quotient, proj in quotients:
        if idempotents(quotient) != frozenset(proj[e] for e in source_e):
            return "congruence %r" % (sorted(sorted(c) for c in cong.classes),)
    return None


def _check_quotient_h_class_lift(table, quotients):
    for cong, quotient, proj in quotients:
        for e_class in sorted(idempotents(quotient)):
            s = lift_idempotent(table, cong, e_class)
            image = frozenset(proj[x] for x in h_class(table, s))
            if image != h_class(quotient, e_class):
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


def lemma_suite(table) -> SuiteReport:
    """Run every structural check on one commutative table.

    Failures come back as data (name plus minimal counterexample), never
    as exceptions, for tables of order up to quotients.MAX_CONGRUENCE_ORDER;
    a larger table is refused with PreconditionError before any check runs.
    """
    quotients = [(cong,) + quotient_by_congruence(table, cong)
                 for cong in congruences(table)]
    results = []
    for name, check in _SUITE:
        ce = check(table, quotients)
        results.append(CheckResult(name, ce is None, ce))
    return SuiteReport(table, tuple(results))


def singleton_square_scan(table, max_subset=None) -> Optional[frozenset]:
    """A largest subset A (capped at max_subset) with |A| >= 2 and AA a
    singleton, or None.

    For each target s this is a maximum-clique search over the elements
    squaring to s, with adjacency "product equals s".  The witness is the
    lexicographically least largest clique for the least s that has one,
    cut to its first max_subset members.
    """
    n = table.n
    op = table.op
    cap = n if max_subset is None else max_subset
    best = ()
    for s in range(n):
        verts = [a for a in range(n) if op[a][a] == s]
        if len(verts) > len(best):
            adj = {a: sum(1 << b for b in verts
                          if b > a and op[a][b] == s == op[b][a])
                   for a in verts}
            best = _max_clique(sum(1 << a for a in verts), adj, best)
    if len(best) < 2 or cap < 2:
        return None
    return frozenset(best[:cap])


__all__ = [
    "CheckResult", "SuiteReport", "enumerate_commutative",
    "enumerate_commutative_naive", "iso_class_count", "kernel_backend",
    "lemma_suite", "singleton_square_scan",
]
