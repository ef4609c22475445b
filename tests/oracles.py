"""Independent oracles that only the tests use.

`enumerate_commutative_naive` and `iso_class_count` check the enumeration
kernel without sharing any of its code; `group_closed` and
`semilattice_closed` read the closedness of a group or semilattice straight
from its spec, without the predicate profile `classify` goes through.
"""

from itertools import permutations, product

from sgclass.core import CayleyTable, relabel, validate
from sgclass.descriptors import OmegaChain

MAX_NAIVE_ORDER = 3


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


def group_closed(spec):
    """Theorem 1.3: a group is closed in every sense iff it is bounded."""
    return all(f.kind == "cyclic" for f in spec.factors)


def semilattice_closed(spec):
    """Corollary 5.2: a semilattice is closed in every sense iff chain-finite."""
    return not isinstance(spec, OmegaChain)
