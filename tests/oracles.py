"""Independent oracles and reference implementations that only the tests use.

`enumerate_commutative_naive`, `labeled_tables` and `iso_class_count` check
the enumeration kernel without sharing any of its code; `group_closed` and
`semilattice_closed` read the closedness of a group or semilattice straight
from its descriptor, without the predicate profile `classify` goes through.

The reference implementations the tests compare the package against:
`relabel` (a permutation of the element indices, which `iso_class_count`
also uses), `generated_ideal` and `rees_congruence` (ideals and the Rees
congruence, as partitions `quotient_by_congruence` accepts),
`subset_product` (one cell of the power semigroup, computed directly),
`singleton_square_scan` (a largest A with AA a singleton, for the
truncation rules of the singleton-square condition), `render_descriptor`
(the canonical text of a parsed descriptor, which parses back to it), and
the `*_failures` generators, which scan the whole square, or each
idempotent in turn, for the four suite checks that read only a triangle or
walk each element's powers once.
"""

from dataclasses import fields
from itertools import permutations, product
from typing import Optional

from sgclass.core import (CayleyTable, PreconditionError, _check_element,
                          _check_subset, _max_clique, _members, validate)
from sgclass.descriptors import (CONSTRUCTORS, SEMILATTICE_WORDS, FinitePoset,
                                 FiniteTable, Group, OmegaChain)
from sgclass.quotients import Congruence, _check_ideal

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


def labeled_prefixes(n):
    """Every row-complete prefix on which each triple whose cells are all
    set associates, with its row count, grown row by row from the empty
    table with each row's values in ascending order.

    The prefixes with all n rows are the commutative associative tables of
    order n, in ascending order of their flat tuples.
    """
    level = [[-1] * (n * n)]
    for i in range(n):
        level = [flat for prefix in level
                 for flat in _row_completions(prefix, n, i)
                 if _associative_where_set(flat, n)]
        for flat in level:
            yield flat, i + 1


def labeled_tables(n):
    """Every commutative associative table of order n as a flat tuple, in
    ascending order: the labeled enumeration, computed row by row."""
    return [tuple(flat) for flat, rows in labeled_prefixes(n) if rows == n]


def _row_completions(prefix, n, i):
    for values in product(range(n), repeat=n - i):
        flat = list(prefix)
        for j, v in enumerate(values, i):
            flat[i * n + j] = flat[j * n + i] = v
        yield flat


def _associative_where_set(flat, n):
    for x in range(n):
        for y in range(n):
            xy = flat[x * n + y]
            if xy < 0:
                continue
            for z in range(n):
                yz = flat[y * n + z]
                if yz >= 0:
                    a, b = flat[xy * n + z], flat[x * n + yz]
                    if a >= 0 and b >= 0 and a != b:
                        return False
    return True


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


def group_closed(group):
    """Theorem 1.3: a group is closed in every sense iff it is bounded."""
    return all(f.kind == "cyclic" for f in group.factors)


def semilattice_closed(semilattice):
    """Corollary 5.2: a semilattice is closed in every sense iff chain-finite."""
    return not isinstance(semilattice, OmegaChain)


def relabel(table: CayleyTable, perm) -> CayleyTable:
    """Apply a permutation of the element indices."""
    n = table.n
    perm = tuple(perm)
    for p in perm:
        _check_element(table, p, "relabeling entry")
    if len(perm) != n or len(set(perm)) != n:
        raise PreconditionError("relabeling %r is not a permutation of range(%d)"
                                % (perm, n))
    inv = [0] * n
    for a, b in enumerate(perm):
        inv[b] = a
    return CayleyTable([[perm[table.op[inv[i]][inv[j]]] for j in range(n)]
                        for i in range(n)])


def generated_ideal(table, seed) -> frozenset:
    """Least ideal containing the seed: close under left/right products."""
    op = table.op
    ideal = set(_check_subset(table, seed))
    work = sorted(ideal)
    while work:
        a = work.pop()
        for x in range(table.n):
            for v in (op[a][x], op[x][a]):
                if v not in ideal:
                    ideal.add(v)
                    work.append(v)
    return frozenset(ideal)


def rees_congruence(table, ideal) -> Congruence:
    """The congruence collapsing an ideal to a point."""
    ideal = _check_ideal(table, ideal)
    if not ideal:
        return Congruence([(x,) for x in range(table.n)])
    classes = [ideal] + [(x,) for x in range(table.n) if x not in ideal]
    return Congruence(classes)


def subset_product(table, u, v) -> frozenset:
    """Elementwise product of two nonempty subsets."""
    u = _check_subset(table, u)
    v = _check_subset(table, v)
    if not u or not v:
        raise PreconditionError("subset product needs nonempty operands")
    op = table.op
    return frozenset(op[a][b] for a in u for b in v)


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


_HEADS = {cls: head for head, cls in CONSTRUCTORS.items()}
_WORDS = {cls: word for word, cls in SEMILATTICE_WORDS.items()}


def _render_leaf(word, leaf):
    if leaf.path is None:
        raise ValueError("cannot render a %s descriptor without a path" % word)
    return "(%s %s)" % (word, leaf.path)


def render_descriptor(d) -> str:
    """Canonical text for a parsed descriptor; fixed under parse+render.
    Table and poset leaves are spelled by the paths they were loaded from."""
    if type(d) in _HEADS:
        children = [render_descriptor(getattr(d, f.name)) for f in fields(d)]
        return "(%s)" % " ".join([_HEADS[type(d)]] + children)
    if isinstance(d, FiniteTable):
        return _render_leaf("table", d)
    if isinstance(d, Group):
        return "(group %s)" % " ".join(f.text() for f in d.factors)
    if isinstance(d, FinitePoset):
        return "(semilattice %s)" % _render_leaf("poset", d)
    if type(d) in _WORDS:
        return "(semilattice %s)" % _WORDS[type(d)]
    raise TypeError("not a descriptor: %r" % (d,))


# The suite checks as full scans: each generator yields every
# counterexample in the order the check meets them, so the first is the one
# the check must report.  They read the same `harness._Facts`.

def pi_homomorphism_failures(table, facts):
    pi = facts.pi
    op = table.op
    for x in table.elements:
        for y in table.elements:
            if pi[op[x][y]] != op[pi[x]][pi[y]]:
                yield "x=%d y=%d" % (x, y)


def h_class_products_failures(table, facts):
    op = table.op
    es = facts.idempotents
    hs = facts.h_classes
    for e in es:
        for f in es:
            target = hs[op[e][f]]
            for a in _members(hs[e]):
                for b in _members(hs[f]):
                    if not target >> op[a][b] & 1:
                        yield "e=%d f=%d a=%d b=%d" % (e, f, a, b)


def pi_product_lower_bound_failures(table, facts):
    pi = facts.pi
    op = table.op
    for x in table.elements:
        for y in table.elements:
            e = op[pi[x]][pi[y]]
            f = pi[op[x][y]]
            if not op[e][f] == e == op[f][e]:
                yield "x=%d y=%d" % (x, y)


def z_sets_ascending_failures(table, facts):
    # layer k of z_sets(table, e, n + 2) holds the z with z^(k+1) in the
    # maximal subgroup at e, every z being central; one bit of `layer` per
    # element
    for e in facts.idempotents:
        he = facts.h_classes[e]
        below = 0
        for k in range(table.n + 2):
            layer = 0
            for seq in facts.powers:
                layer = layer << 1 | he >> seq[k] & 1
            if k and below & ~layer:
                yield "e=%d k=%d" % (e, k)
            below = layer


SUITE_FAILURES = {
    "pi-homomorphism": pi_homomorphism_failures,
    "h-class-products": h_class_products_failures,
    "pi-product-lower-bound": pi_product_lower_bound_failures,
    "z-sets-ascending": z_sets_ascending_failures,
}
