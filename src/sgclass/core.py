"""Finite-semigroup kernel: Cayley tables and element-level computations.

Elements are dense indices 0..n-1; the row index of a table is the left
operand.  Every function here is a pure function of immutable inputs and is
safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional


class MalformedTableError(ValueError):
    """The given rows are not a well-formed n-by-n table over [0, n)."""


class PreconditionError(ValueError):
    """An operation was called outside its contract."""


class CayleyTable:
    """An n-by-n operation table over element indices 0..n-1.

    Shape and entry ranges are checked on construction.  Associativity is
    not: run `validate` once and the remaining operations assume it.

    `_trusted` skips the checks and is used only where every cell is in
    range by construction: the power-semigroup recurrence (cells are subset
    indices), the enumeration kernel's tables, `cli.parse_table` after it
    has checked every row and entry, and the two quotient builders, whose
    cells are class indices of a checked congruence or Rees projection.
    """

    __slots__ = ("n", "op")

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if n == 0:
            raise MalformedTableError("empty table")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise MalformedTableError(
                    "row %d has %d entries, expected %d" % (i, len(row), n))
            for j, v in enumerate(row):
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                    raise MalformedTableError(
                        "entry at row %d, column %d is %r, not an integer in [0, %d)"
                        % (i, j, v, n))
        self.n = n
        self.op = rows

    @classmethod
    def _trusted(cls, rows):
        # rows already form an n-by-n table over [0, n); op must still be a
        # tuple of tuples, since equality and hashing compare it
        self = object.__new__(cls)
        self.op = tuple(map(tuple, rows))
        self.n = len(self.op)
        return self

    @property
    def elements(self):
        return range(self.n)

    def __eq__(self, other):
        return isinstance(other, CayleyTable) and self.op == other.op

    def __hash__(self):
        return hash(self.op)

    def __repr__(self):
        return "CayleyTable(%r)" % ([list(r) for r in self.op],)


@dataclass(frozen=True)
class ValidationReport:
    associative: bool
    commutative: bool
    assoc_witness: Optional[tuple] = None   # first (x, y, z) with (xy)z != x(yz)
    comm_witness: Optional[tuple] = None    # first (x, y) with xy != yx


class MonogenicData(NamedTuple):
    """Shape of the power sequence x, x^2, x^3, ... of a single element.

    index:  least i >= 1 with x^(i+period) = x^i
    period: cycle length of the power sequence
    pi:     the unique idempotent among the powers of x
    """
    index: int
    period: int
    pi: int


def _check_element(table, x, what="element"):
    if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < table.n:
        raise PreconditionError("%s %r out of range [0, %d)" % (what, x, table.n))


def _check_idempotent(table, e):
    _check_element(table, e)
    if table.op[e][e] != e:
        raise PreconditionError("element %d is not idempotent" % e)


def _check_subset(table, subset):
    subset = list(subset)  # any iterable, consumed once
    for x in subset:
        _check_element(table, x, "subset member")
    return frozenset(subset)


def validate(table: CayleyTable) -> ValidationReport:
    """Exhaustive associativity and commutativity check.

    Witnesses are the lexicographically first violating triple/pair, which
    keeps reports deterministic.
    """
    n = table.n
    op = table.op
    assoc_witness = None
    for x in range(n):
        if assoc_witness:
            break
        for y in range(n):
            if assoc_witness:
                break
            xy = op[x][y]
            row_x = op[x]
            for z in range(n):
                if op[xy][z] != row_x[op[y][z]]:
                    assoc_witness = (x, y, z)
                    break
    comm_witness = None
    for x in range(n):
        if comm_witness:
            break
        for y in range(x + 1, n):
            if op[x][y] != op[y][x]:
                comm_witness = (x, y)
                break
    return ValidationReport(assoc_witness is None, comm_witness is None,
                            assoc_witness, comm_witness)


def idempotents(table) -> frozenset:
    """The fixed points of squaring."""
    return frozenset(x for x in table.elements if table.op[x][x] == x)


def natural_le(table, e, f) -> bool:
    """e <= f in the natural order on idempotents: ef = fe = e."""
    _check_idempotent(table, e)
    _check_idempotent(table, f)
    return table.op[e][f] == e == table.op[f][e]


def _max_clique(verts, adj, best=()):
    """The lexicographically least largest clique within the bitmask
    `verts`, as an ascending tuple, if it is longer than `best`; else `best`.

    adj[x] is the bitmask of the neighbours of x that follow x.  Branch and
    bound in lexicographic order, so the first clique of a size is kept.
    """
    def extend(chosen, cands):
        nonlocal best
        if len(chosen) > len(best):
            best = chosen
        while cands and len(chosen) + cands.bit_count() > len(best):
            low = cands & -cands
            cands ^= low
            x = low.bit_length() - 1
            extend(chosen + (x,), cands & adj[x])

    extend((), verts)
    return best


def max_chain_length(table) -> tuple:
    """Size of a largest chain, with one witness.

    A chain is a subset in which the product of any two distinct members
    lands back in the pair (both multiplication orders).  Branch and bound
    over subsets; exponential in the worst case, fine at desk scale.  The
    witness is the lexicographically least chain of maximal size.
    """
    n = table.n
    op = table.op
    adj = [sum(1 << y for y in range(x + 1, n)
               if op[x][y] in (x, y) and op[y][x] in (x, y)) for x in range(n)]
    best = _max_clique((1 << n) - 1, adj)
    return len(best), frozenset(best)


def center(table) -> frozenset:
    """Elements commuting with everything; the full set iff commutative."""
    n = table.n
    op = table.op
    return frozenset(z for z in range(n)
                     if all(op[z][x] == op[x][z] for x in range(n)))


def h_class(table, a) -> frozenset:
    """Elements generating the same principal left and right ideals as a;
    entry a of `h_classes`.

    For an idempotent e this is the maximal subgroup containing e.
    """
    _check_element(table, a)
    return h_classes(table)[a]


def h_classes(table) -> tuple:
    """The H-class of every element in one pass: entry x is the class of x.

    The one routine that builds principal ideals.  Each element is keyed by
    its pair of principal ideals (xS^1, S^1x), with the identity adjoined
    virtually, so the table's 2n ideals are built once rather than once per
    class.
    """
    op = table.op
    cols = tuple(zip(*op))
    keys = [(frozenset(op[x]) | {x}, frozenset(cols[x]) | {x})
            for x in table.elements]
    members = {}
    for x, key in enumerate(keys):
        members.setdefault(key, []).append(x)
    classes = {key: frozenset(xs) for key, xs in members.items()}
    return tuple(classes[key] for key in keys)


def clifford_part(table) -> frozenset:
    """Union of the maximal subgroups: the `h_classes` of the idempotents."""
    hs = h_classes(table)
    return frozenset().union(*(hs[e] for e in idempotents(table)))


def _powers(table, x):
    """The distinct powers [x, x^2, ...] of x, in order."""
    row = table.op[x]  # x^k x = x x^k by associativity
    powers = [x]
    acc = row[x]
    while acc not in powers:
        powers.append(acc)
        acc = row[acc]
    return powers


def monogenic_data(table, x) -> MonogenicData:
    """Index, period and idempotent of the power sequence of x."""
    _check_element(table, x)
    op = table.op
    powers = _powers(table, x)
    start = powers.index(op[powers[-1]][x])
    pi = next(e for e in powers[start:] if op[e][e] == e)
    return MonogenicData(start + 1, len(powers) - start, pi)


def pi_map(table) -> tuple:
    """Map each element to the unique idempotent among its powers.

    Requires every idempotent to be central; with that hypothesis the map
    is a homomorphism onto the idempotents, and without it the conclusion
    can fail, so we reject instead of guessing.
    """
    z = center(table)
    for e in sorted(idempotents(table)):
        if e not in z:
            raise PreconditionError("idempotent %d is not central" % e)
    return tuple(monogenic_data(table, x).pi for x in table.elements)


def root_inf(table, subset) -> frozenset:
    """All x some positive power of which lands in the subset."""
    subset = _check_subset(table, subset)
    return frozenset([x for x in table.elements if x in subset
                      or not subset.isdisjoint(_powers(table, x))])


def z_sets(table, e, n_max) -> list:
    """Central elements whose k-th power lies in the maximal subgroup at e,
    for k = 1..n_max.  The returned sequence is ascending."""
    _check_idempotent(table, e)
    if not isinstance(n_max, int) or n_max < 1:
        raise PreconditionError("n_max must be a positive integer")
    he = h_class(table, e)
    zc = sorted(center(table))
    op = table.op
    out = []
    power = {z: z for z in zc}
    for _ in range(n_max):
        out.append(frozenset(z for z in zc if power[z] in he))
        power = {z: op[power[z]][z] for z in zc}
    return out


def group_exponent(table, e) -> int:
    """Least k >= 1 with x^k = e for every member of the subgroup at e."""
    _check_idempotent(table, e)
    # the powers of a group member x run through e back to x, so their
    # number is the order of x
    return math.lcm(*(len(_powers(table, x)) for x in h_class(table, e)))


# -- table builders ----------------------------------------------------------

def cyclic_table(m) -> CayleyTable:
    """Z_m, written additively."""
    return CayleyTable([[(i + j) % m for j in range(m)] for i in range(m)])


def chain_table(m) -> CayleyTable:
    """The m-element chain semilattice (min)."""
    return CayleyTable([[min(i, j) for j in range(m)] for i in range(m)])


def null_table(m) -> CayleyTable:
    """All products equal 0."""
    return CayleyTable([[0] * m for _ in range(m)])


def taimanov_table(m) -> CayleyTable:
    """Distinct elements >= 2 multiply to 1, everything else to 0."""
    return CayleyTable([[1 if i != j and i >= 2 and j >= 2 else 0
                         for j in range(m)] for i in range(m)])


def antichain_zero_table(m) -> CayleyTable:
    """A bottom element 0 below m-1 pairwise incomparable idempotents."""
    return CayleyTable([[i if i == j and i > 0 else 0 for j in range(m)]
                        for i in range(m)])


def product_table(a: CayleyTable, b: CayleyTable) -> CayleyTable:
    """Direct product; index (x, y) is encoded as x * b.n + y."""
    bn = b.n
    rows = []
    for x in range(a.n):
        for y in range(bn):
            rows.append([a.op[x][u] * bn + b.op[y][v]
                         for u in range(a.n) for v in range(bn)])
    return CayleyTable(rows)


def adjoin_zero(table: CayleyTable) -> CayleyTable:
    """Fresh absorbing element at index 0; old elements shift up by one."""
    n = table.n
    rows = [[0] * (n + 1)]
    for i in range(n):
        rows.append([0] + [table.op[i][j] + 1 for j in range(n)])
    return CayleyTable(rows)


def adjoin_identity(table: CayleyTable) -> CayleyTable:
    """Fresh two-sided identity at the last index; old indices unchanged."""
    n = table.n
    rows = [list(table.op[i]) + [i] for i in range(n)]
    rows.append(list(range(n + 1)))
    return CayleyTable(rows)


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


def restrict(table: CayleyTable, subset) -> tuple:
    """Subtable on a product-closed subset, with the index embedding.

    Returns (subtable, embedding) where embedding[new] = old.
    """
    subset = sorted(_check_subset(table, subset))
    if not subset:
        raise PreconditionError("cannot restrict to the empty set")
    pos = {x: i for i, x in enumerate(subset)}
    rows = []
    for x in subset:
        row = []
        for y in subset:
            v = table.op[x][y]
            if v not in pos:
                raise PreconditionError(
                    "subset is not closed: %d * %d = %d escapes" % (x, y, v))
            row.append(pos[v])
        rows.append(row)
    return CayleyTable(rows), tuple(subset)
