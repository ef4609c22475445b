"""Finite-semigroup kernel: Cayley tables and element-level computations.

Elements are dense indices 0..n-1; the row index of a table is the left
operand.  Every function here is a pure function of immutable inputs and is
safe to call concurrently.

Table files (`parse_table`, `render_table`): `#` starts a comment line; the
first data line holds the order n; the next n lines hold n space-separated
entries in [0, n).  Every number is ASCII decimal, -?[0-9]+.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Optional


class MalformedTableError(ValueError):
    """The given rows are not a well-formed n-by-n table over [0, n)."""


class PreconditionError(ValueError):
    """An operation was called outside its contract."""


def _positive_int(v) -> bool:
    # bool is a subclass of int, but True is not an order or a count
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


class CayleyTable:
    """An n-by-n operation table over element indices 0..n-1.

    Shape and entry ranges are checked on construction.  Associativity is
    not: run `validate` once and the remaining operations assume it.

    `_trusted` skips the checks and is used only where every cell is in
    range by construction: the power-semigroup recurrence (cells are subset
    indices), `parse_table` after it has checked every row and entry,
    `rees_quotient` (cells are classes of a Rees projection), and
    `_unflatten`, which reads the order off the number of cells and builds
    the enumeration kernel's tables and the congruence quotients of
    `quotients._quotient_cells` (cells are classes of a congruence that was
    checked or yielded by `congruences()`).  Each of them builds plain int
    cells, as the checks require, and `cli._json_chunks` writes cells
    without checking their type.
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


def _unflatten(flat):
    """The table whose row-major cells are flat, unchecked; its order is
    the square root of the number of cells."""
    n = math.isqrt(len(flat))
    return CayleyTable._trusted([flat[i * n:(i + 1) * n] for i in range(n)])


def _mask(xs):
    """The int bitmask of the ints xs: bit x set for each x among them."""
    m = 0
    for x in xs:
        m |= 1 << x
    return m


@lru_cache(maxsize=None)  # the masks stay below 2**power.MAX_BASE_ORDER
def _members(m):
    """The members of the bitmask m, ascending."""
    return tuple(x for x in range(m.bit_length()) if m >> x & 1)


class ValidationReport(NamedTuple):
    associative: bool
    commutative: bool
    assoc_witness: Optional[tuple] = None   # first (x, y, z) with (xy)z != x(yz)
    comm_witness: Optional[tuple] = None    # first (x, y) with xy != yx


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
    # z commutes with everything iff its row equals its column
    op = table.op
    return frozenset(z for z, column in enumerate(zip(*op)) if op[z] == column)


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
    class.  When the table equals its transpose, each left ideal equals the
    right one, so only the right ideal is built and it alone is the key.
    """
    op = table.op
    cols = tuple(zip(*op))
    keys = [frozenset(row + (x,)) for x, row in enumerate(op)]
    if cols != op:
        keys = [(key, frozenset(col + (x,)))
                for x, (key, col) in enumerate(zip(keys, cols))]
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


def _first_idempotent(table, x, powers):
    """The first idempotent among powers, a run of the powers of x that
    holds their cycle; in a finite semigroup the cycle holds one."""
    op = table.op
    for e in powers:
        if op[e][e] == e:
            return e
    raise PreconditionError("the table is not associative: the powers of %d "
                            "cycle without an idempotent" % x)


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
    return tuple(_first_idempotent(table, x, _powers(table, x))
                 for x in table.elements)


def root_inf(table, subset) -> frozenset:
    """All x some positive power of which lands in the subset."""
    subset = _check_subset(table, subset)
    return frozenset([x for x in table.elements if x in subset
                      or not subset.isdisjoint(_powers(table, x))])


def z_sets(table, e, n_max) -> list:
    """Central elements whose k-th power lies in the maximal subgroup at e,
    for k = 1..n_max.  The returned sequence is ascending."""
    _check_idempotent(table, e)
    if not _positive_int(n_max):
        raise PreconditionError("n_max must be a positive integer")
    he = h_classes(table)[e]
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
    return math.lcm(*(len(_powers(table, x)) for x in h_classes(table)[e]))


# -- table builders ----------------------------------------------------------

def _check_order(m):
    if not _positive_int(m):
        raise PreconditionError("order must be a positive integer, got %r"
                                % (m,))


def cyclic_table(m) -> CayleyTable:
    """Z_m, written additively."""
    _check_order(m)
    return CayleyTable([[(i + j) % m for j in range(m)] for i in range(m)])


def chain_table(m) -> CayleyTable:
    """The m-element chain semilattice (min)."""
    _check_order(m)
    return CayleyTable([[min(i, j) for j in range(m)] for i in range(m)])


def null_table(m) -> CayleyTable:
    """All products equal 0."""
    _check_order(m)
    return CayleyTable([[0] * m for _ in range(m)])


def taimanov_table(m) -> CayleyTable:
    """Distinct elements >= 2 multiply to 1, everything else to 0."""
    _check_order(m)
    return CayleyTable([[1 if i != j and i >= 2 and j >= 2 else 0
                         for j in range(m)] for i in range(m)])


def antichain_zero_table(m) -> CayleyTable:
    """A bottom element 0 below m-1 pairwise incomparable idempotents."""
    _check_order(m)
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


# -- table files -------------------------------------------------------------

class TableParseError(ValueError):
    """Table file does not parse (position is included in the message)."""


def _decimal(tok) -> int:
    """int(tok) for an ASCII decimal token, -?[0-9]+, else ValueError; int()
    alone also takes '+3', '1_0' and non-ASCII digits."""
    digits = tok[1:] if tok.startswith("-") else tok
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("not a decimal integer: %r" % (tok,))
    return int(tok)


def _checked_row(raw, entries, lineno, n):
    """The ints of the tokens `entries` of the line `raw`, each checked to
    be an integer in [0, n); the first that is not is reported with its
    column."""
    row = []
    col = 1
    for tok in entries:
        pos = raw.index(tok, col - 1) + 1
        try:
            v = _decimal(tok)
        except ValueError:
            raise TableParseError(
                "line %d, column %d: %r is not an integer" % (lineno, pos, tok))
        if not 0 <= v < n:
            raise TableParseError(
                "line %d, column %d: entry %d out of range [0, %d)"
                % (lineno, pos, v, n))
        row.append(v)
        col = pos + len(tok)
    return row


def parse_table(text, require_associative=True) -> CayleyTable:
    """Parse the table format; rejects non-associative tables unless
    require_associative=False (validate reports them, leaves check them)."""
    rows = []
    n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = _decimal(line)
            except ValueError:
                raise TableParseError(
                    "line %d: expected the order, got %r" % (lineno, line))
            if n < 1:
                raise TableParseError("line %d: order must be >= 1" % lineno)
            continue
        if len(rows) == n:
            raise TableParseError("line %d: more than %d rows" % (lineno, n))
        entries = line.split()
        if len(entries) != n:
            raise TableParseError("line %d: expected %d entries, got %d"
                                  % (lineno, n, len(entries)))
        # a line of unsigned ASCII decimals in range is read whole; any
        # other is read token by token, which finds a bad one's column
        digits = "".join(entries)
        row = None
        if digits.isascii() and digits.isdigit():
            row = list(map(int, entries))
        if row is None or max(row) >= n:
            row = _checked_row(raw, entries, lineno, n)
        rows.append(row)
    if n is None:
        raise TableParseError("no data lines")
    if len(rows) != n:
        raise TableParseError("expected %d rows, got %d" % (n, len(rows)))
    table = CayleyTable._trusted(rows)
    if require_associative:
        report = validate(table)
        if not report.associative:
            raise TableParseError("table is not associative: witness %r"
                                  % (report.assoc_witness,))
    return table


class _Digits(dict):
    # memo of the decimal text of each int written
    def __missing__(self, x):
        text = self[x] = int.__repr__(x)
        return text


def render_table(table, comment=None) -> str:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append("# %s" % part)
    lines.append(str(table.n))
    digits = _Digits()
    for row in table.op:
        lines.append(" ".join(map(digits.__getitem__, row)))
    return "\n".join(lines) + "\n"
