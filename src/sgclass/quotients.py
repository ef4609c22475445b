"""Ideals, congruences and the two quotient constructions."""

from __future__ import annotations

from functools import reduce

from .core import CayleyTable, PreconditionError, idempotents

MAX_CONGRUENCE_ORDER = 6  # Bell(7) = 877 partitions is past desk scale


def ideal_violation(table, subset):
    """First (a, x, side) with a product of the subset escaping it, or None."""
    subset = frozenset(subset)
    op = table.op
    for a in sorted(subset):
        for x in range(table.n):
            if op[a][x] not in subset:
                return (a, x, "right")
            if op[x][a] not in subset:
                return (x, a, "left")
    return None


def is_ideal(table, subset) -> bool:
    """Exact check of the absorption property; the empty set qualifies."""
    return ideal_violation(table, subset) is None


def generated_ideal(table, seed) -> frozenset:
    """Least ideal containing the seed: close under left/right products."""
    op = table.op
    ideal = set(seed)
    work = sorted(ideal)
    while work:
        a = work.pop()
        for x in range(table.n):
            for v in (op[a][x], op[x][a]):
                if v not in ideal:
                    ideal.add(v)
                    work.append(v)
    return frozenset(ideal)


class Congruence:
    """A partition of 0..n-1 into nonempty classes, ordered by least member.

    Compatibility with a table is a separate check (`congruence_violation`);
    `congruence_closure` always produces compatible partitions.
    """

    __slots__ = ("n", "classes", "class_of")

    def __init__(self, classes):
        classes = tuple(sorted((frozenset(c) for c in classes), key=min))
        seen = {}
        for idx, cls in enumerate(classes):
            if not cls:
                raise PreconditionError("congruence classes must be nonempty")
            for x in cls:
                if x in seen:
                    raise PreconditionError("element %d appears in two classes" % x)
                seen[x] = idx
        n = len(seen)
        if sorted(seen) != list(range(n)):
            raise PreconditionError("classes must partition 0..n-1")
        self.n = n
        self.classes = classes
        self.class_of = tuple(seen[x] for x in range(n))

    @classmethod
    def identity(cls, n):
        return cls([(x,) for x in range(n)])

    def __eq__(self, other):
        return isinstance(other, Congruence) and self.classes == other.classes

    def __hash__(self):
        return hash(self.classes)

    def __repr__(self):
        return "Congruence(%r)" % (sorted(sorted(c) for c in self.classes),)


def _check_ideal(table, ideal):
    ideal = frozenset(ideal)
    viol = ideal_violation(table, ideal)
    if viol is not None:
        raise PreconditionError("not an ideal: %d * %d escapes (%s side)" % viol)
    return ideal


def rees_congruence(table, ideal) -> Congruence:
    """The congruence collapsing an ideal to a point."""
    ideal = _check_ideal(table, ideal)
    if not ideal:
        return Congruence.identity(table.n)
    classes = [ideal] + [(x,) for x in range(table.n) if x not in ideal]
    return Congruence(classes)


def congruence_closure(table, pairs) -> Congruence:
    """Least congruence containing the pairs.

    Union-find with a worklist: each merge queues the translated pairs it
    forces; at most n-1 merges ever happen, so this terminates.
    """
    n = table.n
    op = table.op
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    work = [tuple(p) for p in pairs]
    for x, y in work:
        if not (0 <= x < n and 0 <= y < n):
            raise PreconditionError("pair (%r, %r) out of range" % (x, y))
    while work:
        x, y = work.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        if rx > ry:
            rx, ry = ry, rx
        parent[ry] = rx
        for a in range(n):
            work.append((op[a][x], op[a][y]))
            work.append((op[x][a], op[y][a]))
    groups = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return Congruence(groups.values())


def congruence_violation(table, cong):
    """First witness ((x, y), a) with x ~ y but xa !~ ya or ax !~ ay."""
    if cong.n != table.n:
        raise PreconditionError("partition size %d does not match table order %d"
                                % (cong.n, table.n))
    cf = cong.class_of
    op = table.op
    for cls in cong.classes:
        rep = min(cls)
        for y in sorted(cls):
            if y == rep:
                continue
            for a in range(table.n):
                if cf[op[a][rep]] != cf[op[a][y]] or cf[op[rep][a]] != cf[op[y][a]]:
                    return ((rep, y), a)
    return None


def is_congruence(table, cong) -> bool:
    return congruence_violation(table, cong) is None


def _check_congruence(table, cong):
    viol = congruence_violation(table, cong)
    if viol is not None:
        (x, y), a = viol
        raise PreconditionError("not a congruence: %d ~ %d but translation "
                                "by %d separates them" % (x, y, a))


def quotient_by_congruence(table, cong) -> tuple:
    """Quotient table on the classes plus the projection map.

    The projection (element -> class index) is a homomorphism by
    construction once compatibility holds; incompatible partitions are
    rejected with a witnessing pair.
    """
    _check_congruence(table, cong)
    cf = cong.class_of
    reps = [min(c) for c in cong.classes]
    rows = [[cf[table.op[a][b]] for b in reps] for a in reps]
    return CayleyTable(rows), cf


def rees_quotient(table, ideal) -> tuple:
    """Collapse an ideal to a sink at index 0; empty ideal is a no-op.

    Non-sink elements keep their relative order, so projections are
    deterministic.
    """
    ideal = _check_ideal(table, ideal)
    if not ideal:
        return table, tuple(range(table.n))
    keep = [x for x in range(table.n) if x not in ideal]
    proj = [0] * table.n
    for r, x in enumerate(keep):
        proj[x] = r + 1
    size = len(keep) + 1
    rows = [[0] * size]
    for x in keep:
        rows.append([0] + [proj[table.op[x][y]] for y in keep])
    return CayleyTable(rows), tuple(proj)


def lift_idempotent(table, cong, e_class) -> int:
    """Least idempotent of the table mapping onto a quotient idempotent.

    A class is idempotent in the quotient iff it holds an idempotent: such a
    class holds every power of its members, and one of them is idempotent.
    For a commutative table the product of those idempotents is the least,
    and its subgroup projects onto the subgroup of the quotient idempotent.
    """
    if any(table.op[x][y] != table.op[y][x]
           for x in range(table.n) for y in range(x + 1, table.n)):
        raise PreconditionError("idempotent lifting requires a commutative table")
    _check_congruence(table, cong)
    if not 0 <= e_class < len(cong.classes):
        raise PreconditionError("class index %r out of range" % (e_class,))
    candidates = sorted(idempotents(table) & cong.classes[e_class])
    if not candidates:
        raise PreconditionError("class %d is not idempotent in the quotient" % e_class)
    return reduce(lambda s, e: table.op[s][e], candidates)


def congruences(table):
    """All congruences of the table, in a deterministic order.

    Iterates set partitions via restricted-growth strings and keeps the
    compatible ones.  Guarded to order <= 6.
    """
    n = table.n
    if n > MAX_CONGRUENCE_ORDER:
        raise PreconditionError(
            "congruence enumeration is limited to order <= %d" % MAX_CONGRUENCE_ORDER)
    for rgs in _restricted_growth_strings(n):
        groups = {}
        for x, c in enumerate(rgs):
            groups.setdefault(c, []).append(x)
        cong = Congruence(groups.values())
        if is_congruence(table, cong):
            yield cong


def _restricted_growth_strings(n):
    rgs = [0] * n

    def rec(i, maxc):
        if i == n:
            yield tuple(rgs)
            return
        for c in range(maxc + 2):
            rgs[i] = c
            yield from rec(i + 1, max(maxc, c))

    yield from rec(0, -1)


__all__ = [
    "Congruence", "congruence_closure", "congruence_violation", "congruences",
    "generated_ideal", "ideal_violation", "is_congruence", "is_ideal",
    "lift_idempotent", "quotient_by_congruence", "rees_congruence",
    "rees_quotient",
]
