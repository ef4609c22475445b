"""Ideals, congruences and the two quotient constructions."""

from __future__ import annotations

from functools import reduce

from .core import (CayleyTable, PreconditionError, _check_element,
                   _check_subset, center, idempotents)

# The suite's order frontier sets this guard; the cost of the pruned search
# is not what limits it.
MAX_CONGRUENCE_ORDER = 6


def ideal_violation(table, subset):
    """First (a, x, side) with a product of the subset escaping it, or None."""
    subset = _check_subset(table, subset)
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
        _check_element(table, x, "pair member")
        _check_element(table, y, "pair member")
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
    return CayleyTable._trusted(rows), cf


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
    return CayleyTable._trusted(rows), tuple(proj)


def lift_idempotent(table, cong, e_class) -> int:
    """Least idempotent of the table mapping onto a quotient idempotent.

    A class is idempotent in the quotient iff it holds an idempotent: such a
    class holds every power of its members, and one of them is idempotent.
    For a commutative table the product of those idempotents is the least,
    and its subgroup projects onto the subgroup of the quotient idempotent.
    """
    if len(center(table)) != table.n:
        raise PreconditionError("idempotent lifting requires a commutative table")
    _check_congruence(table, cong)
    if not 0 <= e_class < len(cong.classes):
        raise PreconditionError("class index %r out of range" % (e_class,))
    return _lift_idempotent(table, cong, e_class, idempotents(table))


def _lift_idempotent(table, cong, e_class, idem) -> int:
    # lift_idempotent past its checks, handed the table's idempotents
    candidates = sorted(idem & cong.classes[e_class])
    if not candidates:
        raise PreconditionError("class %d is not idempotent in the quotient" % e_class)
    return reduce(lambda s, e: table.op[s][e], candidates)


def congruences(table):
    """All congruences of the table, in restricted-growth-string order.

    Elements are labeled 0, 1, ... in turn, each with a class label at most
    one past the largest so far, so every set partition has exactly one
    labeling and the labelings come in lexicographic order.  A partition
    is a congruence iff x ~ y implies u ~ v for every quadruple with
    (u, v) = (ax, ay) or (xa, ya).  Each quadruple is checked as soon as
    the largest of its four elements is labeled, and a broken one cuts the
    branch, so the leaves are exactly the congruences.  Guarded to order
    <= MAX_CONGRUENCE_ORDER.
    """
    n = table.n
    if n > MAX_CONGRUENCE_ORDER:
        raise PreconditionError(
            "congruence enumeration is limited to order <= %d" % MAX_CONGRUENCE_ORDER)
    op = table.op
    due = [set() for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            for a in range(n):
                for u, v in ((op[a][x], op[a][y]), (op[x][a], op[y][a])):
                    if u != v:
                        u, v = min(u, v), max(u, v)
                        due[max(y, v)].add((x, y, u, v))
    label = [0] * n

    def extend(i, top):
        if i == n:
            classes = [[] for _ in range(top + 1)]
            for x, c in enumerate(label):
                classes[c].append(x)
            yield Congruence(classes)
            return
        for c in range(top + 2):
            label[i] = c
            if all(label[x] != label[y] or label[u] == label[v]
                   for x, y, u, v in due[i]):
                yield from extend(i + 1, max(top, c))

    yield from extend(0, -1)


__all__ = [
    "Congruence", "congruence_closure", "congruence_violation", "congruences",
    "generated_ideal", "ideal_violation", "is_congruence", "is_ideal",
    "lift_idempotent", "quotient_by_congruence", "rees_congruence",
    "rees_quotient",
]
