"""Ideals, congruences and the two quotient constructions."""

from __future__ import annotations

from .core import (PreconditionError, _check_element, _check_subset,
                   _unflatten, center, idempotents)

# 6 so that the tests can run the suite over the order-6 classes, one past
# the CLI suite's frontier of 5.  The cost of the search is not what limits
# it: at order 7 its pair masks have 21 bits, and each element's table of
# owed pairs at most 64 entries.  The search numbers the pairs for the order
# it searches, so only this guard reads the bound, and raising it at run
# time is enough to search a larger table.
MAX_CONGRUENCE_ORDER = 6

_PAIR_BITS = {}  # order n -> entry [u][v]: the bit of {u, v}, 0 if u == v


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


class Congruence:
    """A partition of 0..n-1 into nonempty classes, ordered by least member.

    Compatibility with a table is a separate check (`congruence_violation`);
    `congruence_closure` always produces compatible partitions.

    A congruence stores only `class_of`, the restricted-growth labels: x is
    in class `class_of[x]`, and each new label is one past the largest
    before it, so class k is the k-th class by least member.  `n`,
    `classes`, equality, hashing and the repr are derived from it.

    The constructor checks that the classes are nonempty sets of ints that
    partition 0..n-1.  `_trusted` skips those checks.
    """

    __slots__ = ("class_of",)

    def __init__(self, classes):
        try:
            classes = [list(c) for c in classes]
        except TypeError:
            raise PreconditionError(
                "congruence classes must be iterables of ints") from None
        for cls in classes:
            if not cls:
                raise PreconditionError("congruence classes must be nonempty")
            for x in cls:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise PreconditionError("class member %r is not an int" % (x,))
        classes = sorted(map(frozenset, classes), key=min)
        seen = {}
        for idx, cls in enumerate(classes):
            for x in cls:
                if x in seen:
                    raise PreconditionError("element %d appears in two classes" % x)
                seen[x] = idx
        n = len(seen)
        if sorted(seen) != list(range(n)):
            raise PreconditionError("classes must partition 0..n-1")
        self.class_of = tuple(seen[x] for x in range(n))

    @classmethod
    def _trusted(cls, class_of):
        # class_of: a tuple of restricted-growth labels, as `congruences()`
        # builds them at each leaf of its search and `congruence_closure`
        # from its union-find roots
        self = object.__new__(cls)
        self.class_of = class_of
        return self

    @property
    def n(self):
        return len(self.class_of)

    @property
    def classes(self):
        """The classes as a tuple of frozensets, ordered by least member."""
        members = [[] for _ in range(max(self.class_of, default=-1) + 1)]
        for x, c in enumerate(self.class_of):
            members[c].append(x)
        return tuple(map(frozenset, members))

    def __eq__(self, other):
        return isinstance(other, Congruence) and self.class_of == other.class_of

    def __hash__(self):
        return hash(self.class_of)

    def __repr__(self):
        return "Congruence(%r)" % ([sorted(c) for c in self.classes],)


def _check_ideal(table, ideal):
    ideal = frozenset(ideal)
    viol = ideal_violation(table, ideal)
    if viol is not None:
        raise PreconditionError("not an ideal: %d * %d escapes (%s side)" % viol)
    return ideal


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

    work = []
    for p in pairs:
        try:
            x, y = p
        except (TypeError, ValueError):
            raise PreconditionError("a pair has two members, got %r"
                                    % (p,)) from None
        _check_element(table, x, "pair member")
        _check_element(table, y, "pair member")
        work.append((x, y))
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
    # numbering the roots as their classes first appear in 0..n-1 gives the
    # restricted-growth labels
    roots = {}
    return Congruence._trusted(
        tuple([roots.setdefault(find(x), len(roots)) for x in range(n)]))


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
    rejected with a witnessing pair.  The table is built from
    `_quotient_cells`, the one quotient builder.
    """
    _check_congruence(table, cong)
    # class k's least member is the first element labeled k
    reps = []
    for x, c in enumerate(cong.class_of):
        if c == len(reps):
            reps.append(x)
    cells, proj = _quotient_cells(table, cong.class_of, reps)
    return _unflatten(cells), proj


def _quotient_cells(table, class_of, reps) -> tuple:
    """The quotient of the table by one of its congruences, as its flat
    row-major cells, and the projection onto its classes, which is class_of.

    The congruence is given by class_of, each element's class label, and
    reps, one member of each class in label order, by which it stands: the
    restricted-growth labels and least members, or a Rees projection's.  No
    compatibility check: the congruence must be one of the table's.
    """
    op = table.op
    return tuple([class_of[op[a][b]] for a in reps for b in reps]), class_of


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
    cells, proj = _quotient_cells(table, tuple(proj), [min(ideal)] + keep)
    return _unflatten(cells), proj


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
    if (not isinstance(e_class, int) or isinstance(e_class, bool)
            or not 0 <= e_class < max(cong.class_of) + 1):
        raise PreconditionError("class index %r out of range" % (e_class,))
    lifts = _lifts(table, cong.class_of, sorted(idempotents(table)))
    if e_class not in lifts:
        raise PreconditionError("class %d is not idempotent in the quotient" % e_class)
    return lifts[e_class]


def _lifts(table, class_of, es) -> dict:
    """Each idempotent class's lift, keyed by its label in class_of: the
    product of the idempotents in it, in one pass over the ascending
    idempotents es."""
    op = table.op
    lifts = {}
    for e in es:
        s = lifts.get(class_of[e])
        lifts[class_of[e]] = e if s is None else op[s][e]
    return lifts


def _check_congruence_order(n):
    if n > MAX_CONGRUENCE_ORDER:
        raise PreconditionError(
            "congruence enumeration is limited to order <= %d" % MAX_CONGRUENCE_ORDER)


def congruences(table):
    """All congruences of the table, in restricted-growth-string order, the
    order of their `class_of` labels.  Guarded to order <=
    MAX_CONGRUENCE_ORDER.

    A generator: the guard and the whole search, `_congruence_leaves`, run
    at the first `next()`, and the leaves are then yielded in order, each
    built with `Congruence._trusted` from its labels alone.
    """
    for class_of, _ in _congruence_leaves(table):
        yield Congruence._trusted(class_of)


def _congruence_leaves(table) -> list:
    """(class_of, reps) for every congruence of the table, in
    restricted-growth-string order: the labels a `Congruence` stores, and
    each class's least member.  Guarded to order <= MAX_CONGRUENCE_ORDER.

    Elements are labeled 0, 1, ... in turn, each with a class label at most
    one past the largest so far, so every set partition has exactly one
    labeling and the labelings come in lexicographic order.  A partition
    is a congruence iff x ~ y implies ax ~ ay and xa ~ ya for every a.

    The search state is two bitmasks over the pairs {x < y}, pair (x, y)
    at bit y(y-1)/2 + x, so the pairs inside 0..i are the low i(i+1)/2
    bits: `merged`, the pairs already in one class, and `owed`, the pairs
    that some merged pair forces.  Labeling i merges it with each member x
    of its class and owes what x ~ i forces; a pair inside 0..i that is
    owed but not merged can never be merged later, so it cuts the branch,
    and the leaves are exactly the congruences.
    """
    n = table.n
    _check_congruence_order(n)
    pair_bit = _PAIR_BITS.get(n)
    if pair_bit is None:
        pair_bit = _PAIR_BITS[n] = tuple(tuple(
            0 if u == v else 1 << (max(u, v) * (max(u, v) - 1) // 2 + min(u, v))
            for v in range(n)) for u in range(n))
    # (xa, ya) pairs row x with row y, (ax, ay) column x with column y; a
    # table equal to its transpose gives the same pairs twice, so only its
    # rows are read
    op = table.op
    columns = tuple(zip(*op))
    sides = (op,) if columns == op else (op, columns)
    # owes[y][m]: the pairs forced by x ~ y for the x in the bitmask m < 2^y
    owes = []
    for y in range(n):
        owed_by = [0]
        for x in range(y):
            forced = 0
            for side in sides:
                for u, v in zip(side[x], side[y]):
                    forced |= pair_bit[u][v]
            owed_by += [f | forced for f in owed_by]
        owes.append(owed_by)
    label = [0] * n
    members = [0] * n  # entry c: the bitmask of class c
    leaves = []
    last = n - 1

    def extend(i, merged, owed, reps):
        # reps: the least member of each class so far; i joins one of those
        # classes or opens the next
        shift = i * (i - 1) // 2  # the bit of the pair (0, i)
        inside = (1 << (shift + i)) - 1  # the pairs inside 0..i
        owes_i = owes[i]
        k = len(reps)
        for c in range(k):
            m = members[c]
            into = merged | m << shift  # and the pairs (x, i), x in class c
            due = owed | owes_i[m]
            if not due & inside & ~into:
                label[i] = c
                if i == last:
                    leaves.append((tuple(label), reps))
                else:
                    members[c] = m | 1 << i
                    extend(i + 1, into, due, reps)
                    members[c] = m
        if not owed & inside & ~merged:
            label[i] = k
            if i == last:
                leaves.append((tuple(label), reps + (i,)))
            else:
                members[k] = 1 << i
                extend(i + 1, merged, owed, reps + (i,))

    extend(0, 0, 0, ())
    # extend's closure holds extend itself; emptying it lets refcounting,
    # not the cyclic collector, free the search state
    del extend
    return leaves


__all__ = [
    "Congruence", "congruence_closure", "congruence_violation", "congruences",
    "ideal_violation", "lift_idempotent", "quotient_by_congruence",
    "rees_quotient",
]
