"""Enumeration kernel.  Tables travel as flat row-major tuples.

One backtracking walk yields either every labeled commutative associative
table or, by orderly generation (Read, "Every one a winner", 1978), only
the tables that are lexicographically least among their relabelings: one
per isomorphism class.
"""

from itertools import chain, permutations

_RELABELINGS = {}
_RELABELING_GROUPS = {}


def _relabelings(n):
    """(perm, src) for every non-identity relabeling of 0..n-1.

    The relabeled image of a flat table f has perm[f[src[k]]] at flat index k.
    """
    if n not in _RELABELINGS:
        out = []
        for perm in permutations(range(n)):
            if perm == tuple(range(n)):
                continue
            inv = [0] * n
            for a, b in enumerate(perm):
                inv[b] = a
            out.append((perm, tuple(inv[i] * n + inv[j]
                                    for i in range(n) for j in range(n))))
        _RELABELINGS[n] = tuple(out)
    return _RELABELINGS[n]


def _relabeling_groups(n):
    """`_relabelings(n)` grouped by the pair (x, y) sent to (0, 1).

    Each entry is (x, y, x*n + x, x*n + y, members): an image of a flat
    table f under any member starts with perm[f[x*n + x]], perm[f[x*n + y]].
    Empty groups are left out.
    """
    if n not in _RELABELING_GROUPS:
        groups = {}
        for perm, src in _relabelings(n):
            groups.setdefault((src[0] // n, src[1] % n), []).append((perm, src))
        _RELABELING_GROUPS[n] = tuple(
            (x, y, x * n + x, x * n + y, tuple(members))
            for (x, y), members in sorted(groups.items()))
    return _RELABELING_GROUPS[n]


def commutative_tables(n, lex_least=False):
    """All commutative associative tables on 0..n-1, as flat tuples.

    Backtracking over the upper-triangle cells in row-major order with
    value order 0..n-1, so the output order is deterministic.  After each
    assignment only the triples that read the new cell are checked.
    `pre[p]` lists the set cells (x, y) with xy = p, in both orientations,
    so the triples that read the new cell as (xy)z are found without a scan
    of the whole table.

    With lex_least, each completed row is tested by `is_canonical`, and a
    table some relabeling already beats is cut with its whole subtree.  The
    output is then exactly the labeled output filtered by
    `canonical_form(f, n) == f`, in the same order.
    """
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    ncells = len(cells)
    op = [[-1] * n for _ in range(n)]
    pre = [[] for _ in range(n)]
    rng = range(n)
    out = []

    def consistent(i, j, v):
        # A triple (x, y, z) is checked once its cells xy, yz, (xy)z and
        # x(yz) are all set, so the new cell needs checking only in those
        # four roles.  By commutativity the triple (z, y, x) states the same
        # equation, which makes the yz role a mirror of the xy role and the
        # x(yz) role a mirror of the (xy)z role; both orientations of the
        # cell are tried.
        rv = op[v]
        for p, q in ((i, j),) if i == j else ((i, j), (j, i)):
            rp, rq = op[p], op[q]
            # the cell as xy: (pq)z = vz against p(qz)
            for z in rng:
                a = rv[z]
                if a >= 0:
                    qz = rq[z]
                    if qz >= 0:
                        b = rp[qz]
                        if b >= 0 and b != a:
                            return False
            # the cell as (xy)z with xy = p: (xy)q = v against x(yq)
            for x, y in pre[p]:
                yq = op[y][q]
                if yq >= 0:
                    b = op[x][yq]
                    if b >= 0 and b != v:
                        return False
        return True

    def fill(k):
        if k == ncells:
            out.append(tuple(chain.from_iterable(op)))
            return
        i, j = cells[k]
        row_done = lex_least and j == n - 1
        own = ((i, j),) if i == j else ((i, j), (j, i))
        for v in rng:
            op[i][j] = v
            op[j][i] = v
            pv = pre[v]
            mark = len(pv)
            pv.extend(own)
            if consistent(i, j, v) and (not row_done or is_canonical(
                    list(chain.from_iterable(op)), n, i + 1)):
                fill(k + 1)
            del pv[mark:]
        op[i][j] = -1
        op[j][i] = -1

    fill(0)
    return out


def is_canonical(flat, n, rows):
    """False iff some relabeling is lex-smaller than the table.

    Only rows 0..rows-1 need be set (rows = n for a whole table); unset
    cells are -1.  A relabeled image is compared with the table in
    row-major order over those rows and counts as undecided at its first
    unset cell, so a False answer holds for every completion of a partial
    table.

    The relabelings are visited in groups that send the same pair (x, y) to
    (0, 1) (`_relabeling_groups`).  Every image in a group starts with
    perm[x*x], perm[x*y], and each of those two cells is known exactly when
    the product is x (giving 0) or y (giving 1), and known to be at least 2
    otherwise.  A table with 0*0 >= 2 is beaten at once, by a relabeling
    that fixes 0 and sends 0*0 to 1.  Otherwise a group whose image is
    unset, or larger than the table, at the first cell where they differ is
    skipped whole; one whose image is smaller there gives False at once;
    only the rest are compared image by image, from the first cell not
    known to be equal.  The answer does not depend on the order in which
    the relabelings are visited.
    """
    end = rows * n
    if end < 2:
        return True  # no relabeling when n = 1; nothing compared when rows = 0
    w0, w1 = flat[0], flat[1]
    if w0 > 1:
        return False  # fixing 0 and sending 0*0 to 1 starts the image with 1
    for x, y, xx, xy, members in _relabeling_groups(n):
        a = flat[xx]
        if a < 0:
            continue
        v = 0 if a == x else 1 if a == y else 2
        if v != w0:  # w0 < 2, so an inexact v is larger
            if v < w0:
                return False
            continue
        a = flat[xy]
        if a < 0:
            continue
        v = 0 if a == x else 1 if a == y else 2
        start = 2
        if v < 2:
            if v != w1:
                if v < w1:
                    return False
                continue
        elif w1 < 2:
            continue
        else:
            start = 1
        for perm, src in members:
            for k in range(start, end):
                a = flat[src[k]]
                if a < 0:
                    break
                v = perm[a]
                w = flat[k]
                if v != w:
                    if v < w:
                        return False
                    break
    return True


def canonical_form(flat, n):
    """Lexicographically least relabeling of the table."""
    return min([tuple(flat)] + [tuple(perm[flat[s]] for s in src)
                                for perm, src in _relabelings(n)])
