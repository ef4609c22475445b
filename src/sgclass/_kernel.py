"""Enumeration kernel.  Tables travel as flat row-major tuples.

One backtracking walk, orderly generation (Read, "Every one a winner",
1978), yields only the tables that are lexicographically least among their
relabelings: one per isomorphism class.  It carries its live relabelings
down the search, as in McKay's canonical augmentation (J. Algorithms,
1998).  The labeled tables are the images of those classes under every
relabeling.
"""

from itertools import permutations

_RELABELINGS = {}


def _relabelings(n):
    """(perm, src, settles) for every non-identity relabeling of 0..n-1.

    The relabeled image of a flat table f has perm[f[src[k]]] at flat index k.
    settles[w] is the one v with perm[v] = w and the bitmask of the v with
    perm[v] < w.
    """
    if n not in _RELABELINGS:
        out = []
        for perm in permutations(range(n)):
            inv = sorted(range(n), key=perm.__getitem__)
            out.append((perm, tuple(a * n + b for a in inv for b in inv),
                        tuple((v, sum(1 << u for u in inv[:w]))
                              for w, v in enumerate(inv))))
        _RELABELINGS[n] = tuple(out[1:])  # out[0] is the identity
    return _RELABELINGS[n]


def _advance(flat, perm, src, k, end):
    """Compare one relabeled image, equal to the table before k, with it
    from k up to end: -1 if the image is smaller where they first differ,
    None if it is larger, else where it stopped undecided (end, or the
    first position whose image cell is unset).
    """
    while k < end:
        a = flat[src[k]]
        if a < 0:
            return k
        v = perm[a]
        w = flat[k]
        if v != w:
            return -1 if v < w else None
        k += 1
    return k


def commutative_tables(n, lex_least=False):
    """All commutative associative tables on 0..n-1, as flat tuples in
    ascending order; with lex_least, only the lex-least table of each
    isomorphism class.

    The walk finds the classes, backtracking over the upper-triangle cells
    in row-major order with value order 0..n-1, so they come out sorted.
    After each assignment only the triples that read the new cell are
    checked.  `pre[p]` lists the set cells (x, y) with xy = p, in both
    orientations, so the triples that read the new cell as (xy)z are found
    without a scan of the whole table.

    Every relabeling is carried down the walk as its `_relabelings` entry
    plus k, live while its image equals the table before k.  Once cell c is
    set, the set cells, mirrored, fill the flat table up to ends[c], and
    `_advance` takes a woken relabeling on until it is larger (dropped for
    the subtree), smaller (the branch is cut) or undecided.  Undecided, it
    waits in by_pos[ends[c]], or on its unset source cell in by_src, filed
    under the one value v with perm[v] equal to the table at k; that cell's
    `cuts` stacks the bitmask of the v with perm[v] below it, each of which
    cuts the branch untested.  Both come from settles.  Setting a cell reads
    only its own buckets, which its mirror shares and nothing below it
    changes, and a node pops the relabelings it placed.

    Every labeled table relabels exactly one class, so the labeled output
    is the set of the classes' images under every relabeling, sorted.
    """
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    ncells = len(cells)
    op = [[-1] * n for _ in range(n)]
    flat = [-1] * (n * n)
    pre = [[] for _ in range(n)]
    rng = range(n)
    out = []
    # the last cell of row i also completes row i + 1 up to its diagonal
    ends = [i * n + j + 1 if j < n - 1 or i == n - 1 else (i + 1) * (n + 1)
            for i, j in cells]
    by_src = [[[] for _ in rng] for _ in flat]
    cuts = [[0] for _ in flat]
    # a cell and its mirror are set together, so they share their buckets
    for i, j in cells:
        by_src[j * n + i], cuts[j * n + i] = by_src[i * n + j], cuts[i * n + j]
    by_pos = [[] for _ in range(n * n + 1)]
    by_pos[0].extend(live + (0,) for live in _relabelings(n))
    wakes = [(by_src[i * n + j], cuts[i * n + j],
              by_pos[ends[c - 1] if c else 0:ends[c]])
             for c, (i, j) in enumerate(cells)]

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

    def fill(c):
        if c == ncells:
            out.append(tuple(flat))
            return
        i, j = cells[c]
        ij, ji = i * n + j, j * n + i
        own = ((i, j),) if i == j else ((i, j), (j, i))
        end = ends[c]
        going, stack, on_pos = wakes[c]
        cut = stack[-1]
        woken = [live for bucket in on_pos for live in bucket]
        for v in rng:
            if cut >> v & 1:
                continue
            op[i][j] = op[j][i] = flat[ij] = flat[ji] = v
            pv = pre[v]
            mark = len(pv)
            pv.extend(own)
            if consistent(i, j, v):
                placed = []
                for perm, src, settles, k in going[v] + woken:
                    k = _advance(flat, perm, src, k, end)
                    if k is None:
                        continue
                    if k < 0:
                        break
                    if k == end:
                        bucket = by_pos[k]
                        bucket.append((perm, src, settles, k))
                    else:
                        t, below = settles[flat[k]]
                        bucket = by_src[src[k]][t]
                        bucket.append((perm, src, settles, k + 1))
                        if below:
                            stack = cuts[src[k]]
                            stack.append(stack[-1] | below)
                            placed.append(stack)
                    placed.append(bucket)
                else:
                    fill(c + 1)
                for bucket in placed:
                    bucket.pop()
            del pv[mark:]
        op[i][j] = op[j][i] = flat[ij] = flat[ji] = -1

    fill(0)
    # fill's closure holds fill itself; emptying it lets refcounting, not
    # the cyclic collector, free the walk's state
    del fill
    if lex_least:
        return out
    labeled = set(out)
    for perm, src, _ in _relabelings(n):
        labeled.update(tuple(perm[f[s]] for s in src) for f in out)
    return sorted(labeled)


def is_canonical(flat, n, rows):
    """False iff some relabeling is lex-smaller than the table.

    Only rows 0..rows-1 need be set (rows = n for a whole table); unset
    cells are -1.  `_advance` compares each image with the table over those
    rows and leaves it undecided at its first unset cell, so a False answer
    holds for every completion of a partial table.
    """
    return all(_advance(flat, perm, src, 0, rows * n) != -1
               for perm, src, _ in _relabelings(n))


def canonical_form(flat, n):
    """Lexicographically least relabeling of the table."""
    return min([tuple(flat)] + [tuple(perm[flat[s]] for s in src)
                                for perm, src, _ in _relabelings(n)])
