"""The cli-mix input pool.

Tables of orders 3 to 8 come from this file's own formulas (cyclic, chain,
null, Taimanov, antichain-with-zero, direct products, adjoined zero or
identity, and relabellings), never from the library's builders, so a bug in
a builder cannot hide in the inputs.  Descriptor expressions are drawn from
the CLI grammar, and a small fixed share of inputs is malformed.

The pool itself is fixed by POOL_SEED so that every item has a committed
golden digest (golden.json).  A run's --seed only decides which pool items
fill each round and in what order; the composition of a round is fixed
(ROUND), so every seed puts the same load on every layer.
"""

from __future__ import annotations

import hashlib
import random
from typing import NamedTuple

POOL_SEED = 210106520

# Pool items per round, by category.  The power builds (on bases of order 7
# and 8 above all) carry about half of a round's time; the small commands
# are most of the operations, so they set the median.
ROUND = (
    ("validate", 16),
    ("analyze", 16),
    ("quotient-pairs", 12),
    ("quotient-ideal", 12),
    ("classify", 24),
    ("malformed", 4),
    ("power-small", 4),
    ("power-7", 1),
    ("power-8", 1),
)


class Item(NamedTuple):
    key: str          # stable name, the key of the golden digest
    category: str
    argv: tuple       # arguments to sgclass.cli.main, paths relative
    tables: int       # table files the command reads


# -- tables from the benchmark's own formulas --------------------------------

def cyclic(m):
    return [[(i + j) % m for j in range(m)] for i in range(m)]


def chain(m):
    return [[min(i, j) for j in range(m)] for i in range(m)]


def null(m):
    return [[0] * m for _ in range(m)]


def taimanov(m):
    return [[1 if i != j and i >= 2 and j >= 2 else 0 for j in range(m)]
            for i in range(m)]


def antichain_zero(m):
    return [[i if i == j else 0 for j in range(m)] for i in range(m)]


def product(a, b):
    bn = len(b)
    return [[a[x][u] * bn + b[y][v] for u in range(len(a)) for v in range(bn)]
            for x in range(len(a)) for y in range(bn)]


def with_zero(t):
    """A fresh absorbing element at the last index."""
    n = len(t)
    return [list(row) + [n] for row in t] + [[n] * (n + 1)]


def with_identity(t):
    """A fresh identity at index 0; old elements shift up by one."""
    n = len(t)
    return ([list(range(n + 1))]
            + [[i + 1] + [v + 1 for v in t[i]] for i in range(n)])


def relabel(t, perm):
    n = len(t)
    inv = [0] * n
    for a, b in enumerate(perm):
        inv[b] = a
    return [[perm[t[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]


def _base_tables():
    out = {}
    for m in range(3, 9):
        out["cyclic%d" % m] = cyclic(m)
        out["chain%d" % m] = chain(m)
        out["null%d" % m] = null(m)
        out["taimanov%d" % m] = taimanov(m)
        out["antichain%d" % m] = antichain_zero(m)
    out["c2xchain3"] = product(cyclic(2), chain(3))
    out["c2xc4"] = product(cyclic(2), cyclic(4))
    out["chain2xnull3"] = product(chain(2), null(3))
    out["c3xchain2"] = product(cyclic(3), chain(2))
    out["null2xtaimanov4"] = product(null(2), taimanov(4))
    out["c2xc2xc2"] = product(product(cyclic(2), cyclic(2)), cyclic(2))
    out["chain2xchain4"] = product(chain(2), chain(4))
    out["c2xtaimanov4"] = product(cyclic(2), taimanov(4))
    out["chain2xchain2xchain2"] = product(product(chain(2), chain(2)), chain(2))
    out["antichain3xc2"] = product(antichain_zero(3), cyclic(2))
    out["zero+cyclic5"] = with_zero(cyclic(5))
    out["zero+null4"] = with_zero(null(4))
    out["one+taimanov5"] = with_identity(taimanov(5))
    out["one+null3"] = with_identity(null(3))
    out["zero+chain6"] = with_zero(chain(6))
    out["one+cyclic7"] = with_identity(cyclic(7))
    out["zero+zero+cyclic3"] = with_zero(with_zero(cyclic(3)))
    out["one+zero+cyclic2"] = with_identity(with_zero(cyclic(2)))
    return out


# semilattices among the tables above, usable as (poset PATH)
_POSETS = ("chain4", "chain7", "antichain5", "chain2xchain4",
           "chain2xchain2xchain2")


def render(t, comment):
    lines = ["# %s" % comment, str(len(t))]
    lines += [" ".join(str(v) for v in row) for row in t]
    return "\n".join(lines) + "\n"


def _generated_ideal(t, a):
    ideal = {a}
    work = [a]
    while work:
        x = work.pop()
        for y in range(len(t)):
            v = t[x][y]
            if v not in ideal:
                ideal.add(v)
                work.append(v)
    return sorted(ideal)


# -- descriptor expressions --------------------------------------------------

def _group(rng):
    factors = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("cyclic", "cyclic", "prufer", "integers",
                           "cyclic-tower"))
        if kind == "cyclic":
            body = "cyclic %d" % rng.randint(2, 12)
        elif kind == "integers":
            body = "integers"
        else:
            body = "%s %d" % (kind, rng.choice((2, 3, 5, 7)))
        mult = rng.choice(("", "", " x 2", " x 3", " x omega"))
        factors.append("(%s%s)" % (body, mult))
    return "(group %s)" % " ".join(factors)


def _descriptor(rng, table_files, depth):
    if depth == 0 or rng.random() < 0.35:
        leaf = rng.randrange(6)
        if leaf == 0:
            return rng.choice(("(taimanov)", "(null)"))
        if leaf == 1:
            return rng.choice(("(semilattice chain-omega)",
                               "(semilattice antichain-omega-zero)"))
        if leaf == 2:
            return "(semilattice (poset %s))" % rng.choice(
                ["%s.tbl" % p for p in _POSETS])
        if leaf == 3:
            return "(table %s)" % rng.choice(table_files)
        return _group(rng)
    kind = rng.choice(("product", "product", "adjoin-zero", "adjoin-identity"))
    if kind == "product":
        return "(product %s %s)" % (_descriptor(rng, table_files, depth - 1),
                                    _descriptor(rng, table_files, depth - 1))
    return "(%s %s)" % (kind, _descriptor(rng, table_files, depth - 1))


# -- malformed inputs --------------------------------------------------------

_BAD_FILES = {
    "bad-row.tbl": "# a row is short\n4\n0 1 2 3\n1 2 3\n2 3 0 1\n3 0 1 2\n",
    "bad-range.tbl": "# an entry is out of range\n3\n0 1 2\n1 7 0\n2 0 1\n",
    "bad-token.tbl": "# an entry is not an integer\n3\n0 1 2\n1 x 0\n2 0 1\n",
    "bad-order.tbl": "# the order line is not a number\nthree\n0 1 2\n",
    "bad-rows.tbl": "# a row is missing\n3\n0 0 0\n0 0 0\n",
    # commutative, not associative: (1*1)*2 = 0*2 = 2 but 1*(1*2) = 1*0 = 0
    "nonassoc.tbl": "# commutative, not associative\n3\n1 0 2\n0 0 0\n2 0 0\n",
}

_BAD_COMMANDS = (
    ("validate", "bad-row.tbl"),
    ("analyze", "bad-range.tbl"),
    ("power", "bad-token.tbl"),
    ("validate", "bad-order.tbl"),
    ("analyze", "bad-rows.tbl"),
    ("analyze", "nonassoc.tbl"),
    ("power", "missing.tbl"),
)

_BAD_EXPRESSIONS = (
    "(group)",
    "(product (null))",
    "(semilattice chain)",
    "(group (prufer 4))",
    "(group (cyclic 0))",
    "(table missing.tbl)",
    "(table nonassoc.tbl)",
    "(semilattice (poset cyclic3.tbl))",
    "((null)",
    "(null) (taimanov)",
    "(adjoin-zero)",
    "(group (cyclic 3 x 0))",
)


def build_pool():
    """Return (files, items): file name -> text, and the pool items.

    Every call returns the same pool.  Item keys are unique.
    """
    rng = random.Random(POOL_SEED)
    files = {}
    tables = {}
    for name, t in _base_tables().items():
        tables[name] = t
        perm = list(range(len(t)))
        rng.shuffle(perm)
        tables[name + "~r"] = relabel(t, perm)
    for name, t in tables.items():
        files["%s.tbl" % name] = render(t, name)
    files.update(_BAD_FILES)

    items = []

    def add(key, category, argv, n_tables):
        items.append(Item(key, category, tuple(argv), n_tables))

    for name, t in tables.items():
        path = "%s.tbl" % name
        n = len(t)
        for cmd in ("validate", "analyze"):
            json_flag = rng.random() < 0.5
            add("%s:%s%s" % (cmd, name, "+json" if json_flag else ""), cmd,
                [cmd, path] + (["--json"] if json_flag else []), 1)
        x, y = rng.sample(range(n), 2)
        pairs = "%d=%d" % (x, y)
        if rng.random() < 0.5:
            u, v = rng.sample(range(n), 2)
            pairs += ",%d=%d" % (u, v)
        add("quotient-pairs:%s:%s" % (name, pairs), "quotient-pairs",
            ["quotient", "--pairs", pairs, path, "--json"], 1)
        ideal = ",".join(map(str, _generated_ideal(t, rng.randrange(n))))
        add("quotient-ideal:%s:%s" % (name, ideal), "quotient-ideal",
            ["quotient", "--ideal", ideal, path], 1)
        category = "power-%d" % n if n >= 7 else "power-small"
        add("power:%s" % name, category, ["power", path, "--json"], 1)

    table_files = sorted("%s.tbl" % name for name in tables)
    seen = set()
    while len(seen) < 96:
        expr = _descriptor(rng, table_files, 3)
        if expr in seen:
            continue
        seen.add(expr)
        json_flag = rng.random() < 0.5
        add("classify:%s%s" % (expr, "+json" if json_flag else ""), "classify",
            ["classify", expr] + (["--json"] if json_flag else []),
            expr.count(".tbl"))

    for cmd, path in _BAD_COMMANDS:
        add("malformed:%s:%s" % (cmd, path), "malformed", [cmd, path], 1)
    for expr in _BAD_EXPRESSIONS:
        add("malformed:classify:%s" % expr, "malformed", ["classify", expr],
            expr.count(".tbl"))
    for name in sorted(tables)[:3]:
        n = len(tables[name])
        add("malformed:quotient-pairs:%s" % name, "malformed",
            ["quotient", "--pairs", "0=%d" % n, "%s.tbl" % name], 1)
    add("malformed:quotient-ideal:cyclic5", "malformed",
        ["quotient", "--ideal", "1", "cyclic5.tbl"], 1)
    add("malformed:quotient-ideal:chain6", "malformed",
        ["quotient", "--ideal", "5", "chain6.tbl"], 1)
    return files, items


def pool_digest(files, items):
    """One digest over every file and argument list of the pool."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    for item in items:
        h.update(item.key.encode() + b"\0" + "\0".join(item.argv).encode()
                 + b"\1")
    return h.hexdigest()


def rounds(items, seed):
    """Endless seeded sequence of rounds; each round has ROUND's make-up."""
    rng = random.Random(seed)
    cats = {}
    for item in items:
        cats.setdefault(item.category, []).append(item)
    while True:
        batch = [rng.choice(cats[cat]) for cat, k in ROUND for _ in range(k)]
        rng.shuffle(batch)
        yield batch
