"""Symbolic algebra of possibly infinite commutative semigroups.

A Descriptor denotes a commutative semigroup built from finite tables,
torsion/free abelian groups, semilattices, the Taimanov semigroup, an
infinite null semigroup, direct products, and zero/identity adjunction.
Each constructor class holds its rules: `profile()` gives the predicate
profile the classifier consumes, from its children's profiles, and
`truncate(budget)` a finite subsemigroup used to cross-check those rules.
`evaluate` and `truncate` are the checked entry points.  Every node is a
`Descriptor`; a group holds its factors and each semilattice is a subclass
of `Semilattice`:

    Product(Group((Factor("cyclic", 2),)), OmegaChain())

is `(product (group (cyclic 2)) (semilattice chain-omega))`.

Descriptor expressions (`parse_descriptor`):

    desc   := "(" ( "table" PATH | "group" factor+ | "semilattice" slspec
                  | "product" desc desc | "adjoin-zero" desc
                  | "adjoin-identity" desc | "taimanov" | "null" ) ")"
    factor := "(" ( "cyclic" INT | "prufer" PRIME | "integers"
                  | "cyclic-tower" PRIME ) [ "x" (INT | "omega") ] ")"
    slspec := "chain-omega" | "antichain-omega-zero" | "(" "poset" PATH ")"

INT and PRIME are ASCII decimal, -?[0-9]+; PATH names a table file.
Table and poset leaves refuse anything that is not a commutative
`CayleyTable`: the characterizations cover commutative semigroups only.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Union

from .core import (CayleyTable, _decimal, _first_idempotent, _positive_int,
                   _powers, adjoin_identity, adjoin_zero, antichain_zero_table,
                   chain_table, clifford_part, cyclic_table, group_exponent,
                   idempotents, null_table, parse_table, product_table,
                   restrict, taimanov_table, validate)

OMEGA = "omega"  # multiplicity marker: countably many copies, direct sum

# Largest prime parameter accepted: trial division stays under 10^6 steps.
MAX_PRIME = 10 ** 12

FACTOR_KINDS = ("cyclic", "prufer", "integers", "cyclic-tower")


def is_prime(p) -> bool:
    if not isinstance(p, int) or p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Factor:
    """One summand of an abelian group: cyclic(n), prufer(p), integers, or
    cyclic-tower(p) meaning the direct sum of Z_{p^k} over all k >= 1."""

    kind: str
    param: Optional[int] = None
    mult: Union[int, str] = 1

    def __post_init__(self):
        if self.kind not in FACTOR_KINDS:
            raise ValueError("unknown group factor kind %r" % (self.kind,))
        if self.kind == "cyclic":
            if not _positive_int(self.param):
                raise ValueError("cyclic order must be a positive integer")
        elif self.kind == "integers":
            if self.param is not None:
                raise ValueError("integers takes no parameter")
        elif isinstance(self.param, int) and self.param > MAX_PRIME:
            raise ValueError("prime parameters are limited to 10^12")
        elif not is_prime(self.param):
            raise ValueError("%r is not prime" % (self.param,))
        if self.mult != OMEGA and not _positive_int(self.mult):
            raise ValueError("multiplicity must be a positive integer or omega")

    def text(self) -> str:
        if self.kind == "integers":
            body = "integers"
        else:
            body = "%s %d" % (self.kind, self.param)
        if self.mult == 1:
            return "(%s)" % body
        return "(%s x %s)" % (body, self.mult)


def _check_commutative(table, what):
    if not isinstance(table, CayleyTable):
        raise TypeError("%s is not a CayleyTable: %r" % (what, table))
    report = validate(table)
    if not report.associative:
        raise ValueError("%s is not associative: witness %r"
                         % (what, report.assoc_witness))
    if not report.commutative:
        raise ValueError("%s is not commutative: witness %r; classification "
                         "covers commutative semigroups only"
                         % (what, report.comm_witness))


# -- finite truncations ------------------------------------------------------

def _truncate_table(table, budget):
    if table.n <= budget:
        return table
    for m in range(budget, 0, -1):
        closure = set(range(m))
        work = list(closure)
        while work and len(closure) <= budget:
            x = work.pop()
            for y in sorted(closure):
                for v in (table.op[x][y], table.op[y][x]):
                    if v not in closure:
                        closure.add(v)
                        work.append(v)
        if len(closure) <= budget:
            sub, _ = restrict(table, closure)
            return sub
    e = _first_idempotent(table, 0, _powers(table, 0))
    sub, _ = restrict(table, {e})
    return sub


def _factor_chunk(factor, room):
    # largest finite subgroup of one copy of the factor with order <= room
    if factor.kind == "cyclic":
        # q = 1 always divides, so a divisor is found
        return next(q for q in range(min(factor.param, room), 0, -1)
                    if factor.param % q == 0)
    if factor.kind == "integers":
        return 1
    q = 1
    while q * factor.param <= room:
        q *= factor.param
    return q


# Deepest descriptor nesting accepted.  Parsing, evaluation and rendering
# recurse once per level, the dataclass ==, hash() and repr() up to three
# times, so every descriptor stays well inside the interpreter's default
# recursion limit of 1000.
MAX_DEPTH = 200

# Most decimal digits a finite order or exponent may have, so that every
# report prints it within Python's default limit of 4300 digits.
MAX_DIGITS = 4000


def _check_digits(log10, what):
    """Reject a number whose decimal logarithm is `log10` past MAX_DIGITS."""
    if log10 >= MAX_DIGITS:
        raise ValueError("%s has more than %d decimal digits"
                         % (what, MAX_DIGITS))


@dataclass
class PredicateProfile:
    """The classification predicates of one commutative semigroup.

    size None means countably infinite.  exponent witnesses
    subgroups_bounded when it holds: a bound that every subgroup's exponent
    divides, the lcm of the subgroups' exponents for every constructor.
    witness maps each predicate name to a short reason string.
    """

    size: Optional[int]
    periodic: bool
    chain_finite: bool
    subgroups_bounded: bool
    exponent: Optional[int]
    clifford: bool
    almost_clifford: bool
    has_singleton_square: bool
    witness: dict


# The conditions of Theorems 1.4 and 1.7, in report order: each name maps to
# the profile attribute behind it, the value that meets it, and its label.
CONDITIONS = {
    "periodic": ("periodic", True, "periodic"),
    "chain-finite": ("chain_finite", True, "chain-finite"),
    "subgroups-bounded": ("subgroups_bounded", True, "subgroups bounded"),
    "almost-clifford": ("almost_clifford", True, "almost Clifford"),
    "singleton-square": ("has_singleton_square", False, "singleton square"),
}


class Descriptor:
    """Base of the constructors.  Each node knows its nesting depth (a leaf
    is 1) as the attribute `depth`, kept outside the dataclass fields so
    that ==, hash() and repr() ignore it.  A constructor with a head in
    CONSTRUCTORS takes descriptors as all its fields and refuses anything
    else.  Each constructor class holds its rules: `profile()`, whose
    witnesses name the leftmost deciding child, and `truncate(budget)`, a
    subsemigroup of at most `budget` elements."""

    def __post_init__(self):
        children = ([_descriptor(getattr(self, f.name)) for f in fields(self)]
                    if type(self) in _HEADS else ())
        depth = 1 + max((c.depth for c in children), default=0)
        if depth > MAX_DEPTH:
            raise ValueError("descriptor nested deeper than %d levels"
                             % MAX_DEPTH)
        object.__setattr__(self, "depth", depth)


@dataclass(frozen=True)
class FiniteTable(Descriptor):
    table: CayleyTable
    path: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        super().__post_init__()
        _check_commutative(self.table, "table")

    def profile(self):
        t = self.table
        exponent = math.lcm(*(group_exponent(t, e) for e in idempotents(t)))
        cliff = clifford_part(t) == frozenset(t.elements)
        w = dict.fromkeys(("cardinality", "periodic", "chain_finite",
                           "subgroups_bounded", "almost_clifford",
                           "has_singleton_square", "clifford"),
                          "finite table (n=%d)" % t.n)
        return PredicateProfile(t.n, True, True, True, exponent, cliff,
                                True, False, w)

    def truncate(self, budget):
        # the subsemigroup generated by the longest fitting initial segment
        return _truncate_table(self.table, budget)


@dataclass(frozen=True)
class Group(Descriptor):
    """The direct sum of a finite tuple of factors."""

    factors: tuple

    def __post_init__(self):
        try:
            object.__setattr__(self, "factors", tuple(self.factors))
        except TypeError:  # not iterable, such as a lone Factor
            raise ValueError("group factors must be Factor instances") from None
        for f in self.factors:
            if not isinstance(f, Factor):
                raise ValueError("group factors must be Factor instances")
        if not self.factors:  # `describe` could not spell it
            raise ValueError("group needs at least one factor")
        super().__post_init__()

    def profile(self):
        factors = self.factors
        size = 1
        digits = 0.0
        for f in factors:
            if f.param == 1:
                continue  # trivial factors add nothing, even omega many
            if f.kind != "cyclic" or f.mult == OMEGA:
                size = None
                break
            # past 4 * MAX_DIGITS copies the bound is passed (2^4 > 10),
            # and a larger multiplicity may not convert to a float
            digits += min(f.mult, 4 * MAX_DIGITS) * math.log10(f.param)
            _check_digits(digits, "group order")
            size *= f.param ** f.mult
        w = {"cardinality": "finite group" if size is not None else
             "some factor is infinite"}
        bad_periodic = next((f for f in factors if f.kind == "integers"), None)
        periodic = bad_periodic is None
        w["periodic"] = ("every factor is torsion" if periodic else
                         "%s has elements of infinite order"
                         % bad_periodic.text())
        w["chain_finite"] = "group: the identity is the only idempotent"
        bad_bounded = next((f for f in factors if f.kind != "cyclic"), None)
        bounded = bad_bounded is None
        exponent = None
        if bounded:
            exponent = math.lcm(1, *(f.param for f in factors))
            _check_digits(math.log10(exponent), "group exponent")
            w["subgroups_bounded"] = "exponent %d" % exponent
        else:
            w["subgroups_bounded"] = ("%s has elements of unbounded order"
                                      % bad_bounded.text())
        w["clifford"] = w["almost_clifford"] = "groups are Clifford"
        w["has_singleton_square"] = ("cancellation: |AA| >= |aA| = |A| "
                                     "for any a in A")
        return PredicateProfile(size, periodic, True, bounded, exponent,
                                True, True, False, w)

    def truncate(self, budget):
        # cyclic chunks, the largest that fits per factor copy, left to right
        table = cyclic_table(1)
        for f in self.factors:
            copies = f.mult if isinstance(f.mult, int) else budget
            for _ in range(copies):
                room = budget // table.n
                if room < 2:
                    break
                q = _factor_chunk(f, room)
                if q < 2:
                    break
                table = product_table(table, cyclic_table(q))
        return table


class Semilattice(Descriptor):
    """Base of the semilattice constructors.  Each carries its `size` (None
    for countably infinite), its `chain_finite` flag with the reason
    `chain_finite_why`, and `truncate(budget)`, its initial segment."""

    def profile(self):
        w = {
            "cardinality": ("finite poset" if self.size is not None
                            else "infinite carrier"),
            "periodic": "idempotent elements",
            "chain_finite": self.chain_finite_why,
            "subgroups_bounded": "all subgroups trivial (exponent 1)",
            "clifford": "semilattices are Clifford",
            "almost_clifford": "semilattices are Clifford",
            "has_singleton_square": "idempotency: a in A implies a = a*a in AA",
        }
        return PredicateProfile(self.size, True, self.chain_finite, True, 1,
                                True, True, False, w)


@dataclass(frozen=True)
class FinitePoset(Semilattice):
    table: CayleyTable
    path: Optional[str] = field(default=None, compare=False)

    chain_finite = True
    chain_finite_why = "finite semilattice"

    def __post_init__(self):
        super().__post_init__()
        _check_commutative(self.table, "poset table")
        if len(idempotents(self.table)) != self.table.n:
            bad = min(set(self.table.elements) - idempotents(self.table))
            raise ValueError("poset table is not idempotent: element %d" % bad)
        object.__setattr__(self, "size", self.table.n)

    def truncate(self, budget):
        return _truncate_table(self.table, budget)


@dataclass(frozen=True)
class OmegaChain(Semilattice):
    """Order-isomorphic to the natural numbers under min."""

    size = None
    chain_finite = False
    chain_finite_why = "chain-omega is itself an infinite chain"
    truncate = staticmethod(chain_table)


@dataclass(frozen=True)
class OmegaAntichainZero(Semilattice):
    """Infinitely many pairwise incomparable elements above one bottom."""

    size = None
    chain_finite = True
    chain_finite_why = "antichain with zero: chains have at most 2 elements"
    truncate = staticmethod(antichain_zero_table)


def _decided_by(name, pl, pr, left, right, out_w, otherwise):
    """Witness `name` by the left factor if `left`, else by the right if
    `right`, else by `otherwise`."""
    if left:
        out_w[name] = "left factor: %s" % pl.witness[name]
    elif right:
        out_w[name] = "right factor: %s" % pr.witness[name]
    else:
        out_w[name] = otherwise


def _combine_and(name, pl, pr, out_w):
    left, right = getattr(pl, name), getattr(pr, name)
    _decided_by(name, pl, pr, not left, not right, out_w,
                "holds in both factors")
    return left and right


@dataclass(frozen=True)
class Product(Descriptor):
    left: Descriptor
    right: Descriptor

    def profile(self):
        pl = self.left.profile()
        pr = self.right.profile()
        w = {}
        size = None
        if pl.size is not None and pr.size is not None:
            _check_digits(math.log10(pl.size) + math.log10(pr.size), "order")
            size = pl.size * pr.size
        w["cardinality"] = ("product of finite factors" if size is not None
                            else "an infinite factor")
        # a product is periodic / chain-finite / bounded iff both factors
        # are: powers, chains and subgroups project coordinatewise
        periodic = _combine_and("periodic", pl, pr, w)
        cf = _combine_and("chain_finite", pl, pr, w)
        bounded = _combine_and("subgroups_bounded", pl, pr, w)
        exponent = None
        if bounded:
            exponent = math.lcm(pl.exponent, pr.exponent)
            _check_digits(math.log10(exponent), "exponent")
        cliff = pl.clifford and pr.clifford
        w["clifford"] = ("both factors Clifford" if cliff else
                         "a factor is not Clifford")
        # the non-Clifford part of a product is (X \ H(X)) x Y union
        # X x (Y \ H(Y)); each term is finite iff the side is Clifford or
        # the side is almost Clifford with the other side finite
        ac_left = pl.clifford or (pl.almost_clifford and pr.size is not None)
        ac_right = pr.clifford or (pr.almost_clifford and pl.size is not None)
        ac = ac_left and ac_right
        _decided_by("almost_clifford", pl, pr, not ac_left, not ac_right, w,
                    "both sides contribute a finite non-Clifford part")
        # a singleton-square witness crosses a product with any idempotent
        # on the other side; conversely an infinite witness has an infinite
        # projection, so the flag is the disjunction
        ss = pl.has_singleton_square or pr.has_singleton_square
        _decided_by("has_singleton_square", pl, pr, pl.has_singleton_square,
                    pr.has_singleton_square, w, "neither factor has one")
        return PredicateProfile(size, periodic, cf, bounded, exponent, cliff,
                                ac, ss, w)

    def truncate(self, budget):
        # the left side greedily, the right side in what the left leaves
        a = self.left.truncate(budget)
        return product_table(a, self.right.truncate(max(1, budget // a.n)))


@dataclass(frozen=True)
class _Adjunction(Descriptor):
    """One new central idempotent; the table builder `adjoin` adds it."""

    inner: Descriptor

    def profile(self):
        # every predicate survives, chains grow by at most one element
        p = self.inner.profile()
        return replace(p, size=p.size + 1 if p.size is not None else None)

    def truncate(self, budget):
        # the inner semigroup truncated one element smaller, plus the new one
        if budget == 1:
            return null_table(1)
        return self.adjoin(self.inner.truncate(budget - 1))


@dataclass(frozen=True)
class AdjoinZero(_Adjunction):
    adjoin = staticmethod(adjoin_zero)


@dataclass(frozen=True)
class AdjoinIdentity(_Adjunction):
    adjoin = staticmethod(adjoin_identity)


def _zero_profile(periodic_why, singleton_square, singleton_square_why):
    # a countably infinite carrier whose products all land in {0, 1}
    w = {
        "cardinality": "infinite carrier",
        "periodic": periodic_why,
        "chain_finite": "chains have at most 2 elements",
        "subgroups_bounded": "all subgroups trivial (exponent 1)",
        "clifford": "Clifford part is the zero alone",
        "almost_clifford": "complement of the Clifford part {0} is infinite",
        "has_singleton_square": singleton_square_why,
    }
    return PredicateProfile(None, True, True, True, 1, False, False,
                            singleton_square, w)


@dataclass(frozen=True)
class Taimanov(Descriptor):
    """Countably infinite carrier; distinct elements outside {0, 1} multiply
    to 1, every other product is 0."""

    def profile(self):
        return _zero_profile("every square lands on the zero", False,
                             "an infinite A has AA containing both 0 and 1 "
                             "(squares give 0, distinct products 1)")

    truncate = staticmethod(taimanov_table)  # the first `budget` points


@dataclass(frozen=True)
class Null(Descriptor):
    """Countably infinite carrier with every product equal to one zero."""

    def profile(self):
        return _zero_profile("every square is the zero", True,
                             "A = the whole carrier has AA = {0}")

    truncate = staticmethod(null_table)  # the first `budget` points


# -- syntax ------------------------------------------------------------------
# One head keyword per constructor whose children are all descriptors: the
# children are the dataclass fields, in order.  The parser and `describe`
# both read these two tables.

CONSTRUCTORS = {
    "product": Product,
    "adjoin-zero": AdjoinZero,
    "adjoin-identity": AdjoinIdentity,
    "taimanov": Taimanov,
    "null": Null,
}
_HEADS = {cls: head for head, cls in CONSTRUCTORS.items()}

SEMILATTICE_WORDS = {
    "chain-omega": OmegaChain,
    "antichain-omega-zero": OmegaAntichainZero,
}
_WORDS = {cls: word for word, cls in SEMILATTICE_WORDS.items()}


def describe(d) -> str:
    """Compact human-readable form (no file paths needed)."""
    head = _HEADS.get(type(d))
    if head is not None:
        parts = [head]
        for f in fields(d):
            parts.append(describe(getattr(d, f.name)))
        return "(%s)" % " ".join(parts)
    if isinstance(d, FiniteTable):
        return d.path if d.path else "finite table (n=%d)" % d.table.n
    if isinstance(d, Group):
        return "(group %s)" % " ".join(f.text() for f in d.factors)
    if isinstance(d, FinitePoset):
        return "(semilattice poset n=%d)" % d.table.n
    if type(d) in _WORDS:
        return "(semilattice %s)" % _WORDS[type(d)]
    raise TypeError("not a descriptor: %r" % (d,))


class DescriptorSyntaxError(ValueError):
    """Descriptor expression does not parse; the message leads with the
    line and column of the offending token."""

    def __init__(self, message, line, col):
        super().__init__("line %d, column %d: %s" % (line, col, message))


_TOKEN = re.compile(r"[()]|[^() \t\r\n]+")


class _Tokens:
    """Tokens and their offsets; a position is computed only for an error."""

    def __init__(self, text):
        self.text = text
        self.items = [(m.group(), m.start()) for m in _TOKEN.finditer(text)]
        self.pos = 0

    def error(self, message, at):
        text = self.text
        return DescriptorSyntaxError(message, text.count("\n", 0, at) + 1,
                                     at - text.rfind("\n", 0, at))

    def peek(self):
        return self.items[self.pos][0] if self.pos < len(self.items) else None

    def take(self):
        if self.pos >= len(self.items):
            raise self.error("unexpected end of input", len(self.text))
        item = self.items[self.pos]
        self.pos += 1
        return item

    def expect(self, value):
        tok, at = self.take()
        if tok != value:
            raise self.error("expected %r, got %r" % (value, tok), at)
        return at

    def atom(self, what="name"):
        tok, at = self.take()
        if tok in "()":
            raise self.error("expected %s, got %r" % (what, tok), at)
        return tok, at


def _parse_int(tk, what):
    tok, at = tk.atom(what)
    try:
        return _decimal(tok), at
    except ValueError:
        raise tk.error("%s must be an integer, got %r" % (what, tok), at)


def _parse_factor(tk):
    tk.expect("(")
    kind, at = tk.atom("factor kind")
    if kind not in FACTOR_KINDS:
        raise tk.error("unknown factor kind %r" % kind, at)
    param = None
    if kind != "integers":
        param, at = _parse_int(tk, "%s parameter" % kind)
    mult = 1
    if tk.peek() == "x":
        tk.take()
        tok, mat = tk.atom("multiplicity")
        if tok == OMEGA:
            mult = OMEGA
        else:
            try:
                mult = _decimal(tok)
            except ValueError:
                raise tk.error("multiplicity must be an integer or 'omega', "
                               "got %r" % tok, mat)
            if mult < 1:
                raise tk.error("multiplicity must be >= 1", mat)
    tk.expect(")")
    try:
        return Factor(kind, param, mult)
    except ValueError as exc:
        raise tk.error(str(exc), at)  # the parameter, or `integers`


def _parse_leaf(tk, cls, what):
    """The rest of `(table PATH)` or `(poset PATH)`: the loaded file as a
    `cls` leaf; a file that fails to load is reported at its path."""
    path, at = tk.atom(what)
    tk.expect(")")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            table = parse_table(fh.read(), require_associative=False)
        return cls(table, path=path)
    except (OSError, ValueError) as exc:
        raise tk.error(str(exc), at) from exc


def _parse_slspec(tk):
    if tk.peek() == "(":
        tk.take()
        head, at = tk.atom("semilattice spec")
        if head != "poset":
            raise tk.error("unknown semilattice spec %r" % head, at)
        return _parse_leaf(tk, FinitePoset, "poset path")
    tok, at = tk.atom("semilattice spec")
    if tok in SEMILATTICE_WORDS:
        return SEMILATTICE_WORDS[tok]()
    raise tk.error("unknown semilattice spec %r" % tok, at)


def _parse_desc(tk, depth=1):
    at = tk.expect("(")
    if depth > MAX_DEPTH:
        raise tk.error("descriptor nested deeper than %d levels" % MAX_DEPTH,
                       at)
    head, at = tk.atom("constructor")
    cls = CONSTRUCTORS.get(head)
    if cls is not None:
        children = []
        for _ in fields(cls):
            children.append(_parse_desc(tk, depth + 1))
        tk.expect(")")
        return cls(*children)
    if head == "table":
        return _parse_leaf(tk, FiniteTable, "table path")
    if head == "group":
        factors = []
        while tk.peek() == "(":
            factors.append(_parse_factor(tk))
        if not factors:
            raise tk.error("group needs at least one factor", at)
        tk.expect(")")
        return Group(tuple(factors))
    if head == "semilattice":
        d = _parse_slspec(tk)
        tk.expect(")")
        return d
    raise tk.error("unknown constructor %r" % head, at)


def parse_descriptor(text):
    """Parse a descriptor expression; table and poset leaves are loaded
    from the files they name."""
    tk = _Tokens(text)
    desc = _parse_desc(tk)
    if tk.peek() is not None:
        tok, at = tk.take()
        raise tk.error("trailing input %r" % tok, at)
    return desc


def _descriptor(d):
    # the base classes denote no semigroup
    if not isinstance(d, Descriptor) or type(d) in (Descriptor, Semilattice):
        raise TypeError("not a descriptor: %r" % (d,))
    return d


def evaluate(d) -> PredicateProfile:
    """Predicate profile of the semigroup a descriptor denotes.

    Each constructor class holds its rule as its `profile` method.  A
    finite profile is forced to satisfy the all-good clause.
    """
    profile = _descriptor(d).profile()
    if profile.size is not None:
        if any(getattr(profile, attr) is not good
               for attr, good, _ in CONDITIONS.values()):
            raise RuntimeError("internal rule error: finite profile of %s "
                               "violates the all-good clause" % describe(d))
    return profile


def truncate(d, size_budget) -> CayleyTable:
    """A finite subsemigroup of the denoted semigroup, within the budget.

    Each constructor class holds its rule as its `truncate` method.  Never
    fails: the single-idempotent table is always available.
    """
    if not _positive_int(size_budget):
        raise ValueError("size budget must be a positive integer")
    return _descriptor(d).truncate(size_budget)


__all__ = [
    "OMEGA", "AdjoinIdentity", "AdjoinZero", "Descriptor", "Factor",
    "FinitePoset", "FiniteTable", "Group", "Null", "OmegaChain",
    "OmegaAntichainZero", "PredicateProfile", "Product", "Semilattice",
    "Taimanov", "describe", "evaluate", "is_prime", "truncate",
]
