"""Symbolic algebra of possibly infinite commutative semigroups.

A Descriptor denotes a commutative semigroup built from finite tables,
torsion/free abelian groups, semilattices, the Taimanov semigroup, an
infinite null semigroup, direct products, and zero/identity adjunction.
Each constructor class holds its rules: `profile()` gives the predicate
profile the classifier consumes, from its children's profiles, and
`truncate(budget)` a finite subsemigroup used to cross-check those rules.
`evaluate` and `truncate` are the checked entry points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Union

from .core import (CayleyTable, adjoin_identity, adjoin_zero,
                   antichain_zero_table, chain_table, clifford_part,
                   cyclic_table, group_exponent, idempotents, monogenic_data,
                   null_table, product_table, restrict, taimanov_table,
                   validate)

OMEGA = "omega"  # multiplicity marker: countably many copies, direct sum

# Largest prime parameter accepted: trial division stays under 10^6 steps.
MAX_PRIME = 10 ** 12


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
        if self.kind not in ("cyclic", "prufer", "integers", "cyclic-tower"):
            raise ValueError("unknown group factor kind %r" % (self.kind,))
        if self.kind == "cyclic":
            if not isinstance(self.param, int) or self.param < 1:
                raise ValueError("cyclic order must be a positive integer")
        elif self.kind == "integers":
            if self.param is not None:
                raise ValueError("integers takes no parameter")
        elif isinstance(self.param, int) and self.param > MAX_PRIME:
            raise ValueError("prime parameters are limited to 10^12")
        elif not is_prime(self.param):
            raise ValueError("%r is not prime" % (self.param,))
        if self.mult != OMEGA and (not isinstance(self.mult, int) or self.mult < 1):
            raise ValueError("multiplicity must be a positive integer or omega")

    def text(self) -> str:
        if self.kind == "integers":
            body = "integers"
        else:
            body = "%s %d" % (self.kind, self.param)
        if self.mult == 1:
            return "(%s)" % body
        return "(%s x %s)" % (body, self.mult)


@dataclass(frozen=True)
class GroupSpec:
    """A finite list of factors denoting their direct sum."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        for f in self.factors:
            if not isinstance(f, Factor):
                raise ValueError("group factors must be Factor instances")


class NotCommutativeError(ValueError):
    """A finite table given as a commutative semigroup does not commute."""


def _check_commutative(table, what):
    report = validate(table)
    if not report.associative:
        raise ValueError("%s is not associative: witness %r"
                         % (what, report.assoc_witness))
    if not report.commutative:
        raise NotCommutativeError("%s is not commutative: witness %r"
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
    e = monogenic_data(table, 0).pi
    sub, _ = restrict(table, {e})
    return sub


def _factor_chunk(factor, room):
    # largest finite subgroup of one copy of the factor with order <= room
    if factor.kind == "cyclic":
        for q in range(min(factor.param, room), 0, -1):
            if factor.param % q == 0:
                return q
        return 1
    if factor.kind == "integers":
        return 1
    q = 1
    while q * factor.param <= room:
        q *= factor.param
    return q


class SemilatticeSpec:
    """Base of the semilattice specs.  Each spec carries its `size` (None
    for countably infinite), its `chain_finite` flag with the reason
    `chain_finite_why`, and `truncate(budget)`, its initial segment."""


@dataclass(frozen=True)
class FinitePoset(SemilatticeSpec):
    table: CayleyTable
    path: Optional[str] = field(default=None, compare=False)

    chain_finite = True
    chain_finite_why = "finite semilattice"

    def __post_init__(self):
        _check_commutative(self.table, "poset table")
        if len(idempotents(self.table)) != self.table.n:
            bad = min(set(self.table.elements) - idempotents(self.table))
            raise ValueError("poset table is not idempotent: element %d" % bad)
        object.__setattr__(self, "size", self.table.n)

    def truncate(self, budget):
        return _truncate_table(self.table, budget)


@dataclass(frozen=True)
class OmegaChain(SemilatticeSpec):
    """Order-isomorphic to the natural numbers under min."""

    size = None
    chain_finite = False
    chain_finite_why = "chain-omega is itself an infinite chain"
    truncate = staticmethod(chain_table)


@dataclass(frozen=True)
class OmegaAntichainZero(SemilatticeSpec):
    """Infinitely many pairwise incomparable elements above one bottom."""

    size = None
    chain_finite = True
    chain_finite_why = "antichain with zero: chains have at most 2 elements"
    truncate = staticmethod(antichain_zero_table)


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
    subgroups_bounded when it holds: the exact lcm for group and
    semilattice composites, the largest per-subgroup exponent for finite
    tables.  witness maps each predicate name to a short reason string.
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

    @property
    def is_finite(self) -> bool:
        return self.size is not None


class Descriptor:
    """Base of the constructors.  Each node knows its nesting depth (a leaf
    is 1) as the attribute `depth`, kept outside the dataclass fields so
    that ==, hash() and repr() ignore it.  Each constructor class holds its
    rules: `profile()`, whose witnesses name the leftmost deciding child,
    and `truncate(budget)`, a subsemigroup of at most `budget` elements."""

    def __post_init__(self):
        children = [getattr(self, f.name) for f in fields(self)]
        depth = 1 + max((c.depth for c in children
                         if isinstance(c, Descriptor)), default=0)
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
        exponent = max(group_exponent(t, e) for e in idempotents(t))
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
    spec: GroupSpec

    def profile(self):
        factors = self.spec.factors
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
        for f in self.spec.factors:
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


@dataclass(frozen=True)
class Semilattice(Descriptor):
    spec: SemilatticeSpec

    def profile(self):
        s = self.spec
        w = {
            "cardinality": ("finite poset" if s.size is not None
                            else "infinite carrier"),
            "periodic": "idempotent elements",
            "chain_finite": s.chain_finite_why,
            "subgroups_bounded": "all subgroups trivial (exponent 1)",
            "clifford": "semilattices are Clifford",
            "almost_clifford": "semilattices are Clifford",
            "has_singleton_square": "idempotency: a in A implies a = a*a in AA",
        }
        return PredicateProfile(s.size, True, s.chain_finite, True, 1, True,
                                True, False, w)

    def truncate(self, budget):
        return self.spec.truncate(budget)


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
# children are the dataclass fields, in order.  The parser, the renderer and
# `describe` all read these two tables.

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


def spell(d, leaf) -> str:
    """Descriptor text; `leaf` spells FiniteTable and FinitePoset leaves."""
    head = _HEADS.get(type(d))
    if head is not None:
        parts = [head]
        for f in fields(d):
            parts.append(spell(getattr(d, f.name), leaf))
        return "(%s)" % " ".join(parts)
    if isinstance(d, FiniteTable):
        return leaf(d)
    if isinstance(d, Group):
        return "(group %s)" % " ".join(f.text() for f in d.spec.factors)
    if isinstance(d, Semilattice):
        word = _WORDS.get(type(d.spec))
        return "(semilattice %s)" % (word if word else leaf(d.spec))
    raise TypeError("not a descriptor: %r" % (d,))


def _describe_leaf(x):
    if isinstance(x, FinitePoset):
        return "poset n=%d" % x.table.n
    return x.path if x.path else "finite table (n=%d)" % x.table.n


def describe(d) -> str:
    """Compact human-readable form (no file paths needed)."""
    return spell(d, _describe_leaf)


def _descriptor(d):
    if not isinstance(d, Descriptor):
        raise TypeError("not a descriptor: %r" % (d,))
    return d


def cardinality(d) -> Optional[int]:
    """Element count, or None for countably infinite."""
    return _descriptor(d).profile().size


def evaluate(d) -> PredicateProfile:
    """Predicate profile of the semigroup a descriptor denotes.

    Each constructor class holds its rule as its `profile` method.  A
    finite profile is forced to satisfy the all-good clause.
    """
    profile = _descriptor(d).profile()
    if profile.size is not None:
        good = (profile.periodic and profile.chain_finite
                and profile.subgroups_bounded and profile.almost_clifford
                and not profile.has_singleton_square)
        if not good:
            raise RuntimeError("internal rule error: finite profile of %s "
                               "violates the all-good clause" % describe(d))
    return profile


def truncate(d, size_budget) -> CayleyTable:
    """A finite subsemigroup of the denoted semigroup, within the budget.

    Each constructor class holds its rule as its `truncate` method.  Never
    fails: the single-idempotent table is always available.
    """
    if not isinstance(size_budget, int) or size_budget < 1:
        raise ValueError("size budget must be a positive integer")
    return _descriptor(d).truncate(size_budget)


__all__ = [
    "OMEGA", "AdjoinIdentity", "AdjoinZero", "Descriptor", "Factor",
    "FinitePoset", "FiniteTable", "Group", "GroupSpec", "Null", "OmegaChain",
    "OmegaAntichainZero", "PredicateProfile", "Product", "Semilattice",
    "SemilatticeSpec", "Taimanov", "cardinality", "describe", "evaluate",
    "is_prime", "truncate",
]
