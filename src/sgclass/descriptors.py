"""Symbolic algebra of possibly infinite commutative semigroups.

A Descriptor denotes a commutative semigroup built from finite tables,
torsion/free abelian groups, semilattices, the Taimanov semigroup, an
infinite null semigroup, direct products, and zero/identity adjunction.
`evaluate` computes the predicate profile the classifier consumes, one
compositional rule per constructor; `truncate` produces finite
subsemigroups used to cross-check those rules.
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


class SemilatticeSpec:
    pass


@dataclass(frozen=True)
class FinitePoset(SemilatticeSpec):
    table: CayleyTable
    path: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        _check_commutative(self.table, "poset table")
        if len(idempotents(self.table)) != self.table.n:
            bad = min(set(self.table.elements) - idempotents(self.table))
            raise ValueError("poset table is not idempotent: element %d" % bad)


@dataclass(frozen=True)
class OmegaChain(SemilatticeSpec):
    """Order-isomorphic to the natural numbers under min."""


@dataclass(frozen=True)
class OmegaAntichainZero(SemilatticeSpec):
    """Infinitely many pairwise incomparable elements above one bottom."""


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


class Descriptor:
    """Base of the constructors.  Each node knows its nesting depth (a leaf
    is 1) as the attribute `depth`, kept outside the dataclass fields so
    that ==, hash() and repr() ignore it."""

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


@dataclass(frozen=True)
class Group(Descriptor):
    spec: GroupSpec


@dataclass(frozen=True)
class Semilattice(Descriptor):
    spec: SemilatticeSpec


@dataclass(frozen=True)
class Product(Descriptor):
    left: Descriptor
    right: Descriptor


@dataclass(frozen=True)
class AdjoinZero(Descriptor):
    inner: Descriptor


@dataclass(frozen=True)
class AdjoinIdentity(Descriptor):
    inner: Descriptor


@dataclass(frozen=True)
class Taimanov(Descriptor):
    """Countably infinite carrier; distinct elements outside {0, 1} multiply
    to 1, every other product is 0."""


@dataclass(frozen=True)
class Null(Descriptor):
    """Countably infinite carrier with every product equal to one zero."""


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


def cardinality(d) -> Optional[int]:
    """Element count, or None for countably infinite."""
    return _evaluate(d).size


def _finite_profile(size, exponent, clifford, why):
    w = {k: why for k in ("cardinality", "periodic", "chain_finite",
                          "subgroups_bounded", "almost_clifford",
                          "has_singleton_square", "clifford")}
    return PredicateProfile(size, True, True, True, exponent, clifford,
                            True, False, w)


def _group_profile(spec):
    size = 1
    digits = 0.0
    for f in spec.factors:
        if f.param == 1:
            continue  # trivial factors add nothing, even omega many
        if f.kind != "cyclic" or f.mult == OMEGA:
            size = None
            break
        # past 4 * MAX_DIGITS copies the bound is passed (2^4 > 10), and a
        # larger multiplicity may not convert to a float
        digits += min(f.mult, 4 * MAX_DIGITS) * math.log10(f.param)
        _check_digits(digits, "group order")
        size *= f.param ** f.mult
    w = {"cardinality": "finite group" if size is not None else
         "some factor is infinite"}
    bad_periodic = next((f for f in spec.factors if f.kind == "integers"), None)
    periodic = bad_periodic is None
    w["periodic"] = ("every factor is torsion" if periodic else
                     "%s has elements of infinite order" % bad_periodic.text())
    w["chain_finite"] = "group: the identity is the only idempotent"
    bad_bounded = next((f for f in spec.factors if f.kind != "cyclic"), None)
    if bad_bounded is None:
        exponent = math.lcm(1, *(f.param for f in spec.factors))
        _check_digits(math.log10(exponent), "group exponent")
        bounded = True
        w["subgroups_bounded"] = "exponent %d" % exponent
    else:
        exponent = None
        bounded = False
        w["subgroups_bounded"] = ("%s has elements of unbounded order"
                                  % bad_bounded.text())
    w["clifford"] = w["almost_clifford"] = "groups are Clifford"
    w["has_singleton_square"] = ("cancellation: |AA| >= |aA| = |A| "
                                 "for any a in A")
    return PredicateProfile(size, periodic, True, bounded, exponent, True,
                            True, False, w)


def _semilattice_profile(spec):
    if isinstance(spec, FinitePoset):
        size = spec.table.n
        cf = True
        cf_why = "finite semilattice"
    elif isinstance(spec, OmegaChain):
        size = None
        cf = False
        cf_why = "chain-omega is itself an infinite chain"
    else:
        size = None
        cf = True
        cf_why = "antichain with zero: chains have at most 2 elements"
    w = {
        "cardinality": "finite poset" if size is not None else "infinite carrier",
        "periodic": "idempotent elements",
        "chain_finite": cf_why,
        "subgroups_bounded": "all subgroups trivial (exponent 1)",
        "clifford": "semilattices are Clifford",
        "almost_clifford": "semilattices are Clifford",
        "has_singleton_square": "idempotency: a in A implies a = a*a in AA",
    }
    return PredicateProfile(size, True, cf, True, 1, True, True, False, w)


def _combine_and(name, pl, pr, out_w):
    left = getattr(pl, name)
    right = getattr(pr, name)
    if left and right:
        out_w[name] = "holds in both factors"
    else:
        side, p = ("left", pl) if not left else ("right", pr)
        out_w[name] = "%s factor: %s" % (side, p.witness[name])
    return left and right


def evaluate(d) -> PredicateProfile:
    """Predicate profile of the semigroup a descriptor denotes.

    Leaves carry exact values; composite constructors combine them by the
    rules documented inline, with the witness naming the leftmost deciding
    side.  A finite profile is forced to satisfy the all-good clause.
    """
    profile = _evaluate(d)
    if profile.size is not None:
        good = (profile.periodic and profile.chain_finite
                and profile.subgroups_bounded and profile.almost_clifford
                and not profile.has_singleton_square)
        if not good:
            raise RuntimeError("internal rule error: finite profile of %s "
                               "violates the all-good clause" % describe(d))
    return profile


def _evaluate(d):
    if isinstance(d, FiniteTable):
        t = d.table
        exponent = max(group_exponent(t, e) for e in idempotents(t))
        cliff = clifford_part(t) == frozenset(t.elements)
        return _finite_profile(t.n, exponent, cliff,
                               "finite table (n=%d)" % t.n)

    if isinstance(d, Group):
        return _group_profile(d.spec)

    if isinstance(d, Semilattice):
        return _semilattice_profile(d.spec)

    if isinstance(d, Taimanov):
        w = {
            "cardinality": "infinite carrier",
            "periodic": "every square lands on the zero",
            "chain_finite": "chains have at most 2 elements",
            "subgroups_bounded": "all subgroups trivial (exponent 1)",
            "clifford": "Clifford part is the zero alone",
            "almost_clifford": "complement of the Clifford part {0} is infinite",
            "has_singleton_square": "an infinite A has AA containing both 0 "
                                    "and 1 (squares give 0, distinct products 1)",
        }
        return PredicateProfile(None, True, True, True, 1, False, False,
                                False, w)

    if isinstance(d, Null):
        w = {
            "cardinality": "infinite carrier",
            "periodic": "every square is the zero",
            "chain_finite": "chains have at most 2 elements",
            "subgroups_bounded": "all subgroups trivial (exponent 1)",
            "clifford": "Clifford part is the zero alone",
            "almost_clifford": "complement of the Clifford part {0} is infinite",
            "has_singleton_square": "A = the whole carrier has AA = {0}",
        }
        return PredicateProfile(None, True, True, True, 1, False, False,
                                True, w)

    if isinstance(d, Product):
        pl = _evaluate(d.left)
        pr = _evaluate(d.right)
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
        def side_ok(p, other):
            return p.clifford or (p.almost_clifford and other.size is not None)
        ac_left = side_ok(pl, pr)
        ac_right = side_ok(pr, pl)
        ac = ac_left and ac_right
        if ac:
            w["almost_clifford"] = "both sides contribute a finite non-Clifford part"
        elif not ac_left:
            w["almost_clifford"] = "left factor: %s" % pl.witness["almost_clifford"]
        else:
            w["almost_clifford"] = "right factor: %s" % pr.witness["almost_clifford"]
        # a singleton-square witness crosses a product with any idempotent
        # on the other side; conversely an infinite witness has an infinite
        # projection, so the flag is the disjunction
        ss = pl.has_singleton_square or pr.has_singleton_square
        if ss:
            side, p = (("left", pl) if pl.has_singleton_square
                       else ("right", pr))
            w["has_singleton_square"] = "%s factor: %s" % (
                side, p.witness["has_singleton_square"])
        else:
            w["has_singleton_square"] = "neither factor has one"
        return PredicateProfile(size, periodic, cf, bounded, exponent, cliff,
                                ac, ss, w)

    if isinstance(d, (AdjoinZero, AdjoinIdentity)):
        # one new central idempotent with a trivial subgroup: every
        # predicate survives unchanged, chains grow by at most one element
        p = _evaluate(d.inner)
        return replace(p, size=p.size + 1 if p.size is not None else None)

    raise TypeError("not a descriptor: %r" % (d,))


# -- finite truncations ------------------------------------------------------

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


def _truncate_group(spec, budget):
    table = cyclic_table(1)
    for f in spec.factors:
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


def truncate(d, size_budget) -> CayleyTable:
    """A finite subsemigroup of the denoted semigroup, within the budget.

    Per constructor: groups give a product of cyclic chunks (largest
    divisor chunk per factor copy, left to right); chain/antichain
    semilattices give their initial segments; Null and Taimanov give the
    defining formula restricted to the first size_budget points; products
    truncate the left side greedily; adjunctions truncate the inner
    semigroup one element smaller.  Never fails: the single-idempotent
    table is always available.
    """
    if not isinstance(size_budget, int) or size_budget < 1:
        raise ValueError("size budget must be a positive integer")
    if isinstance(d, FiniteTable):
        return _truncate_table(d.table, size_budget)
    if isinstance(d, Group):
        return _truncate_group(d.spec, size_budget)
    if isinstance(d, Semilattice):
        s = d.spec
        if isinstance(s, FinitePoset):
            return _truncate_table(s.table, size_budget)
        if isinstance(s, OmegaChain):
            return chain_table(size_budget)
        return antichain_zero_table(size_budget)
    if isinstance(d, Product):
        a = truncate(d.left, size_budget)
        b = truncate(d.right, max(1, size_budget // a.n))
        return product_table(a, b)
    if isinstance(d, (AdjoinZero, AdjoinIdentity)):
        if size_budget == 1:
            return null_table(1)
        adjoin = adjoin_zero if isinstance(d, AdjoinZero) else adjoin_identity
        return adjoin(truncate(d.inner, size_budget - 1))
    if isinstance(d, Taimanov):
        return taimanov_table(size_budget)
    if isinstance(d, Null):
        return null_table(size_budget)
    raise TypeError("not a descriptor: %r" % (d,))


__all__ = [
    "OMEGA", "AdjoinIdentity", "AdjoinZero", "Descriptor", "Factor",
    "FinitePoset", "FiniteTable", "Group", "GroupSpec", "Null", "OmegaChain",
    "OmegaAntichainZero", "PredicateProfile", "Product", "Semilattice",
    "SemilatticeSpec", "Taimanov", "cardinality", "describe", "evaluate",
    "is_prime", "truncate",
]
