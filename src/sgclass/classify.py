"""Closedness verdicts for commutative semigroup descriptors.

Verdicts carry citations as stable tags so reports survive renumbering in
downstream docs: "Thm1.4" (the general commutative characterization),
"Thm1.7" (ideal/projective case), "Thm1.3" (groups), "Cor5.2"
(semilattices, subsuming "Thm1.2"), "Ex1.6" (the closed-semigroup /
non-closed-quotient precedent).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

if TYPE_CHECKING:
    from .descriptors import Descriptor, PredicateProfile

CITE_MAIN = "Thm1.4"
CITE_PROJECTIVE = "Thm1.7"
CITE_GROUP = "Thm1.3"
CITE_SEMILATTICE = "Cor5.2"
CITE_PRECEDENT = "Ex1.6"

_THEOREM_TEXT = {
    CITE_MAIN: "Theorem 1.4",
    CITE_PROJECTIVE: "Theorem 1.7",
    CITE_GROUP: "Theorem 1.3",
    CITE_SEMILATTICE: "Corollary 5.2 (via Theorem 1.2)",
    CITE_PRECEDENT: "Example 1.6",
}

_C_ORDER = ("periodic", "chain-finite", "subgroups-bounded", "singleton-square")
_PROJECTIVE_ORDER = ("chain-finite", "almost-clifford", "subgroups-bounded")


class ClosednessVerdict(NamedTuple):
    descriptor: Descriptor
    profile: PredicateProfile
    c_closed: bool
    ideally_closed: bool
    projectively_closed: bool
    failing_condition: Optional[tuple]  # (condition name, witness text)
    citation: str


def _first_failing(profile, order, conditions):
    """The first condition of `order` the profile breaks, with its witness;
    `conditions` is `descriptors.CONDITIONS`."""
    for name in order:
        attr, good, _ = conditions[name]
        if getattr(profile, attr) is not good:
            return (name, profile.witness[attr])
    return None


def classify(d) -> ClosednessVerdict:
    """Full verdict from the general characterizations.

    C-closed iff periodic, chain-finite, subgroups bounded and no infinite
    subset with a singleton square; ideally = projectively closed iff
    chain-finite, almost Clifford and subgroups bounded.  A group or a
    semilattice cites its specialization, whose one condition decides all
    three verdicts.
    """
    from .descriptors import CONDITIONS, Group, Semilattice, evaluate
    profile = evaluate(d)
    c_failing = _first_failing(profile, _C_ORDER, CONDITIONS)
    q_failing = _first_failing(profile, _PROJECTIVE_ORDER, CONDITIONS)
    c_closed = c_failing is None
    ideally = q_failing is None
    if isinstance(d, Group):
        failing = _first_failing(profile, ("subgroups-bounded",), CONDITIONS)
        citation = CITE_GROUP
    elif isinstance(d, Semilattice):
        failing = _first_failing(profile, ("chain-finite",), CONDITIONS)
        citation = CITE_SEMILATTICE
    elif not c_closed:
        failing, citation = c_failing, CITE_MAIN
    elif not ideally:
        failing, citation = q_failing, CITE_PROJECTIVE
    else:
        failing, citation = None, CITE_MAIN
    return ClosednessVerdict(d, profile, c_closed, ideally, ideally,
                             failing, citation)


def _yesno(b):
    return "yes" if b else "no"


def explain(verdict: ClosednessVerdict) -> str:
    """Deterministic multi-line report for one verdict."""
    from .descriptors import CONDITIONS, describe
    p = verdict.profile
    lines = ["input: %s" % describe(verdict.descriptor)]
    if p.size is not None:
        lines.append("cardinality: finite (n=%d)" % p.size)
        lines.append("finite => all properties hold")
    else:
        lines.append("cardinality: countably infinite")
    for attr, _, label in CONDITIONS.values():
        flag = getattr(p, attr)
        lines.append("%s: %s (%s)" % (label, _yesno(flag), p.witness[attr]))
        if attr == "subgroups_bounded" and flag and p.exponent is not None:
            lines[-1] += " [exponent %d]" % p.exponent
    # the specializations prove all three verdicts by one theorem
    if verdict.citation in (CITE_GROUP, CITE_SEMILATTICE):
        c_cite = q_cite = _THEOREM_TEXT[verdict.citation]
    else:
        c_cite = _THEOREM_TEXT[CITE_MAIN]
        q_cite = _THEOREM_TEXT[CITE_PROJECTIVE]
    lines.append("C-closed: %s (%s)" % (_yesno(verdict.c_closed), c_cite))
    lines.append("ideally C-closed: %s (%s)"
                 % (_yesno(verdict.ideally_closed), q_cite))
    lines.append("projectively C-closed: %s (%s)"
                 % (_yesno(verdict.projectively_closed), q_cite))
    if verdict.failing_condition is not None:
        name, witness = verdict.failing_condition
        lines.append("failing condition: %s (%s)" % (name, witness))
    if verdict.c_closed and not verdict.ideally_closed:
        lines.append("note: matches the %s pattern: C-closed with a "
                     "quotient that is not C-closed"
                     % _THEOREM_TEXT[CITE_PRECEDENT])
    lines.append("citation: %s" % verdict.citation)
    return "\n".join(lines)


__all__ = [
    "CITE_GROUP", "CITE_MAIN", "CITE_PRECEDENT", "CITE_PROJECTIVE",
    "CITE_SEMILATTICE", "ClosednessVerdict", "classify", "explain",
]
