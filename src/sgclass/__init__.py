"""Closedness classification of commutative semigroups.

Finite Cayley-table algebra (idempotents, H-classes, the idempotent-power
map, chains, quotients, power semigroups), symbolic descriptors of infinite
commutative semigroups, closedness verdicts, and an exhaustive small-order
enumeration harness.

The descriptor names (`Group`, `evaluate`, `truncate` and the rest) load
`sgclass.descriptors` on first use, so importing the package, or running a
command that reads only tables, does not load the descriptor layer.
"""

from .classify import ClosednessVerdict, classify, explain
from .core import (CayleyTable, MalformedTableError, PreconditionError,
                   ValidationReport, adjoin_identity, adjoin_zero,
                   antichain_zero_table, center, chain_table, clifford_part,
                   cyclic_table, group_exponent, h_class, h_classes,
                   idempotents, max_chain_length, natural_le, null_table,
                   pi_map, product_table, restrict, root_inf, taimanov_table,
                   validate, z_sets)
from .harness import (SuiteReport, enumerate_commutative, kernel_backend,
                      lemma_suite)
from .power import PowerSemigroup, power_semigroup
from .quotients import (Congruence, congruence_closure, congruences,
                        lift_idempotent, quotient_by_congruence, rees_quotient)

__version__ = "0.1.0"

_DESCRIPTOR_NAMES = (
    "OMEGA", "AdjoinIdentity", "AdjoinZero", "Descriptor", "Factor",
    "FinitePoset", "FiniteTable", "Group", "Null", "OmegaAntichainZero",
    "OmegaChain", "PredicateProfile", "Product", "Semilattice", "Taimanov",
    "describe", "evaluate", "truncate",
)

__all__ = [
    "ClosednessVerdict", "classify", "explain",
    "CayleyTable", "MalformedTableError", "PreconditionError",
    "ValidationReport", "adjoin_identity", "adjoin_zero",
    "antichain_zero_table", "center", "chain_table", "clifford_part",
    "cyclic_table", "group_exponent", "h_class", "h_classes", "idempotents",
    "max_chain_length", "natural_le", "null_table", "pi_map",
    "product_table", "restrict", "root_inf", "taimanov_table", "validate",
    "z_sets",
    *_DESCRIPTOR_NAMES,
    "SuiteReport", "enumerate_commutative", "kernel_backend", "lemma_suite",
    "PowerSemigroup", "power_semigroup",
    "Congruence", "congruence_closure", "congruences", "lift_idempotent",
    "quotient_by_congruence", "rees_quotient",
]


def __getattr__(name):
    if name in _DESCRIPTOR_NAMES:
        from . import descriptors
        return getattr(descriptors, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
