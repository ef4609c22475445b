"""Closedness classification of commutative semigroups.

Finite Cayley-table algebra (idempotents, H-classes, the idempotent-power
map, chains, quotients, power semigroups), symbolic descriptors of infinite
commutative semigroups, closedness verdicts, and an exhaustive small-order
enumeration harness.
"""

from .classify import ClosednessVerdict, classify, explain
from .core import (CayleyTable, MalformedTableError, PreconditionError,
                   ValidationReport, adjoin_identity, adjoin_zero,
                   antichain_zero_table, center, chain_table, clifford_part,
                   cyclic_table, group_exponent, h_class, h_classes,
                   idempotents, max_chain_length, natural_le, null_table,
                   pi_map, product_table, restrict, root_inf, taimanov_table,
                   validate, z_sets)
from .descriptors import (OMEGA, AdjoinIdentity, AdjoinZero, Descriptor,
                          Factor, FinitePoset, FiniteTable, Group, Null,
                          OmegaAntichainZero, OmegaChain, PredicateProfile,
                          Product, Semilattice, Taimanov, describe, evaluate,
                          truncate)
from .harness import (SuiteReport, enumerate_commutative, kernel_backend,
                      lemma_suite)
from .power import PowerSemigroup, power_semigroup
from .quotients import (Congruence, congruence_closure, congruences,
                        lift_idempotent, quotient_by_congruence, rees_quotient)

__version__ = "0.1.0"
