"""The names `import sgclass` exposes, pinned so that any change to the
public API shows up in this file's diff.

Submodules are left out: which of them appear as attributes of the package
depends on what has been imported before.
"""

import types

import sgclass

PUBLIC_NAMES = [
    "AdjoinIdentity",
    "AdjoinZero",
    "CayleyTable",
    "ClosednessVerdict",
    "Congruence",
    "Descriptor",
    "Factor",
    "FinitePoset",
    "FiniteTable",
    "Group",
    "MalformedTableError",
    "Null",
    "OMEGA",
    "OmegaAntichainZero",
    "OmegaChain",
    "PowerSemigroup",
    "PreconditionError",
    "PredicateProfile",
    "Product",
    "Semilattice",
    "SuiteReport",
    "Taimanov",
    "ValidationReport",
    "adjoin_identity",
    "adjoin_zero",
    "antichain_zero_table",
    "center",
    "chain_table",
    "classify",
    "clifford_part",
    "congruence_closure",
    "congruences",
    "cyclic_table",
    "describe",
    "enumerate_commutative",
    "evaluate",
    "explain",
    "group_exponent",
    "h_class",
    "h_classes",
    "idempotents",
    "kernel_backend",
    "lemma_suite",
    "lift_idempotent",
    "max_chain_length",
    "natural_le",
    "null_table",
    "pi_map",
    "power_semigroup",
    "product_table",
    "quotient_by_congruence",
    "rees_quotient",
    "restrict",
    "root_inf",
    "taimanov_table",
    "truncate",
    "validate",
    "z_sets",
]


def test_public_names():
    names = sorted(n for n, v in vars(sgclass).items()
                   if not n.startswith("_")
                   and not isinstance(v, types.ModuleType))
    assert names == PUBLIC_NAMES
