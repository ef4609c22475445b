"""The names `import sgclass` exposes, pinned so that any change to the
public API shows up in this file's diff.

Submodules are left out: which of them appear as attributes of the package
depends on what has been imported before.  The names come from
`dir(sgclass)`, because the descriptor names load on first access and
`vars(sgclass)` shows only those already loaded.
"""

import os
import subprocess
import sys
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
    names = sorted(n for n in dir(sgclass)
                   if not n.startswith("_")
                   and not isinstance(getattr(sgclass, n), types.ModuleType))
    assert names == PUBLIC_NAMES


def test_all_lists_the_public_names():
    assert sorted(sgclass.__all__) == PUBLIC_NAMES


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sgclass import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == PUBLIC_NAMES


def run_fresh(script):
    src = os.path.dirname(os.path.dirname(sgclass.__file__))
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))


def test_classify_stays_the_function_after_its_submodule_loads():
    # importing a submodule binds it on the package, and the submodule
    # `sgclass.classify` shares its name with the function
    run = run_fresh(
        "import contextlib, io, types\n"
        "import sgclass.classify, sgclass.descriptors, sgclass.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert sgclass.cli.main(['classify', '(null)']) == 0\n"
        "assert not isinstance(sgclass.classify, types.ModuleType)\n"
        "assert sgclass.classify(sgclass.Null()).c_closed is False\n")
    assert run.returncode == 0, run.stderr
