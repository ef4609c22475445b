"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

from sgclass.classify import CITE_GROUP, CITE_SEMILATTICE, classify
from sgclass.core import (antichain_zero_table, chain_table, cyclic_table,
                          null_table, taimanov_table, validate)
from sgclass.descriptors import (OMEGA, AdjoinIdentity, AdjoinZero, Factor,
                                 FinitePoset, FiniteTable, Group, Null,
                                 OmegaAntichainZero, OmegaChain, Product,
                                 Semilattice, Taimanov, truncate)
from sgclass.harness import enumerate_commutative, lemma_suite
from sgclass.power import power_semigroup
from sgclass.quotients import rees_quotient

from oracles import (enumerate_commutative_naive, group_closed,
                     iso_class_count, semilattice_closed,
                     singleton_square_scan)

SEED = 20250810


def _report(number, ok, detail):
    print("ACCEPTANCE %d: %s (%s)" % (number, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_1_lemma_suite_exhaustive():
    """Every structural check passes on every table of order <= 4.

    Runs over every labeled table the enumerator produces (not just one
    per isomorphism class), congruence checks included.
    """
    start = time.monotonic()
    tables = 0
    failures = []
    for n in range(1, 5):
        for table in enumerate_commutative(n):
            tables += 1
            report = lemma_suite(table)
            if not report.ok:
                failures.append((table.op, [r.name for r in report.failures]))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    _report(1, ok, "%d tables, %d failures, %.2fs (budget 60s)%s"
            % (tables, len(failures), elapsed,
               "; first: %r" % failures[:1] if failures else ""))


def test_criterion_2_enumerator_oracle_equivalence():
    """Backtracking enumerator equals the naive filter at orders <= 3."""
    expected_classes = {1: 1, 2: 3, 3: 12}
    problems = []
    for n in (1, 2, 3):
        naive = list(enumerate_commutative_naive(n))
        fast = list(enumerate_commutative(n))
        if {t.op for t in fast} != {t.op for t in naive}:
            problems.append("raw tables differ at n=%d" % n)
        if len(fast) != len(naive):
            problems.append("raw counts differ at n=%d" % n)
        reps = sum(1 for _ in enumerate_commutative(n, up_to_iso=True))
        orbit = iso_class_count(naive)
        if not reps == orbit == expected_classes[n]:
            problems.append("iso counts at n=%d: reps=%d orbit=%d expected=%d"
                            % (n, reps, orbit, expected_classes[n]))
    _report(2, not problems, "orders 1..3, classes 1/3/12%s"
            % ("; " + "; ".join(problems) if problems else ""))


TABLE_LEAVES = [cyclic_table(1), cyclic_table(3), cyclic_table(4),
                chain_table(3), null_table(3), taimanov_table(5),
                antichain_zero_table(4)]


def _sample_factor(rng):
    kind = rng.choice(["cyclic", "prufer", "integers", "cyclic-tower"])
    if kind == "cyclic":
        param = rng.randint(1, 8)
    elif kind == "integers":
        param = None
    else:
        param = rng.choice([2, 3, 5])
    mult = rng.choice([1, 2, OMEGA])
    return Factor(kind, param, mult)


def _sample_descriptor(rng, depth):
    options = ["group", "semilattice", "taimanov", "null", "table"]
    if depth > 0:
        options += ["product", "adjoin-zero", "adjoin-identity"]
    kind = rng.choice(options)
    if kind == "group":
        return Group(tuple(
            _sample_factor(rng) for _ in range(rng.randint(1, 3))))
    if kind == "semilattice":
        return rng.choice([
            OmegaChain(), OmegaAntichainZero(),
            FinitePoset(chain_table(3)),
            FinitePoset(antichain_zero_table(4))])
    if kind == "taimanov":
        return Taimanov()
    if kind == "null":
        return Null()
    if kind == "table":
        return FiniteTable(rng.choice(TABLE_LEAVES))
    if kind == "product":
        return Product(_sample_descriptor(rng, depth - 1),
                       _sample_descriptor(rng, depth - 1))
    if kind == "adjoin-zero":
        return AdjoinZero(_sample_descriptor(rng, depth - 1))
    return AdjoinIdentity(_sample_descriptor(rng, depth - 1))


def test_criterion_3_specialization_and_implication_chain():
    """1000 sampled descriptors: specializations agree, the chain holds."""
    rng = random.Random(SEED)
    chain_breaks = 0
    disagreements = 0
    groups = semilattices = 0
    for _ in range(1000):
        d = _sample_descriptor(rng, depth=4)
        v = classify(d)
        if (v.projectively_closed and not v.ideally_closed) or \
           (v.ideally_closed and not v.c_closed):
            chain_breaks += 1
        verdicts = (v.c_closed, v.ideally_closed, v.projectively_closed)
        if isinstance(d, Group):
            groups += 1
            if (verdicts != (group_closed(d),) * 3
                    or v.citation != CITE_GROUP):
                disagreements += 1
        elif isinstance(d, Semilattice):
            semilattices += 1
            if (verdicts != (semilattice_closed(d),) * 3
                    or v.citation != CITE_SEMILATTICE):
                disagreements += 1
    ok = (chain_breaks == 0 and disagreements == 0
          and groups >= 50 and semilattices >= 50)
    _report(3, ok, "1000 samples, %d group + %d semilattice roots, "
                   "%d disagreements, %d chain breaks"
            % (groups, semilattices, disagreements, chain_breaks))


def test_criterion_4_taimanov_reproduction():
    """The closed-but-not-ideally-closed example, with its null quotients."""
    problems = []
    verdict = classify(Taimanov())
    if verdict.c_closed is not True:
        problems.append("c_closed is not True")
    if verdict.ideally_closed is not False:
        problems.append("ideally_closed is not False")
    for n in range(3, 9):
        quotient, _ = rees_quotient(truncate(Taimanov(), n), {0, 1})
        if quotient != null_table(quotient.n):
            problems.append("quotient at n=%d is not null" % n)
        witness = singleton_square_scan(quotient)
        if witness is None or len(witness) < 2:
            problems.append("no witness at n=%d" % n)
    _report(4, not problems, "verdict (True, False), null quotients and "
                             "witnesses for n=3..8%s"
            % ("; " + "; ".join(problems) if problems else ""))


def test_criterion_5_power_semigroup_laws():
    """Power semigroups of the whole order <= 5 corpus obey the laws."""
    start = time.monotonic()
    tables = 0
    failures = []
    for n in range(1, 6):
        for table in enumerate_commutative(n, up_to_iso=True):
            tables += 1
            ps = power_semigroup(table)
            report = validate(ps.table)
            if not (report.associative and report.commutative):
                failures.append("validate at %r" % (table.op,))
                continue
            op = ps.table.op
            sing = [ps.singleton_index(x) for x in table.elements]
            if len(set(sing)) != table.n or any(
                    op[sing[x]][sing[y]] != sing[table.op[x][y]]
                    for x in table.elements for y in table.elements):
                failures.append("embedding at %r" % (table.op,))
                continue
            # every pair of basic sets multiplies into the right basic set
            full = (1 << n) - 1
            pairs = []
            for u in range(1, full + 1):
                b = u
                while b:
                    pairs.append((u, b))
                    b = (b - 1) & u
            law_ok = True
            for u, b1 in pairs:
                pu = op[u - 1]
                pb1 = op[b1 - 1]
                for v, b2 in pairs:
                    if (pb1[b2 - 1] + 1) & ~(pu[v - 1] + 1):
                        law_ok = False
                        break
                if not law_ok:
                    break
            if not law_ok:
                failures.append("continuity at %r" % (table.op,))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120.0
    _report(5, ok, "%d tables, %d failures, %.2fs (budget 120s)%s"
            % (tables, len(failures), elapsed,
               "; first: %s" % failures[0] if failures else ""))


def test_criterion_6_singleton_square_rules():
    """No witnesses under group/semilattice truncations; always under null."""
    group_descriptors = [
        Group((Factor("cyclic", 2),)),
        Group((Factor("cyclic", 6),)),
        Group((Factor("cyclic", 4, 2),)),
        Group((Factor("cyclic", 2, OMEGA),)),
        Group((Factor("prufer", 2),)),
        Group((Factor("prufer", 3), Factor("cyclic", 5))),
        Group((Factor("integers"),)),
        Group((Factor("cyclic-tower", 2),)),
        Group((Factor("cyclic", 2), Factor("cyclic", 3))),
    ]
    semilattice_descriptors = [
        OmegaChain(),
        OmegaAntichainZero(),
        FinitePoset(chain_table(3)),
        FinitePoset(antichain_zero_table(4)),
        FinitePoset(chain_table(1)),
    ]
    problems = []
    for d in group_descriptors + semilattice_descriptors:
        for budget in range(1, 9):
            if singleton_square_scan(truncate(d, budget)) is not None:
                problems.append("witness under %r budget %d" % (d, budget))
    # a budget-1 truncation has a single element, so |A| >= 2 is impossible
    # there; every larger null truncation must carry a witness
    if singleton_square_scan(truncate(Null(), 1)) is not None:
        problems.append("size-1 null truncation cannot have a witness")
    for budget in range(2, 9):
        if singleton_square_scan(truncate(Null(), budget)) is None:
            problems.append("no witness under (null) budget %d" % budget)
    _report(6, not problems, "14 group/semilattice descriptors x budgets "
                             "1..8 clean; null budgets 2..8 witnessed%s"
            % ("; " + "; ".join(problems) if problems else ""))
