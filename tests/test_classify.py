from hypothesis import given, settings

from sgclass.classify import CITE_GROUP, CITE_SEMILATTICE, classify, explain
from sgclass.descriptors import (OMEGA, Factor, FinitePoset, FiniteTable,
                                 Group, Null, OmegaAntichainZero, OmegaChain,
                                 Product, Semilattice, Taimanov)

from oracles import group_closed, semilattice_closed
from test_descriptors import LEAF_TABLES, descriptor_st, group_of


class TestClassify:
    def test_taimanov_splits_the_notions(self):
        v = classify(Taimanov())
        assert v.c_closed
        assert not v.ideally_closed and not v.projectively_closed
        name, witness = v.failing_condition
        assert name == "almost-clifford"
        assert "infinite" in witness
        assert v.citation == "Thm1.7"

    def test_prufer_fails_everything(self):
        v = classify(group_of(Factor("prufer", 3)))
        assert not v.c_closed and not v.ideally_closed
        assert v.failing_condition[0] == "subgroups-bounded"
        assert v.citation == "Thm1.3"

    def test_omega_chain_fails_everything(self):
        v = classify(OmegaChain())
        assert not v.c_closed and not v.ideally_closed
        assert v.failing_condition[0] == "chain-finite"
        assert v.citation == "Cor5.2"

    def test_null_is_not_c_closed(self):
        v = classify(Null())
        assert not v.c_closed
        assert v.failing_condition[0] == "singleton-square"
        assert v.citation == "Thm1.4"

    def test_every_finite_table_is_closed_every_way(self):
        for table in LEAF_TABLES:
            v = classify(FiniteTable(table))
            assert v.c_closed and v.ideally_closed and v.projectively_closed
            assert v.failing_condition is None


class TestClassifyGroup:
    def test_bounded_sum_of_omega_many(self):
        v = classify(Group((Factor("cyclic", 2, OMEGA),)))
        assert v.c_closed and v.ideally_closed and v.projectively_closed

    def test_integers(self):
        v = classify(Group((Factor("integers"),)))
        assert not v.c_closed
        assert v.failing_condition[0] == "subgroups-bounded"

    def test_cyclic_tower_torsion_but_unbounded(self):
        v = classify(Group((Factor("cyclic-tower", 2),)))
        assert not v.c_closed


class TestClassifySemilattice:
    def test_antichain_with_zero_closed(self):
        v = classify(OmegaAntichainZero())
        assert v.c_closed and v.ideally_closed and v.projectively_closed

    def test_omega_chain(self):
        v = classify(OmegaChain())
        assert not v.c_closed and not v.ideally_closed

    def test_finite_poset(self, l3):
        v = classify(FinitePoset(l3))
        assert v.c_closed and v.ideally_closed and v.projectively_closed


class TestExplain:
    def test_null_report_cites_main_theorem_and_witness(self):
        text = explain(classify(Null()))
        assert "Theorem 1.4" in text
        assert "whole carrier" in text and "AA = {0}" in text

    def test_finite_report_has_the_all_good_line(self, z3):
        text = explain(classify(FiniteTable(z3)))
        assert "finite => all properties hold" in text
        assert "cardinality: finite (n=3)" in text

    def test_taimanov_report_cites_the_precedent(self):
        text = explain(classify(Taimanov()))
        assert "Example 1.6" in text

    def test_deterministic(self):
        d = Product(Taimanov(), group_of(Factor("prufer", 2)))
        assert explain(classify(d)) == explain(classify(d))


class TestInvariants:
    @settings(max_examples=200)
    @given(descriptor_st)
    def test_implication_chain(self, d):
        v = classify(d)
        assert (not v.projectively_closed) or v.ideally_closed
        assert (not v.ideally_closed) or v.c_closed
        # commutative inputs: the last two notions coincide
        assert v.ideally_closed == v.projectively_closed

    @settings(max_examples=100)
    @given(descriptor_st, descriptor_st)
    def test_closed_products_have_closed_factors(self, a, b):
        # factors embed as subsemigroups (every leaf has an idempotent), so
        # a closed product forces closed factors
        if classify(Product(a, b)).c_closed:
            assert classify(a).c_closed
            assert classify(b).c_closed

    @settings(max_examples=100)
    @given(descriptor_st)
    def test_specialization_consistency(self, d):
        # the failing condition is pinned by golden_classify.json
        v = classify(d)
        verdicts = (v.c_closed, v.ideally_closed, v.projectively_closed)
        if isinstance(d, Group):
            assert verdicts == (group_closed(d),) * 3
            assert v.citation == CITE_GROUP
        if isinstance(d, Semilattice):
            assert verdicts == (semilattice_closed(d),) * 3
            assert v.citation == CITE_SEMILATTICE
