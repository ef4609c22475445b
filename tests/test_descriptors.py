import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgclass import (CayleyTable, antichain_zero_table, chain_table,
                     cyclic_table, group_exponent, idempotents,
                     max_chain_length, null_table, product_table,
                     taimanov_table, validate)
from sgclass.descriptors import (MAX_DEPTH, OMEGA, AdjoinIdentity, AdjoinZero,
                                 Factor, FinitePoset, FiniteTable, Group,
                                 GroupSpec, Null, OmegaAntichainZero,
                                 OmegaChain, Product, Semilattice, Taimanov,
                                 cardinality, describe, evaluate, is_prime,
                                 truncate)
from sgclass.harness import singleton_square_scan


def group_of(*factors):
    return Group(GroupSpec(tuple(factors)))


@st.composite
def factor_st(draw):
    kind = draw(st.sampled_from(["cyclic", "prufer", "integers", "cyclic-tower"]))
    if kind == "cyclic":
        param = draw(st.integers(1, 9))
    elif kind == "integers":
        param = None
    else:
        param = draw(st.sampled_from([2, 3, 5, 7]))
    mult = draw(st.sampled_from([1, 2, 3, OMEGA]))
    return Factor(kind, param, mult)


LEAF_TABLES = [cyclic_table(1), cyclic_table(3), cyclic_table(4),
               chain_table(3), null_table(3), taimanov_table(5),
               antichain_zero_table(4)]

leaf_st = st.one_of(
    st.builds(FiniteTable, st.sampled_from(LEAF_TABLES)),
    st.builds(Group, st.builds(GroupSpec,
                               st.lists(factor_st(), min_size=1, max_size=3)
                               .map(tuple))),
    st.builds(Semilattice, st.one_of(
        st.just(OmegaChain()), st.just(OmegaAntichainZero()),
        st.builds(FinitePoset, st.sampled_from(
            [chain_table(3), antichain_zero_table(4)])))),
    st.just(Taimanov()),
    st.just(Null()),
)

descriptor_st = st.recursive(
    leaf_st,
    lambda inner: st.one_of(
        st.builds(Product, inner, inner),
        st.builds(AdjoinZero, inner),
        st.builds(AdjoinIdentity, inner),
    ),
    max_leaves=6,
)


class TestPrimality:
    def test_small_values(self):
        assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


class TestValidation:
    def test_finite_table_must_be_commutative(self, lz2):
        with pytest.raises(ValueError, match="not commutative"):
            FiniteTable(lz2)

    def test_prufer_param_must_be_prime(self):
        with pytest.raises(ValueError, match="not prime"):
            Factor("prufer", 4)

    def test_poset_must_be_idempotent(self, z3):
        with pytest.raises(ValueError, match="not idempotent"):
            FinitePoset(z3)


class TestDepthLimit:
    def test_deepest_chain_built_in_python_works(self):
        d = Null()
        for _ in range(MAX_DEPTH - 1):
            d = AdjoinZero(d)
        assert d.depth == MAX_DEPTH
        assert d == AdjoinZero(d.inner) and hash(d) == hash(AdjoinZero(d.inner))
        assert repr(d).count("(") == MAX_DEPTH
        assert describe(d).count("(") == MAX_DEPTH
        assert evaluate(d).size is None
        assert truncate(d, 3).n == 3

    def test_one_level_deeper_is_rejected_at_construction(self):
        d = Null()
        for _ in range(MAX_DEPTH - 1):
            d = AdjoinZero(d)
        with pytest.raises(ValueError, match="deeper than %d" % MAX_DEPTH):
            AdjoinZero(d)
        with pytest.raises(ValueError, match="deeper than %d" % MAX_DEPTH):
            Product(Taimanov(), d)

    def test_depth_is_not_a_field(self):
        assert Product(Null(), AdjoinZero(Null())).depth == 3
        assert repr(AdjoinZero(Null())) == "AdjoinZero(inner=Null())"


class TestNotADescriptor:
    @pytest.mark.parametrize("x", [3, CayleyTable([[0]]), OmegaChain()],
                             ids=["int", "table", "spec"])
    @pytest.mark.parametrize("call", [
        evaluate, cardinality, describe, lambda x: truncate(x, 4)],
        ids=["evaluate", "cardinality", "describe", "truncate"])
    def test_raises_type_error(self, call, x):
        with pytest.raises(TypeError, match="not a descriptor"):
            call(x)


class TestCardinality:
    def test_finite_table(self, l3):
        assert cardinality(FiniteTable(l3)) == 3

    def test_product_with_integers(self, z3):
        d = Product(FiniteTable(z3), group_of(Factor("integers")))
        assert cardinality(d) is None

    def test_omega_multiplicity(self):
        assert cardinality(group_of(Factor("cyclic", 2, OMEGA))) is None

    def test_trivial_factor_omega_is_finite(self):
        assert cardinality(group_of(Factor("cyclic", 1, OMEGA))) == 1

    def test_finite_group(self):
        assert cardinality(group_of(Factor("cyclic", 4, 2),
                                    Factor("cyclic", 3))) == 48

    def test_adjoin_counts(self, l3):
        assert cardinality(AdjoinZero(FiniteTable(l3))) == 4


class TestEvaluate:
    def test_taimanov(self):
        p = evaluate(Taimanov())
        assert p.size is None
        assert p.periodic and p.chain_finite and p.subgroups_bounded
        assert p.exponent == 1
        assert not p.almost_clifford and not p.clifford
        assert not p.has_singleton_square

    def test_prufer_2(self):
        p = evaluate(group_of(Factor("prufer", 2)))
        assert p.size is None
        assert p.periodic and p.chain_finite
        assert not p.subgroups_bounded and p.exponent is None
        assert p.almost_clifford and p.clifford
        assert not p.has_singleton_square
        assert "prufer 2" in p.witness["subgroups_bounded"]

    def test_null(self):
        p = evaluate(Null())
        assert p.size is None
        assert p.periodic and p.chain_finite and p.subgroups_bounded
        assert not p.almost_clifford
        assert p.has_singleton_square
        assert "whole carrier" in p.witness["has_singleton_square"]

    def test_integers_not_periodic(self):
        p = evaluate(group_of(Factor("integers")))
        assert not p.periodic and not p.subgroups_bounded
        assert p.chain_finite

    def test_cyclic_tower_torsion_unbounded(self):
        p = evaluate(group_of(Factor("cyclic-tower", 2)))
        assert p.periodic and not p.subgroups_bounded

    def test_finite_table_profile(self, t5):
        p = evaluate(FiniteTable(t5))
        assert p.size == 5
        assert p.periodic and p.chain_finite and p.subgroups_bounded
        assert p.exponent == 1
        assert not p.clifford and p.almost_clifford
        assert not p.has_singleton_square

    def test_group_exponent_is_lcm(self):
        p = evaluate(group_of(Factor("cyclic", 4), Factor("cyclic", 6, OMEGA)))
        assert p.subgroups_bounded and p.exponent == 12

    def test_product_null_touches_everything(self):
        p = evaluate(Product(Null(), FiniteTable(cyclic_table(3))))
        assert p.has_singleton_square
        assert not p.almost_clifford

    def test_product_of_clifford_sides(self):
        p = evaluate(Product(group_of(Factor("prufer", 2)),
                             Semilattice(OmegaChain())))
        assert p.clifford and p.almost_clifford
        assert not p.chain_finite and not p.subgroups_bounded

    def test_almost_clifford_needs_finite_other_side(self):
        tai = Taimanov()
        finite = FiniteTable(chain_table(3))
        infinite = Semilattice(OmegaChain())
        assert evaluate(Product(tai, finite)).almost_clifford is False
        # Taimanov is not Clifford and not almost Clifford, so even a
        # finite partner cannot repair it
        p = evaluate(Product(AdjoinIdentity(FiniteTable(cyclic_table(2))), finite))
        assert p.almost_clifford
        assert evaluate(Product(finite, infinite)).almost_clifford

    def test_adjoins_preserve(self):
        for d in (Null(), Taimanov(), group_of(Factor("prufer", 3))):
            base = evaluate(d)
            for wrapped in (AdjoinZero(d), AdjoinIdentity(d)):
                p = evaluate(wrapped)
                assert p.periodic == base.periodic
                assert p.chain_finite == base.chain_finite
                assert p.subgroups_bounded == base.subgroups_bounded
                assert p.almost_clifford == base.almost_clifford
                assert p.has_singleton_square == base.has_singleton_square

    def test_semilattices_never_have_singleton_squares(self):
        for spec in (OmegaChain(), OmegaAntichainZero(),
                     FinitePoset(chain_table(3))):
            assert not evaluate(Semilattice(spec)).has_singleton_square

    @settings(max_examples=150)
    @given(descriptor_st)
    def test_profile_internal_coherence(self, d):
        p = evaluate(d)
        # six named predicates, each with a witness
        for key in ("cardinality", "periodic", "chain_finite",
                    "subgroups_bounded", "almost_clifford",
                    "has_singleton_square"):
            assert p.witness[key]
        if p.size is not None:
            assert (p.periodic and p.chain_finite and p.subgroups_bounded
                    and p.almost_clifford and not p.has_singleton_square)
        if p.clifford:
            assert p.almost_clifford
        if p.subgroups_bounded:
            assert p.exponent >= 1
        # the projective conditions force the remaining ones
        if p.chain_finite and p.almost_clifford and p.subgroups_bounded:
            assert p.periodic
            assert not p.has_singleton_square

    @settings(max_examples=80)
    @given(descriptor_st, descriptor_st)
    def test_product_profile_is_symmetric(self, a, b):
        p = evaluate(Product(a, b))
        q = evaluate(Product(b, a))
        assert (p.size, p.periodic, p.chain_finite, p.subgroups_bounded,
                p.exponent, p.clifford, p.almost_clifford,
                p.has_singleton_square) == \
               (q.size, q.periodic, q.chain_finite, q.subgroups_bounded,
                q.exponent, q.clifford, q.almost_clifford,
                q.has_singleton_square)


class TestTruncate:
    def test_prufer_gives_largest_power(self):
        assert truncate(group_of(Factor("prufer", 2)), 5) == cyclic_table(4)

    def test_taimanov(self):
        assert truncate(Taimanov(), 5) == taimanov_table(5)

    def test_omega_chain(self):
        assert truncate(Semilattice(OmegaChain()), 3) == chain_table(3)

    def test_cyclic_divisor_chunk(self):
        # largest divisor of 6 fitting in 4 elements is 3
        assert truncate(group_of(Factor("cyclic", 6)), 4) == \
            product_table(cyclic_table(1), cyclic_table(3))

    def test_omega_multiplicity_fills_budget(self):
        t = truncate(group_of(Factor("cyclic", 2, OMEGA)), 8)
        assert t.n == 8
        assert all(t.op[x][x] == 0 for x in t.elements)

    def test_product_splits_budget(self):
        d = Product(Semilattice(OmegaChain()), Null())
        t = truncate(d, 6)
        assert t.n <= 6
        assert validate(t).associative

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            truncate(Null(), 0)

    @settings(max_examples=100)
    @given(descriptor_st, st.integers(1, 8))
    def test_truncations_are_commutative_semigroups(self, d, budget):
        t = truncate(d, budget)
        assert 1 <= t.n <= budget
        report = validate(t)
        assert report.associative and report.commutative


GROUP_CATALOG = [
    group_of(Factor("cyclic", 2)),
    group_of(Factor("cyclic", 6)),
    group_of(Factor("cyclic", 4, 2)),
    group_of(Factor("cyclic", 2, OMEGA)),
    group_of(Factor("prufer", 2)),
    group_of(Factor("prufer", 3), Factor("cyclic", 5)),
    group_of(Factor("integers")),
    group_of(Factor("cyclic-tower", 2)),
    group_of(Factor("cyclic", 2), Factor("cyclic", 3)),
]

SEMILATTICE_CATALOG = [
    Semilattice(OmegaChain()),
    Semilattice(OmegaAntichainZero()),
    Semilattice(FinitePoset(chain_table(3))),
    Semilattice(FinitePoset(antichain_zero_table(4))),
    Semilattice(FinitePoset(chain_table(1))),
]


class TestProfileTruncationConsistency:
    def test_full_finite_groups_realize_the_exact_exponent(self):
        # for a finite group descriptor the truncation at its own size is
        # the whole group, and the table-level exponent must equal the
        # profile's lcm
        specs = [
            (Factor("cyclic", 4), Factor("cyclic", 6)),
            (Factor("cyclic", 2, 3),),
            (Factor("cyclic", 3), Factor("cyclic", 5)),
            (Factor("cyclic", 1), Factor("cyclic", 8)),
        ]
        for factors in specs:
            d = group_of(*factors)
            size = cardinality(d)
            table = truncate(d, size)
            assert table.n == size
            p = evaluate(d)
            (identity,) = idempotents(table)
            assert group_exponent(table, identity) == p.exponent

    def test_group_exponent_divides_claimed_bound(self):
        for d in GROUP_CATALOG + SEMILATTICE_CATALOG:
            p = evaluate(d)
            if not p.subgroups_bounded:
                continue
            for budget in range(1, 9):
                t = truncate(d, budget)
                for e in idempotents(t):
                    assert p.exponent % group_exponent(t, e) == 0

    def test_no_singleton_squares_in_group_or_semilattice_truncations(self):
        for d in GROUP_CATALOG + SEMILATTICE_CATALOG:
            assert not evaluate(d).has_singleton_square
            for budget in range(1, 9):
                assert singleton_square_scan(truncate(d, budget)) is None

    def test_group_truncations_have_tiny_chains(self):
        for d in GROUP_CATALOG:
            assert evaluate(d).chain_finite
            for budget in range(1, 9):
                assert max_chain_length(truncate(d, budget))[0] <= 2

    def test_null_truncations_always_carry_a_witness(self):
        for budget in range(2, 9):
            witness = singleton_square_scan(truncate(Null(), budget))
            assert witness is not None and len(witness) >= 2
