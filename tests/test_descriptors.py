from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgclass import (CayleyTable, adjoin_identity, adjoin_zero,
                     antichain_zero_table, chain_table, clifford_part,
                     cyclic_table, group_exponent, h_class, idempotents,
                     max_chain_length, null_table, product_table,
                     taimanov_table, validate)
from sgclass.classify import classify
from sgclass.descriptors import (MAX_DEPTH, OMEGA, AdjoinIdentity, AdjoinZero,
                                 Descriptor, Factor, FinitePoset, FiniteTable,
                                 Group, Null, OmegaAntichainZero, OmegaChain,
                                 Product, Semilattice, Taimanov, describe,
                                 evaluate, is_prime, truncate)

from oracles import relabel, render_descriptor, singleton_square_scan


def group_of(*factors):
    return Group(tuple(factors))


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
    st.builds(Group, st.lists(factor_st(), min_size=1, max_size=3)
              .map(tuple)),
    st.one_of(
        st.just(OmegaChain()), st.just(OmegaAntichainZero()),
        st.builds(FinitePoset, st.sampled_from(
            [chain_table(3), antichain_zero_table(4)]))),
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
        scope = "classification covers commutative semigroups only$"
        with pytest.raises(ValueError, match="^table is not commutative: .*"
                                             + scope):
            FiniteTable(lz2)
        with pytest.raises(ValueError, match="^poset table is not "
                                             "commutative: .*" + scope):
            FinitePoset(lz2)

    @pytest.mark.parametrize("cls", [FiniteTable, FinitePoset])
    @pytest.mark.parametrize("table", [[[0]], None, "x"])
    def test_leaf_takes_only_a_cayley_table(self, cls, table):
        with pytest.raises(TypeError, match="is not a CayleyTable"):
            cls(table)

    def test_prufer_param_must_be_prime(self):
        with pytest.raises(ValueError, match="not prime"):
            Factor("prufer", 4)

    def test_poset_must_be_idempotent(self, z3):
        with pytest.raises(ValueError, match="not idempotent"):
            FinitePoset(z3)

    def test_finite_table_must_be_associative(self):
        with pytest.raises(ValueError, match=r"^table is not associative: "
                                             r"witness \(0, 0, 1\)$"):
            FiniteTable(CayleyTable([[1, 0], [0, 0]]))

    @pytest.mark.parametrize("args,message", [
        (("bogus", 2), "unknown group factor kind 'bogus'"),
        (("cyclic", 0), "cyclic order must be a positive integer"),
        (("integers", 3), "integers takes no parameter"),
        (("cyclic", 2, 0), "multiplicity must be a positive integer or omega"),
        # bool is a subclass of int, but not an order or a multiplicity
        (("cyclic", True), "cyclic order must be a positive integer"),
        (("cyclic", True, True), "cyclic order must be a positive integer"),
        (("cyclic", 2, True), "multiplicity must be a positive integer or omega"),
        (("prufer", 3, True), "multiplicity must be a positive integer or omega"),
    ])
    def test_factor_refusals(self, args, message):
        with pytest.raises(ValueError) as exc:
            Factor(*args)
        assert str(exc.value) == message

    def test_group_takes_only_factors(self):
        # a tuple holding a non-Factor, then arguments that are not
        # iterable at all, a lone Factor among them
        for factors in [(1,), 5, None, Factor("cyclic", 2)]:
            with pytest.raises(ValueError,
                               match="^group factors must be Factor instances$"):
                Group(factors)
        # no factors at all: `describe` would print "(group )", which the
        # reader refuses
        for factors in [(), []]:
            with pytest.raises(ValueError,
                               match="^group needs at least one factor$"):
                Group(factors)

    def test_poset_path_is_not_compared(self, l3):
        a, b = FinitePoset(l3, path="a"), FinitePoset(l3, path="b")
        assert a == b and hash(a) == hash(b)

    def test_leaves_without_a_path_do_not_render(self, l3):
        with pytest.raises(ValueError, match="^cannot render a table "
                                             "descriptor without a path$"):
            render_descriptor(FiniteTable(l3))
        with pytest.raises(ValueError, match="^cannot render a poset "
                                             "descriptor without a path$"):
            render_descriptor(FinitePoset(l3))


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

    def test_groups_and_semilattices_are_leaves(self):
        for d in (group_of(Factor("cyclic", 2)), FinitePoset(chain_table(3)),
                  OmegaChain(), OmegaAntichainZero()):
            assert d.depth == 1


class TestNotADescriptor:
    @pytest.mark.parametrize("x", [3, CayleyTable([[0]]), Factor("cyclic", 2)],
                             ids=["int", "table", "spec"])
    @pytest.mark.parametrize("call", [
        evaluate, describe, lambda x: truncate(x, 4), classify],
        ids=["evaluate", "describe", "truncate", "classify"])
    def test_raises_type_error(self, call, x):
        with pytest.raises(TypeError, match="not a descriptor"):
            call(x)

    # the base classes denote no semigroup; one test per entry point

    @staticmethod
    def refuses_the_base_classes(call):
        for base in (Descriptor, Semilattice):
            with pytest.raises(TypeError, match="^not a descriptor: <"):
                call(base())

    def test_evaluate_refuses_the_base_classes(self):
        self.refuses_the_base_classes(evaluate)

    def test_classify_refuses_the_base_classes(self):
        self.refuses_the_base_classes(classify)

    def test_describe_refuses_the_base_classes(self):
        self.refuses_the_base_classes(describe)

    def test_truncate_refuses_the_base_classes(self):
        self.refuses_the_base_classes(lambda d: truncate(d, 4))

    # a constructor refuses such a child itself, before any entry point
    # meets the tree

    @pytest.mark.parametrize("build, bad", [
        (lambda x: Product(x, Null()), 1),
        (lambda x: Product(Null(), x), 1),
        (lambda x: Product(Null(), x), Descriptor()),
        (lambda x: Product(x, Null()), Semilattice()),
        (AdjoinZero, "x"),
        (AdjoinZero, Descriptor()),
        (AdjoinIdentity, Factor("cyclic", 2)),
        (AdjoinIdentity, Semilattice()),
    ], ids=["product-left-int", "product-right-int", "product-base",
            "product-semilattice-base", "zero-str", "zero-base",
            "identity-spec", "identity-semilattice-base"])
    def test_constructors_refuse_children(self, build, bad):
        with pytest.raises(TypeError) as exc:
            build(bad)
        assert str(exc.value) == "not a descriptor: %r" % (bad,)


class TestCardinality:
    def test_finite_table(self, l3):
        assert FiniteTable(l3).profile().size == 3

    def test_product_with_integers(self, z3):
        d = Product(FiniteTable(z3), group_of(Factor("integers")))
        assert d.profile().size is None

    def test_omega_multiplicity(self):
        assert group_of(Factor("cyclic", 2, OMEGA)).profile().size is None

    def test_trivial_factor_omega_is_finite(self):
        assert group_of(Factor("cyclic", 1, OMEGA)).profile().size == 1

    def test_finite_group(self):
        assert group_of(Factor("cyclic", 4, 2),
                        Factor("cyclic", 3)).profile().size == 48

    def test_adjoin_counts(self, l3):
        assert AdjoinZero(FiniteTable(l3)).profile().size == 4


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
                             OmegaChain()))
        assert p.clifford and p.almost_clifford
        assert not p.chain_finite and not p.subgroups_bounded

    def test_almost_clifford_needs_finite_other_side(self):
        tai = Taimanov()
        finite = FiniteTable(chain_table(3))
        infinite = OmegaChain()
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
        for d in (OmegaChain(), OmegaAntichainZero(),
                  FinitePoset(chain_table(3))):
            assert not evaluate(d).has_singleton_square

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
        assert truncate(OmegaChain(), 3) == chain_table(3)

    def test_cyclic_divisor_chunk(self):
        # largest divisor of 6 fitting in 4 elements is 3
        assert truncate(group_of(Factor("cyclic", 6)), 4) == \
            product_table(cyclic_table(1), cyclic_table(3))

    def test_omega_multiplicity_fills_budget(self):
        t = truncate(group_of(Factor("cyclic", 2, OMEGA)), 8)
        assert t.n == 8
        assert all(t.op[x][x] == 0 for x in t.elements)

    def test_product_splits_budget(self):
        d = Product(OmegaChain(), Null())
        t = truncate(d, 6)
        assert t.n <= 6
        assert validate(t).associative

    def test_table_with_no_small_subsemigroup_on_a_prefix(self):
        # 0 generates this relabeled Z5, so no prefix {0..m-1} closes
        # within the budget and the leaf falls back to the idempotent {1}
        t = relabel(cyclic_table(5), (1, 0, 2, 3, 4))
        assert truncate(FiniteTable(t), 2) == CayleyTable([[0]])

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            truncate(Null(), 0)

    def test_rejects_a_bool_budget(self):
        with pytest.raises(ValueError,
                           match="^size budget must be a positive integer$"):
            truncate(Null(), True)

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
    OmegaChain(),
    OmegaAntichainZero(),
    FinitePoset(chain_table(3)),
    FinitePoset(antichain_zero_table(4)),
    FinitePoset(chain_table(1)),
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
            size = d.profile().size
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


def predicates(d):
    """The profile of a descriptor without its witness strings."""
    return replace(d.profile(), witness=None)


class TestFiniteIdentities:
    """The product and adjunction rules against the tables they describe,
    over every pair of classes A, B of orders 1..4 with |A|.|B| <= 12."""

    @pytest.fixture(scope="class")
    def pairs(self, corpus4):
        return [(a, b) for a in corpus4 for b in corpus4 if a.n * b.n <= 12]

    def test_product_profile_is_the_product_table_profile(self, pairs):
        assert len(pairs) == 2112
        for a, b in pairs:
            d = Product(FiniteTable(a), FiniteTable(b))
            table = product_table(a, b)
            assert d.truncate(table.n) == table
            assert predicates(d) == predicates(FiniteTable(table)), (a, b)

    def test_finite_table_exponent_is_divided_by_every_subgroup_exponent(
            self, corpus5):
        # every subgroup lies in a maximal one, the H-class of an
        # idempotent e, so its exponent divides the table's exponent iff the
        # order of each x in those H-classes does: the least k with x^k = e
        mixed = []
        for t in corpus5:
            exponent = evaluate(FiniteTable(t)).exponent
            orders = set()
            for e in idempotents(t):
                for x in h_class(t, e):
                    k, power = 1, x
                    while power != e:
                        k, power = k + 1, t.op[power][x]
                    orders.add(k)
            assert all(exponent % k == 0 for k in orders), (t, orders)
            if max(orders) != exponent:
                mixed.append(t)
        # the order-5 classes with subgroups Z2 and Z3
        assert len(mixed) == 2
        for a in mixed:
            assert evaluate(Product(FiniteTable(a), FiniteTable(a))).exponent \
                == evaluate(FiniteTable(product_table(a, a))).exponent == 6

    def test_non_clifford_count_of_a_product(self, pairs):
        overlaps = 0
        for a, b in pairs:
            off_a = a.n - len(clifford_part(a))
            off_b = b.n - len(clifford_part(b))
            table = product_table(a, b)
            assert table.n - len(clifford_part(table)) == \
                off_a * b.n + a.n * off_b - off_a * off_b, (a, b)
            overlaps += off_a * off_b > 0
        # pairs where both sides have non-Clifford elements, so the
        # overlap term is live
        assert overlaps == 736

    @pytest.mark.parametrize("node, build", [(AdjoinZero, adjoin_zero),
                                             (AdjoinIdentity, adjoin_identity)])
    def test_adjunction_profile_is_the_adjoined_table_profile(
            self, corpus4, node, build):
        for a in corpus4:
            d = node(FiniteTable(a))
            table = build(a)
            assert d.truncate(table.n) == table
            assert predicates(d) == predicates(FiniteTable(table)), a
