from itertools import combinations, product

import pytest

from sgclass import (CayleyTable, MalformedTableError, PreconditionError,
                     adjoin_identity, adjoin_zero, center, chain_table,
                     clifford_part, cyclic_table, group_exponent, h_class,
                     h_classes, idempotents, max_chain_length, monogenic_data,
                     natural_le, null_table, pi_map, product_table, relabel,
                     restrict, root_inf, taimanov_table, validate, z_sets)


def brute_force_max_chain(table):
    """Independent oracle: scan every subset for the chain property."""
    n = table.n
    best = (0, frozenset())
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            ok = all(table.op[x][y] in (x, y) and table.op[y][x] in (x, y)
                     for x, y in combinations(subset, 2))
            if ok and size > best[0]:
                best = (size, frozenset(subset))
    return best


def power_oracle(table, x, k):
    acc = x
    for _ in range(k - 1):
        acc = table.op[acc][x]
    return acc


def green_h_oracle(table):
    """Independent oracle: Green's H relation from the products of S^1,
    the table with an identity adjoined; x H y iff xS^1 = yS^1 and
    S^1x = S^1y.  Entry x is the class of x."""
    s1 = adjoin_identity(table).op
    right = [{s1[x][u] for u in range(len(s1))} for x in table.elements]
    left = [{s1[u][x] for u in range(len(s1))} for x in table.elements]
    return tuple(frozenset(y for y in table.elements
                           if right[y] == right[x] and left[y] == left[x])
                 for x in table.elements)


class TestConstruction:
    def test_rejects_out_of_range_entry(self):
        with pytest.raises(MalformedTableError, match="row 1, column 1"):
            CayleyTable([[0, 1], [1, 2]])

    def test_rejects_ragged_rows(self):
        with pytest.raises(MalformedTableError, match="row 1"):
            CayleyTable([[0, 0], [0]])

    def test_rejects_empty(self):
        with pytest.raises(MalformedTableError):
            CayleyTable([])

    def test_rejects_non_integers(self):
        with pytest.raises(MalformedTableError):
            CayleyTable([[0.0]])


class TestValidate:
    def test_z3(self, z3):
        report = validate(z3)
        assert report.associative and report.commutative
        assert report.assoc_witness is None and report.comm_witness is None

    def test_non_associative_witness_is_lex_first(self):
        table = CayleyTable([[1, 0], [0, 0]])
        # oracle: check all 8 triples in lexicographic order
        expected = None
        for x, y, z in product(range(2), repeat=3):
            if table.op[table.op[x][y]][z] != table.op[x][table.op[y][z]]:
                expected = (x, y, z)
                break
        assert expected == (0, 0, 1)
        report = validate(table)
        assert not report.associative
        assert report.assoc_witness == expected

    def test_left_zero_not_commutative(self, lz2):
        report = validate(lz2)
        assert report.associative
        assert not report.commutative
        assert report.comm_witness == (0, 1)


class TestIdempotents:
    def test_semilattice_all(self, l3):
        assert idempotents(l3) == {0, 1, 2}

    def test_group_identity_only(self, z3):
        assert idempotents(z3) == {0}

    def test_taimanov(self, t5):
        # oracle: square every element
        expected = {x for x in range(5) if t5.op[x][x] == x}
        assert expected == {0}
        assert idempotents(t5) == {0}


class TestNaturalLe:
    def test_chain_bottom(self, l3):
        assert natural_le(l3, 0, 2)
        assert not natural_le(l3, 2, 0)

    def test_reflexive(self, z3):
        assert natural_le(z3, 0, 0)

    def test_two_sided_on_a_left_zero_band(self, lz2):
        # ef = e holds both ways here, but fe = f, so neither is below
        assert not natural_le(lz2, 0, 1)
        assert not natural_le(lz2, 1, 0)

    def test_is_a_partial_order(self, associative3):
        for table in associative3:
            es = sorted(idempotents(table))
            for e, f in product(es, repeat=2):
                if e != f and natural_le(table, e, f):
                    assert not natural_le(table, f, e)
                for g in es:
                    if natural_le(table, e, f) and natural_le(table, f, g):
                        assert natural_le(table, e, g)

    def test_rejects_non_idempotent(self, z3):
        with pytest.raises(PreconditionError, match="not idempotent"):
            natural_le(z3, 1, 0)


class TestMaxChain:
    def test_chain_is_whole_semilattice(self, l3):
        assert max_chain_length(l3) == (3, frozenset({0, 1, 2}))

    def test_null(self, n3):
        assert brute_force_max_chain(n3) == (2, frozenset({0, 1}))
        assert max_chain_length(n3) == (2, frozenset({0, 1}))

    def test_group(self, z3):
        # identity-involving pairs are the only chains of size 2
        assert brute_force_max_chain(z3) == (2, frozenset({0, 1}))
        assert max_chain_length(z3) == (2, frozenset({0, 1}))

    def test_matches_brute_force_on_mixed_tables(self, z4, t5):
        for table in (z4, t5, taimanov_table(3), null_table(4),
                      product_table(chain_table(2), cyclic_table(2))):
            size, witness = max_chain_length(table)
            oracle_size, _ = brute_force_max_chain(table)
            assert size == oracle_size
            assert all(table.op[x][y] in (x, y)
                       for x, y in combinations(sorted(witness), 2))

    def test_witness_is_the_lexicographically_first_largest_chain(self, corpus4):
        # the oracle keeps the first chain of each size in lexicographic order
        for table in corpus4:
            assert max_chain_length(table) == brute_force_max_chain(table)


class TestCenter:
    def test_commutative_is_everything(self, z3, t5):
        assert center(z3) == {0, 1, 2}
        assert center(t5) == {0, 1, 2, 3, 4}

    def test_left_zero_empty(self, lz2):
        assert center(lz2) == frozenset()


class TestHClass:
    def test_group_is_one_class(self, z3):
        assert h_class(z3, 1) == {0, 1, 2}

    def test_semilattice_classes_are_singletons(self, l3):
        assert h_class(l3, 1) == {1}

    def test_taimanov_zero(self, t5):
        assert h_class(t5, 0) == {0}

    def test_idempotent_class_is_a_group(self, corpus4):
        for table in corpus4:
            for e in idempotents(table):
                he = h_class(table, e)
                assert e in he
                assert all(table.op[x][y] in he for x in he for y in he)
                assert all(table.op[e][x] == x for x in he)


class TestHClasses:
    def test_matches_green_h_relation_oracle(self, corpus4, associative3):
        for table in corpus4 + associative3:
            oracle = green_h_oracle(table)
            assert h_classes(table) == oracle
            for x in table.elements:
                assert h_class(table, x) == oracle[x]
            idem = [e for e in table.elements if table.op[e][e] == e]
            assert clifford_part(table) == \
                frozenset().union(*(oracle[e] for e in idem))


class TestCliffordPart:
    def test_group(self, z3):
        assert clifford_part(z3) == {0, 1, 2}

    def test_taimanov(self, t5):
        assert clifford_part(t5) == {0}

    def test_semilattice(self, l3):
        assert clifford_part(l3) == {0, 1, 2}


class TestMonogenic:
    def test_z4_generator(self, z4):
        # oracle: powers of 1 are 1, 2, 3, 0, 1, ...
        assert [power_oracle(z4, 1, k) for k in range(1, 6)] == [1, 2, 3, 0, 1]
        assert monogenic_data(z4, 1) == (1, 4, 0)

    def test_taimanov_nilpotent(self, t5):
        assert monogenic_data(t5, 2) == (2, 1, 0)

    def test_idempotent(self, l3):
        assert monogenic_data(l3, 1) == (1, 1, 1)

    def test_invariants_on_corpus(self, corpus4):
        for table in corpus4:
            for x in table.elements:
                index, period, pi = monogenic_data(table, x)
                assert index >= 1 and period >= 1
                assert power_oracle(table, x, index + period) == \
                    power_oracle(table, x, index)
                assert table.op[pi][pi] == pi
                assert pi in {power_oracle(table, x, k)
                              for k in range(1, index + period + 1)}


class TestPiMap:
    def test_single_idempotent(self, z4):
        assert pi_map(z4) == (0, 0, 0, 0)

    def test_taimanov(self, t5):
        assert pi_map(t5) == (0, 0, 0, 0, 0)

    def test_semilattice_identity(self, l3):
        assert pi_map(l3) == (0, 1, 2)

    def test_rejects_non_central_idempotent(self, lz2):
        with pytest.raises(PreconditionError, match="idempotent 0 is not central"):
            pi_map(lz2)


class TestRootInf:
    def oracle(self, table, subset):
        hits = set()
        for x in table.elements:
            for k in range(1, 2 * table.n + 2):
                if power_oracle(table, x, k) in subset:
                    hits.add(x)
                    break
        return hits

    def test_taimanov_everything_roots_to_zero(self, t5):
        assert root_inf(t5, {0}) == {0, 1, 2, 3, 4}

    def test_torsion_group(self, z3):
        assert root_inf(z3, {0}) == {0, 1, 2}

    def test_semilattice_fixed(self, l3):
        assert root_inf(l3, {1}) == {1}

    def test_matches_power_oracle(self, corpus3):
        for table in corpus3:
            for mask in range(1, 1 << table.n):
                subset = {b for b in range(table.n) if (mask >> b) & 1}
                assert root_inf(table, subset) == self.oracle(table, subset)


class TestZSets:
    def test_taimanov(self, t5):
        assert z_sets(t5, 0, 2) == [frozenset({0}), frozenset(range(5))]

    def test_group_h_class_is_whole_group(self, z3):
        # the subgroup at 0 is all of Z3, so every layer is everything
        full = frozenset({0, 1, 2})
        assert z_sets(z3, 0, 3) == [full, full, full]

    def test_semilattice(self, l3):
        assert z_sets(l3, 1, 1) == [frozenset({1})]

    def test_rejects_bad_n_max(self, l3):
        with pytest.raises(PreconditionError):
            z_sets(l3, 1, 0)

    def test_matches_power_oracle(self, z4, t5):
        for table in (z4, t5):
            for e in idempotents(table):
                he = h_class(table, e)
                layers = z_sets(table, e, 4)
                zc = center(table)
                for k, layer in enumerate(layers, start=1):
                    assert layer == {z for z in zc
                                     if power_oracle(table, z, k) in he}


class TestGroupExponent:
    def test_z4(self, z4):
        assert group_exponent(z4, 0) == 4

    def test_trivial_subgroup(self, l3):
        assert group_exponent(l3, 2) == 1

    def test_z3(self, z3):
        assert group_exponent(z3, 0) == 3

    def test_exponent_kills_every_member(self, corpus4):
        for table in corpus4:
            for e in idempotents(table):
                k = group_exponent(table, e)
                assert all(power_oracle(table, x, k) == e
                           for x in h_class(table, e))

    def test_exponent_is_the_least_that_kills(self, corpus4):
        for table in corpus4:
            for e in idempotents(table):
                group = h_class(table, e)
                least = next(k for k in range(1, table.n + 1)
                             if all(power_oracle(table, x, k) == e
                                    for x in group))
                assert group_exponent(table, e) == least


class TestStructuralFacts:
    def test_root_absorption_into_subgroups(self, corpus4):
        # products between a subgroup and its root set stay in the subgroup
        for table in corpus4:
            for e in idempotents(table):
                he = h_class(table, e)
                for x in root_inf(table, he):
                    for y in he:
                        assert table.op[x][y] in he
                        assert table.op[y][x] in he

    def test_pi_is_a_homomorphism(self, corpus4):
        for table in corpus4:
            pi = pi_map(table)
            for x in table.elements:
                for y in table.elements:
                    assert pi[table.op[x][y]] == table.op[pi[x]][pi[y]]

    def test_h_class_products(self, corpus4):
        for table in corpus4:
            es = sorted(idempotents(table))
            for e in es:
                for f in es:
                    target = h_class(table, table.op[e][f])
                    for a in h_class(table, e):
                        for b in h_class(table, f):
                            assert table.op[a][b] in target

    def test_pi_product_lower_bound(self, corpus4):
        for table in corpus4:
            pi = pi_map(table)
            for x in table.elements:
                for y in table.elements:
                    assert natural_le(table, table.op[pi[x]][pi[y]],
                                      pi[table.op[x][y]])

    def test_clifford_part_closed(self, corpus4):
        for table in corpus4:
            part = clifford_part(table)
            assert all(table.op[x][y] in part for x in part for y in part)

    def test_idempotent_chains_match_subtable(self, corpus4):
        # chains made of idempotents are the chains of the subtable on E
        for table in corpus4:
            es = sorted(idempotents(table))
            sub, _ = restrict(table, es)
            best = 0
            for size in range(1, len(es) + 1):
                for subset in combinations(es, size):
                    if all(table.op[x][y] in (x, y)
                           for x, y in combinations(subset, 2)):
                        best = max(best, size)
            assert best == max_chain_length(sub)[0]


def make_s3():
    """Symmetric group on 3 points, via permutation composition."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {p: i for i, p in enumerate(perms)}
    rows = [[index[tuple(p[q[k]] for k in range(3))] for q in perms]
            for p in perms]
    return CayleyTable(rows)


class TestNoncommutativePeriodic:
    def test_pi_symmetric_in_its_arguments(self):
        # periodic, noncommutative, idempotents central: pi(xy) = pi(yx)
        table = product_table(make_s3(), chain_table(2))
        report = validate(table)
        assert report.associative and not report.commutative
        zc = center(table)
        assert idempotents(table) <= zc
        pi = pi_map(table)
        for x in table.elements:
            for y in table.elements:
                assert pi[table.op[x][y]] == pi[table.op[y][x]]
        # and pi is still a homomorphism there
        for x in table.elements:
            for y in table.elements:
                assert pi[table.op[x][y]] == table.op[pi[x]][pi[y]]


class TestBuilders:
    def test_adjoin_zero_absorbs(self, z3):
        t = adjoin_zero(z3)
        assert all(t.op[0][x] == 0 and t.op[x][0] == 0 for x in t.elements)
        assert validate(t).associative

    def test_adjoin_identity(self, n3):
        t = adjoin_identity(n3)
        e = t.n - 1
        assert all(t.op[e][x] == x and t.op[x][e] == x for x in t.elements)
        assert validate(t).associative

    def test_relabel_is_isomorphism(self, t5):
        perm = (4, 2, 0, 1, 3)
        t = relabel(t5, perm)
        for x in range(5):
            for y in range(5):
                assert t.op[perm[x]][perm[y]] == perm[t5.op[x][y]]

    @pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1, 5], [0, 1],
                                      [0, 1, 2, 3], [0, True, 2]])
    def test_relabel_rejects_non_permutations(self, z3, perm):
        with pytest.raises(PreconditionError):
            relabel(z3, perm)

    def test_restrict_rejects_unclosed(self, z3):
        with pytest.raises(PreconditionError, match="not closed"):
            restrict(z3, {0, 1})
