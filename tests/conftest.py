from itertools import product

import pytest

from sgclass import (CayleyTable, chain_table, cyclic_table, harness,
                     null_table, taimanov_table, validate)
from sgclass.harness import enumerate_commutative


@pytest.fixture
def z3():
    return cyclic_table(3)


@pytest.fixture
def z4():
    return cyclic_table(4)


@pytest.fixture
def l3():
    return chain_table(3)


@pytest.fixture
def n3():
    return null_table(3)


@pytest.fixture
def t5():
    return taimanov_table(5)


@pytest.fixture
def lz2():
    # left-zero: associative, not commutative
    return CayleyTable([[0, 0], [1, 1]])


@pytest.fixture(scope="session")
def corpus3():
    """One table per isomorphism class, orders 1..3."""
    return [t for n in (1, 2, 3) for t in enumerate_commutative(n, up_to_iso=True)]


@pytest.fixture(scope="session")
def corpus4():
    """One table per isomorphism class, orders 1..4."""
    return [t for n in (1, 2, 3, 4) for t in enumerate_commutative(n, up_to_iso=True)]


@pytest.fixture(scope="session")
def corpus5():
    """One table per isomorphism class, orders 1..5."""
    return [t for n in (1, 2, 3, 4, 5) for t in enumerate_commutative(n, up_to_iso=True)]


@pytest.fixture(scope="session")
def associative3():
    """Every associative table of orders 1..3, commutative or not."""
    tables = (CayleyTable([values[i * n:(i + 1) * n] for i in range(n)])
              for n in (1, 2, 3) for values in product(range(n), repeat=n * n))
    return [t for t in tables if validate(t).associative]


@pytest.fixture
def collapsed_projections(monkeypatch):
    """Make every quotient the suite builds project all elements onto class 0.

    Both quotient checks then fail on the two-element semilattice, at the
    identity congruence; the lift check also fails on the group of order 2.
    """
    real = harness._quotient_cells

    def collapsed(table, cong):
        cells, proj = real(table, cong)
        return cells, tuple(0 for _ in proj)

    monkeypatch.setattr(harness, "_quotient_cells", collapsed)
