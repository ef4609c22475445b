"""The power semigroup of nonempty subsets (finite filter semigroup).

On a finite carrier every filter is the up-closure of a unique nonempty
subset, so the semigroup of filters is carried by the nonempty subsets under
the elementwise product.  Subsets are canonically indexed by bitmask value:
index i holds the subset with mask i + 1.
"""

from __future__ import annotations

from .core import (CayleyTable, PreconditionError, _check_element,
                   _check_subset)

MAX_BASE_ORDER = 16


def _mask_of(subset):
    mask = 0
    for x in subset:
        mask |= 1 << x
    return mask


def _subset_of(mask):
    out = []
    b = 0
    while mask:
        if mask & 1:
            out.append(b)
        mask >>= 1
        b += 1
    return frozenset(out)


def subset_product(table, u, v) -> frozenset:
    """Elementwise product of two nonempty subsets."""
    u = _check_subset(table, u)
    v = _check_subset(table, v)
    if not u or not v:
        raise PreconditionError("subset product needs nonempty operands")
    op = table.op
    return frozenset(op[a][b] for a in u for b in v)


class PowerSemigroup:
    """All nonempty subsets of a base table under the elementwise product."""

    __slots__ = ("base", "elements", "table")

    def __init__(self, base, elements, table):
        self.base = base
        self.elements = elements  # tuple of frozensets, index i <-> mask i+1
        self.table = table

    def index_of(self, subset) -> int:
        subset = _check_subset(self.base, subset)
        if not subset:
            raise PreconditionError("the empty set is not an element")
        return _mask_of(subset) - 1

    def singleton_index(self, x) -> int:
        _check_element(self.base, x)
        return (1 << x) - 1

    def __repr__(self):
        return "PowerSemigroup(base order %d, %d subsets)" % (
            self.base.n, len(self.elements))


def power_semigroup(base) -> PowerSemigroup:
    """Build the full subset-product table.

    The singleton subsets form a copy of the base inside it.  The product
    distributes over union, so the row of U is the row of U minus its least
    member u, OR-ed cell by cell with the image of u (the mask of uV for
    every V), and each image entry extends a smaller one by one product.
    That costs n * 2^n image entries plus (2^n - 1)^2 cells at one OR each.
    Rows are built as tuples in index space, in range by construction, which
    the table keeps as they are without re-checking them, so the memory is
    one (2^n - 1)-square table.  Guarded to base order <= 16 so masks stay
    in machine range.
    """
    n = base.n
    if n > MAX_BASE_ORDER:
        raise PreconditionError(
            "power semigroup is limited to base order <= %d (got %d)"
            % (MAX_BASE_ORDER, n))
    size = (1 << n) - 1
    images = []
    for ru in base.op:
        image = [0] * (size + 1)
        for m in range(1, size + 1):
            low = m & -m
            image[m] = image[m ^ low] | 1 << ru[low.bit_length() - 1]
        del image[0]
        images.append(image)
    rows = []
    for mu in range(1, size + 1):
        low = mu & -mu
        image = images[low.bit_length() - 1]
        if mu == low:
            rows.append(tuple([b - 1 for b in image]))
        else:
            rows.append(tuple([((a + 1) | b) - 1
                               for a, b in zip(rows[mu - low - 1], image)]))
    elements = tuple(map(_subset_of, range(1, size + 1)))
    return PowerSemigroup(base, elements, CayleyTable._trusted(rows))


def basic_open(table, u) -> list:
    """All nonempty subsets of u, in increasing bitmask order.

    These are exactly the filters containing u, i.e. the members of the
    basic open set determined by u.
    """
    u = _check_subset(table, u)
    if not u:
        raise PreconditionError("basic open sets are indexed by nonempty subsets")
    mask = _mask_of(u)
    out = []
    sub = mask
    while sub:
        out.append(sub)
        sub = (sub - 1) & mask
    return [_subset_of(m) for m in sorted(out)]


__all__ = ["PowerSemigroup", "basic_open", "power_semigroup", "subset_product"]
