"""The power semigroup of nonempty subsets (finite filter semigroup).

On a finite carrier every filter is the up-closure of a unique nonempty
subset, so the semigroup of filters is carried by the nonempty subsets under
the elementwise product.  Subsets are canonically indexed by bitmask value:
index i holds the subset with mask i + 1.
"""

from __future__ import annotations

import sys
from array import array

from .core import (CayleyTable, PreconditionError, _check_element,
                   _check_subset, _mask, _members)

# The table has (2^n - 1)^2 cells, so each order quadruples the memory: at
# order 12 (about 1.7e7 cells) `sgclass power --json` takes about 2.2 s and
# peaks near 660 MB of RSS on 64-bit CPython 3.11 (2 vCPUs).  The packed rows
# of `power_semigroup` also need each subset mask to fit a 16-bit lane.
MAX_BASE_ORDER = 12


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
        return _mask(subset) - 1

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

    Each row is built packed into one int, a 16-bit lane per cell holding
    the mask of the product.  A mask is at least 1 and below 2**12, so the
    OR of two rows never carries out of a lane, and subtracting a 1 from
    every lane (mask i + 1 -> index i) never borrows; a whole row is then
    one OR, and is unpacked into a tuple of indices at C speed.  That costs
    n * 2^n image entries plus 2^n - 1 row ORs.  The packed row of a prefix
    mask P is kept only until its last extension, P + b/2 for b the lowest
    bit of P, and the rows of odd masks are never extended.  Rows are tuples in index
    space, in range by construction, which the table keeps as they are
    without re-checking them, so the memory is one (2^n - 1)-square table.
    Guarded to base order <= MAX_BASE_ORDER, because that table outgrows
    memory past it.
    """
    n = base.n
    if n > MAX_BASE_ORDER:
        raise PreconditionError(
            "power semigroup is limited to base order <= %d (got %d)"
            % (MAX_BASE_ORDER, n))
    size = (1 << n) - 1
    width = 2 * size
    order = sys.byteorder  # packing and unpacking agree on either order

    def pack(masks):
        return int.from_bytes(array("H", masks).tobytes(), order)

    images = []
    for ru in base.op:
        image = [0] * (size + 1)
        for m in range(1, size + 1):
            low = m & -m
            image[m] = image[m ^ low] | 1 << ru[low.bit_length() - 1]
        del image[0]
        images.append(pack(image))
    ones = pack([1] * size)
    live = {0: 0}  # packed rows of the prefixes still to be extended
    rows = []
    for mu in range(1, size + 1):
        low = mu & -mu
        prefix = mu ^ low
        row = live[prefix] | images[low.bit_length() - 1]
        if low << 1 == prefix & -prefix:
            del live[prefix]
        if not mu & 1:
            live[mu] = row
        rows.append(tuple(memoryview((row - ones).to_bytes(width, order))
                          .cast("H")))
    elements = tuple(frozenset(_members(m)) for m in range(1, size + 1))
    return PowerSemigroup(base, elements, CayleyTable._trusted(rows))


__all__ = ["PowerSemigroup", "power_semigroup"]
