"""Table-scan reference for `factory.find_pairs`, for tests only.

This is the scan over a prime table covering [3, n - 3] that
`factory.find_pairs` replaced with an enumeration bounded by the d
budget.  It is kept here, outside the package, so that the differential
tests compare the enumerator against code that applies no budget and
tests no partner with `is_prime`.
"""

from cyclic2 import factory
from cyclic2.arith import PrimeTable


def table_pairs(
    k: int, M: int, table: PrimeTable, *, negative: bool = False
) -> list[tuple[int, int]]:
    """Every pair p1 + p2 = target(k, M), p1 = 5 and p2 = 3 (mod 8), or
    1 and 7 in negative mode, with no d budget; ordered by p1 ascending."""
    n = factory.target(k, M)
    if not table.covers(3, n - 3):
        raise ValueError(
            f"prime table [{table.lo}, {table.hi}] does not cover [3, {n - 3}]"
        )
    r1, r2 = (1, 7) if negative else (5, 3)
    pairs = []
    for p1 in table.primes_mod8(r1):
        if p1 > n - 3:
            break
        p2 = n - p1
        if p2 % 8 == r2 and p2 != p1 and table.flags[p2 - table.lo]:
            pairs.append((p1, p2))
    return pairs
