"""Pair enumerations beside `factory.find_pairs`, for tests only.

`table_pairs` is the scan over a prime table covering [3, n - 3] that
`factory.find_pairs` replaced with an enumeration bounded by the d
budget.  It is kept here, outside the package, so that the differential
tests compare the enumerator against code that applies no budget and
tests no partner with `is_prime`.  `negative_pairs` is the negative mode
(p1 = 1, p2 = 7 mod 8) that `find_pairs` had: pairs whose 2-class group
is larger than 2**k, which no command certifies, for the tests of the
failing direction of the criterion.  It sieves only to isqrt(d_budget),
so a large n costs no table of size n, and the tests compare it with
`table_pairs` on every small target.
"""

import math

from cyclic2 import arith, factory
from cyclic2.arith import PrimeTable
from cyclic2.bounds import DEFAULT_D_BUDGET


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


def negative_pairs(k: int, M: int, d_budget: int = DEFAULT_D_BUDGET) -> list[tuple[int, int]]:
    """Every pair p1 + p2 = target(k, M), p1 = 1 and p2 = 7 (mod 8), with
    d = p1*p2 <= d_budget; ordered by p1 ascending.  The smaller prime p
    has p*p <= p*(n - p) <= d_budget, so only primes to isqrt(d_budget)
    are sieved, and each partner n - p is tested with `is_prime`."""
    n = factory.target(k, M)
    top = min(math.isqrt(max(d_budget, 0)), n // 2)
    if top < 2:
        return []
    table = arith.sieve(2, top)
    return sorted(
        (p, n - p) if r == 1 else (n - p, p)
        for r in (1, 7)
        for p in table.primes_mod8(r)
        if p * (n - p) <= d_budget and arith.is_prime(n - p)
    )
