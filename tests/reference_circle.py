"""Scalar reference versions of the circle-layer sums, for tests only.

These are the plain Python loops that `circle._series_sums` and
`circle.goldbach_restricted_sum` replaced with numpy versions, and one
Mobius and totient table for 0..limit, the oracle for the chunks of
`circle._mobius_totient`.  They are kept here, outside the package, so
that the differential tests compare every output bit for bit against
code that shares nothing with the vectorised one but the prime table.  The
unweighted restricted count and the von Mangoldt convolution sum live
only here: the command line never used them.
"""

import math
from functools import lru_cache

import numpy as np

from cyclic2 import arith
from cyclic2.arith import PrimeTable


@lru_cache(maxsize=8)
def reference_mult_tables(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Mobius and totient arrays for 0..limit, one slice update per prime."""
    mu = np.ones(limit + 1, dtype=np.int64)
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in arith.sieve(2, max(limit, 2)).primes():
        if p > limit:
            break
        mu[p::p] *= -1
        if p * p <= limit:
            mu[p * p :: p * p] = 0
        phi[p::p] -= phi[p::p] // p
    mu[0] = 0
    return mu, phi


def reference_series_sum(m: int, Q: int, restricted: bool) -> float:
    """Truncated S1 (or S2 when restricted) at m, one q at a time."""
    mu, phi = reference_mult_tables(Q)
    total = 0.0
    for q in range(1, Q + 1):
        if restricted:
            if q % 8 == 0:
                q0 = q // 8
                if q0 % 2 == 0 or mu[q0] == 0:
                    continue
                coeff = 2.0
            else:
                if mu[q] == 0:
                    continue
                coeff = 0.25
        else:
            if mu[q] == 0:
                continue
            coeff = 1.0
        g = math.gcd(q, m)
        qg = q // g
        mq = int(mu[qg])
        if mq == 0:
            continue
        c = mq * int(phi[q]) // int(phi[qg])
        total += coeff * c / int(phi[q]) ** 2
    return total


def restricted_prime_pairs(n: int, table: PrimeTable):
    """Yield (p, n - p) with p <= n - p, both prime and 3 or 5 mod 8."""
    for r in (3, 5):
        for p in table.primes_mod8(r):
            if 2 * p > n:
                break
            q = n - p
            if q % 8 in (3, 5) and table.flags[q - table.lo]:
                yield p, q


def reference_restricted_sum(n: int, table: PrimeTable) -> float:
    """Sum of log p1 * log p2 over the ordered restricted pairs p1 + p2 = n."""
    total = 0.0
    for p, q in restricted_prime_pairs(n, table):
        term = math.log(p) * math.log(q)
        total += term if p == q else 2 * term
    return total


def goldbach_restricted_count(n: int, table: PrimeTable) -> int:
    """Unweighted ordered count of the same restricted representations."""
    if n < 2:
        raise ValueError("goldbach_restricted_count requires n >= 2")
    if n > 6 and not table.covers(3, n):
        raise ValueError(
            f"prime table [{table.lo}, {table.hi}] does not cover [3, {n}]"
        )
    total = 0
    for p, q in restricted_prime_pairs(n, table):
        total += 1 if p == q else 2
    return total


def goldbach_lambda_sum(d: int, table: PrimeTable) -> float:
    """Von Mangoldt convolution sum over ordered pairs d1 + d2 = d.

    Prime powers included; zero for d < 4.
    """
    if d < 1:
        raise ValueError("goldbach_lambda_sum requires d >= 1")
    if d < 4:
        return 0.0
    if not table.covers(2, d):
        raise ValueError(
            f"prime table [{table.lo}, {table.hi}] does not cover [2, {d}]"
        )
    weights: dict[int, float] = {}
    for p in table.primes():
        if p > d - 2:
            break
        lp = math.log(p)
        q = p
        while q <= d - 2:
            weights[q] = lp
            q *= p
    total = 0.0
    for q, wq in weights.items():
        other = weights.get(d - q)
        if other is not None:
            total += wq * other
    return total
