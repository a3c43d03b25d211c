"""Scalar reference versions of the circle-layer arithmetic, for tests only.

These are the plain Python loops that `circle._series_sums` and
`circle.goldbach_restricted_sum` replaced with numpy versions, and one
Mobius and totient table for 0..limit, the oracle for the chunks of
`circle._mobius_totient`.  The series loop divides once per term with
its weight applied first; `circle` divides once per q and scales by a
power of 2 after.  The representation sum is one row at a time, where
`circle` walks the prime pairs of a whole window at once, or the
candidate partners of all its rows in one array.  They are
kept here, outside the package, so that the differential tests compare
every output bit for bit against code that shares nothing with the
vectorised one but the prime table.

Beside them live the identities that the series rests on and that no
command evaluates: the Mobius function and Euler's totient of one q,
from `arith.factorize` rather than a sieve; mu2 in closed form and the
restricted Gauss sums, whose value at a = 1 is mu2's defining
exponential sum; the counts of the residues +-3 and +-1 mod 8; and
Ramanujan sums.  The von Mangoldt convolution sum lives only here too:
the command line never used it.
"""

import cmath
import math
from functools import lru_cache

import numpy as np
from reference_symbols import kronecker

from cyclic2 import arith
from cyclic2.arith import PrimeTable


def mobius(q: int) -> int:
    """Mobius function of q >= 1: 0 unless q is squarefree, else
    (-1)**(number of primes of q)."""
    fac = arith.factorize(q)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(q: int) -> int:
    """Euler totient of q >= 1."""
    for p, _ in arith.factorize(q):
        q -= q // p
    return q


def restricted_mobius(q: int) -> float:
    """mu2(q) in closed form; the `circle` module docstring has the table."""
    if q % 8:
        return mobius(q) / 2
    q0 = q // 8
    return -kronecker(q0, 2) * mobius(q0) * math.sqrt(2)


def _coprime_residues(n: int, residues: tuple[int, int]):
    # r in [1, n) with (r, n) = 1 and r mod 8 in residues, class by class
    return (r for s in residues for r in range(s, n, 8) if math.gcd(r, n) == 1)


def residue_totient(n: int, residues: tuple[int, int]) -> int:
    """Count of r < n with (r, n) = 1 and r mod 8 in residues; needs 8 | n."""
    if n % 8:
        raise ValueError(f"residue_totient requires 8 | n, got {n}")
    return sum(1 for _ in _coprime_residues(n, residues))


def restricted_gauss_sum(a: int, q8: int) -> complex:
    """Sum of e(a*r/q8) over r = +-3 (mod 8) coprime to q8, by summation.

    Equals (a/2) * mu2(q8); at a = 1 it is the defining exponential sum
    of mu2(q8), whose imaginary part vanishes up to rounding.
    """
    if q8 < 8 or q8 % 8 or math.gcd(a, q8) != 1:
        raise ValueError(
            f"restricted_gauss_sum requires 8 | q8 and gcd(a, q8) = 1, got a={a}, q8={q8}"
        )
    tau = 2j * math.pi / q8
    return sum(cmath.exp(tau * (a * r % q8)) for r in _coprime_residues(q8, (3, 5)))


def ramanujan_sum(q: int, m: int) -> int:
    """Ramanujan sum c_q(m) = mu(q/(q,m)) phi(q) / phi(q/(q,m)), q >= 1."""
    qg = q // math.gcd(q, m)
    return mobius(qg) * euler_phi(q) // euler_phi(qg)


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


def series_weight(q: int, mu: np.ndarray, restricted: bool) -> float:
    """The weight of q in the truncated S1, mu(q)**2, or in S2, mu2(q)**2,
    read from the Mobius table mu; 0.0 for a q that the series skip.

    The weights are the exact floats 1.0, 0.25 and 2.0, not squares of
    `restricted_mobius`: math.sqrt(2)**2 is 2.0000000000000004.
    """
    if not restricted:
        return 1.0 if mu[q] else 0.0
    if q % 8:
        return 0.25 if mu[q] else 0.0
    q0 = q // 8
    return 2.0 if q0 % 2 and mu[q0] else 0.0


def reference_series_sum(m: int, Q: int, restricted: bool) -> float:
    """Truncated S1 (or S2 when restricted) at m, one q at a time."""
    mu, phi = reference_mult_tables(Q)
    total = 0.0
    for q in range(1, Q + 1):
        coeff = series_weight(q, mu, restricted)
        if not coeff:
            continue
        g = math.gcd(q, m)
        qg = q // g
        mq = int(mu[qg])
        if mq == 0:
            continue
        c = mq * int(phi[q]) // int(phi[qg])
        total += coeff * c / int(phi[q]) ** 2
    return total


def reference_restricted_sum(n: int, table: PrimeTable) -> float:
    """Sum of log p1 * log p2 over the ordered pairs p1 + p2 = n of primes
    3 or 5 mod 8, the smaller prime over the 3 class, then the 5 class,
    each increasing: the order in which the window sum adds each row."""
    total = 0.0
    for r in (3, 5):
        for p in table.primes_mod8(r):
            if 2 * p > n:
                break
            q = n - p
            if q % 8 in (3, 5) and table.flags[q - table.lo]:
                term = math.log(p) * math.log(q)
                total += term if p == q else 2 * term
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
