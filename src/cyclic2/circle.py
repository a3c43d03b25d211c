"""Arithmetic for Goldbach representations restricted to primes 3, 5 mod 8.

Provides the restricted Mobius-type coefficient mu2 with

    mu2(q) = mu(q)/2                     if 8 does not divide q,
    mu2(8q0) = -(q0/2) mu(q0) sqrt(2)    (Kronecker symbol (q0/2)),

so mu2(8) = -sqrt(2) and mu2(2**j) = 0 for j > 3.  The sign follows from
splitting each admissible residue r mod 8q0 as s*q0 + 8t: multiplying
the +-3 classes by q0 lands in the +-3 classes again when q0 = +-1 and
in the +-1 classes when q0 = +-3 (mod 8).  The module also provides
mu2's defining exponential sum over residues +-3 mod 8, the residue counts
phi2/phi3 with phi2(2**j q) = phi3(2**j q) = 2**(j-2) phi(q), restricted
Gauss sums, Ramanujan sums c_q(m) = mu(q/(q,m)) phi(q) / phi(q/(q,m)),
and two singular series:

    S1(m) = sum_q mu(q)**2 / phi(q)**2 * c_q(m)     (all primes)
    S2(m) = sum_q mu2(q)**2 / phi(q)**2 * c_q(m)    (restricted)
          = (S1(m)/4) * (1 + c_8(m)/4)

S2 vanishes exactly for m odd or m = 4 (mod 8); sums of two primes that
are 3 or 5 mod 8 can only be 0, 2, or 6 mod 8.  Representation counters
weigh ordered pairs by log p1 * log p2 (or von Mangoldt weights for the
unrestricted count), and compare_window tabulates the ratio of the
restricted count against its predicted main term n * S2(n).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import arith
from .arith import PrimeTable

# prod over odd primes of (1 - (p-1)**-2), 20 significant digits.
# Truncating the defining product at P only converges like 1/(P log P)
# (about 7 digits at P = 1e6), hence the pinned literature value.
TWIN_PRIME_CONSTANT = 0.66016181584686957393


@dataclass(frozen=True)
class SingularValue:
    """A singular-series evaluation and how it was obtained.

    mode is "series" (Dirichlet series truncated at q <= truncation_q)
    or "product" (closed Euler-product form, truncation_q is None).
    """

    m: int
    value: float
    mode: str
    truncation_q: int | None


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients in ascending order of degree.

    Degree must be >= 1 and the leading coefficient positive.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("polynomial degree must be >= 1")
        if self.coeffs[-1] <= 0:
            raise ValueError("leading coefficient must be positive")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def eval_mod(self, x: int, d: int) -> int:
        val = 0
        for c in reversed(self.coeffs):
            val = (val * x + c) % d
        return val


@dataclass(frozen=True)
class CompareRow:
    """One window row: n, the restricted count, n*S2(n), and their ratio."""

    n: int
    restricted_sum: float
    main_term: float
    ratio: float


def restricted_mobius(q: int) -> float:
    """Closed form of mu2(q); see the module docstring for the table.

    The defining exponential sum (restricted_mobius_sum) is the oracle
    this is tested against.
    """
    if q < 1:
        raise ValueError("restricted_mobius requires q >= 1")
    if q % 8:
        return arith.mobius(q) / 2
    q0 = q // 8
    return -arith.kronecker(q0, 2) * arith.mobius(q0) * math.sqrt(2)


def _restricted_exponential_sum(a: int, q8: int) -> complex:
    # sum of e(a*r/q8) over r in [1, q8], (r, q8) = 1, r = +-3 (mod 8)
    total = 0j
    tau = 2j * math.pi / q8
    for start in (3, 5):
        for r in range(start, q8 + 1, 8):
            if math.gcd(r, q8) == 1:
                total += cmath.exp(tau * (a * r % q8))
    return total


def restricted_mobius_sum(q8: int) -> complex:
    """Defining exponential sum for mu2 at a multiple of 8.

    Direct numerical evaluation; the imaginary part vanishes up to
    rounding.  Serves as the independent oracle for restricted_mobius.
    """
    if q8 < 8 or q8 % 8:
        raise ValueError(f"restricted_mobius_sum requires a multiple of 8, got {q8}")
    return _restricted_exponential_sum(1, q8)


def totient_pm3(n: int) -> int:
    """Count of r < n with (r, n) = 1 and r = +-3 (mod 8); needs 8 | n."""
    if n % 8:
        raise ValueError(f"totient_pm3 requires 8 | n, got {n}")
    return sum(
        1
        for start in (3, 5)
        for r in range(start, n, 8)
        if math.gcd(r, n) == 1
    )


def totient_pm1(n: int) -> int:
    """Count of r < n with (r, n) = 1 and r = +-1 (mod 8); needs 8 | n."""
    if n % 8:
        raise ValueError(f"totient_pm1 requires 8 | n, got {n}")
    return sum(
        1
        for start in (1, 7)
        for r in range(start, n, 8)
        if math.gcd(r, n) == 1
    )


def restricted_gauss_sum(a: int, q8: int) -> complex:
    """Sum of e(a*r/q8) over r = +-3 (mod 8) coprime to q8, by summation.

    Equals (a/2) * mu2(q8) for gcd(a, q8) = 1.
    """
    if q8 < 8 or q8 % 8:
        raise ValueError(f"restricted_gauss_sum requires a multiple of 8, got {q8}")
    if math.gcd(a, q8) != 1:
        raise ValueError(f"restricted_gauss_sum requires gcd(a, q8) = 1, got a={a}")
    return _restricted_exponential_sum(a, q8)


def ramanujan_sum(q: int, m: int) -> int:
    """Ramanujan sum c_q(m) via the closed form; multiplicative in q."""
    if q < 1:
        raise ValueError("ramanujan_sum requires q >= 1")
    g = math.gcd(q, m)
    qg = q // g
    mu = arith.mobius(qg)
    if mu == 0:
        return 0
    return mu * arith.euler_phi(q) // arith.euler_phi(qg)


# Largest series truncation Q.  `_mult_tables(Q)` holds two int64 arrays of
# Q + 1 entries, 160 MB at this cap, and the series sum loops over every q.
MAX_TRUNCATION_Q = 10**7


@lru_cache(maxsize=8)
def _mult_tables(limit: int) -> tuple[np.ndarray, np.ndarray]:
    # mobius and totient arrays for 0..limit
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


def _series_sum(m: int, Q: int, restricted: bool) -> float:
    if not 2 <= Q <= MAX_TRUNCATION_Q:
        raise ValueError(
            f"series mode requires 2 <= truncation_q <= {MAX_TRUNCATION_Q}, got {Q}"
        )
    mu, phi = _mult_tables(Q)
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


def _product_full(m: int) -> float:
    # 0 for odd m; else 2*C2 * prod over odd p | m of (p-1)/(p-2)
    if m % 2:
        return 0.0
    value = 2 * TWIN_PRIME_CONSTANT
    for p, _ in arith.factorize(m):
        if p > 2:
            value *= (p - 1) / (p - 2)
    return value


def singular_series(
    m: int, mode: str = "product", truncation_q: int = 10_000
) -> SingularValue:
    """Unrestricted binary Goldbach singular series S1(m).

    Series mode truncates the Dirichlet series at q <= truncation_q, which
    must lie in [2, MAX_TRUNCATION_Q]; product mode uses the closed Euler
    product (exact vanishing on odd m).  The two agree within roughly 1/sqrt(truncation_q).
    """
    if m < 1:
        raise ValueError("singular_series requires m >= 1")
    if mode == "product":
        return SingularValue(m=m, value=_product_full(m), mode=mode, truncation_q=None)
    if mode == "series":
        return SingularValue(
            m=m,
            value=_series_sum(m, truncation_q, restricted=False),
            mode=mode,
            truncation_q=truncation_q,
        )
    raise ValueError(f"unknown mode {mode!r}")


def restricted_singular_series(
    m: int, mode: str = "product", truncation_q: int = 10_000
) -> SingularValue:
    """Singular series S2(m) for pairs of primes congruent to 3, 5 mod 8.

    Product mode applies the identity S2 = (S1/4) * (1 + c_8(m)/4) on top
    of the closed form for S1, and therefore vanishes exactly for m odd
    or m = 4 (mod 8).  Series mode sums mu2(q)**2 / phi(q)**2 * c_q(m)
    up to the truncation bound.
    """
    if m < 1:
        raise ValueError("restricted_singular_series requires m >= 1")
    if mode == "product":
        value = _product_full(m) / 4 * (1 + ramanujan_sum(8, m) / 4)
        return SingularValue(m=m, value=value, mode=mode, truncation_q=None)
    if mode == "series":
        return SingularValue(
            m=m,
            value=_series_sum(m, truncation_q, restricted=True),
            mode=mode,
            truncation_q=truncation_q,
        )
    raise ValueError(f"unknown mode {mode!r}")


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


def _restricted_prime_pairs(n: int, table: PrimeTable):
    # yields (p, n - p) with p <= n - p, both prime and 3 or 5 mod 8
    for r in (3, 5):
        for p in table.primes_mod8(r):
            if 2 * p > n:
                break
            q = n - p
            if q % 8 in (3, 5) and q in table:
                yield p, q


def goldbach_restricted_sum(n: int, table: PrimeTable) -> float:
    """Sum of log p1 * log p2 over ordered pairs p1 + p2 = n with both
    primes congruent to 3 or 5 mod 8.  Every representation is counted;
    there is no cutoff on the prime sizes."""
    if n < 2:
        raise ValueError("goldbach_restricted_sum requires n >= 2")
    if n > 6 and not table.covers(3, n):
        raise ValueError(
            f"prime table [{table.lo}, {table.hi}] does not cover [3, {n}]"
        )
    total = 0.0
    for p, q in _restricted_prime_pairs(n, table):
        term = math.log(p) * math.log(q)
        total += term if p == q else 2 * term
    return total


def goldbach_restricted_count(n: int, table: PrimeTable) -> int:
    """Unweighted ordered count of the same restricted representations.

    Exploratory variant; the weighted sum is the quantity the main-term
    comparisons use.
    """
    if n < 2:
        raise ValueError("goldbach_restricted_count requires n >= 2")
    if n > 6 and not table.covers(3, n):
        raise ValueError(
            f"prime table [{table.lo}, {table.hi}] does not cover [3, {n}]"
        )
    total = 0
    for p, q in _restricted_prime_pairs(n, table):
        total += 1 if p == q else 2
    return total


def root_count_mod(poly: IntPolynomial, d: int) -> int:
    """Number of residues x mod d with poly(x) = 0 (mod d), directly."""
    if d < 1:
        raise ValueError("root_count_mod requires d >= 1")
    return sum(1 for x in range(d) if poly.eval_mod(x, d) == 0)


def goldbach_poly_constant(poly: IntPolynomial, p_bound: int) -> float:
    """Truncated constant governing average pair counts over poly values.

    leading * rho(2) * prod over odd p <= p_bound of
    (1 + rho(p)/(p(p-2))) * (1 - 1/(p-1)**2), where rho(p) counts roots
    of poly mod p.  Nonzero iff poly takes even values (rho(2) > 0).
    Since rho(p) <= degree for p beyond the discriminant, the dropped
    tail is bounded by exp((degree + 1)/(p_bound - 2)) - 1 relatively.
    """
    if p_bound < 3:
        raise ValueError("goldbach_poly_constant requires p_bound >= 3")
    value = float(poly.leading * root_count_mod(poly, 2))
    if value == 0.0:
        return 0.0
    for p in arith.sieve(3, p_bound).primes():
        rho = root_count_mod(poly, p)
        value *= (1 + rho / (p * (p - 2))) * (1 - 1 / (p - 1) ** 2)
    return value


def compare_window(
    n_lo: int, n_hi: int, step: int, table: PrimeTable
) -> list[CompareRow]:
    """Rows (n, restricted sum, n*S2(n), ratio) for n in the window.

    Every visited n must satisfy n = 0, 2, or 6 (mod 8); an n where the
    restricted singular series vanishes is rejected outright.  S2 is
    evaluated in product mode.  Deterministic.
    """
    if step < 1:
        raise ValueError("step must be positive")
    if n_lo > n_hi:
        raise ValueError("empty window")
    rows = []
    for n in range(n_lo, n_hi + 1, step):
        if n % 2 or n % 8 == 4:
            raise ValueError(
                f"n={n} is rejected: the restricted singular series vanishes "
                f"(n mod 8 = {n % 8})"
            )
        s2 = restricted_singular_series(n, mode="product").value
        main = n * s2
        r2 = goldbach_restricted_sum(n, table)
        rows.append(CompareRow(n=n, restricted_sum=r2, main_term=main, ratio=r2 / main))
    return rows
