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
and two singular series, each returned as a float:

    S1(m) = sum_q mu(q)**2 / phi(q)**2 * c_q(m)     (all primes)
    S2(m) = sum_q mu2(q)**2 / phi(q)**2 * c_q(m)    (restricted)
          = (S1(m)/4) * (1 + c_8(m)/4)

S2 vanishes exactly for m odd or m = 4 (mod 8) (vanishing_reason); sums
of two primes that are 3 or 5 mod 8 can only be 0, 2, or 6 mod 8.  The
restricted representation count weighs ordered pairs by log p1 * log p2,
over the two classes read by PrimeTable.primes_mod8, and compare_window
tabulates its ratio against the predicted main term n * S2(n), for
windows of at most MAX_WINDOW_WORK = rows * n_hi.

The truncated series and the window sum are numpy expressions that add
their terms left to right in increasing q (resp. p, 3 class first), the
order of the scalar loops they replaced, with the same IEEE operations
per term, so their floats are bit-identical to those loops
(tests/reference_circle.py keeps them as the test oracle).
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


def _residue_totient(n: int, starts: tuple[int, int], name: str) -> int:
    # count of r < n with (r, n) = 1 in the two classes `starts` mod 8
    if n % 8:
        raise ValueError(f"{name} requires 8 | n, got {n}")
    return sum(
        1
        for start in starts
        for r in range(start, n, 8)
        if math.gcd(r, n) == 1
    )


def totient_pm3(n: int) -> int:
    """Count of r < n with (r, n) = 1 and r = +-3 (mod 8); needs 8 | n."""
    return _residue_totient(n, (3, 5), "totient_pm3")


def totient_pm1(n: int) -> int:
    """Count of r < n with (r, n) = 1 and r = +-1 (mod 8); needs 8 | n."""
    return _residue_totient(n, (1, 7), "totient_pm1")


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


# Largest series truncation Q.  `_mult_tables(Q)` holds an int8 and an
# int64 array of Q + 1 entries, 90 MB at this cap.  Q < 2**24 also keeps
# the limb arithmetic of `_series_sums` inside int64.
MAX_TRUNCATION_Q = 10**7

_SERIES_CHUNK = 1 << 16   # q values per numpy step of the series sum


@lru_cache(maxsize=8)
def _mult_tables(limit: int) -> tuple[np.ndarray, np.ndarray]:
    # mobius (int8) and totient (int64) arrays for 0..limit, limit >= 2.
    # Primes up to sqrt(limit) update by slices.  A larger prime p divides
    # only i*p with i <= limit // p < sqrt(limit), so those updates run per
    # cofactor i for all such p at once (Bertrand: at least one p exists).
    # The updates commute: sign flips do, and phi -= phi // p is exact
    # whatever primes of the index came before.
    mu = np.ones(limit + 1, dtype=np.int8)
    phi = np.arange(limit + 1, dtype=np.int64)
    primes = arith.sieve(2, limit).primes()
    split = np.searchsorted(primes, math.isqrt(limit), side="right")
    for p in primes[:split].tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        phi[p::p] -= phi[p::p] // p
    large = primes[split:]
    for i in range(1, limit // int(large[0]) + 1):
        p = large[: np.searchsorted(large, limit // i, side="right")]
        multiples = i * p
        mu[multiples] *= -1
        phi[multiples] -= phi[multiples] // p
    mu[0] = 0
    return mu, phi


@lru_cache(maxsize=8)
def _series_sums(m: int, Q: int) -> tuple[float, float]:
    # S1 and S2 in one pass, so that `singular` pays once for the work
    # they share (m mod q, the gcd, the mu/phi gathers, c, phi(q)**2).
    # The terms coeff * c / phi(q)**2 are the same IEEE operations as one
    # Python float expression per q (c and phi(q)**2 < 2**53 are exact),
    # and np.cumsum adds them left to right in increasing q.
    if not 2 <= Q <= MAX_TRUNCATION_Q:
        raise ValueError(
            f"series mode requires 2 <= truncation_q <= {MAX_TRUNCATION_Q}, got {Q}"
        )
    mu, phi = _mult_tables(Q)
    # gcd(q, m) = gcd(q, m mod q); m mod q is built from m's 32-bit limbs,
    # most significant first, and r < q < 2**24 keeps r * 2**32 in int64.
    top = (m.bit_length() - 1) // 32 * 32
    limbs = [(m >> s) & 0xFFFFFFFF for s in range(top, -1, -32)]
    full = restricted = 0.0
    for start in range(1, Q + 1, _SERIES_CHUNK):
        end = min(start + _SERIES_CHUNK, Q + 1)
        q = np.arange(start, end, dtype=np.int64)
        r = np.zeros_like(q)
        for limb in limbs:
            r = ((r << 32) + limb) % q
        qg = q // np.gcd(q, r)
        mq = mu[qg]
        phi_q = phi[start:end]
        c = mq * phi_q // phi[qg]
        sq = phi_q * phi_q
        squarefree = mu[start:end] != 0
        live = mq != 0
        # mu2(q)**2 is 2 at q = 8*q0 with q0 odd and squarefree, 0 at
        # other multiples of 8, and mu(q)**2 / 4 elsewhere.
        q0, residue = np.divmod(q, 8)
        eighth = residue == 0
        keep = np.where(eighth, (q0 % 2 == 1) & (mu[q0] != 0), squarefree) & live
        coeff = np.where(eighth, 2.0, 0.25)
        full = _add_terms(full, (c / sq)[squarefree & live])
        restricted = _add_terms(restricted, (coeff * c / sq)[keep])
    return full, restricted


def _add_terms(total: float, terms: np.ndarray) -> float:
    # total + terms[0] + terms[1] + ..., left to right
    if not terms.size:
        return total
    return float(np.cumsum(np.concatenate(([total], terms)))[-1])


# 1 + c_8(m)/4 by m mod 8: c_8(m) is 4 when 8 | m, -4 when m = 4 (mod 8),
# and 0 otherwise (mu(8/gcd(8, m)) vanishes), so the factor is 2, 0 or 1.
_C8_FACTOR = {0: 2.0, 4: 0.0}


@lru_cache(maxsize=8)
def _product_full(m: int) -> float:
    # 0 for odd m; else 2*C2 * prod over odd p | m of (p-1)/(p-2)
    if m % 2:
        return 0.0
    value = 2 * TWIN_PRIME_CONSTANT
    for p, _ in arith.factorize(m):
        if p > 2:
            value *= (p - 1) / (p - 2)
    return value


def vanishing_reason(m: int) -> str:
    """Why S2(m) vanishes: "odd", "4mod8", or "none" when it does not."""
    if m % 2:
        return "odd"
    return "4mod8" if m % 8 == 4 else "none"


def _singular(name: str, m: int, mode: str, truncation_q: int, restricted: bool) -> float:
    # S2(m) when restricted, else S1(m), in the given mode
    if m < 1:
        raise ValueError(f"{name} requires m >= 1")
    if mode == "series":
        return _series_sums(m, truncation_q)[restricted]
    if mode != "product":
        raise ValueError(f"unknown mode {mode!r}")
    if restricted:
        return _product_full(m) / 4 * _C8_FACTOR.get(m % 8, 1.0)
    return _product_full(m)


def singular_series(m: int, mode: str = "product", truncation_q: int = 10_000) -> float:
    """Unrestricted binary Goldbach singular series S1(m).

    Series mode truncates the Dirichlet series at q <= truncation_q, which
    must lie in [2, MAX_TRUNCATION_Q]; product mode uses the closed Euler
    product (exact vanishing on odd m).  The two agree within roughly 1/sqrt(truncation_q).
    """
    return _singular("singular_series", m, mode, truncation_q, False)


def restricted_singular_series(
    m: int, mode: str = "product", truncation_q: int = 10_000
) -> float:
    """Singular series S2(m) for pairs of primes congruent to 3, 5 mod 8.

    Product mode applies the identity S2 = (S1/4) * (1 + c_8(m)/4) on top
    of the closed form for S1, and therefore vanishes exactly for m odd
    or m = 4 (mod 8).  Series mode sums mu2(q)**2 / phi(q)**2 * c_q(m)
    up to the truncation bound.
    """
    return _singular("restricted_singular_series", m, mode, truncation_q, True)


@lru_cache(maxsize=4)
def _restricted_primes(table: PrimeTable) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The primes 3 and 5 mod 8 of `table`, for the window sum.

    Maps each class r in (3, 5) to its primes, increasing, as read by
    `table.primes_mod8(r)`, and their math.log values.  The full prime
    list is never built.  Primality of n - p is read from table.flags, so
    nothing here is indexed by value.
    """
    classes = {}
    for r in (3, 5):
        cls = table.primes_mod8(r)
        # math.log per prime; chunks bound the transient list of Python ints
        logs = np.empty(len(cls))
        for start in range(0, len(cls), _SERIES_CHUNK):
            chunk = cls[start : start + _SERIES_CHUNK].tolist()
            logs[start : start + len(chunk)] = list(map(math.log, chunk))
        classes[r] = cls, logs
    return classes


def goldbach_restricted_sum(n: int, table: PrimeTable) -> float:
    """Sum of log p1 * log p2 over ordered pairs p1 + p2 = n with both
    primes congruent to 3 or 5 mod 8.  Every representation is counted;
    there is no cutoff on the prime sizes.

    The smaller prime p runs over the 3 class, then the 5 class, each
    increasing; the terms log p * log(n - p), doubled unless p = n - p,
    are added left to right in that order."""
    if n < 2:
        raise ValueError("goldbach_restricted_sum requires n >= 2")
    if n > 6 and not table.covers(3, n):
        raise ValueError(
            f"prime table [{table.lo}, {table.hi}] does not cover [3, {n}]"
        )
    classes = _restricted_primes(table)
    total = 0.0
    for r, (cls, cls_logs) in classes.items():
        # n - p lies in the class (n - r) % 8 for every p of class r
        if (n - r) % 8 not in classes:
            continue
        q_cls, q_logs = classes[(n - r) % 8]
        k = np.searchsorted(cls, n // 2, side="right")
        p, log_p = cls[:k], cls_logs[:k]
        hit = table.flags[n - p - table.lo]
        p, log_p = p[hit], log_p[hit]
        q = n - p
        terms = log_p * q_logs[np.searchsorted(q_cls, q)]
        total = _add_terms(total, np.where(p == q, terms, 2 * terms))
    return total


# Largest compare window, as rows * n_hi: each row walks about pi(n)/4
# candidate primes, so a window of 33 million rows near the sieve cap
# would run for hours.  Two windows of width 5000 at step 8 near 3e5 come
# to about 2e8.
MAX_WINDOW_WORK = 10**11


def window_range(n_lo: int, n_hi: int, step: int) -> range:
    """The n that compare_window visits, checked against MAX_WINDOW_WORK.

    Cheap: callers run it before building a prime table for the window.
    """
    if step < 1:
        raise ValueError("step must be positive")
    if n_lo > n_hi:
        raise ValueError("empty window")
    ns = range(n_lo, n_hi + 1, step)
    if len(ns) * n_hi > MAX_WINDOW_WORK:
        raise ValueError(
            f"window of {len(ns)} rows up to n={n_hi} exceeds the work budget "
            f"rows * n_hi <= {MAX_WINDOW_WORK}"
        )
    return ns


def compare_window(
    n_lo: int, n_hi: int, step: int, table: PrimeTable
) -> list[CompareRow]:
    """Rows (n, restricted sum, n*S2(n), ratio) for n in the window.

    Every visited n must satisfy n = 0, 2, or 6 (mod 8); an n where the
    restricted singular series vanishes is rejected outright.  S2 is
    evaluated in product mode.  Deterministic.
    """
    rows = []
    for n in window_range(n_lo, n_hi, step):
        if vanishing_reason(n) != "none":
            raise ValueError(
                f"n={n} is rejected: the restricted singular series vanishes "
                f"(n mod 8 = {n % 8})"
            )
        s2 = restricted_singular_series(n, mode="product")
        main = n * s2
        r2 = goldbach_restricted_sum(n, table)
        rows.append(CompareRow(n=n, restricted_sum=r2, main_term=main, ratio=r2 / main))
    return rows
