"""Arithmetic for Goldbach representations restricted to primes 3, 5 mod 8.

Provides two singular series, each returned as a float:

    S1(m) = sum_q mu(q)**2 / phi(q)**2 * c_q(m)     (all primes)
    S2(m) = sum_q mu2(q)**2 / phi(q)**2 * c_q(m)    (restricted)
          = (S1(m)/4) * (1 + c_8(m)/4)

with Ramanujan sums c_q(m) = mu(q/(q,m)) phi(q) / phi(q/(q,m)) and the
restricted Mobius-type coefficient

    mu2(q) = mu(q)/2                     if 8 does not divide q,
    mu2(8q0) = -(q0/2) mu(q0) sqrt(2)    (Kronecker symbol (q0/2)),

so mu2(8) = -sqrt(2) and mu2(2**j) = 0 for j > 3.  The sign follows from
splitting each admissible residue r mod 8q0 as s*q0 + 8t: multiplying
the +-3 classes by q0 lands in the +-3 classes again when q0 = +-1 and
in the +-1 classes when q0 = +-3 (mod 8).  So S2 weighs q by 1/4 when q
is squarefree and by 2 when q = 8*q0 with q0 odd and squarefree, and
skips every other q.  tests/reference_circle.py keeps mu2, its defining
exponential sum over the residues +-3 mod 8 and c_q(m) as test oracles.

S2 vanishes exactly for m odd or m = 4 (mod 8) (vanishing_reason); sums
of two primes that are 3 or 5 mod 8 can only be 0, 2, or 6 mod 8.  The
restricted representation count weighs ordered pairs by log p1 * log p2,
over the two classes read from strided views of PrimeTable.flags, and
compare_window tabulates its ratio against the predicted main term
n * S2(n), for windows of at most MAX_WINDOW_WORK = rows * n_hi.  The
window sum indexes one array by value: an int32 rank table over the
values 3, 5 (mod 8) up to table.hi/2, which takes hi/2 bytes, half of
the sieve's own, and maps each prime to its log.

The truncated series and the window sum are numpy expressions that add
their terms left to right in increasing q (resp. p, 3 class first), the
order of the scalar loops they replaced, with the same IEEE operations
per term, so their floats are bit-identical to those loops
(tests/reference_circle.py keeps them as the test oracle).  The series
takes mu and phi from a segmented sieve, one chunk of q at a time, so no
array of size Q is built, and c_q(m) from the odd primes of m, one
factorization that the product mode shares, not from a gcd per q.  This
is the only module that uses numpy, and it imports numpy inside the
functions that build arrays.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from . import arith
from .arith import PrimeTable
from .bounds import MAX_TRUNCATION_Q, MAX_WINDOW_WORK, UsageError

if TYPE_CHECKING:
    from collections.abc import Iterator

    import numpy as np

# prod over odd primes of (1 - (p-1)**-2), 20 significant digits.
# Truncating the defining product at P only converges like 1/(P log P)
# (about 7 digits at P = 1e6), hence the pinned literature value.
TWIN_PRIME_CONSTANT = 0.66016181584686957393


class CompareRow(NamedTuple):
    """One window row: n, the restricted count, n*S2(n), and their ratio."""

    n: int
    restricted_sum: float
    main_term: float
    ratio: float


_SERIES_CHUNK = 1 << 16   # values per numpy step of the series and window sums


def _mobius_totient(Q: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    # Yield (q, mu, phi) per chunk of q = 1..Q, each a range of at most
    # _SERIES_CHUNK values: mu is the Mobius value of the odd part of q
    # (the series needs mu(q0) at q = 8*q0) and phi is phi(q), int32
    # since phi(q) <= q <= Q < 2**31.  A segmented sieve over the odd
    # primes p with p*p < end: strided updates of mu, phi and the smooth
    # part of q, which starts as the power of 2 in q.  Then q // smooth
    # is 1 or the one prime above sqrt(end - 1).  No array of size Q is
    # built.
    import numpy as np
    primes = arith.sieve(2, max(math.isqrt(Q), 2)).primes()[1:]
    for start in range(1, Q + 1, _SERIES_CHUNK):
        end = min(start + _SERIES_CHUNK, Q + 1)
        q = np.arange(start, end, dtype=np.int32)
        size = end - start
        mu = np.ones(size, dtype=np.int8)
        smooth = q & -q
        phi = (smooth + 1) >> 1
        for p in primes:
            if p * p >= end:
                break
            i = -start % p
            if i >= size:
                continue
            mu[i::p] *= -1
            phi[i::p] *= p - 1
            smooth[i::p] *= p
            pk = p
            while pk * p < end:
                pk *= p
                i = -start % pk
                if i < size:
                    mu[i::pk] = 0
                    phi[i::pk] *= p
                    smooth[i::pk] *= p
        big = q // smooth
        above = big > 1
        np.negative(mu, out=mu, where=above)
        np.multiply(phi, big - 1, out=phi, where=above)
        yield q, mu, phi


@lru_cache(maxsize=8)
def _series_sums(m: int, Q: int) -> tuple[float, float]:
    # S1 and S2 in one pass, so that `singular` pays once for the sieve.
    # c_q(m) is multiplicative in q, with c_p(m) = p - 1 when p | m and -1
    # otherwise, c_2(m) = +-1 and c_8(m) = 4, -4 or 0 by m mod 8.  The
    # kept q are the squarefree ones (S1, and S2 with weight 1/4) and
    # 8*q0 with q0 odd and squarefree (S2, weight 2): mu2(q)**2 of the
    # module docstring.  The terms coeff * c / phi(q)**2 are the same
    # IEEE operations as one Python float expression per q (c and
    # phi(q)**2 < 2**53 are exact), and np.cumsum adds them left to right
    # in increasing q.  m must lie in [1, 2**64), which `arith.factorize`
    # bounds.
    if not 2 <= Q <= MAX_TRUNCATION_Q:
        raise UsageError(
            f"series mode requires 2 <= truncation_q <= {MAX_TRUNCATION_Q}, got {Q}"
        )
    import numpy as np
    # the factor of c_q(m) from the power of 2 in q, by q mod 16: 1 for q
    # odd, c_2(m) for q = 2 (mod 4), and for S2 only c_8(m) at q = 8
    # (mod 16); zero at the q that the series skip
    full_two = np.zeros(16, dtype=np.int64)
    full_two[1::2] = 1
    full_two[2::4] = 1 if m % 2 == 0 else -1
    restricted_two = full_two.copy()
    restricted_two[8] = _C8.get(m % 8, 0)
    coeff = np.full(16, 0.25)
    coeff[8] = 2.0
    m_primes = [p for p in _odd_primes(m) if p <= Q]
    full = restricted = 0.0
    for q, mu, phi in _mobius_totient(Q):
        start = int(q[0])
        # c_q(m) of the odd part of q: mu flips the sign once per prime,
        # and each p | m turns that -1 into p - 1; a p past the chunk
        # slices nothing
        c = mu.astype(np.int64)
        for p in m_primes:
            c[-start % p :: p] *= 1 - p
        low = q & 15
        sq = np.square(phi, dtype=np.int64)
        full_c = c * full_two[low]
        restricted_c = c * restricted_two[low]
        full = _add_terms(full, (full_c / sq)[full_c != 0])
        restricted = _add_terms(
            restricted, (coeff[low] * restricted_c / sq)[restricted_c != 0]
        )
    return full, restricted


def _add_terms(total: float, terms: np.ndarray) -> float:
    # total + terms[0] + terms[1] + ..., left to right, in place in terms
    if not terms.size:
        return total
    terms[0] += total
    return float(terms.cumsum(out=terms)[-1])


# c_8(m) by m mod 8: 4 when 8 | m, -4 when m = 4 (mod 8), and 0 otherwise
# (mu(8/gcd(8, m)) vanishes)
_C8 = {0: 4, 4: -4}


@lru_cache(maxsize=8)
def _odd_primes(m: int) -> tuple[int, ...]:
    # the odd primes p | m, increasing, from one factorization that the
    # series and the product columns share
    return tuple(p for p, _ in arith.factorize(m) if p > 2)


def _product_full(m: int) -> float:
    # 0 for odd m; else 2*C2 * prod over odd p | m of (p-1)/(p-2)
    if m % 2:
        return 0.0
    value = 2 * TWIN_PRIME_CONSTANT
    for p in _odd_primes(m):
        value *= (p - 1) / (p - 2)
    return value


def vanishing_reason(m: int) -> str:
    """Why S2(m) vanishes: "odd", "4mod8", or "none" when it does not."""
    if m % 2:
        return "odd"
    return "4mod8" if m % 8 == 4 else "none"


def _singular(m: int, mode: str, truncation_q: int, restricted: bool) -> float:
    # S2(m) when restricted, else S1(m), in the given mode
    if m < 1:
        raise ValueError("the singular series requires m >= 1")
    if mode == "series":
        return _series_sums(m, truncation_q)[restricted]
    if mode != "product":
        raise ValueError(f"unknown mode {mode!r}")
    if restricted:
        return _product_full(m) / 4 * (1 + _C8.get(m % 8, 0) / 4)
    return _product_full(m)


def singular_series(m: int, mode: str = "product", truncation_q: int = 10_000) -> float:
    """Unrestricted binary Goldbach singular series S1(m).

    Series mode truncates the Dirichlet series at q <= truncation_q, which
    must lie in [2, MAX_TRUNCATION_Q]; product mode uses the closed Euler
    product (exact vanishing on odd m).  The two agree within roughly 1/sqrt(truncation_q).
    """
    return _singular(m, mode, truncation_q, False)


def restricted_singular_series(
    m: int, mode: str = "product", truncation_q: int = 10_000
) -> float:
    """Singular series S2(m) for pairs of primes congruent to 3, 5 mod 8.

    Product mode applies the identity S2 = (S1/4) * (1 + c_8(m)/4) on top
    of the closed form for S1, and therefore vanishes exactly for m odd
    or m = 4 (mod 8).  Series mode sums mu2(q)**2 / phi(q)**2 * c_q(m)
    up to the truncation bound.
    """
    return _singular(m, mode, truncation_q, True)


def _class_primes(table: PrimeTable, r: int) -> np.ndarray:
    """The primes p = r (mod 8) of `table`, increasing, as an int64 array.

    Read from the strided view flags[(r - lo) % 8 :: 8] of the table's
    bytes, which is never copied, and no list of Python ints is built.
    """
    import numpy as np
    first = (r - table.lo) % 8
    # nonzero, not flatnonzero: ravel would copy the strided view
    out = np.nonzero(np.frombuffer(table.flags, dtype=bool)[first::8])[0]
    out *= 8
    out += table.lo + first
    return out


@lru_cache(maxsize=1)
def _restricted_primes(
    table: PrimeTable,
) -> tuple[dict[int, tuple[np.ndarray, np.ndarray]], int, np.ndarray, np.ndarray]:
    """The primes 3 and 5 mod 8 of `table`, and a rank table, for the window sum.

    Returns (classes, origin, rank, logs).  classes maps each class r in
    (3, 5) to its primes, increasing, as read by `_class_primes`, and
    their math.log values, a view of logs; logs[0] = 0.0 is a sentinel.
    rank numbers the values v = 3, 5 (mod 8) from the table's start up to
    table.hi/2, v at slot (v - origin) >> 2 with origin = 1 (mod 8), and
    holds the index in logs of log v for a prime v of the table, else 0.
    It is int32, so it takes hi/2 bytes, half of the sieve's own.  The
    full prime list is never built.  One table is cached.
    """
    import numpy as np
    primes = {r: _class_primes(table, r) for r in (3, 5)}
    logs = np.zeros(1 + len(primes[3]) + len(primes[5]))
    origin = (table.lo - 1) // 8 * 8 + 1
    rank = np.zeros(max(table.hi // 2 - origin, 0) // 4 + 1, dtype=np.int32)
    classes, offset = {}, 1
    for r, cls in primes.items():
        cls_logs = logs[offset : offset + len(cls)]
        # math.log per prime, and the ranks of the primes with a slot, a
        # chunk at a time, which bounds the transient ints and arrays
        for start in range(0, len(cls), _SERIES_CHUNK):
            chunk = cls[start : start + _SERIES_CHUNK]
            cls_logs[start : start + len(chunk)] = list(map(math.log, chunk.tolist()))
            slots = chunk[chunk < origin + 4 * len(rank)] - origin
            slots >>= 2
            rank[slots] = np.arange(offset + start, offset + start + len(slots), dtype=np.int32)
        classes[r] = cls, cls_logs
        offset += len(cls)
    return classes, origin, rank, logs


def goldbach_restricted_sum(n: int, table: PrimeTable) -> float:
    """Sum of log p1 * log p2 over ordered pairs p1 + p2 = n with both
    primes congruent to 3 or 5 mod 8.  Every representation is counted;
    there is no cutoff on the prime sizes.

    The smaller prime p runs over the 3 class, then the 5 class, each
    increasing; the terms log p * log(n - p), doubled unless p = n - p,
    are added left to right in that order.  The larger prime q = n - p
    walks down its class, and log p is read through the rank table of
    `_restricted_primes`: a composite p reads the 0.0 sentinel, and
    adding +0.0 to the nonnegative total changes no bit."""
    if n < 2:
        raise ValueError("goldbach_restricted_sum requires n >= 2")
    if n > 6 and not table.covers(3, n):
        raise ValueError(
            f"prime table [{table.lo}, {table.hi}] does not cover [3, {n}]"
        )
    import numpy as np
    classes, origin, rank, logs = _restricted_primes(table)
    total = 0.0
    for r in (3, 5):
        # q = n - p lies in the class (n - r) % 8 for every p of class r
        if (n - r) % 8 not in classes:
            continue
        q_cls, q_logs = classes[(n - r) % 8]
        # p from max(3, lo) up to n // 2, so q from n - max(3, lo) down,
        # a chunk at a time, which bounds the transient arrays
        i, j = np.searchsorted(q_cls, (n - n // 2, n - max(3, table.lo) + 1))
        for stop in range(j, i, -_SERIES_CHUNK):
            start = max(stop - _SERIES_CHUNK, i)
            q = q_cls[start:stop][::-1]
            slots = (n - origin) - q
            slots >>= 2
            terms = logs[rank[slots]]
            terms *= q_logs[start:stop][::-1]
            # only the last term, at the smallest q, can have p = q
            terms[: len(terms) - (2 * int(q[-1]) == n)] *= 2
            total = _add_terms(total, terms)
    return total


def window_range(n_lo: int, n_hi: int, step: int) -> range:
    """The n that compare_window visits, checked against MAX_WINDOW_WORK.

    Cheap: callers run it before building a prime table for the window.
    Every visited n must have n >= 2 and n = 0, 2, or 6 (mod 8), where
    the restricted singular series does not vanish; n mod 8 repeats with
    a period dividing 8, so the first 8 n stand for all of them.
    """
    if step < 1:
        raise UsageError("step must be positive")
    if n_lo > n_hi:
        raise UsageError("empty window")
    if n_lo < 2:
        raise UsageError(f"--n-lo must be at least 2, got {n_lo}")
    ns = range(n_lo, n_hi + 1, step)
    if len(ns) * n_hi > MAX_WINDOW_WORK:
        raise UsageError(
            f"window of {len(ns)} rows up to n={n_hi} exceeds the work budget "
            f"rows * n_hi <= {MAX_WINDOW_WORK}"
        )
    for n in ns[:8]:
        if vanishing_reason(n) != "none":
            raise UsageError(
                f"n={n} is rejected: the restricted singular series vanishes "
                f"(n mod 8 = {n % 8})"
            )
    return ns


def compare_window(
    n_lo: int, n_hi: int, step: int, table: PrimeTable
) -> list[CompareRow]:
    """Rows (n, restricted sum, n*S2(n), ratio) for n in the window, which
    `window_range` checks.  S2 is evaluated in product mode.
    Deterministic.
    """
    rows = []
    for n in window_range(n_lo, n_hi, step):
        s2 = restricted_singular_series(n, mode="product")
        main = n * s2
        r2 = goldbach_restricted_sum(n, table)
        rows.append(CompareRow(n=n, restricted_sum=r2, main_term=main, ratio=r2 / main))
    return rows
