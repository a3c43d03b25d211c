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
window sum takes a window of close rows in one pass over its prime
pairs: the partners q of each p form one slice of q's class, found by
np.searchsorted, and np.add.at adds each term to its row.  A single
row, or rows far apart, take one pass over each row's candidate
partners n - p, read in the sieve's bytes; a prime partner's log is
found through the bit index of its class, a popcount over its packed
flags.  It keeps the two class arrays, their logs and bit indexes,
about half a byte per sieved integer at n = 5e7.

The truncated series and the window sum are numpy expressions that add
their terms left to right in increasing q (resp. p, 3 class first), the
order of the scalar loops they replaced, with the same IEEE operations
per term, so their floats are bit-identical to those loops
(tests/reference_circle.py keeps them as the test oracle).  The series
takes the signed totient f(q) = mu(odd part of q) * phi(q), 0 where an
odd p**2 divides q, from a segmented sieve, one int32 array per chunk of
q, so no array of size Q is built; mu is the sign of f and phi**2 is
f**2.  It takes c_q(m) from the odd primes of m, one factorization that
the product mode shares, not from a gcd per q, and divides once per q
for both series.  A chunk's terms are computed in two float64 buffers,
allocated once per call, about 33 traced bytes per q of a chunk in all.
This is the only module that uses
numpy, and it imports numpy inside the functions that build arrays,
about 0.06 s once per command; it calls no BLAS routine.
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


_SERIES_CHUNK = 1 << 16   # q per numpy step of the series, 4x the pairs per step of the window sum


def _mobius_totient(Q: int) -> Iterator[tuple[int, np.ndarray]]:
    # Yield (start, f) per chunk of q = start, start + 1, ..., at most
    # _SERIES_CHUNK values of 1..Q, with f(q) = mu(q0) * phi(q) for q0
    # the odd part of q (the series needs mu(q0) at q = 8*q0): 0 where an
    # odd p**2 divides q, int32 since |f(q)| <= q <= Q < 2**31.  A
    # segmented sieve over the odd primes p with p*p < end: one strided
    # update of f, by 1 - p, and of the smooth part of q, which starts as
    # the power of 2 in q, and one that zeroes f at the multiples of p*p;
    # no pass per prime power.  Where f != 0, q // smooth is 1 or the one
    # prime P above sqrt(end - 1), which multiplies f by 1 - P.  No array
    # of size Q is built, and only f outlives its chunk's sieve.
    import numpy as np
    primes = arith.sieve(2, max(math.isqrt(Q), 2)).primes()[1:]
    for start in range(1, Q + 1, _SERIES_CHUNK):
        end = min(start + _SERIES_CHUNK, Q + 1)
        q = np.arange(start, end, dtype=np.int32)
        smooth = -q
        smooth &= q
        f = smooth + 1
        f >>= 1
        for p in primes:
            if p * p >= end:
                break
            i = -start % p
            f[i::p] *= 1 - p
            smooth[i::p] *= p
            f[-start % (p * p) :: p * p] = 0
        # 1 - q // smooth in place, then 1 where it is 0: 1, or 1 - P (a
        # multiply with where= would take numpy's slow masked loop)
        np.floor_divide(q, smooth, out=smooth)
        np.subtract(1, smooth, out=smooth)
        smooth += smooth == 0
        f *= smooth
        del q, smooth
        yield start, f


@lru_cache(maxsize=8)
def _series_sums(m: int, Q: int) -> tuple[float, float]:
    # S1 and S2 in one pass, so that `singular` pays once for the sieve.
    # c_q(m) is multiplicative in q, with c_p(m) = p - 1 when p | m and -1
    # otherwise, c_2(m) = +-1 and c_8(m) = 4, -4 or 0 by m mod 8.  The
    # kept q are the squarefree ones (S1, and S2 with weight 1/4) and
    # 8*q0 with q0 odd and squarefree (S2, weight 2): mu2(q)**2 of the
    # module docstring.  m must lie in [1, 2**64), which `arith.factorize`
    # bounds.
    if not 2 <= Q <= MAX_TRUNCATION_Q:
        raise UsageError(
            f"series mode requires 2 <= truncation_q <= {MAX_TRUNCATION_Q}, got {Q}"
        )
    import numpy as np
    # A term is t = c / phi(q)**2, one division per q for both series,
    # weighed by the power of 2 in q: S1 takes t at odd q, c_2(m)*t at
    # q = 2 (mod 4) and 0 where 4 | q, and S2 takes S1's term / 4, but
    # 2*c_8(m)*t at q = 8 (mod 16).  A chunk's terms are computed
    # in two float64 buffers, allocated once per call: `t` holds c of the
    # odd part of q, then t, then S2's terms, and `terms` holds
    # phi(q)**2 = f(q)**2, then S1's terms.  c, f and f(q)**2 < 2**53 are
    # integers, exact in float64, so t is the one IEEE division of the
    # scalar loop; where f = 0 the divisor is raised to 1, so t is +-0.0
    # there and never NaN.  Each weight is 0 or a signed power of 2,
    # applied by a strided step over the chunk, at any chunk length, so a
    # term is the float of one Python expression per q, bit for bit.  A
    # skipped q adds +-0.0, which changes no bit of a sum that is never
    # -0.0; np.cumsum adds left to right in increasing q.
    c2 = 1.0 if m % 2 == 0 else -1.0
    c8 = 2.0 * _C8.get(m % 8, 0)
    m_primes = [p for p in _odd_primes(m) if p <= Q]
    t_buffer = np.empty(min(_SERIES_CHUNK, Q))
    terms_buffer = np.empty_like(t_buffer)
    full = restricted = 0.0
    for start, f in _mobius_totient(Q):
        size = len(f)
        t, terms = t_buffer[:size], terms_buffer[:size]
        # c_q(m) of the odd part of q: mu, the sign of f, flips once per
        # prime, and each p | m turns that -1 into p - 1; a p past the
        # chunk slices nothing
        np.sign(f, out=t)
        for p in m_primes:
            t[-start % p :: p] *= 1 - p
        np.copyto(terms, f)
        terms *= terms
        np.maximum(terms, 1.0, out=terms)
        t /= terms
        terms[:] = t
        terms[-start % 2 :: 2] *= c2
        np.multiply(terms, 0.25, out=t)
        t[-start % 4 :: 4] = 0.0
        # S2's 2*c_8(m)*t at q = 8 (mod 16), from terms' c_2(m)*t there:
        # c_2(m) = +-1 only flips signs, and c_2(m)**2 = 1
        eight = (8 - start) % 16
        np.multiply(terms[eight::16], c2 * c8, out=t[eight::16])
        terms[-start % 4 :: 4] = 0.0
        full = _add_terms(full, terms)
        restricted = _add_terms(restricted, t)
    return full, restricted


def _add_terms(total: float, terms: np.ndarray) -> float:
    # total + terms[0] + terms[1] + ..., left to right, in place in terms
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
    # S2(m) when restricted, else S1(m), in the given mode, for the m >= 1
    # that `cmd_singular` admits
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


class _PrimeClass(NamedTuple):
    """The primes of one class mod 8 of a table, as the window sum reads them.

    words packs the class's bytes of the table's flags, slot i (the
    value first + 8*i) at bit i % 64 of words[i // 64]; counts[b] is the
    number of primes in words[: b + 1].  This bit index finds the index
    of a prime of the class without a search (`_index`), in 1/32 byte
    per sieved integer.
    """

    primes: np.ndarray   # increasing, int64
    logs: np.ndarray     # math.log of each prime
    first: int           # the class's first value in the table
    words: np.ndarray    # uint64
    counts: np.ndarray   # int64


def _restricted_primes(table: PrimeTable) -> dict[int, _PrimeClass]:
    """The primes 3 and 5 mod 8 of `table`, for the window sum.

    Maps each class r in (3, 5) to its primes, increasing, as read by
    `_class_primes`, their math.log values, filled one chunk at a time,
    which bounds the transient Python floats, and its bit index.  The
    full prime list is never built.
    """
    import numpy as np
    classes = {}
    for r in (3, 5):
        primes = _class_primes(table, r)
        logs = np.empty(len(primes))
        for start in range(0, len(primes), _SERIES_CHUNK):
            chunk = primes[start : start + _SERIES_CHUNK]
            logs[start : start + len(chunk)] = list(map(math.log, chunk.tolist()))
        first = (r - table.lo) % 8
        packed = np.packbits(np.frombuffer(table.flags, dtype=bool)[first::8], bitorder="little")
        words = np.zeros((len(packed) + 7) // 8, dtype="<u8")
        words.view(np.uint8)[: len(packed)] = packed
        counts = np.cumsum(np.bitwise_count(words), dtype=np.int64)
        classes[r] = _PrimeClass(primes, logs, table.lo + first, words, counts)
    return classes


def _index(cls: _PrimeClass, q: np.ndarray) -> np.ndarray:
    # the index of each prime q of the class in cls.primes: the primes
    # through q's word, less those at q's slot and above in it
    import numpy as np
    slot = q - cls.first
    slot >>= 3
    word = cls.words[slot >> 6]
    word >>= (slot & 63).astype(np.uint64)
    return cls.counts[slot >> 6] - np.bitwise_count(word)


# The pair pass (`_add_pairs`) costs two searches per p however short
# the window; the row pass (`_add_rows`) one byte read per p and row.
# Timed in-process, both passes on the same windows, on a shared 2-core
# x86 machine: at n near 2e5, 2e6 and 2e7 and steps 2 and 8 the pair
# pass was the faster from a span ns[-1] - ns[0] of about 100 on (17
# rows at step 8: 0.49 against 0.71 ms at 2e5, 33 against 35 ms at
# 2e7), the row pass below it.  At a step that does not divide 8 a pair
# pass must drop all but 8/step of its pairs: with 50 rows near 2e5 the
# row pass was the faster from step 16 on, with 500 rows near 2e6 from
# step 32 on (132 against 150-159 ms), and at most 1.6x slower below.
_PAIR_SPAN = 128


def goldbach_restricted_sum(ns: range, table: PrimeTable) -> list[float]:
    """For each n of the window `ns`, the sum of log p1 * log p2 over the
    ordered pairs p1 + p2 = n of primes congruent to 3 or 5 mod 8.  Every
    representation is counted; there is no cutoff on the prime sizes.
    `ns` is increasing with n >= 2, as `window_range` returns it.

    A window whose step divides 8, so that every pair of the two
    classes lies on a row, and whose rows span at least _PAIR_SPAN
    takes one pass over its prime pairs (`_add_pairs`); any other
    window, a single row too, one pass over each row's candidate
    partners (`_add_rows`).  Both add each term to its row with
    np.add.at, which applies repeated rows one at a time in the order
    of the terms.  So each row adds its terms left to right in the
    order of the scalar loop that `tests/reference_circle.py` keeps,
    the 3 class of p first, then p increasing, with the same IEEE
    operations: its float is that loop's, bit for bit.  That order of
    np.add.at is NumPy's behaviour, not a documented guarantee;
    test_window_sum_matches_reference checks it on the installed NumPy.
    """
    # a table short of ns[-1] would give wrong sums without an error: the
    # row pass reads its bytes with take(mode="clip")
    if ns and ns[-1] > 6 and not table.covers(3, ns[-1]):
        raise ValueError(
            f"prime table [{table.lo}, {table.hi}] does not cover [3, {ns[-1]}]"
        )
    import numpy as np
    classes = _restricted_primes(table)
    totals = np.zeros(len(ns))
    if 8 % ns.step == 0 and (len(ns) - 1) * ns.step >= _PAIR_SPAN:
        _add_pairs(ns, classes, totals)
    else:
        _add_rows(ns, table, classes, totals)
    return totals.tolist()


def _add_pairs(ns: range, classes: dict[int, _PrimeClass], totals: np.ndarray) -> None:
    # Add each pair's term to totals[(p + q - ns[0]) // step], for each
    # class r of p, 3 first, and each class of q that a row needs.  The
    # term is log p * log q, doubled unless p = q.  The step divides 8,
    # so every pair of the two classes lies on a row.
    import numpy as np
    n_lo, step = ns[0], ns.step
    for r in (3, 5):
        p_cls, p_logs = classes[r].primes, classes[r].logs
        # n mod 8 repeats with a period dividing 8
        for s in {(n - r) % 8 for n in ns[:8]} & {3, 5}:
            q_cls, q_logs = classes[s].primes, classes[s].logs
            for i, j, c, qi in _pairs(ns, p_cls, q_cls):
                # p_cls[i:j], each repeated c times, against q_cls[qi]
                terms = np.repeat(2 * p_logs[i:j], c)
                terms *= q_logs[qi]
                if r == s:
                    # q = p is the first partner of each p with 2p >= n_lo
                    mid = 2 * p_cls[i:j] >= n_lo
                    terms[(np.cumsum(c) - c)[mid]] = np.square(p_logs[i:j][mid])
                at = np.repeat(p_cls[i:j] - n_lo, c)
                at += q_cls[qi]
                at //= step
                np.add.at(totals, at, terms)


def _pairs(
    ns: range, p_cls: np.ndarray, q_cls: np.ndarray
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    # Yield (i, j, c, qi): the pairs p <= q with ns[0] <= p + q <= ns[-1],
    # p increasing, then q, are p_cls[i:j], each repeated c times,
    # against q_cls[qi].  A yield holds about _SERIES_CHUNK // 4 pairs
    # (more only when one p alone has more partners), which bounds the
    # transient arrays.  The partners of p are one slice q_cls[first :
    # first + count], found by two searchsorted calls; np.repeat and
    # np.arange flatten the slices.
    import numpy as np
    n_lo, n_hi = ns[0], ns[-1]
    budget = max(_SERIES_CHUNK // 4, 1)
    stop = int(np.searchsorted(p_cls, n_hi // 2, side="right"))
    for start in range(0, stop, budget):
        p = p_cls[start : min(start + budget, stop)]
        first = np.searchsorted(q_cls, np.maximum(p, n_lo - p))
        count = np.searchsorted(q_cls, n_hi - p, side="right") - first
        ends = np.cumsum(count)
        i = 0
        while i < len(p):
            # p[i:j]: as many p as fit the budget, and one at least
            base = int(ends[i - 1]) if i else 0
            j = max(int(np.searchsorted(ends, base + budget, side="right")), i + 1)
            c = count[i:j]
            qi = np.repeat(first[i:j] - (ends[i:j] - c), c)
            qi += np.arange(base, int(ends[j - 1]))
            yield start + i, start + j, c, qi
            i = j


def _add_rows(
    ns: range, table: PrimeTable, classes: dict[int, _PrimeClass], totals: np.ndarray
) -> None:
    # For each class r of p, 3 first, and each class s, the rows n whose
    # partners n - p lie in s: read the sieve's byte of n - p for every
    # row and every p <= n/2 of a chunk, a matrix rows by p of about
    # _SERIES_CHUNK // 4 entries, and find the log of each prime partner
    # by its class's bit index.  The hits come out row by row, each
    # row's p increasing, and np.add.at adds them in that order.
    import numpy as np
    flags = np.frombuffer(table.flags, dtype=bool)
    n_all = np.arange(ns.start, ns.stop, ns.step, dtype=np.int64)
    budget = max(_SERIES_CHUNK // 4, 1)
    for r in (3, 5):
        p_cls = classes[r]
        for s in {(n - r) % 8 for n in ns[:8]} & {3, 5}:
            rows = np.flatnonzero((n_all - r) % 8 == s)
            q_cls = classes[s]
            n = n_all[rows, None] - table.lo
            stop = int(np.searchsorted(p_cls.primes, n_all[rows[-1]] // 2, side="right"))
            size = max(budget // len(rows), 1)
            for start in range(0, stop, size):
                p = p_cls.primes[start : start + size]
                # q - lo = n - lo - p; one below the table reads the
                # table's first byte, and q < p drops it
                at = n - p
                hit = flags.take(at, mode="clip")
                hit &= at >= p - table.lo
                k = np.flatnonzero(hit)
                row, i = np.divmod(k, len(p))
                i += start
                q = at.ravel()[k] + table.lo
                terms = 2 * p_cls.logs[i]
                terms *= q_cls.logs[_index(q_cls, q)]
                if r == s:
                    same = q == p_cls.primes[i]
                    terms[same] = np.square(p_cls.logs[i[same]])
                np.add.at(totals, rows[row], terms)


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
    # counted, not len(range): len() raises OverflowError from 2**63 rows
    rows = (n_hi - n_lo) // step + 1
    if rows * n_hi > MAX_WINDOW_WORK:
        raise UsageError(
            f"window of {rows} rows up to n={n_hi} exceeds the work budget "
            f"rows * n_hi <= {MAX_WINDOW_WORK}"
        )
    ns = range(n_lo, n_hi + 1, step)
    for n in ns[:8]:
        if vanishing_reason(n) != "none":
            raise UsageError(
                f"n={n} is rejected: the restricted singular series vanishes "
                f"(n mod 8 = {n % 8})"
            )
    return ns


def compare_window(ns: range, table: PrimeTable) -> list[CompareRow]:
    """Rows (n, restricted sum, n*S2(n), ratio) for n in the window `ns`,
    as `window_range` returns it.  S2 is evaluated in product mode.
    Deterministic.
    """
    rows = []
    for n, r2 in zip(ns, goldbach_restricted_sum(ns, table)):
        main = n * restricted_singular_series(n, mode="product")
        rows.append(CompareRow(n=n, restricted_sum=r2, main_term=main, ratio=r2 / main))
    return rows
