"""Integer primitives.

Deterministic 64-bit primality, by Miller-Rabin on as few of twelve
base primes as n needs, a segmented prime sieve whose table is
one byte per value with residue-class views mod 8, the process's one
prime list (`primes_to`, which the form enumeration reads), square
roots modulo primes, and factorization: division by the
twelve Miller-Rabin base primes, then `is_prime` and Pollard-Brent.  A
square root of n mod p costs one pow when n is a non-residue or
p = 3 (mod 4): Tonelli-Shanks reads Euler's criterion off the pow it
starts with.  Values are immutable once built, except that the prime
list grows by rebinding; it only ever adds the same values, so
concurrent use is safe.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import compress

from .bounds import UsageError

_U64 = 1 << 64

# First twelve primes: a witness set proven deterministic far beyond 2**64
# (Sorenson and Webster, Math. Comp. 2017), and the only trial divisors of
# `factorize`.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The j-th entry is psi_j, the least strong pseudoprime to the first j
# bases (Jaeschke, Math. Comp. 61, 1993), so n < psi_j needs only those j.
_MR_BOUNDS = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 341550071728321, 3825123056546413051,
              3825123056546413051, 3825123056546413051)

SEGMENT_SIZE = 1 << 20       # sieve segment, in table entries
DEFAULT_MAX_SPAN = 1 << 28   # sieve memory budget, in table entries of one byte


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64, by Miller-Rabin on
    the shortest prefix of the base primes proven for n (`_MR_BOUNDS`)."""
    if not 0 <= n < _U64:
        raise ValueError(f"is_prime expects 0 <= n < 2**64, got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES[:bisect_right(_MR_BOUNDS, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeTable:
    """Primality over an inclusive range [lo, hi], one byte per value.

    flags is a read-only memoryview of unsigned bytes; flags[i] is 1 iff
    lo + i is prime, else 0.  `primes()` and `primes_mod8(r)` are fresh,
    increasing lists of ints, recomputed on each call; `primes_mod8`
    reads only the strided view flags[(r - lo) % 8 :: 8].
    """

    def __init__(self, lo: int, hi: int, flags: memoryview):
        if lo < 2 or hi < lo:
            raise ValueError("PrimeTable requires 2 <= lo <= hi")
        if not (isinstance(flags, memoryview) and flags.readonly
                and flags.format == "B" and flags.ndim == 1):
            raise ValueError("PrimeTable flags must be a read-only memoryview of bytes")
        if len(flags) != hi - lo + 1:
            raise ValueError("flags length does not match range")
        self.lo = lo
        self.hi = hi
        self.flags = flags

    def covers(self, lo: int, hi: int) -> bool:
        return self.lo <= lo and hi <= self.hi

    def primes(self) -> list[int]:
        """All primes in [lo, hi], increasing, as a fresh list."""
        return list(compress(range(self.lo, self.hi + 1), self.flags))

    def primes_mod8(self, r: int) -> list[int]:
        """Primes in range with p % 8 == r, increasing, as a fresh list."""
        if not 0 <= r <= 7:
            raise ValueError("residue must be in 0..7")
        first = (r - self.lo) % 8
        return list(compress(range(self.lo + first, self.hi + 1, 8), self.flags[first::8]))


def sieve(lo: int, hi: int) -> PrimeTable:
    """Segmented sieve of [lo, hi] inclusive, into one byte per value.

    Crosses off SEGMENT_SIZE entries of the table at a time, with base
    primes from a recursive sieve of [2, isqrt(hi)].  Every crossing-off
    reads a slice of one shared zero buffer; CPython still copies that
    slice before a strided store, so the transient per prime is at most
    SEGMENT_SIZE / 2 bytes.  A span over the memory budget is refused
    with UsageError, since only `compare --n-hi` can ask for one.
    """
    if lo < 2 or hi < lo:
        raise ValueError("sieve requires 2 <= lo <= hi")
    span = hi - lo + 1
    if span > DEFAULT_MAX_SPAN:
        raise UsageError(
            f"sieve range of {span} entries exceeds the budget of {DEFAULT_MAX_SPAN}"
        )
    root = math.isqrt(hi)
    base_primes = sieve(2, root).primes() if root >= 2 else []
    flags = bytearray(b"\x01") * span
    zeros = memoryview(bytes((min(span, SEGMENT_SIZE) + 1) // 2))
    for start in range(lo, hi + 1, SEGMENT_SIZE):
        end = min(start + SEGMENT_SIZE, hi + 1)
        for p in base_primes:
            first = max(p * p, (start + p - 1) // p * p)
            if first < end:
                flags[first - lo : end - lo : p] = zeros[: (end - 1 - first) // p + 1]
    return PrimeTable(lo, hi, memoryview(flags).toreadonly())


def sqrt_mod_p(n: int, p: int) -> int | None:
    """A square root of n modulo the prime p, or None for a non-residue.

    Tonelli-Shanks (Cohen, Algorithm 1.5.1) with p - 1 = 2**s * q, q odd.
    One pow gives r = n**((q+1)/2) and t = n**q, with r*r = n*t; n is a
    residue iff t has order below 2**s (Euler's criterion), so for
    p = 3 (mod 4), where s = 1, the root is that pow and a check.
    """
    n %= p
    if n < 2:
        return n
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    x = pow(n, q >> 1, p)
    r = n * x % p
    t = r * x % p
    # invariants: r*r = n*t, c = 0 or of order 2**m, t of order dividing 2**m
    m, c = s, 0
    while t != 1:
        i, u = 0, t
        while u != 1:
            u = u * u % p
            i += 1
        if i == m:  # only on the first pass, where it is Euler's criterion
            return None
        if not c:
            z = 2
            while pow(z, (p - 1) >> 1, p) == 1:
                z += 1
            c = pow(z, q, p)
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


# The process's one prime list, as (top, every prime <= top): `primes_to`
# grows it and rebinds the pair, never changing a list in place, so a list
# once handed out stays valid, and concurrent growth can at worst repeat
# a sieve.
_sieved: tuple[int, list[int]] = (1, [])


def primes_to(top: int) -> list[int]:
    """The primes up to at least top, increasing: the process's one list,
    sieved further on demand.  A first call sieves to top itself; a later
    one sieves on to at least twice the last top, so a run of growing d
    sieves only O(log(top)) times."""
    global _sieved
    hi, primes = _sieved
    if top > hi:
        new = max(top, 2 * hi)
        primes = primes + sieve(hi + 1, new).primes()
        _sieved = new, primes
    return primes


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle variant).

    The parameter sweep is fixed, so the result is deterministic.
    """
    for c in range(1, 1000):
        y, m = 2, 128
        g = q = r = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
        if g != n:
            return g
    raise ArithmeticError(f"factor search failed for {n}")


def factorize(n: int) -> list[tuple[int, int]]:
    """Complete factorization of 1 <= n < 2**64 as (prime, exponent) pairs:
    the primes up to 37 by division, the rest by `_pollard_brent`."""
    if not 1 <= n < _U64:
        raise ValueError(f"factorize expects 1 <= n < 2**64, got {n}")
    out: dict[int, int] = {}
    for p in _MR_BASES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return sorted(out.items())
