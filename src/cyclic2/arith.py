"""Integer and multiplicative-function primitives.

Deterministic 64-bit primality, a segmented bit-packed prime sieve with
residue-class views mod 8, Jacobi/Kronecker symbols, and factorization
helpers.  Everything here is pure; values are immutable once built, so
concurrent use is safe.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
import zlib

import numpy as np

_U64 = 1 << 64

# First twelve primes: a witness set proven deterministic far beyond 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

SEGMENT_SIZE = 1 << 22       # sieve segment, in table entries
DEFAULT_MAX_SPAN = 1 << 28   # sieve memory budget, in table entries

_CACHE_MAGIC = b"C2SV"
_CACHE_VERSION = 2
_CACHE_HEADER = struct.Struct("<4sIQQI")   # magic, version, lo, hi, CRC32 of the bitmap


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64."""
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
    for a in _MR_BASES:
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


def _simple_sieve(limit: int) -> np.ndarray:
    """Boolean primality flags for 0..limit (the square-root worktable)."""
    flags = np.zeros(max(limit, 1) + 1, dtype=bool)
    if limit >= 2:
        flags[2:] = True
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = False
    return flags


class PrimeTable:
    """Bit-packed primality over an inclusive range [lo, hi].

    Bit i of the bitmap (LSB-first within each byte) is set iff lo + i is
    prime.  `primes()` is an int64 array and `primes_mod8(r)` a list of
    Python ints, both increasing and recomputed on each call.
    """

    def __init__(self, lo: int, hi: int, bits: bytes):
        if lo < 2 or hi < lo:
            raise ValueError("PrimeTable requires 2 <= lo <= hi")
        span = hi - lo + 1
        if len(bits) != (span + 7) // 8:
            raise ValueError("bitmap length does not match range")
        self.lo = lo
        self.hi = hi
        self.bits = bytes(bits)

    def covers(self, lo: int, hi: int) -> bool:
        return self.lo <= lo and hi <= self.hi

    def __contains__(self, n: int) -> bool:
        if not self.lo <= n <= self.hi:
            raise ValueError(f"{n} outside table range [{self.lo}, {self.hi}]")
        i = n - self.lo
        return bool((self.bits[i >> 3] >> (i & 7)) & 1)

    def primes(self) -> np.ndarray:
        """All primes in [lo, hi], increasing, as a fresh int64 array."""
        span = self.hi - self.lo + 1
        flags = np.unpackbits(
            np.frombuffer(self.bits, dtype=np.uint8), bitorder="little"
        )[:span]
        return np.flatnonzero(flags).astype(np.int64, copy=False) + self.lo

    def primes_mod8(self, r: int) -> list[int]:
        """Primes in range with p % 8 == r, increasing, as Python ints."""
        if not 0 <= r <= 7:
            raise ValueError("residue must be in 0..7")
        primes = self.primes()
        return primes[primes % 8 == r].tolist()

    def save(self, path) -> None:
        """Write the cache file: magic, version, lo, hi, CRC32, raw bitmap.

        The file is written in full under a temporary name and then moved
        over `path`, so a reader never sees a partial cache.
        """
        header = _CACHE_HEADER.pack(
            _CACHE_MAGIC, _CACHE_VERSION, self.lo, self.hi, zlib.crc32(self.bits)
        )
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(header)
                fh.write(self.bits)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path) -> "PrimeTable":
        # unbuffered, and the bitmap read apart from the header, so that
        # no second copy of a large bitmap is made
        with open(path, "rb", buffering=0) as fh:
            header = fh.read(_CACHE_HEADER.size)
            bits = fh.readall()
        if len(header) < _CACHE_HEADER.size:
            raise ValueError("sieve cache too short")
        magic, version, lo, hi, crc = _CACHE_HEADER.unpack(header)
        if magic != _CACHE_MAGIC:
            raise ValueError("bad sieve cache magic")
        if version != _CACHE_VERSION:
            raise ValueError(f"unsupported sieve cache version {version}")
        if zlib.crc32(bits) != crc:
            raise ValueError("sieve cache checksum mismatch")
        return cls(lo, hi, bits)


def sieve(lo: int, hi: int, *, max_span: int = DEFAULT_MAX_SPAN) -> PrimeTable:
    """Segmented sieve of [lo, hi] inclusive.

    Internally processes SEGMENT_SIZE entries at a time, so hi may far
    exceed the square-root worktable.  Raises when the requested span
    exceeds the memory budget.
    """
    if lo < 2 or hi < lo:
        raise ValueError("sieve requires 2 <= lo <= hi")
    span = hi - lo + 1
    if span > max_span:
        raise ValueError(
            f"sieve range of {span} entries exceeds the budget of {max_span}"
        )
    base = _simple_sieve(math.isqrt(hi))
    base_primes = [int(p) for p in np.flatnonzero(base)]

    packed = bytearray()
    pos = lo
    while pos <= hi:
        end = min(pos + SEGMENT_SIZE, hi + 1)
        seg = np.ones(end - pos, dtype=bool)
        for p in base_primes:
            start = max(p * p, (pos + p - 1) // p * p)
            if start < end:
                seg[start - pos :: p] = False
        packed += np.packbits(seg, bitorder="little").tobytes()
        pos = end
    return PrimeTable(lo, hi, bytes(packed))


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"jacobi requires odd n >= 1, got n={n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), the full extension of the Jacobi symbol.

    (a/2) is 0 for even a, +1 for a = +-1 mod 8, -1 for a = +-3 mod 8.
    """
    if a == 0 and n == 0:
        raise ValueError("kronecker(0, 0) is undefined")
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    return result * jacobi(a, n)


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
    """Complete factorization of 1 <= n < 2**64 as (prime, exponent) pairs."""
    if not 1 <= n < _U64:
        raise ValueError(f"factorize expects 1 <= n < 2**64, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 41
    while f * f <= n and f < 10_000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return sorted(out.items())


def mobius(q: int) -> int:
    """Mobius function: 0 on non-squarefree q, else (-1)**(number of primes)."""
    if q < 1:
        raise ValueError("mobius requires q >= 1")
    fac = factorize(q)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(q: int) -> int:
    """Euler totient of q >= 1."""
    if q < 1:
        raise ValueError("euler_phi requires q >= 1")
    val = q
    for p, _ in factorize(q):
        val -= val // p
    return val
