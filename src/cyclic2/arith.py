"""Integer and multiplicative-function primitives.

Deterministic 64-bit primality, a segmented prime sieve whose table is
one bool per value with residue-class views mod 8, Jacobi/Kronecker
symbols, square roots modulo primes and the roots of t*t + e*t + N
modulo prime powers that the form enumeration builds on, and
factorization helpers.  Everything here is pure; values are
immutable once built, so concurrent use is safe.
"""

from __future__ import annotations

import math

import numpy as np

_U64 = 1 << 64

# First twelve primes: a witness set proven deterministic far beyond 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

SEGMENT_SIZE = 1 << 22       # sieve segment, in table entries
DEFAULT_MAX_SPAN = 1 << 28   # sieve memory budget, in table entries of one byte


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


class PrimeTable:
    """Primality over an inclusive range [lo, hi], one bool per value.

    flags[i] is True iff lo + i is prime; the array is read-only.
    `primes()` and `primes_mod8(r)` are fresh, increasing int64 arrays,
    recomputed on each call; `primes_mod8` reads only the strided view
    flags[(r - lo) % 8 :: 8].
    """

    def __init__(self, lo: int, hi: int, flags: np.ndarray):
        if lo < 2 or hi < lo:
            raise ValueError("PrimeTable requires 2 <= lo <= hi")
        if not isinstance(flags, np.ndarray) or flags.dtype != bool:
            raise ValueError("PrimeTable flags must be a bool ndarray")
        if flags.shape != (hi - lo + 1,):
            raise ValueError("flags length does not match range")
        flags.setflags(write=False)
        self.lo = lo
        self.hi = hi
        self.flags = flags

    def covers(self, lo: int, hi: int) -> bool:
        return self.lo <= lo and hi <= self.hi

    def __contains__(self, n: int) -> bool:
        if not self.lo <= n <= self.hi:
            raise ValueError(f"{n} outside table range [{self.lo}, {self.hi}]")
        return bool(self.flags[n - self.lo])

    def primes(self) -> np.ndarray:
        """All primes in [lo, hi], increasing, as a fresh int64 array."""
        out = np.flatnonzero(self.flags)
        out += self.lo
        return out

    def primes_mod8(self, r: int) -> np.ndarray:
        """Primes in range with p % 8 == r, increasing, as a fresh int64 array."""
        if not 0 <= r <= 7:
            raise ValueError("residue must be in 0..7")
        first = (r - self.lo) % 8
        # nonzero, not flatnonzero: ravel would copy the strided view
        out = np.nonzero(self.flags[first::8])[0]
        out *= 8
        out += self.lo + first
        return out


def sieve(lo: int, hi: int) -> PrimeTable:
    """Segmented sieve of [lo, hi] inclusive.

    Crosses off SEGMENT_SIZE entries of the table at a time, with base
    primes from a recursive sieve of [2, isqrt(hi)].  Raises when the
    requested span exceeds the memory budget.
    """
    if lo < 2 or hi < lo:
        raise ValueError("sieve requires 2 <= lo <= hi")
    span = hi - lo + 1
    if span > DEFAULT_MAX_SPAN:
        raise ValueError(
            f"sieve range of {span} entries exceeds the budget of {DEFAULT_MAX_SPAN}"
        )
    root = math.isqrt(hi)
    base_primes = sieve(2, root).primes().tolist() if root >= 2 else []
    flags = np.ones(span, dtype=bool)
    for start in range(0, span, SEGMENT_SIZE):
        seg = flags[start : start + SEGMENT_SIZE]
        pos, end = lo + start, lo + start + len(seg)
        for p in base_primes:
            first = max(p * p, (pos + p - 1) // p * p)
            if first < end:
                seg[first - pos :: p] = False
    return PrimeTable(lo, hi, flags)


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


def sqrt_mod_p(n: int, p: int) -> int | None:
    """A square root of n modulo the prime p, or None for a non-residue.

    Tonelli-Shanks (Cohen, Algorithm 1.5.1), with the direct power
    n**((p + 1)/4) when p = 3 (mod 4).
    """
    n %= p
    if n < 2:
        return n
    if pow(n, (p - 1) >> 1, p) != 1:
        return None
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    if s == 1:
        return pow(n, (p + 1) >> 2, p)
    z = 2
    while pow(z, (p - 1) >> 1, p) == 1:
        z += 1
    # invariants: r*r = n*t, c has order 2**m, t has order dividing 2**(m-1)
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) >> 1, p)
    while t != 1:
        i, u = 0, t
        while u != 1:
            u = u * u % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def roots_mod_prime_powers(d: int, top: int) -> list[tuple[int, list[tuple[int, list[int]]]]]:
    """Roots of f(t) = t*t + e*t + N modulo the prime powers up to top.

    For d = 0 or 3 (mod 4), e = d mod 2 and N = (d + e)/4, 4*f(t) =
    (2t + e)**2 + d, so a root t mod m gives b = 2t + e with
    b*b = -d (mod 4m).  Returns, for each prime p <= top at which f has
    a root, (p, [(p**j, the roots of f mod p**j) for p**j <= top]).
    For odd p not dividing d the roots mod p are (-e +- sqrt(-d))/2 and
    lift by Newton's step, f'(t) = 2t + e being a unit; at p = 2 and at
    odd p | d they lift by search among the r + i*p**(j-1).
    """
    e = d & 1
    n = (d + e) >> 2
    out = []
    for p in sieve(2, top).primes().tolist() if top >= 2 else []:
        half = (p + 1) >> 1  # 1/2 mod odd p
        newton = p > 2 and d % p
        if p == 2:
            roots = [t for t in (0, 1) if (t * t + e * t + n) % 2 == 0]
        elif not newton:
            roots = [-e * half % p]  # the double root 2t + e = 0 (mod p)
        else:
            s = sqrt_mod_p(-d, p)
            if s is None:
                continue
            roots = [(s - e) * half % p, (-s - e) * half % p]
        q, levels = p, []
        while roots:
            levels.append((q, roots))
            if q * p > top:
                break
            q *= p
            if newton:
                roots = [(t - (t * t + e * t + n) * pow(2 * t + e, -1, q)) % q for t in roots]
            else:
                step = q // p
                roots = [u for t in roots for u in range(t, q, step)
                         if (u * u + e * u + n) % q == 0]
        if levels:
            out.append((p, levels))
    return out


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
