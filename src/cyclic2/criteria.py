"""The paper's square-class criterion for the 2-class group construction.

The class of an ideal of norm w, coprime to the discriminant -d of the
field, is a square iff the local Hilbert symbol (w, -d)_p is +1 for
every prime p | d.  A non-square class of 2-power order generates the
cyclic 2-Sylow subgroup, so `exact_order_test` decides whether the
constructed class has exactly the target order.  With d squarefree and
prime to w, p divides -d once and w not at all, so each symbol is the
Legendre symbol (w/p), which Euler's criterion reads off one pow.
"""

from __future__ import annotations

import math
from typing import Sequence

from . import arith


def exact_order_test(w: int, b: int, primes: Sequence[int]) -> bool:
    """Whether the class of the ideal of norm w is not a square.

    The field has discriminant -d, d the product of `primes`, and the
    ideal is (w, (b + sqrt(-d))/2), so b**2 = -d (mod 4w).  For the
    construction's class of order 2**k this is the verdict that the
    2-class group is cyclic of order exactly 2**k.  The primes must be
    distinct primes (d squarefree), d must be 3 mod 4 and coprime to w.
    Computes (w, -d)_p = (w/p) = w**((p-1)/2) mod p for every prime
    p | d, all odd as d is; the class is a square iff all symbols are
    +1.  Their product is +1 by a theorem, so any other product is an
    ArithmeticError.
    """
    d = math.prod(primes)
    if w < 1:
        raise ValueError("w must be a positive integer")
    if len(set(primes)) != len(primes):
        raise ValueError(f"the primes {tuple(primes)} of d must be distinct")
    if d % 4 != 3:
        raise ValueError(f"d must be a positive integer congruent to 3 mod 4, got {d}")
    if math.gcd(w, d) != 1:
        raise ValueError(f"w={w} and d={d} must be coprime")
    if (b * b + d) % (4 * w):
        raise ValueError(f"b={b} is not a square root of -{d} modulo 4w={4 * w}")
    for p in primes:
        if p < 2 or not arith.is_prime(p):
            raise ValueError(f"exact_order_test requires a prime p, got {p}")
    symbols = [1 if pow(w, p >> 1, p) == 1 else -1 for p in primes]
    if math.prod(symbols) != 1:
        raise ArithmeticError(
            f"Hilbert symbol product over p | {d} is not 1 for w={w}: internal error"
        )
    return -1 in symbols
