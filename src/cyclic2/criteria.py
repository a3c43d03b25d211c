"""The paper's square-class criterion for the 2-class group construction.

The class of an ideal of norm w, coprime to the discriminant -d of the
field, is a square iff the local Hilbert symbol (w, -d)_p is +1 for
every prime p | d.  A non-square class of 2-power order generates the
cyclic 2-Sylow subgroup, so `exact_order_test` decides whether the
constructed class has exactly the target order.  With d squarefree and
prime to w, p divides -d once and w not at all, so each symbol is the
Legendre symbol (w/p), which Euler's criterion reads off one pow.  The
criterion checks none of its hypotheses: `factory.certify`, its one
caller, establishes them from the pair it is given.
"""

from __future__ import annotations

import math
from typing import Sequence


def exact_order_test(w: int, primes: Sequence[int]) -> bool:
    """Whether the class of an ideal of norm w is not a square.

    The field has discriminant -d, d the product of `primes`.  For the
    construction's class of order 2**k this is the verdict that the
    2-class group is cyclic of order exactly 2**k.  The caller
    guarantees the hypotheses, unchecked here: the primes are distinct
    odd primes, d = 3 (mod 4), and w > 0 is the norm of an ideal prime
    to d.  Computes (w, -d)_p = (w/p) = w**((p-1)/2) mod p for every
    prime p | d; the class is a square iff all symbols are +1.  Their
    product is +1 by a theorem, so any other product is an
    ArithmeticError.
    """
    symbols = [1 if pow(w, p >> 1, p) == 1 else -1 for p in primes]
    if math.prod(symbols) != 1:
        raise ArithmeticError(
            f"Hilbert symbol product over p | {math.prod(primes)} is not 1 for w={w}: "
            "internal error"
        )
    return -1 in symbols
