"""Algebraic decision procedures for the 2-class group construction.

Local Hilbert symbols, the square-class test for an ideal class of given
norm (all symbols +1 over the primes dividing the discriminant), and the
single Kronecker-symbol condition that decides whether the constructed
cyclic 2-class group has exactly the target 2-power order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import arith


class SquareClassReport(NamedTuple):
    """Outcome of the square-class test for norm w and discriminant -d.

    symbols holds one local Hilbert symbol per prime dividing d; their
    product is +1 (a theorem, enforced by `square_class_report`), and the
    class is a square exactly when every symbol is +1.  exact_order_2k
    records the complementary verdict: a non-square class of 2-power
    order generates the full cyclic 2-Sylow subgroup.
    """

    d: int
    w: int
    symbols: tuple[tuple[int, int], ...]
    is_square: bool
    exact_order_2k: bool


def _split_valuation(x: int, p: int) -> tuple[int, int]:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


def _eps(u: int) -> int:
    # (u - 1)/2 mod 2 for odd u
    return 1 if u % 4 == 3 else 0


def _omega(u: int) -> int:
    # (u*u - 1)/8 mod 2 for odd u
    return 0 if u % 8 in (1, 7) else 1


def hilbert_symbol(a: int, b: int, p: int) -> int:
    """Local Hilbert symbol (a, b / p) for nonzero integers and prime p.

    +1 iff z**2 = a*x**2 + b*y**2 has a nontrivial p-adic solution.
    Bimultiplicative in both arguments.
    """
    if a == 0 or b == 0:
        raise ValueError("hilbert_symbol requires nonzero a and b")
    if p < 2 or not arith.is_prime(p):
        raise ValueError(f"hilbert_symbol requires a prime p, got {p}")
    alpha, u = _split_valuation(a, p)
    beta, v = _split_valuation(b, p)
    if p == 2:
        e = _eps(u) * _eps(v) + alpha * _omega(v) + beta * _omega(u)
        return -1 if e % 2 else 1
    result = 1
    if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
        result = -result
    if beta % 2:
        result *= arith.jacobi(u, p)
    if alpha % 2:
        result *= arith.jacobi(v, p)
    return result


def _is_ideal_norm(w: int, d: int) -> bool:
    """Whether w is the norm of an ideal coprime to the discriminant -d.

    Needs every prime dividing w to an odd power to split in the field;
    inert primes only contribute even powers, ramified ones are excluded
    by coprimality.
    """
    for p, e in arith.factorize(w):
        if e % 2 == 0:
            continue
        if arith.kronecker(-d, p) != 1:
            return False
    return True


def square_class_report(w: int, d: int) -> SquareClassReport:
    """Square-class test for the class of an ideal of norm w in disc -d.

    d must be squarefree, 3 mod 4, coprime to w, and w must actually be
    an ideal norm (otherwise the question is vacuous and the symbol
    product theorem does not apply).  Computes (w, -d / p) for every
    prime p | d; the class is a square iff all symbols are +1.
    """
    if w < 1:
        raise ValueError("w must be a positive integer")
    if d < 3 or d % 4 != 3:
        raise ValueError(f"d must be a positive integer congruent to 3 mod 4, got {d}")
    if math.gcd(w, d) != 1:
        raise ValueError(f"w={w} and d={d} must be coprime")
    fac = arith.factorize(d)
    if any(e > 1 for _, e in fac):
        raise ValueError(f"d={d} must be squarefree")
    if not _is_ideal_norm(w, d):
        raise ValueError(
            f"w={w} is not the norm of an ideal coprime to the discriminant -{d}"
        )
    symbols = tuple((p, hilbert_symbol(w, -d, p)) for p, _ in fac)
    if math.prod(s for _, s in symbols) != 1:
        raise ArithmeticError(
            f"Hilbert symbol product over p | {d} is not 1 for w={w}: internal error"
        )
    is_square = all(s == 1 for _, s in symbols)
    return SquareClassReport(
        d=d, w=w, symbols=symbols, is_square=is_square, exact_order_2k=not is_square
    )


def exact_order_test(p1: int, p2: int, w: int, k: int) -> bool:
    """Whether the 2-class group of disc -p1*p2 has exactly order 2**k.

    Requires distinct primes p1 = 1, p2 = 3 (mod 4), both >= 3, summing
    to 4*w**(2**(k-1)) with w even.  The verdict is the single Kronecker
    symbol condition (p1/w) = -1; all hypotheses are re-validated here
    rather than trusted, so certificates are self-contained.
    """
    if k < 1:
        raise ValueError("hypothesis failed: k must be >= 1")
    if w < 2 or w % 2:
        raise ValueError("hypothesis failed: w must be a positive even integer")
    for name, p in (("p1", p1), ("p2", p2)):
        if p < 3 or not arith.is_prime(p):
            raise ValueError(f"hypothesis failed: {name}={p} must be a prime >= 3")
    if p1 == p2:
        raise ValueError("hypothesis failed: p1 and p2 must be distinct")
    if p1 % 4 != 1:
        raise ValueError(f"hypothesis failed: p1={p1} must be 1 mod 4")
    if p2 % 4 != 3:
        raise ValueError(f"hypothesis failed: p2={p2} must be 3 mod 4")
    e = 1 << min(k - 1, 6)  # w >= 2, so every k >= 7 fails the bound below
    if e * w.bit_length() > 70 or p1 + p2 != 4 * w**e:
        raise ValueError(
            f"hypothesis failed: p1 + p2 = {p1 + p2} must equal 4*w**(2**(k-1))"
        )
    return arith.kronecker(p1, w) == -1

