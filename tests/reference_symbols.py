"""The Jacobi, Kronecker and local Hilbert symbols, for tests only.

No command evaluates any of them.  The square-class criterion in
`criteria` takes (w, -d)_p as the Legendre symbol (w/p), which holds
only for d squarefree and prime to w; `hilbert_symbol` is the general
symbol it reduces to, and `local_symbols` lists the symbols (w, -d)_p
from a factorization of d, for the product formula and for checking
the criterion's verdicts.  The tests use the Kronecker symbol for the
paper's shortcut (p1/w) = -1, which they compare with the criterion,
and for mu2 in closed form (`reference_circle`).
"""

from cyclic2 import arith


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


def _split_valuation(x: int, p: int) -> tuple[int, int]:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


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
        # eps(u) = (u - 1)/2 and omega(u) = (u*u - 1)/8, both mod 2
        e = (u % 4 == 3) * (v % 4 == 3)
        e += alpha * (v % 8 in (3, 5)) + beta * (u % 8 in (3, 5))
        return -1 if e % 2 else 1
    result = 1
    if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
        result = -result
    if beta % 2:
        result *= jacobi(u, p)
    if alpha % 2:
        result *= jacobi(v, p)
    return result


def local_symbols(w: int, d: int) -> list[int]:
    """(w, -d)_p for every prime p | d."""
    return [hilbert_symbol(w, -d, p) for p, _ in arith.factorize(d)]
