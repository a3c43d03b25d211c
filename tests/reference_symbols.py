"""The Kronecker symbol and the local symbols over p | d, for tests only.

No command evaluates the Kronecker symbol.  The tests use it for the
paper's shortcut (p1/w) = -1, which they compare with the square-class
criterion in `criteria`, and for mu2 in closed form (`reference_circle`).
`local_symbols` lists the symbols (w, -d)_p from a factorization of d,
for the product formula, where the criterion takes the primes of d.
"""

from cyclic2 import arith, criteria


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
    return result * arith.jacobi(a, n)


def local_symbols(w: int, d: int) -> list[int]:
    """(w, -d)_p for every prime p | d."""
    return [criteria.hilbert_symbol(w, -d, p) for p, _ in arith.factorize(d)]
