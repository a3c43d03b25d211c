"""Search pipeline for prime pairs certifying cyclic 2-class groups.

For a level k and multiplier M, the target sum is n = 4*(2*M**2)**(2**(k-1)).
Prime pairs p1 + p2 = n with p1 = 5 and p2 = 3 (mod 8) pass the symbol
criterion automatically; each candidate is still run through the full
criterion, its class of order 2**k is checked by composition, and it is
confirmed against the form-enumeration oracle before a certificate is
emitted.  Only `target`'s bounds and `certify`'s rejections are the
user's error (`bounds.UsageError`); anything else that escapes, a
disagreement between the two routes too, is a bug.

The search enumerates only the pairs whose d = p1*p2 fits the oracle
budget (`find_pairs`), so its cost grows with the number of
certifiable pairs, not with n.
"""

from __future__ import annotations

import bisect
from typing import Iterator, NamedTuple

from . import arith, criteria, forms
from .bounds import DEFAULT_D_BUDGET, UsageError
from .forms import ClassGroup2Summary

_I63 = 1 << 63


class CertificationError(UsageError):
    """A candidate pair fails one of the certificate requirements."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class Certificate(NamedTuple):
    """A fully verified construction: the 2-class group of Q(sqrt(-d)) is
    cyclic of exact order 2**k, confirmed both by the symbol criterion
    (symbol_ok) and by exhaustive class-group enumeration (oracle)."""

    k: int
    M: int
    w: int
    n: int
    x: int
    p1: int
    p2: int
    d: int
    symbol_ok: bool
    oracle: ClassGroup2Summary


def target(k: int, M: int) -> int:
    """Pair-sum target n = 4*(2*M**2)**(2**(k-1)), overflow-checked."""
    if k < 1:
        raise UsageError("target requires k >= 1")
    if M < 1:
        raise UsageError("target requires M >= 1")
    w = 2 * M * M
    e = 1 << min(k - 1, 6)  # w >= 2, so every k >= 7 fails the bound below
    if e * w.bit_length() > 64:
        raise UsageError(f"target overflows the 63-bit bound at k={k}, M={M}")
    n = 4 * w**e
    if n >= _I63:
        raise UsageError(f"target overflows the 63-bit bound at k={k}, M={M}")
    return n


def find_pairs(k: int, M: int, d_budget: int = DEFAULT_D_BUDGET) -> list[tuple[int, int]]:
    """All prime pairs p1 + p2 = target(k, M) with p1 = 5, p2 = 3 (mod 8),
    the residues that make the symbol criterion succeed, and
    d = p1*p2 <= d_budget, ordered by p1 ascending.

    For p <= n/2, d = p*(n - p) is strictly increasing in p, so the pairs
    within budget are exactly those whose smaller prime is at most p*, the
    largest p <= n // 2 with p*(n - p) <= d_budget; and p* <= isqrt(d_budget).
    Only [2, p*] is sieved; each partner n - p is tested with `is_prime`.
    Since 8 | n, the partner of a prime p = r (mod 8) is -r (mod 8).
    """
    n = target(k, M)
    half = range(n // 2 + 1)
    p_star = bisect.bisect_right(half, d_budget, key=lambda p: p * (n - p)) - 1
    if p_star < 3:
        return []
    table = arith.sieve(2, p_star)
    pairs = [
        (p, n - p) if r == 5 else (n - p, p)
        for r in (5, 3)
        for p in table.primes_mod8(r)
        if arith.is_prime(n - p)
    ]
    return sorted(pairs)


def _order_2k_witness(w: int, x: int, k: int, d: int) -> tuple[int, int, int]:
    """The reduced class g of (w, x, w**(2**k - 1)), the ideal of norm w,
    checked in k compositions to have order exactly 2**k."""
    g = forms.reduce((w, x, w ** ((1 << k) - 1)))
    half = forms.form_pow(g, 1 << (k - 1))
    ident = forms.principal_form(-d)
    if half != ident and forms.compose(half, half) == ident:
        return g
    raise ArithmeticError(f"witness check failed for d={d}: {g} does not have order 2**{k}")


def certify(
    k: int, M: int, p1: int, p2: int, *, d_budget: int = DEFAULT_D_BUDGET
) -> Certificate:
    """Validate a claimed pair and return its certificate.

    Raises CertificationError naming the first failed requirement.  These
    checks establish every hypothesis of the criterion and of the witness
    form (the comment below), so neither checks them again, and each
    prime is tested once.  The symbol test, the order of the witness and
    criterion/oracle agreement are theorems, so a failure is an
    ArithmeticError.  The oracle gets the witness, so it counts the class
    group and keeps no form list, and the factorization p1*p2, so it
    factors nothing.
    """
    n = target(k, M)
    w = 2 * M * M
    if p1 + p2 != n:
        raise CertificationError(
            "sum-mismatch", f"p1 + p2 = {p1 + p2}, expected target {n}"
        )
    if p1 == p2:
        raise CertificationError("equal-primes", "p1 and p2 must be distinct")
    if min(p1, p2) < 3:
        raise CertificationError("prime-too-small", "both primes must be >= 3")
    if not arith.is_prime(p1):
        raise CertificationError("p1-not-prime", f"p1={p1} is not prime")
    if not arith.is_prime(p2):
        raise CertificationError("p2-not-prime", f"p2={p2} is not prime")
    if p1 % 8 != 5:  # past this, p2 = 3 (mod 8), as 8 | n
        raise CertificationError("p1-residue", f"p1={p1} must be 5 mod 8")
    x = abs(p1 - n // 2)
    d = p1 * p2
    if d > d_budget:
        raise CertificationError(
            "oracle-budget-exceeded", f"d={d} exceeds the oracle budget {d_budget}"
        )
    # The hypotheses of the criterion and of the witness form hold here:
    # p1 != p2, d = 3 (mod 4), x > 0 and x**2 + d = 4*w**(2**k); and
    # gcd(w, d) = gcd(w, x) = 1, as a prime q | w divides n/2, so q | d or
    # q | x would make q divide both p1 and p2 = n/2 -+ x.  The
    # criterion's verdict is a theorem:
    # (w, -d)_p1 = (2/p1)*(M/p1)**2 = -1 for p1 = 5 (mod 8), as p1 | M
    # would give p1 | p2.
    symbol_ok = criteria.exact_order_test(w, (p1, p2))
    if not symbol_ok:
        raise ArithmeticError(f"symbol test failed: the class of norm w={w} is a square")
    oracle = forms.class_number(
        d, witness=_order_2k_witness(w, x, k, d), factors=[(p1, 1), (p2, 1)]
    )
    if oracle.two_part != 1 << k or not oracle.cyclic_2sylow:
        raise ArithmeticError(
            f"oracle-mismatch: symbol test passed but enumeration of d={d} "
            f"gives two_part={oracle.two_part}, cyclic={oracle.cyclic_2sylow}, "
            f"expected cyclic 2**{k}"
        )
    return Certificate(
        k=k, M=M, w=w, n=n, x=x, p1=p1, p2=p2, d=d,
        symbol_ok=symbol_ok, oracle=oracle,
    )


def search(
    k: int,
    m_values: range,
    *,
    d_budget: int = DEFAULT_D_BUDGET,
) -> Iterator[Certificate]:
    """Certificates for every passing pair over a non-empty, increasing
    range of multipliers M.

    Emits in deterministic order: M ascending, then p1 ascending.  Only
    pairs with d <= d_budget are enumerated (`find_pairs`), so the cost
    grows with the certifiable pairs, not with the target n; each one
    still goes through `certify`, which accepts every one of them:
    `find_pairs` already fixes the sum, the residues mod 8, both
    primalities and d <= d_budget, and `certify` shows why the symbol
    test then holds.  A rejection, an overflow or an internal error
    therefore propagates.

    The target grows with M, so `target` checks its 63-bit bound once, at
    the largest M, read off the range in O(1), before anything is built
    per M.  No d needs a bound of its own: every enumerated d is at most
    d_budget.  The smallest d a target n admits is 3*(n - 3), so the
    search stops at the first M where that exceeds d_budget: no later M
    has a pair.
    """
    target(k, m_values[-1])
    for m in m_values:
        if 3 * (target(k, m) - 3) > d_budget:
            return
        for p1, p2 in find_pairs(k, m, d_budget):
            yield certify(k, m, p1, p2, d_budget=d_budget)


def validate_certificate(cert: Certificate) -> None:
    """Re-certify (k, M, p1, p2) from scratch and compare field by field.

    Raises ValueError naming the first failed requirement or mismatched
    field.  The budget admits the certificate's own d, so the oracle runs
    exactly once, inside `certify`.
    """
    try:
        fresh = certify(cert.k, cert.M, cert.p1, cert.p2, d_budget=cert.p1 * cert.p2)
    except CertificationError as exc:
        raise ValueError(f"certificate invariant violated: {exc.reason}") from exc
    for name in Certificate._fields:
        if getattr(fresh, name) != getattr(cert, name):
            raise ValueError(f"certificate invariant violated: {name}")
