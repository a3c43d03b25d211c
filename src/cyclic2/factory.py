"""Search pipeline for prime pairs certifying cyclic 2-class groups.

For a level k and multiplier M, the target sum is n = 4*(2*M**2)**(2**(k-1)).
Prime pairs p1 + p2 = n with p1 = 5 and p2 = 3 (mod 8) pass the symbol
criterion automatically; each candidate is still run through the full
criterion and then confirmed against the form-enumeration oracle before
a certificate is emitted.  A disagreement between the two routes is an
internal error, never a rejection.

The search enumerates only the pairs whose d = p1*p2 fits the oracle
budget (`find_pairs`), so its cost grows with the number of
certifiable pairs, not with n.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass, fields
from typing import Iterable, Iterator

from . import arith, criteria, forms
from .forms import ClassGroup2Summary

log = logging.getLogger(__name__)

_I63 = 1 << 63
DEFAULT_D_BUDGET = 10**9


class CertificationError(ValueError):
    """A candidate pair fails one of the certificate requirements."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class InternalInvariantError(RuntimeError):
    """A provable invariant failed at runtime: a bug, not a rejection."""


class OracleMismatchError(InternalInvariantError):
    """Symbol criterion and class-group enumeration disagree."""


@dataclass(frozen=True)
class Certificate:
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
        raise ValueError("target requires k >= 1")
    if M < 1:
        raise ValueError("target requires M >= 1")
    w = 2 * M * M
    e = 1 << (k - 1)
    if e * w.bit_length() > 64:
        raise ValueError(f"target overflows the 63-bit bound at k={k}, M={M}")
    n = 4 * w**e
    if n >= _I63:
        raise ValueError(f"target overflows the 63-bit bound at k={k}, M={M}")
    return n


def find_pairs(
    k: int, M: int, d_budget: int = DEFAULT_D_BUDGET, *, negative: bool = False
) -> list[tuple[int, int]]:
    """All prime pairs p1 + p2 = target(k, M) in the admissible residues
    with d = p1*p2 <= d_budget, ordered by p1 ascending.

    Positive mode takes p1 = 5, p2 = 3 (mod 8), the residues that make
    the symbol criterion succeed.  Negative mode (p1 = 1, p2 = 7 mod 8)
    enumerates counterexample pairs whose 2-class group is strictly
    larger than 2**k; these are for exercising the failing direction of
    the criterion and are never certified.

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
    r1, r2 = (1, 7) if negative else (5, 3)
    table = arith.sieve(2, p_star)
    pairs = [
        (p, n - p) if r == r1 else (n - p, p)
        for r in (r1, r2)
        for p in table.primes_mod8(r)
        if arith.is_prime(n - p)
    ]
    return sorted(pairs)


def certify(
    k: int, M: int, p1: int, p2: int, *, d_budget: int = DEFAULT_D_BUDGET
) -> Certificate:
    """Validate a claimed pair and return its certificate.

    Raises CertificationError naming the first failed requirement.
    Violations of provable invariants (coprimality of x and w, the
    discriminant identity, criterion/oracle agreement) raise internal
    errors instead.
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
    if p1 % 8 != 5:
        raise CertificationError("p1-residue", f"p1={p1} must be 5 mod 8")
    if p2 % 8 != 3:
        raise CertificationError("p2-residue", f"p2={p2} must be 3 mod 8")
    half = n // 2
    x = abs(p1 - half)
    if x % 2 == 0 or not 0 < x <= half - 2:
        raise InternalInvariantError(f"x={x} escaped its provable range")
    if math.gcd(x, w) != 1:
        raise InternalInvariantError(f"gcd(x={x}, w={w}) != 1 for distinct primes")
    d = p1 * p2
    if d != half * half - x * x or d % 4 != 3:
        raise InternalInvariantError(f"discriminant identity failed for d={d}")
    if d > d_budget:
        raise CertificationError(
            "oracle-budget-exceeded", f"d={d} exceeds the oracle budget {d_budget}"
        )
    fac = arith.factorize(d)
    if any(e > 1 for _, e in fac) or [p for p, _ in fac] != sorted((p1, p2)):
        raise CertificationError("d-not-squarefree", f"d={d} is not p1*p2 squarefree")
    symbol_ok = criteria.exact_order_test(p1, p2, w, k)
    if not symbol_ok:
        raise CertificationError(
            "symbol-test-failed", f"(p1={p1}/w={w}) is not -1"
        )
    oracle = forms.class_number(d)
    if oracle.two_part != 1 << k or not oracle.cyclic_2sylow:
        raise OracleMismatchError(
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
    m_values: Iterable[int],
    *,
    d_budget: int = DEFAULT_D_BUDGET,
) -> Iterator[Certificate]:
    """Certificates for every passing pair over the given multipliers.

    Emits in deterministic order: M ascending, then p1 ascending.  Only
    pairs with d <= d_budget are enumerated (`find_pairs`), so the cost
    grows with the certifiable pairs, not with the target n; each one
    still goes through `certify`.  Per-pair rejections are logged and
    skipped; overflow and internal errors propagate.

    The target grows with M, so the 63-bit bound is checked once, at the
    largest M, before anything is built per M; for an increasing range
    that M is read in O(1).
    """
    if isinstance(m_values, range) and m_values.step > 0:
        ms = m_values
    else:
        ms = sorted(set(int(m) for m in m_values))
    if not ms:
        return
    if (target(k, ms[-1]) // 2) ** 2 >= _I63:
        raise ValueError(
            f"derived discriminants overflow the 63-bit bound at k={k}, M={ms[-1]}"
        )
    for m in ms:
        for p1, p2 in find_pairs(k, m, d_budget):
            try:
                yield certify(k, m, p1, p2, d_budget=d_budget)
            except CertificationError as exc:
                log.info(
                    "rejected k=%d M=%d p1=%d p2=%d: %s", k, m, p1, p2, exc.reason
                )


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
    for field in fields(Certificate):
        if getattr(fresh, field.name) != getattr(cert, field.name):
            raise ValueError(f"certificate invariant violated: {field.name}")
