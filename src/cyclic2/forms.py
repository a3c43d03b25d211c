"""Binary quadratic form arithmetic over negative discriminants.

Gauss reduction, classical composition, exhaustive class-number
enumeration, element orders, and the 2-Sylow structure summary.  This
module is the unconditional oracle the certificate pipeline checks its
symbol criteria against.  Enumeration is exhaustive but O(sqrt(d)): for
each a <= sqrt(d/3) it takes the square roots of -d mod 4a, built from
Tonelli-Shanks roots mod each prime, rather than trying every a for
every b.  Reduced forms are listed as plain (a, b, c) tuples; a `Form`
is built only where one is composed.

`class_number` reaches the number of classes of order <= 2 by three
routes: the shape of the reduced forms, genus theory, and composition
(a square count for a non-cyclic verdict, a witness scan for a cyclic
one), so `compose` stays cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import starmap

from . import arith

# the oracle's stated input bound; nothing in it needs int64 any more, and
# arith.sieve's span budget refuses the primes to sqrt(d/3) once d is
# above about 3 * 2**56
_I63 = 1 << 63


@dataclass(frozen=True)
class Form:
    """Positive definite integral form a*x**2 + b*x*y + c*y**2."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError(f"form must have a > 0, got a={self.a}")
        if self.b * self.b - 4 * self.a * self.c >= 0:
            raise ValueError(
                f"form ({self.a},{self.b},{self.c}) is not positive definite"
            )

    def __str__(self):
        return f"{self.a},{self.b},{self.c}"


@dataclass(frozen=True)
class ClassGroup2Summary:
    """Class number of discriminant -d and the shape of its 2-Sylow part.

    two_part is the largest power of 2 dividing h; ambiguous_count is the
    number of classes of order dividing 2; the 2-Sylow subgroup is cyclic
    exactly when ambiguous_count <= 2.
    """

    d: int
    h: int
    two_part: int
    cyclic_2sylow: bool
    ambiguous_count: int


def discriminant(f: Form) -> int:
    return f.b * f.b - 4 * f.a * f.c


def principal_form(disc: int) -> Form:
    """Identity class of a negative discriminant (0 or 1 mod 4)."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError(f"{disc} is not a negative quadratic discriminant")
    b = disc % 2
    return Form(1, b, (b - disc) // 4)


def _normalize(a: int, b: int, c: int) -> tuple[int, int, int]:
    if -a < b <= a:
        return a, b, c
    r = (a - b) // (2 * a)
    return a, b + 2 * r * a, a * r * r + b * r + c


def reduce(f: Form) -> Form:
    """The unique reduced representative of the class of f (idempotent)."""
    a, b, c = _normalize(f.a, f.b, f.c)
    while a > c or (a == c and b < 0):
        s = (c + b) // (2 * c)
        a, b, c = c, -b + 2 * s * c, c * s * s - b * s + a
        a, b, c = _normalize(a, b, c)
    return Form(a, b, c)


def _solve_congruence(a: int, b: int, m: int) -> tuple[int, int]:
    """Solutions of a*x = b (mod m) as x0 + t*step; gcd(a, m) must divide b."""
    g = math.gcd(a, m)
    if b % g:
        raise ArithmeticError("congruence has no solution")
    step = m // g
    x0 = (b // g) * pow(a // g, -1, step) % step if step > 1 else 0
    return x0, step


def compose(f: Form, g: Form) -> Form:
    """Gauss composition of classes, returned reduced.

    Classical algorithm built on two linear congruences; commutative,
    with the principal form as identity and (a,-b,c) as inverse.
    """
    if discriminant(f) != discriminant(g):
        raise ValueError(
            f"cannot compose forms of discriminants "
            f"{discriminant(f)} and {discriminant(g)}"
        )
    for q in (f, g):
        if math.gcd(math.gcd(q.a, q.b), q.c) != 1:
            raise ValueError(f"form {q} is imprimitive and has no class")
    a1, b1, c1 = f.a, f.b, f.c
    a2, b2, c2 = g.a, g.b, g.c
    s = (b2 + b1) // 2
    h = (b2 - b1) // 2
    w = math.gcd(math.gcd(a1, a2), s)
    t1 = a1 // w
    t2 = a2 // w
    u = s // w
    k0, step = _solve_congruence(t2 * u, h * u + t1 * c1, t1 * t2)
    n0, _ = _solve_congruence(t2 * step, h - t2 * k0, t1)
    k = k0 + step * n0
    ell = (t2 * k - h) // t1
    m = (t2 * u * k - h * u - c1 * t1) // (t1 * t2)
    a3 = t1 * t2
    b3 = w * u - (k * t2 + ell * t1)
    c3 = k * ell - w * m
    return reduce(Form(a3, b3, c3))


def form_pow(f: Form, e: int) -> Form:
    """e-th power of the class of f, e >= 0, by repeated squaring."""
    if e < 0:
        raise ValueError("form_pow requires e >= 0")
    result = principal_form(discriminant(f))
    base = reduce(f)
    while e:
        if e & 1:
            result = compose(result, base)
        base = compose(base, base)
        e >>= 1
    return result


def element_order(f: Form) -> int:
    """Least n >= 1 with f**n principal, by repeated composition."""
    ident = principal_form(discriminant(f))
    g = reduce(f)
    d = -discriminant(f)
    # crude class-number bound; only a safety net against compose bugs
    cap = int(math.isqrt(d) * (math.log(d) + 3)) + 16
    n = 1
    while g != ident:
        g = compose(g, f)
        n += 1
        if n > cap:
            raise ArithmeticError(
                f"order of {f} exceeds the class-number bound {cap}"
            )
    return n


def is_ambiguous(a: int, b: int, c: int) -> bool:
    """Whether the reduced form (a, b, c) is its own inverse (class order <= 2).

    That holds exactly when (a, -b, c) reduces back to (a, b, c), which
    for a reduced form means b = 0, b = a or a = c.
    """
    return b == 0 or b == a or a == c


def enumerate_reduced(d: int) -> list[tuple[int, int, int]]:
    """All primitive reduced forms of discriminant -d, as (a, b, c) sorted.

    -d must be a valid discriminant, i.e. d = 3 (mod 4) or d = 0 (mod 4).
    Imprimitive forms do not belong to the class group and are skipped.
    A reduced form has a <= sqrt(d/3), and b = 2t + e (e = d mod 2) with
    a*c = f(t) = t*t + e*t + (d + e)/4.  So each a comes with the roots
    of f mod a, combined by CRT from the roots modulo its prime powers
    (`arith.roots_mod_prime_powers`) on a depth-first walk over the
    primes up to sqrt(d/3); each root gives one b in (-a, a].  The work
    is O(sqrt(d)) up to logarithmic factors.
    """
    if d < 3 or d % 4 not in (0, 3):
        raise ValueError(f"-{d} is not a negative quadratic discriminant")
    if d >= _I63:
        raise ValueError(f"discriminant bound exceeded: d={d} >= 2**63")
    e = d & 1
    top = math.isqrt(d // 3)
    table = arith.roots_mod_prime_powers(d, top)
    # depth-first over the primes: a node (a, roots of f mod a, index of
    # the next prime a may take) is extended by each power of a later prime
    rows = []  # per a, its forms sorted by b; rows sort by their first form
    stack = [(1, [0], 0)]
    while stack:
        a, roots, start = stack.pop()
        two_a, four_a = 2 * a, 4 * a
        row = []
        for b in sorted((2 * t + e + a - 1) % two_a - a + 1 for t in roots):
            c = (b * b + d) // four_a
            if (c > a or c == a and b >= 0) and math.gcd(a, b, c) == 1:
                row.append((a, b, c))
        if row:
            rows.append(row)
        for i in range(start, len(table)):
            p, levels = table[i]
            if a * p > top:
                break
            for q, qroots in levels:
                aq = a * q
                if aq > top:
                    break
                inv = pow(a, -1, q)
                combined = [r + a * ((s - r) * inv % q) for r in roots for s in qroots]
                stack.append((aq, combined, i + 1))
    rows.sort()
    return [f for row in rows for f in row]


def _genus_ambiguous_count(d: int) -> int:
    """Classes of order <= 2 of discriminant -d by genus theory: 2**(mu - 1).

    With r the number of odd primes dividing d, mu is r for d = 3 (mod 4)
    or d/4 = 3 (mod 4), r + 2 for d/4 = 0 (mod 8), and r + 1 otherwise;
    fundamental or not (Cox, Primes of the Form x^2 + ny^2, Prop. 3.11).
    """
    mu = sum(1 for p, _ in arith.factorize(d) if p > 2)
    if d % 4 == 0:
        n = d // 4
        if n % 8 == 0:
            mu += 2
        elif n % 4 != 3:
            mu += 1
    return 1 << (mu - 1)


def class_number(
    d: int, group: list[tuple[int, int, int]] | None = None
) -> ClassGroup2Summary:
    """Class number and 2-Sylow structure of discriminant -d by enumeration.

    Three routes reach the number of classes of order <= 2, and any
    disagreement raises an internal error.  The shape count decides the
    verdict: cyclic iff it is at most 2.  Genus theory always runs.
    Composition runs one of two checks: a non-cyclic count must equal h
    over the number of distinct squares (|G^2| * |G[2]| = |G|, h
    compositions); a cyclic verdict with h even needs a class whose h/2-th
    power is not principal (a scan that stops at the first such witness).
    A caller that already holds `enumerate_reduced(d)` passes it as
    `group`, which is then not enumerated again.
    """
    if group is None:
        group = enumerate_reduced(d)
    h = len(group)
    two_part = h & -h
    ambiguous = sum(starmap(is_ambiguous, group))
    genus = _genus_ambiguous_count(d)
    if ambiguous != genus:
        raise ArithmeticError(
            f"ambiguous class count {ambiguous} for d={d} disagrees with "
            f"genus theory ({genus})"
        )
    cyclic = ambiguous <= 2
    if not cyclic:
        squares = len({compose(f, f) for f in starmap(Form, group)})
        if squares * ambiguous != h:
            raise ArithmeticError(
                f"2-Sylow bookkeeping mismatch for d={d}: {squares} squares "
                f"times {ambiguous} ambiguous classes is not h={h}"
            )
    elif two_part > 1:
        # g**(h/2) is non-principal iff the 2-part of g generates a
        # subgroup of order two_part; such g exists iff the 2-Sylow
        # subgroup is cyclic.
        ident = principal_form(-d)
        if not any(form_pow(f, h // 2) != ident for f in starmap(Form, group)):
            raise ArithmeticError(
                f"2-Sylow bookkeeping mismatch for d={d}: "
                f"ambiguous_count={ambiguous}, but no element of order {two_part}"
            )
    return ClassGroup2Summary(
        d=d,
        h=h,
        two_part=two_part,
        cyclic_2sylow=cyclic,
        ambiguous_count=ambiguous,
    )


def order_2m_form(w: int, x: int, m: int) -> Form:
    """The form (w, x, w**(2m-1)), whose class has order divisible by 2m.

    Requires w even and positive, 0 < x <= 2*w**m - 2, and gcd(x, w) = 1;
    the discriminant is then -(4*w**(2m) - x**2) < 0.  For squarefree
    discriminants arising from a prime pair the order is exactly 2m.
    """
    if m < 1:
        raise ValueError("hypothesis failed: m must be a positive integer")
    if w < 2 or w % 2:
        raise ValueError("hypothesis failed: w must be a positive even integer")
    if x < 1 or x > 2 * w**m - 2:
        raise ValueError(
            f"hypothesis failed: x must satisfy 0 < x <= 2*w**m - 2 = {2 * w**m - 2}"
        )
    if math.gcd(x, w) != 1:
        raise ValueError("hypothesis failed: x and w must be coprime")
    return Form(w, x, w ** (2 * m - 1))
