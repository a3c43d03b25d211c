"""Slow reference routes of the class-group oracle, for tests only.

`reference_enumerate` is the plain double loop over b and every
candidate a, O(d) work, that `forms.enumerate_reduced` replaced with
its O(sqrt(d)) walk over the square roots of -d mod 4a; it shares no
code with the oracle.  `reference_witness_cyclic` is the full witness
scan that `forms.class_number` ran on every d before it checked a
non-cyclic verdict by counting squares; it costs about h*log2(h)
compositions when no witness exists.  `is_ambiguous` is the per-form
test that `forms.class_number` counts inline.  `reference_compose` is
the classical composition by two linear congruences that
`forms.compose` ran before Cohen's Algorithm 5.4.7 replaced it; it
shares only `forms.reduce` with the oracle.  `reference_count` is the
block count `forms._count` ran before plain leaves were counted as runs:
it builds the roots of every prime power up to sqrt(d/3) up front and
counts each plain leaf on its own; it shares only `arith.sieve` and
`arith.sqrt_mod_p` with the oracle.  `square_count` is the number of
distinct squares, by one composition per class, with which
`forms.class_number` checked a non-cyclic verdict before it counted the
principal genus in its walk; it holds the h/ambiguous squares at once.
`element_order` finds the order of a class by repeated composition; no
command needs more than the k compositions of a certificate's witness
check.
"""

import math

from cyclic2 import arith, forms


def reference_enumerate(d: int) -> list[tuple[int, int, int]]:
    """All primitive reduced forms (a, b, c) of discriminant -d, sorted."""
    out = []
    b = d & 1
    while 3 * b * b <= d:
        m = (b * b + d) // 4
        for a in range(max(b, 1), math.isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            out.append((a, b, c))
            if b and b != a and a != c:
                out.append((a, -b, c))
        b += 2
    out.sort()
    return out


def is_ambiguous(a: int, b: int, c: int) -> bool:
    """Whether the reduced form (a, b, c) is its own inverse (class order <= 2).

    That holds exactly when (a, -b, c) reduces back to (a, b, c), which
    for a reduced form means b = 0, b = a or a = c.
    """
    return b == 0 or b == a or a == c


def reference_witness_cyclic(group: list[tuple[int, int, int]], h: int) -> bool:
    """Whether the 2-Sylow subgroup of the class group `group` of order h
    is cyclic: some g has a non-principal g**(h/2), or h is odd."""
    if h % 2:
        return True
    a, b, c = group[0]
    ident = forms.principal_form(b * b - 4 * a * c)
    return any(forms.form_pow(f, h // 2) != ident for f in group)


def square_count(d: int) -> int:
    """|G**2| of the class group of discriminant -d: its distinct squares."""
    return len({forms.compose(f, f) for f in forms.enumerate_reduced(d)})


def element_order(f: tuple[int, int, int]) -> int:
    """Least n >= 1 with f**n principal, by repeated composition."""
    ident = forms.principal_form(forms.discriminant(f))
    g = forms.reduce(f)
    d = -forms.discriminant(f)
    # crude class-number bound; only a safety net against compose bugs
    cap = int(math.isqrt(d) * (math.log(d) + 3)) + 16
    n = 1
    while g != ident:
        g = forms.compose(g, f)
        n += 1
        if n > cap:
            raise ArithmeticError(f"order of {f} exceeds the class-number bound {cap}")
    return n


def _solve_congruence(a: int, b: int, m: int) -> tuple[int, int]:
    """Solutions of a*x = b (mod m) as x0 + t*step; gcd(a, m) must divide b."""
    g = math.gcd(a, m)
    if b % g:
        raise ArithmeticError("congruence has no solution")
    step = m // g
    x0 = (b // g) * pow(a // g, -1, step) % step if step > 1 else 0
    return x0, step


def reference_compose(f: tuple[int, int, int], g: tuple[int, int, int]) -> tuple[int, int, int]:
    """Gauss composition of two primitive forms of one negative discriminant
    and a > 0, reduced, by two linear congruences modulo a1*a2/w**2."""
    a1, b1, c1 = f
    a2, b2, _ = g
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
    return forms.reduce((t1 * t2, w * u - (k * t2 + ell * t1), k * ell - w * m))


def _roots_mod_prime_powers(d: int, top: int) -> list[tuple[int, list[tuple[int, list[int]]]]]:
    """For each prime p <= top at which t*t + e*t + (d + e)/4 has a root,
    (p, [(p**j, its roots mod p**j) for p**j <= top])."""
    e = d & 1
    n = (d + e) >> 2
    out = []
    for p in arith.sieve(2, top).primes() if top >= 2 else []:
        newton = p > 2 and d % p
        if newton:
            s = arith.sqrt_mod_p(-d, p)
            if s is None:
                continue
            t = (s - e) * ((p + 1) >> 1) % p
            roots = [t, (-e - t) % p]
        elif p == 2:
            roots = [t for t in (0, 1) if (t * t + e * t + n) % 2 == 0]
        else:
            roots = [-e * ((p + 1) >> 1) % p]
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


def _crt(a0, roots0, q, qroots):
    m = a0 * pow(a0, -1, q)
    return [(r + m * (s - r)) % (a0 * q) for r in roots0 for s in qroots]


def reference_count(d: int) -> tuple[int, int]:
    """h and the number of reduced forms that are their own inverse, for a
    valid d: a depth-first walk over a = a0*q, q a prime power, whose
    plain leaves (a > 1, 4*a*a < d, gcd(a, d) = 1) count their roots and
    whose other blocks are expanded and checked form by form."""
    top = math.isqrt(d // 3)
    table = _roots_mod_prime_powers(d, top)
    last, e = len(table), d & 1
    h = ambiguous = 0
    stack = [(1, [0], 1, [0], 0)]
    while stack:
        a0, roots0, q, qroots, start = stack.pop()
        a = a0 * q
        plain = a > 1 and 4 * a * a < d and math.gcd(a, d) == 1
        leaf = start == last or a * table[start][0] > top
        if leaf and plain:
            h += len(roots0) * len(qroots)
            continue
        roots = _crt(a0, roots0, q, qroots)
        for t in roots:
            b = 2 * t + e
            if b > a:
                b -= 2 * a
            c = (b * b + d) // (4 * a)
            if plain or (c > a or c == a and b >= 0) and math.gcd(a, b, c) == 1:
                h += 1
                ambiguous += b == 0 or b == a or a == c
        if leaf:
            continue
        for i in range(start, last):
            p, levels = table[i]
            if a * p > top:
                break
            for q, qroots in levels:
                if a * q > top:
                    break
                stack.append((a, roots, q, qroots, i + 1))
    return h, ambiguous
