"""Binary quadratic form arithmetic over negative discriminants.

Gauss reduction, composition (Cohen's Algorithm 5.4.7), exhaustive
class-number enumeration, and the 2-Sylow structure summary.  This
module is the unconditional oracle the certificate pipeline checks its
symbol criteria against.  A form a*x**2 + b*x*y + c*y**2 is the tuple
(a, b, c) throughout; `reduce` refuses one that is not positive
definite.  The result types are named tuples, so no `dataclasses` is
loaded.

Enumeration is exhaustive but O(sqrt(d)): every oracle route goes through
one walk, `_blocks`, over the square roots of -d mod 4a, a <= sqrt(d/3),
yielding each a's roots as a block: the parent's roots and one prime
power's roots, left uncombined.  A block is plain when a > 1, 4*a*a < d
and gcd(a, d) = 1.  Each of its roots then gives one b in (-a, a] and
c = (b*b + d)/4a > a: a reduced form, not ambiguous (b = 0 or b = a
would make a divide d, and c > a rules out a = c), and primitive (a prime
dividing a, b and c divides d).  So `class_number` counts a plain block
by the product of its root-list lengths, and expands and checks only the
others.  Most blocks are leaves a = a0*p whose prime p is too large to
have children.  A node a0 coprime to d yields those with p not dividing
d as two runs, spans of the root table (`RootTable`) read off by
bisection: the plain run, which the count takes as two roots per prime,
and the band run, whose a have d <= 4*a*a, so sqrt(d)/2 <= a <=
sqrt(d/3).  A band leaf's b come in pairs +-b, neither 0 nor a (which
would make a divide d), and its forms are primitive as above; a pair
gives two reduced forms when b*b > 4*a*a - d (c > a), one, the
ambiguous (a, |b|, a), when b*b = 4*a*a - d, and none otherwise.  So
the count takes one root t of f mod p, combines each root of the node
with t alone, one b per pair, and compares b*b with that threshold,
building no form.  The table keeps a prime's roots only once the walk
expands the prime into its powers; a run's roots are found when read
and not kept, so the count finds none for a plain run's primes and one
per band prime and node.
`class_number` and `enumerate_reduced` each build one table for their
call, which every walk of that call reads, and no table outlives its
call.  No oracle route keeps a form list: the witness check of a cyclic
verdict consumes the forms as they come, a run one prime at a time, and
stops at its first witness (the certificate's class of order 2**k, if
given).  `class_number` reaches the number of classes of order <= 2 by
three routes: the shape of the reduced forms, genus theory, and the
principal-genus count.  The last is Gauss's principal genus theorem: a
class is a square iff every genus character is +1 on a number its form
represents prime to that character's prime, and |G^2| * |G[2]| = |G|.
A form with gcd(a, d) = 1 has the characters of a, so every form of a
plain block or of a run leaf a*p shares them: the count reads a plain
run by bisection in per-prime lists of character bits, and adds a band
prime's forms when its bits match the node's; only a block whose a
shares a prime q with d evaluates q's character on c, per form.  The
count runs only when genus theory predicts more than two ambiguous
classes, so a certificate's d = p1*p2 builds no character bits.  The
non-cyclic path composes nothing; `compose` stays cross-checked on the
cyclic path, by the witness check and `form_pow`.  d is checked before
any prime is sieved, and only that check raises `bounds.UsageError`; any
other exception is a bug.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import islice
from typing import NamedTuple

from . import arith
from .bounds import MAX_D, UsageError


class ClassGroup2Summary(NamedTuple):
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


def discriminant(f: tuple[int, int, int]) -> int:
    a, b, c = f
    return b * b - 4 * a * c


def principal_form(disc: int) -> tuple[int, int, int]:
    """Identity class of a negative discriminant (0 or 1 mod 4)."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError(f"{disc} is not a negative quadratic discriminant")
    b = disc % 2
    return 1, b, (b - disc) // 4


def _normalize(a: int, b: int, c: int) -> tuple[int, int, int]:
    if -a < b <= a:
        return a, b, c
    r = (a - b) // (2 * a)
    return a, b + 2 * r * a, a * r * r + b * r + c


def reduce(f: tuple[int, int, int]) -> tuple[int, int, int]:
    """The unique reduced representative of the class of f (idempotent).

    Every composed form passes through here, so this is where a form
    that is not positive definite (a <= 0 or b*b - 4ac >= 0) is refused,
    with ValueError.
    """
    a, b, c = f
    if a <= 0 or b * b - 4 * a * c >= 0:
        raise ValueError(f"form {f} is not positive definite")
    a, b, c = _normalize(a, b, c)
    while a > c or (a == c and b < 0):
        s = (c + b) // (2 * c)
        a, b, c = c, -b + 2 * s * c, c * s * s - b * s + a
        a, b, c = _normalize(a, b, c)
    return a, b, c


def compose(f: tuple[int, int, int], g: tuple[int, int, int]) -> tuple[int, int, int]:
    """Gauss composition of classes, returned reduced.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 5.4.7:
    with a1 <= a2, s = (b1 + b2)/2 and n = b2 - s, each of its two
    extended gcds is one gcd and one modular inverse.  pow(x, -1, 1) = 0
    stands in for its branches a1 | a2 and gcd(a1, a2) | s, and a square
    needs no separate path.  Commutative, with the principal form as
    identity and (a, -b, c) as inverse.  f and g need a > 0 and must be
    primitive, with equal discriminants; `reduce` refuses the result if
    that discriminant is not negative.
    """
    if discriminant(f) != discriminant(g):
        raise ValueError(
            f"cannot compose forms of discriminants "
            f"{discriminant(f)} and {discriminant(g)}"
        )
    for q in (f, g):
        if q[0] <= 0 or math.gcd(*q) != 1:
            raise ValueError(f"form {q} has a <= 0 or is imprimitive, and has no class")
    if f[0] > g[0]:
        f, g = g, f
    a1, b1, _ = f
    a2, b2, c2 = g
    s = (b1 + b2) // 2
    n = b2 - s
    d = math.gcd(a1, a2)
    y1 = pow(a2 // d, -1, a1 // d)
    d1 = math.gcd(s, d)
    x2 = pow(s // d1, -1, d // d1)
    y2 = (x2 * s - d1) // d
    v1 = a1 // d1
    v2 = a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    return reduce((v1 * v2, b2 + 2 * v2 * r, (c2 * d1 + r * (b2 + v2 * r)) // v1))


def form_pow(f: tuple[int, int, int], e: int) -> tuple[int, int, int]:
    """e-th power of the class of f, e >= 0, by repeated squaring; f**(2**j)
    costs j compositions (none with the identity, none after the top bit)."""
    if e < 0:
        raise ValueError("form_pow requires e >= 0")
    result = principal_form(discriminant(f))
    base, first = reduce(f), True
    while e:
        if e & 1:
            result = base if first else compose(result, base)
            first = False
        e >>= 1
        if e:
            base = compose(base, base)
    return result


def _crt(a0: int, roots0: list[int], q: int, qroots: list[int]) -> list[int]:
    """Roots mod a0*q from roots mod a0 and mod q, gcd(a0, q) = 1 (q = 1 too)."""
    a = a0 * q
    m = a0 * pow(a0, -1, q)  # 1 mod q, 0 mod a0
    return [(r + m * (s - r)) % a for r in roots0 for s in qroots]


def _check(d: int) -> None:
    """Refuse d unless -d is a negative discriminant, d = 3 or 0 (mod 4),
    and d <= MAX_D; every oracle route calls it before any prime is sieved."""
    if d < 3 or d % 4 not in (0, 3):
        raise UsageError(f"-{d} is not a negative quadratic discriminant")
    if d > MAX_D:
        raise UsageError(f"discriminant bound exceeded: d={d} > {MAX_D}")


class RootTable:
    """Roots of f(t) = t*t + e*t + N modulo the prime powers up to
    top = isqrt(d/3), the largest a of a reduced form, for one d that has
    passed `_check`.

    For d = 0 or 3 (mod 4), e = d mod 2 and N = (d + e)/4, 4*f(t) =
    (2t + e)**2 + d, so a root t mod a gives b = 2t + e with
    b*b = -d (mod 4a), and a*c = f(t).  `primes` lists, increasing, the
    primes p <= top at which f has a root: p = 2 when 2 | d or
    d = 7 (mod 8), and the odd p with (-d/p) != -1, one pow each (Euler's
    criterion), read off `arith.primes_to`.  `dividing` holds the indices
    of the p | d.  Every other entry has exactly two roots mod p, t and
    -e - t, so counting them needs no root.  `root(i)` finds one root
    mod p on each call and keeps nothing: a walk reads a run's primes
    that way, once per node.  `levels(i)` starts from it and gives
    (p**j, the roots of f mod p**j) for p**j <= top; it is computed only
    for the primes a walk expands into blocks, on first use, then kept.
    For odd p not dividing d the roots mod p are (-e +- sqrt(-d))/2 and
    lift by Newton's step, f'(t) = 2t + e being a unit; at p = 2 and at
    odd p | d they lift by search among the r + i*p**(j-1).  Callers must
    not change what they read.
    """

    __slots__ = ("d", "top", "primes", "dividing", "_levels")

    def __init__(self, d: int):
        top = math.isqrt(d // 3)
        primes = arith.primes_to(top)
        odd = islice(primes, 1, bisect_right(primes, top))
        self.d, self.top, self._levels = d, top, {}
        # pow(-d, (p - 1)/2, p) is 1 for a residue and 0 for p | d
        self.primes = ([2] if top >= 2 and d % 8 != 3 else []) + [
            p for p in odd if pow(-d, p >> 1, p) != p - 1]
        self.dividing = [i for i, p in enumerate(self.primes) if d % p == 0]

    def root(self, i: int) -> int:
        """One root t of f mod the i-th prime, found afresh on each call
        and not kept; the other root, if there is one, is -e - t."""
        d, p = self.d, self.primes[i]
        e = d & 1
        if p == 2:  # f = t*t + t + (d + 1)/4 with (d + 1)/4 even, or t*t + d/4
            return 0 if e else (d >> 2) & 1
        # (p + 1)/2 is 1/2 mod p; the square root is 0 when p | d
        return (arith.sqrt_mod_p(-d, p) - e) * ((p + 1) >> 1) % p

    def levels(self, i: int) -> list[tuple[int, list[int]]]:
        levels = self._levels.get(i)
        if levels is not None:
            return levels
        d, top, p = self.d, self.top, self.primes[i]
        e = d & 1
        n = (d + e) >> 2
        newton = p > 2 and d % p
        t = self.root(i)
        roots = [t, (-e - t) % p] if (2 * t + e) % p else [t]
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
        self._levels[i] = levels
        return levels


def _blocks(table: RootTable):
    """The walk behind every oracle route: (plain, a0, roots0, q, qroots).

    a = a0*q comes with the roots of f mod a (`RootTable`), the CRT
    combinations of those mod a0 and mod the prime power q, on a
    depth-first walk over the table's primes; each root gives one b in
    (-a, a].  Only a node with children combines its roots, and is
    yielded with q = 1.  `plain` is the test stated in the module
    docstring.  A child a*p with a*p*p > top is a leaf with one level.
    When gcd(a, d) = 1 the node's such leaves with p not dividing d form
    two runs, each yielded as (plain, a, roots, None, (lo, hi, n)): the
    table's primes lo <= i < hi that do not divide d, n of them, each
    with two roots; the plain run, then the band run past the plain
    bound, which is not plain.  Its other such leaves (p | d, or all of
    them when gcd(a, d) > 1) are not plain and are yielded one by one;
    the smaller p go on the stack.
    """
    d, top, primes, dividing = table.d, table.top, table.primes, table.dividing
    cap = math.isqrt((d - 1) // 4)  # 4*a*a < d iff a <= cap
    last = len(primes)
    # a node also holds the index of the next prime a may take
    stack = [(1, [0], 1, [0], 0)]
    while stack:
        a0, roots0, q, qroots, start = stack.pop()
        a = a0 * q
        if start == last or a * primes[start] > top:
            yield 1 < a <= cap and math.gcd(a, d) == 1, a0, roots0, q, qroots
            continue
        coprime = math.gcd(a, d) == 1
        roots = _crt(a0, roots0, q, qroots)
        yield 1 < a <= cap and coprime, a, roots, 1, [0]
        end = bisect_right(primes, top // a, start)
        lo = bisect_right(primes, math.isqrt(top // a), start)
        if coprime:
            hi = bisect_right(primes, cap // a, lo)
            for plain, i, j in ((True, lo, hi), (False, hi, end)):
                n = j - i - bisect_left(dividing, j) + bisect_left(dividing, i)
                if n:
                    yield plain, a, roots, None, (i, j, n)
            leaves = dividing[bisect_left(dividing, lo):bisect_left(dividing, end)]
        else:
            leaves = range(lo, end)
        for i in leaves:  # p | d, or a shares a prime with d: none plain
            yield False, a, roots, primes[i], table.levels(i)[0][1]
        for i in range(start, lo):
            for q, qroots in table.levels(i):
                if a * q > top:
                    break
                stack.append((a, roots, q, qroots, i + 1))


def _expand(d: int, block: tuple) -> list[tuple[int, int, int]]:
    """The reduced primitive forms of one block of `_blocks` that is not
    a run; only a block that is not plain is checked form by form."""
    plain, a0, roots0, q, qroots = block
    a, e = a0 * q, d & 1
    out = []
    for t in _crt(a0, roots0, q, qroots):
        b = 2 * t + e
        if b > a:
            b -= 2 * a
        c = (b * b + d) // (4 * a)
        if plain or (c > a or c == a and b >= 0) and math.gcd(a, b, c) == 1:
            out.append((a, b, c))
    return out


def _forms(table: RootTable):
    """The reduced primitive forms of discriminant -table.d, unsorted, as
    they come; a run, plain or band, is expanded one prime at a time, its
    roots found only then and not kept."""
    d, e = table.d, table.d & 1
    for block in _blocks(table):
        if block[3] is not None:
            yield from _expand(d, block)
            continue
        plain, a, roots, _, (lo, hi, _) = block
        for i in range(lo, hi):
            p = table.primes[i]
            if d % p:
                t = table.root(i)
                yield from _expand(d, (plain, a, roots, p, [t, (-e - t) % p]))


def enumerate_reduced(d: int) -> list[tuple[int, int, int]]:
    """All primitive reduced forms (a, b, c) of discriminant -d, sorted;
    -d must be a valid discriminant with d <= MAX_D (`_check`)."""
    _check(d)
    return sorted(_forms(RootTable(d)))


def _count(table: RootTable, chars: list = ()) -> tuple[int, int, int]:
    """h, the shape count, the reduced forms that are their own inverse
    (b = 0, b = a or a = c), and the principal-genus count, the forms on
    which every character in `chars` (`_genus_characters`) is +1, all h
    of them when there is none; each plain block and each run is counted
    and not expanded (module docstring)."""
    d, e, primes = table.d, table.d & 1, table.primes
    h = ambiguous = principal = 0
    if chars:
        # a run's leaf a*p lies in the principal genus iff p has the
        # bits of the node a; -1 marks the p | d, which no run holds
        masks = [_bits(chars, p) if d % p else -1 for p in primes]
        runs: dict[int, list[int]] = {}
        for i, mask in enumerate(masks):
            runs.setdefault(mask, []).append(i)
    for block in _blocks(table):
        plain, a, roots0, q, qroots = block
        if q is None:
            lo, hi, n = qroots
            want = _bits(chars, a) if chars else None
            if plain:
                h += 2 * len(roots0) * n
                if chars:
                    run = runs.get(want, ())
                    principal += 2 * len(roots0) * (bisect_left(run, hi) - bisect_left(run, lo))
                continue
            # a band run (module docstring): the root t of p, combined with
            # each root r of the node, gives one b of each pair +-b of a*p
            for i in range(lo, hi):
                p = primes[i]
                if d % p == 0:
                    continue
                ap, t, inverse = a * p, table.root(i), pow(a, -1, p)
                threshold, before = 4 * ap * ap - d, h
                for r in roots0:
                    b = 2 * (r + a * ((t - r) * inverse % p)) + e
                    if b > ap:
                        b = 2 * ap - b
                    b *= b
                    if b > threshold:
                        h += 2
                    elif b == threshold:
                        h += 1
                        ambiguous += 1
                if chars and masks[i] == want:
                    principal += h - before
        elif plain:
            h += len(roots0) * len(qroots)
            if chars and not _bits(chars, a * q):
                principal += len(roots0) * len(qroots)
        else:
            expanded = _expand(d, block)
            h += len(expanded)
            ambiguous += sum(1 for a, b, c in expanded if b == 0 or b == a or a == c)
            if chars:
                a *= q
                shared = [ch for ch in chars if a % ch[0] == 0]
                if not _bits([ch for ch in chars if a % ch[0]], a):
                    # c is prime to each q | a: q | c too would make q | b,
                    # and the form imprimitive
                    principal += sum(1 for _, _, c in expanded if not _bits(shared, c))
    return h, ambiguous, principal if chars else h


# The 2-adic characters as the residues m mod 8 on which each is -1:
# delta = (-1)**((m - 1)/2), epsilon = (-1)**((m*m - 1)/8) and their
# product; indexed by d/4 mod 8, as assigned in Cox, Theorem 3.15.
_DELTA, _EPSILON, _DELTA_EPSILON = frozenset({3, 7}), frozenset({3, 5}), frozenset({5, 7})
_TWO_ADIC = ((_DELTA, _EPSILON), (_DELTA,), (_DELTA_EPSILON,), (),
             (_DELTA,), (_DELTA,), (_EPSILON,), ())


def _genus_characters(d: int, factors: list) -> list[tuple[int, frozenset | None]]:
    """The assigned characters of discriminant -d, fundamental or not,
    from the factorization `factors` of d, as (prime, exponent) pairs
    (Cox, Primes of the Form x^2 + ny^2, Prop. 3.11 and Thm 3.15): (q,
    None) for the Legendre symbol (m/q) of each odd prime q | d, and
    for d = 0 (mod 4), (2, residues) for each
    2-adic one, chosen by n = d/4: delta for n = 1 (mod 4) or 4 (mod 8),
    delta*epsilon for n = 2 (mod 8), epsilon for n = 6 (mod 8), delta and
    epsilon for n = 0 (mod 8), none for n = 3 (mod 4).  There are mu of
    them, and 2**(mu - 1) genera and classes of order <= 2.  A class lies
    in the principal genus, the squares, iff each character is +1 on a
    number its form represents prime to that character's q.
    """
    chars: list = [(q, None) for q, _ in factors if q > 2]
    if d % 4 == 0:
        chars += [(2, residues) for residues in _TWO_ADIC[(d >> 2) % 8]]
    return chars


def _bits(chars: list, m: int) -> int:
    """Bit j set iff chars[j] is -1 on m, which must be prime to its q
    (odd when q = 2); the odd q by Euler's criterion, one pow each."""
    bits = 0
    for j, (q, residues) in enumerate(chars):
        if (m & 7 in residues) if q == 2 else pow(m, q >> 1, q) != 1:
            bits |= 1 << j
    return bits


def class_number(
    d: int, witness: tuple | None = None, factors: list | None = None
) -> ClassGroup2Summary:
    """Class number and 2-Sylow structure of discriminant -d by enumeration.

    h and the shape count come from counting blocks (`_count`).  Three
    routes reach the number of classes of order <= 2, and any
    disagreement raises an internal error.  The shape count decides the
    verdict: cyclic iff it is at most 2.  Genus theory always runs: mu
    characters from one factorization of d (`_genus_characters`) give
    2**(mu - 1).  When that exceeds 2, the same walk also counts the
    forms in the principal genus, which are the squares, and a
    non-cyclic verdict needs that count times the shape count to be h
    (|G^2| * |G[2]| = |G|), with no composition.  A cyclic verdict with
    h even needs a class whose h/2-th power is not principal, and the
    scan stops at the first, so `compose` stays checked there.  A caller
    that knows a generator of the 2-Sylow subgroup passes it as
    `witness`, and a cyclic verdict is checked on it alone.  A caller
    that knows the factorization of d passes it as `factors`, as
    (prime, exponent) pairs whose product must be d, and d is not
    factored again.  A certificate's d = p1*p2
    has 2 genera, so its walk builds no character.
    """
    _check(d)
    if factors is None:
        factors = arith.factorize(d)
    elif math.prod(q**e for q, e in factors) != d:
        raise ValueError(f"factors {factors} do not multiply to d={d}")
    chars = _genus_characters(d, factors)
    genus = 1 << (len(chars) - 1)
    table = RootTable(d)
    h, ambiguous, principal = _count(table, chars if genus > 2 else ())
    two_part = h & -h
    if ambiguous != genus:
        raise ArithmeticError(
            f"ambiguous class count {ambiguous} for d={d} disagrees with "
            f"genus theory ({genus})"
        )
    cyclic = ambiguous <= 2
    if not cyclic:
        if principal * ambiguous != h:
            raise ArithmeticError(
                f"2-Sylow bookkeeping mismatch for d={d}: {principal} classes in the "
                f"principal genus times {ambiguous} ambiguous classes is not h={h}"
            )
    elif two_part > 1:
        # g**(h/2) is non-principal iff the 2-part of g generates a
        # subgroup of order two_part; such g exists iff the 2-Sylow
        # subgroup is cyclic.
        ident = principal_form(-d)
        if all(form_pow(f, h // 2) == ident for f in ([witness] if witness else _forms(table))):
            raise ArithmeticError(f"2-Sylow bookkeeping mismatch for d={d}: ambiguous_count="
                                  f"{ambiguous}, but no {'witness' if witness else 'element'} "
                                  f"of order {two_part}")
    return ClassGroup2Summary(d, h, two_part, cyclic, ambiguous)


def order_2m_form(w: int, x: int, m: int) -> tuple[int, int, int]:
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
    return w, x, w ** (2 * m - 1)
