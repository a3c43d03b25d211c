"""Tests for form reduction, composition, and the class-group oracle."""

import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_forms import (
    element_order,
    is_ambiguous,
    reference_compose,
    reference_count,
    reference_enumerate,
    reference_witness_cyclic,
    square_count,
)

from cyclic2 import arith, factory, forms


def valid_discriminants(limit, start=3):
    return [d for d in range(start, limit + 1) if d % 4 in (0, 3)]


def is_reduced(f) -> bool:
    """-a < b <= a <= c, with b >= 0 when a == c."""
    a, b, c = f
    return -a < b <= a <= c and (b >= 0 or a != c)


def transform(f, m11, m12, m21, m22):
    """Act on f = (a, b, c) by an SL2(Z) matrix; preserves the class."""
    assert m11 * m22 - m12 * m21 == 1
    fa, fb, fc = f
    a = fa * m11 * m11 + fb * m11 * m21 + fc * m21 * m21
    b = 2 * fa * m11 * m12 + fb * (m11 * m22 + m12 * m21) + 2 * fc * m21 * m22
    c = fa * m12 * m12 + fb * m12 * m22 + fc * m22 * m22
    return a, b, c


# ----------------------------------------------------------- basic shapes


def test_discriminant_examples():
    assert forms.discriminant((1, 1, 4)) == -15
    assert forms.discriminant((2, 1, 5)) == -39
    assert forms.discriminant((2, 5, 8)) == -39


def test_form_validation():
    # reduce, which every composed form passes through, refuses these
    with pytest.raises(ValueError, match="positive definite"):
        forms.reduce((0, 1, 4))
    with pytest.raises(ValueError, match="positive definite"):
        forms.reduce((-2, 1, 5))
    with pytest.raises(ValueError, match="positive definite"):
        forms.reduce((1, 5, 2))  # discriminant 17 > 0


def test_principal_form():
    assert forms.principal_form(-15) == (1, 1, 4)
    assert forms.principal_form(-4) == (1, 0, 1)
    with pytest.raises(ValueError):
        forms.principal_form(-5)
    with pytest.raises(ValueError):
        forms.principal_form(4)


# -------------------------------------------------------------- reduction


def test_reduce_examples():
    assert forms.reduce((1, 1, 4)) == (1, 1, 4)
    assert forms.reduce((2, 5, 8)) == (2, 1, 5)
    # (4,3,1) has discriminant -7; its reduction is the principal form
    assert forms.reduce((4, 3, 1)) == (1, 1, 2)


def test_reduce_idempotent_and_reduced():
    rng = random.Random(5)
    for _ in range(300):
        a = rng.randrange(1, 40)
        b = rng.randrange(-40, 41)
        c = rng.randrange(1, 40)
        if b * b - 4 * a * c >= 0:
            continue
        r = forms.reduce((a, b, c))
        assert is_reduced(r)
        assert forms.reduce(r) == r
        assert forms.discriminant(r) == b * b - 4 * a * c


def test_reduce_recovers_class_along_orbits():
    rng = random.Random(9)
    for d in rng.sample(valid_discriminants(400), 30):
        for f in forms.enumerate_reduced(d):
            g = f
            for _ in range(6):
                k = rng.randrange(-3, 4)
                g = transform(g, 1, k, 0, 1)
                if rng.random() < 0.5:
                    g = transform(g, 0, -1, 1, 0)
                if max(map(abs, g)) > 200:
                    break
                assert forms.reduce(g) == f, (d, f, g)


def test_reduce_canonical_within_small_orbits():
    # brute-force orbit search: equivalent small forms reduce identically
    small = []
    for a in range(1, 16):
        for b in range(-15, 16):
            for c in range(1, 16):
                if b * b - 4 * a * c < 0:
                    small.append((a, b, c))
    by_class = {}
    for f in small:
        by_class.setdefault((forms.discriminant(f), forms.reduce(f)), []).append(f)
    # within one discriminant, two forms reduce to the same reduced form
    # iff some unimodular change of variables links them; spot-check via
    # exhaustive matrices with small entries
    mats = [
        (m11, m12, m21, m22)
        for m11 in range(-4, 5)
        for m12 in range(-4, 5)
        for m21 in range(-4, 5)
        for m22 in range(-4, 5)
        if m11 * m22 - m12 * m21 == 1
    ]
    rng = random.Random(2)
    for (_, reduced), members in rng.sample(list(by_class.items()), 40):
        f = rng.choice(members)
        images = {transform(f, *m) for m in mats}
        assert any(forms.reduce(g) == reduced for g in images)
        for g in rng.sample(sorted(images), min(6, len(images))):
            assert forms.reduce(g) == reduced


# ------------------------------------------------------------ composition


def test_compose_identity_and_inverse():
    e = forms.principal_form(-39)
    g = (2, 1, 5)
    assert forms.compose(e, g) == g
    assert forms.compose(g, (2, -1, 5)) == (1, 1, 10)
    assert forms.compose(g, g) == (3, 3, 4)
    assert element_order((3, 3, 4)) == 2


def test_compose_discriminant_mismatch():
    with pytest.raises(ValueError, match="discriminants -15 and -39"):
        forms.compose((1, 1, 4), (2, 1, 5))


def test_compose_refuses_forms_without_a_class():
    # (2, 2, 4) has discriminant -28, as (1, 0, 7) has, but content 2
    with pytest.raises(ValueError, match="imprimitive"):
        forms.compose((2, 2, 4), (1, 0, 7))
    with pytest.raises(ValueError, match="imprimitive"):
        forms.compose((1, 0, 7), (2, 2, 4))
    # a <= 0: Alg. 5.4.7 takes its inverses modulo a1/d and d/d1, which
    # needs a > 0; two negative definite forms would otherwise compose
    # to a positive definite one
    with pytest.raises(ValueError, match="a <= 0"):
        forms.compose((-1, 1, -4), (-1, 1, -4))
    with pytest.raises(ValueError, match="a <= 0"):
        forms.compose((0, 1, 4), (0, 1, 4))
    # a > 0 but indefinite: refused by the reduce of the result
    with pytest.raises(ValueError, match="positive definite"):
        forms.compose((1, 5, 2), (1, 5, 2))


def test_group_laws_small_discriminants():
    rng = random.Random(17)
    for d in valid_discriminants(1000):
        group = forms.enumerate_reduced(d)
        ident = forms.principal_form(-d)
        assert ident in group
        for a, b, c in group:
            assert forms.compose(ident, (a, b, c)) == (a, b, c)
            assert forms.compose((a, b, c), (a, -b, c)) == ident
        for f in group:
            for g in group:
                fg = forms.compose(f, g)
                assert fg in group
                assert fg == forms.compose(g, f)
        for _ in range(20):
            f, g, h = (rng.choice(group) for _ in range(3))
            assert forms.compose(forms.compose(f, g), h) == forms.compose(
                f, forms.compose(g, h)
            )


def prime_forms(d, count):
    """Up to `count` forms (p, b, c) of discriminant -d with p an odd prime
    not dividing d, found by brute force; they generate the class group."""
    out = []
    for p in range(3, 2000, 2):
        if d % p == 0 or any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
            continue
        for b in range(d & 1, 2 * p, 2):
            if (b * b + d) % (4 * p) == 0:
                out.append((p, b, (b * b + d) // (4 * p)))
                break
        if len(out) == count:
            break
    return out


def random_class(rng, gens):
    """A reduced form: the product of a few generators or their inverses,
    taken by the reference composition only."""
    a, b, c = rng.choice(gens)
    f = forms.reduce((a, b, c))
    for _ in range(rng.randrange(6)):
        a, b, c = rng.choice(gens)
        f = reference_compose(f, (a, rng.choice((b, -b)), c))
    return f


def random_sl2(rng):
    m12, m21 = rng.randrange(-9, 10), rng.randrange(-9, 10)
    return rng.choice(((1, m12, 0, 1), (1, 0, m21, 1), (1 + m12 * m21, m12, m21, 1)))


# d from 3 to the k = 6 certificate's 2,250,562,845,943: d = 0 (mod 4)
# with d/4 = 0 (mod 8) and 2 (mod 4), square factors, many small primes
COMPOSE_DS = [3, 4, 39, 56, 252, 3360, 11 * 11 * 3 * 5, 255_255, 999_999_999,
              4 * 123_456_789, 10**12 + 3, 2_250_562_845_943]


@pytest.mark.parametrize("d", COMPOSE_DS)
def test_compose_matches_reference(d):
    # random pairs in either order of a1, a2, squares, and the same pairs
    # moved off their reduced representatives by SL2(Z)
    rng = random.Random(d)
    gens = prime_forms(d, 8)
    for _ in range(400):
        f, g = random_class(rng, gens), random_class(rng, gens)
        assert forms.compose(f, g) == reference_compose(f, g), (f, g)
        assert forms.compose(f, f) == reference_compose(f, f), f
        f, g = transform(f, *random_sl2(rng)), transform(g, *random_sl2(rng))
        assert forms.compose(f, g) == reference_compose(f, g), (f, g)
        assert forms.compose(g, g) == reference_compose(g, g), g


def test_compose_matches_reference_on_order_2m_forms():
    # the unreduced (w, x, w**(2m - 1)) that certificates compose, squared,
    # with its inverse, and with a moved copy; the last is the k = 6 form
    rng = random.Random(29)
    cases = []
    for _ in range(600):
        w, m = 2 * rng.randrange(1, 40), rng.randrange(1, 5)
        x = rng.randrange(1, 2 * w**m - 1)
        if math.gcd(x, w) == 1:
            cases.append((w, x, m))
    cases.append((2, 8_589_934_461, 32))
    for w, x, m in cases:
        f = (w, x, w ** (2 * m - 1))
        g = transform(f, *random_sl2(rng))
        for pair in ((f, f), (f, (w, -x, f[2])), (f, g), (g, f), (f, forms.reduce(f))):
            assert forms.compose(*pair) == reference_compose(*pair), pair


# ----------------------------------------------------------- class number


def test_class_number_examples():
    s = forms.class_number(15)
    assert (s.h, s.two_part, s.cyclic_2sylow) == (2, 2, True)
    s = forms.class_number(39)
    assert (s.h, s.two_part, s.cyclic_2sylow) == (4, 4, True)
    s = forms.class_number(3)
    assert (s.h, s.two_part) == (1, 1)
    assert forms.class_number(4).h == 1
    assert forms.class_number(20).h == 2
    assert forms.class_number(23).h == 3
    assert forms.class_number(47).h == 5


def test_class_number_invariants():
    for d in valid_discriminants(600):
        s = forms.class_number(d)
        assert s.h % s.two_part == 0
        assert s.two_part & (s.two_part - 1) == 0
        assert s.ambiguous_count & (s.ambiguous_count - 1) == 0
        assert s.cyclic_2sylow == (s.ambiguous_count <= 2)
        assert s.h == len(forms.enumerate_reduced(d))


def test_class_number_takes_a_witness():
    # (2, 1, 5) generates the cyclic group of -39; the principal form is
    # no witness, and a caller that passes it gets an internal error
    assert forms.class_number(39, witness=(2, 1, 5)) == forms.class_number(39)
    with pytest.raises(ArithmeticError, match="no witness of order 4"):
        forms.class_number(39, witness=(1, 1, 10))
    # d = 3*5*7*11 has 8 ambiguous classes: the non-cyclic verdict is
    # checked by the principal-genus count, which needs no witness
    assert forms.class_number(1155, witness=(1, 1, 289)) == forms.class_number(1155)


def test_class_number_takes_the_factorization(monkeypatch):
    # a caller that knows the primes of d passes them, and d is not
    # factored again
    calls = []
    factorize = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda n: calls.append(n) or factorize(n))
    for d in (39, 1155, 4 * 1155, 8 * 9 * 35):
        factors = factorize(d)
        assert forms.class_number(d, factors=factors) == forms.class_number(d), d
        assert calls == [d], d
        calls.clear()


def test_cyclic_scan_stops_at_the_first_witness(monkeypatch):
    # d = 72501899 is cyclic with h = 2900; half the classes are
    # witnesses, so the scan, which consumes the forms as they come,
    # expands far fewer than h/2 of them (counting and scan together)
    expanded = []
    real = forms._expand

    def counted(d, block):
        out = real(d, block)
        expanded.append(len(out))
        return out

    monkeypatch.setattr(forms, "_expand", counted)
    s = forms.class_number(72501899)
    assert (s.h, s.cyclic_2sylow) == (2900, True)
    assert sum(expanded) < s.h // 2


def test_class_number_validation():
    for d in (0, -15, 1, 2, 5, 6):
        with pytest.raises(ValueError):
            forms.class_number(d)
    with pytest.raises(ValueError):
        forms.class_number(2**63 + 3)


def test_enumerate_bound_checked_before_any_sieve(monkeypatch):
    # MAX_D = 3e12 is divisible by 4 and so a discriminant; one above it,
    # 3e12 + 3 = 3 (mod 4), is refused before the primes are sieved
    assert forms.MAX_D % 4 == 0
    assert forms.MAX_D >= 2_250_562_845_943  # the k = 6 certificate

    def no_sieve(lo, hi):
        raise AssertionError("sieved past the oracle bound")

    monkeypatch.setattr(arith, "sieve", no_sieve)
    for d in (forms.MAX_D + 3, forms.MAX_D + 4, 3 * 2**56 + 15):
        with pytest.raises(ValueError, match="bound"):
            forms.enumerate_reduced(d)
        with pytest.raises(ValueError, match="bound"):
            forms.class_number(d)


def genus_count(d):
    """2**(mu - 1), mu the number of characters of -d."""
    return 1 << (len(forms._genus_characters(d, arith.factorize(d))) - 1)


def genus_case(d):
    """Which of the genus-theory rules for mu applies to d."""
    if d % 4 == 3:
        return "d=3(4)"
    n = d // 4
    if n % 4 == 3:
        return "d/4=3(4)"
    if n % 8 == 0:
        return "d/4=0(8)"
    return "d/4=4(8)" if n % 8 == 4 else "d/4=1,2(4)"


def test_genus_count_law():
    # squarefree d = 3 mod 4: ambiguous classes number 2**(t-1) where t
    # counts the prime divisors of d
    for d in range(3, 10_001, 4):
        fac = arith.factorize(d)
        if any(e > 1 for _, e in fac):
            continue
        assert genus_count(d) == 1 << (len(fac) - 1), d
    # every valid d, fundamental or not: genus theory against the shape
    # count of the enumerated forms and against class_number
    cases = set()
    for d in valid_discriminants(10_000):
        shape = sum(is_ambiguous(*t) for t in forms.enumerate_reduced(d))
        assert genus_count(d) == shape, d
        assert forms.class_number(d).ambiguous_count == shape, d
        odd_part = d >> ((d & -d).bit_length() - 1)
        cases.add((genus_case(d), all(e == 1 for _, e in arith.factorize(odd_part))))
    assert cases == {(case, sf) for case in ("d=3(4)", "d/4=3(4)", "d/4=1,2(4)",
                                             "d/4=4(8)", "d/4=0(8)")
                     for sf in (True, False)}


def test_genus_count_large_d_divisible_by_32():
    # d/4 = 0 (mod 8), mu = r + 2: class_number checks all three routes
    rng = random.Random(32)
    for _ in range(4):
        d = 32 * rng.randrange(10**6 // 32, 10**9 // 32)
        s = forms.class_number(d)
        assert s.ambiguous_count == genus_count(d) >= 2, d
        assert s.h % s.ambiguous_count == 0, d


def test_class_number_rejects_disagreeing_genus(monkeypatch):
    # four characters for d = 39, which has two: genus theory says 8
    real = forms._genus_characters
    monkeypatch.setattr(forms, "_genus_characters", lambda d, factors: real(d, factors) * 2)
    with pytest.raises(ArithmeticError, match="genus"):
        forms.class_number(39)


# ------------------------------------- differential: reference enumerator


def compose_ambiguous_count(d, group):
    ident = forms.principal_form(-d)
    return sum(forms.compose(f, f) == ident for f in group)


def sampled_discriminants():
    """Seeded d up to 1e8: both residues mod 4, and some with >= 4 primes."""
    rng = random.Random(1211)
    out = []
    for residue in (0, 3):
        for _ in range(10):
            d = int(10 ** rng.uniform(4.3, 8))
            out.append(d - d % 4 + residue)
    while len(out) < 26:
        d = rng.randrange(10**6, 10**8) | 3
        if len(arith.factorize(d)) >= 4:
            out.append(d)
    return out


@pytest.mark.parametrize(
    "ds, witness_scan",
    [(valid_discriminants(20_000), True), (sampled_discriminants(), False)],
    ids=["all-d-to-20000", "sampled-d-to-1e8"],
)
def test_enumerate_matches_reference(ds, witness_scan):
    # the full witness scan costs h*log2(h) compositions on a non-cyclic
    # d, so it runs on the small sweep only
    for d in ds:
        group = forms.enumerate_reduced(d)
        assert group == reference_enumerate(d), d
        shape = sum(is_ambiguous(*t) for t in group)
        assert shape == compose_ambiguous_count(d, group), d
        assert forms._count(forms.RootTable(d))[:2] == (len(group), shape), d
        if witness_scan:
            verdict = forms.class_number(d).cyclic_2sylow
            assert verdict == reference_witness_cyclic(group, len(group)), d


def is_fundamental(d):
    """-d is a fundamental discriminant."""
    if d % 4 == 3:
        return all(e == 1 for _, e in arith.factorize(d))
    return d % 16 in (4, 8) and all(e == 1 for _, e in arith.factorize(d // 4))


def test_enumerate_non_fundamental_matches_reference():
    # d = f**2 * d0: roots mod 2**j and mod p**j with p**2 | d are found
    # by lifting with a search, not by Newton's step
    fundamental = [d0 for d0 in valid_discriminants(120) if is_fundamental(d0)]
    assert {d0 % 4 for d0 in fundamental} == {0, 3}
    cases = 0
    for f in (2, 3, 4, 8, 9, 16, 25, 27, 32, 49, 64):
        for d0 in fundamental:
            d = f * f * d0
            if d >= 10**6:
                continue
            group = forms.enumerate_reduced(d)
            assert group == reference_enumerate(d), d
            assert forms.class_number(d).h == len(group), d
            cases += 1
    assert cases > 200


def assert_oracle_matches_reference(d):
    group = reference_enumerate(d)
    assert forms.enumerate_reduced(d) == group, d
    s = forms.class_number(d)
    assert s.h == len(group), d
    assert s.ambiguous_count == sum(is_ambiguous(*f) for f in group), d
    assert s.cyclic_2sylow == reference_witness_cyclic(group, len(group)), d


@pytest.mark.parametrize("d0", [3, 4, 7, 8])
def test_enumerate_square_prime_factor_matches_reference(d0):
    # p*p | d is what lets a reduced form be imprimitive, so only these d
    # filter by gcd; at d0 = 3 the top a = isqrt(d/3) is p itself, and
    # (p, p, p) is the imprimitive form there
    for p in (2, 3, 5, 7, 11, 101, 331, 997):
        assert_oracle_matches_reference(p * p * d0)
    assert (997, 997, 997) not in forms.enumerate_reduced(3 * 997 * 997)


def test_enumerate_d_divisible_by_4_matches_reference():
    # d = 4m with m = 1, 2, 3 (mod 4), so 16 does not divide d, and d = 16m
    rng = random.Random(4)
    ms = [rng.randrange(10**4, 10**6) for _ in range(40)]
    ds = [4 * m for m in ms if m % 4] + [16 * m for m in ms[:12]]
    assert {4 * m % 16 for m in ms if m % 4} == {4, 8, 12}
    for d in ds:
        assert_oracle_matches_reference(d)


def counting_discriminants():
    """Seeded d up to 1e9: d = 0 (mod 4), and d = p*p*d0, where the
    imprimitive forms have to be filtered (every d <= 20,000 is covered
    by test_enumerate_matches_reference)."""
    rng = random.Random(16)
    ds = [4 * rng.randrange(10**6, 25 * 10**7) for _ in range(10)]
    for p in (2, 3, 5, 7, 13, 101, 997):
        for _ in range(2):
            d0 = rng.randrange(10**9 // (p * p) // 2, 10**9 // (p * p))
            ds.append(p * p * (d0 - d0 % 4 + rng.choice((0, 3))))
    return ds


def assert_count_matches_enumeration(d):
    group = forms.enumerate_reduced(d)
    shape = sum(is_ambiguous(*f) for f in group)
    assert forms._count(forms.RootTable(d))[:2] == reference_count(d) == (len(group), shape), d
    return group


def test_count_matches_enumeration():
    # the count route counts plain blocks and runs without expanding them;
    # it must give the enumerated h and shape count, and the reference's
    for d in counting_discriminants():
        assert_count_matches_enumeration(d)


def test_count_matches_enumeration_at_k6():
    # the d of the k = 6 certificate, h = 570,304
    d = 2_250_562_845_943
    group = assert_count_matches_enumeration(d)
    assert (len(group), sum(is_ambiguous(*f) for f in group)) == (570_304, 2)


def log_uniform_discriminants():
    """300 seeded d in [1e6, 1e10), log-uniform, both residues mod 4."""
    rng = random.Random(1010)
    ds = [int(10 ** rng.uniform(6, 10)) for _ in range(300)]
    return [d - d % 4 + rng.choice((0, 3)) for d in ds]


def test_count_matches_reference_count():
    # the reference walk counts each plain leaf on its own from a table of
    # every root; the oracle counts runs of them and finds fewer roots
    for d in log_uniform_discriminants():
        assert forms._count(forms.RootTable(d))[:2] == reference_count(d), d


def genus_discriminants():
    """One seeded d = 4n for each class of n mod 8, each with at least 4
    genera, and the non-squarefree 315 = 9*5*7 and 1260 = 4*9*5*7, with
    4 ambiguous classes each (n = 315 = 3 (mod 4): no 2-adic character)."""
    rng = random.Random(8)
    ds = [315, 1260]
    for r in range(8):
        d = 4
        while d % 32 != 4 * r or genus_count(d) < 4:
            d = 4 * rng.randrange(10**5, 10**7)
        ds.append(d)
    return ds


def test_principal_genus_count_matches_square_count():
    # the walk counts the forms on which every character is +1: by Gauss's
    # principal genus theorem, the squares, which the reference counts by
    # composing every class with itself
    assert [genus_count(d) for d in genus_discriminants()[:2]] == [4, 4]
    for d in counting_discriminants() + genus_discriminants():
        chars = forms._genus_characters(d, arith.factorize(d))
        h, ambiguous, principal = forms._count(forms.RootTable(d), chars)
        assert principal == square_count(d) and principal * ambiguous == h, d


def test_non_cyclic_class_number_composes_nothing(monkeypatch):
    def no_compose(f, g):
        raise AssertionError("a non-cyclic verdict composed")

    monkeypatch.setattr(forms, "compose", no_compose)
    for d in (315, 1155, 1260, 86_531_263):
        s = forms.class_number(d)
        assert not s.cyclic_2sylow and s.ambiguous_count >= 4, d


def band_leaves(table):
    """Every a = a0*p of a band run of `forms._blocks`, and its node a0."""
    return {a * table.primes[i]: a for plain, a, _, q, span in forms._blocks(table)
            if q is None and not plain for i in range(span[0], span[1])
            if table.d % table.primes[i]}


@pytest.mark.parametrize("d, form", [(15, (2, 1, 2)), (91, (5, 3, 5)), (96, (5, 2, 5))])
def test_band_run_counts_its_form_a_equals_c(d, form):
    # each d has an ambiguous form a = c whose a is a band leaf: at p = 2
    # for d = 15, and with d = 0 (mod 4) for d = 96; a band run counts it
    # once, by b*b = 4*a*a - d, and its pair +-b once, not twice
    table = forms.RootTable(d)
    assert band_leaves(table).get(form[0]) == 1
    assert form in forms.enumerate_reduced(d)
    assert forms._count(table)[:2] == reference_count(d), d


def test_count_expands_no_band_leaf_and_keeps_no_single_level_roots(monkeypatch):
    # both primes of d = 10007*10009 exceed top = 5778, so every node is
    # coprime to d: a band leaf is counted by its threshold, and the roots
    # of a prime with p*p > top, which is only ever a leaf, are not kept
    d = 100_160_063
    table = forms.RootTable(d)
    assert table.top == 5778
    expanded = []
    real = forms._expand

    def counted(d, block):
        expanded.append(block[1] * block[3])
        return real(d, block)

    monkeypatch.setattr(forms, "_expand", counted)
    assert forms._count(table)[:2] == reference_count(d)
    assert table._levels and all(table.primes[i] ** 2 <= table.top for i in table._levels)
    band = band_leaves(table)
    assert len(band) > 200 and expanded and not band.keys() & set(expanded)


def test_no_root_table_outlives_its_class_number_call(monkeypatch):
    # d = 39 is cyclic (the witness scan), d = 420 is not (the
    # principal-genus count), and d = 10007 has h = 77, odd (the count alone)
    built = []

    class Table(forms.RootTable):
        def __init__(self, d):
            super().__init__(d)
            built.append(weakref.ref(self))

    monkeypatch.setattr(forms, "RootTable", Table)
    for d in (39, 420, 10_007):
        forms.class_number(d)
        assert len(built) == 1 and built.pop()() is None, d


def test_a_first_walk_sieves_only_to_its_own_top(monkeypatch):
    # a fresh process sieves no further than isqrt(39 // 3) = 3 for d = 39;
    # a larger d then extends the same prime list
    monkeypatch.setattr(arith, "_sieved", (1, []))
    spans = []
    real = arith.sieve
    monkeypatch.setattr(arith, "sieve", lambda lo, hi: spans.append((lo, hi)) or real(lo, hi))
    assert forms.class_number(39).h == 4
    assert spans == [(2, 3)]
    assert forms.class_number(10_007).h == 77
    assert arith._sieved[1] == real(2, arith._sieved[0]).primes()


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 10**6).filter(lambda d: d % 4 in (0, 3)))
def test_class_number_properties(d):
    s = forms.class_number(d)
    reference = reference_enumerate(d)
    assert s.h == len(reference)
    assert s.cyclic_2sylow == (s.ambiguous_count <= 2)
    assert s.ambiguous_count == compose_ambiguous_count(d, reference)


# ---------------------------------------------------------- element order


def test_element_order_examples():
    assert element_order(forms.principal_form(-39)) == 1
    assert element_order((2, 1, 5)) == 4
    assert element_order((2, 1, 2)) == 2


def test_element_order_divides_class_number():
    for d in (39, 47, 71, 95, 183):
        h = forms.class_number(d).h
        for f in forms.enumerate_reduced(d):
            assert h % element_order(f) == 0


# ------------------------------------------------- order-2m construction


def test_order_2m_form_examples():
    # (w, x, w**(2m - 1)) at m = 2**(k - 1) is the form that
    # factory._order_2k_witness reduces and checks
    f = (2, 5, 2**3)
    assert forms.discriminant(f) == -39
    assert element_order(f) == 4
    assert factory._order_2k_witness(2, 5, 2, 39) == forms.reduce(f) == (2, 1, 5)
    g = (2, 1, 2)
    assert forms.discriminant(g) == -15
    assert element_order(g) == 2
    assert factory._order_2k_witness(2, 1, 1, 15) == g


def test_order_2m_divisibility_sweep():
    # every valid (w, x, m) with w <= 6, m <= 3 gives order divisible by 2m
    for w in (2, 4, 6):
        for m in (1, 2, 3):
            for x in range(1, 2 * w**m - 1):
                if math.gcd(x, w) != 1:
                    continue
                f = (w, x, w ** (2 * m - 1))
                d = 4 * w ** (2 * m) - x * x
                assert forms.discriminant(f) == -d
                order = element_order(f)
                assert order % (2 * m) == 0, (w, x, m, order)
