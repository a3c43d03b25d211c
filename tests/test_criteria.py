"""Tests for the reference Hilbert symbols and the square-class criterion."""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_pairs import negative_pairs
from reference_symbols import hilbert_symbol, kronecker, local_symbols

from cyclic2 import arith, criteria, factory, forms


def solvable_oracle(a: int, b: int, p: int, exp: int) -> bool:
    """Brute force: does z**2 = a x**2 + b y**2 admit a primitive solution
    mod p**exp?  With exp comfortably above the valuations involved this
    decides the local symbol."""
    mod = p**exp
    squares = {z * z % mod for z in range(mod)}
    unit_squares = {z * z % mod for z in range(mod) if z % p}
    for x in range(mod):
        for y in range(mod):
            t = (a * x * x + b * y * y) % mod
            if x % p or y % p:
                if t in squares:
                    return True
            elif t in unit_squares:  # x, y divisible by p: z must be a unit
                return True
    return False


# ---------------------------------------------------------- hilbert symbol


def test_hilbert_trivial_first_argument():
    for b in (2, -39, 7, -1):
        for p in (2, 3, 13):
            assert hilbert_symbol(1, b, p) == 1


def test_hilbert_examples():
    assert hilbert_symbol(2, -39, 13) == -1
    assert hilbert_symbol(2, -39, 3) == -1


def test_hilbert_validation():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 5, 3)
    with pytest.raises(ValueError):
        hilbert_symbol(5, 0, 3)
    with pytest.raises(ValueError):
        hilbert_symbol(5, 7, 15)


def test_hilbert_symmetric():
    rng = random.Random(23)
    for _ in range(400):
        a = rng.choice([v for v in range(-50, 51) if v])
        b = rng.choice([v for v in range(-50, 51) if v])
        p = rng.choice([2, 3, 5, 7, 11, 13])
        assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)


def test_hilbert_bimultiplicative():
    rng = random.Random(31)
    primes = arith.sieve(2, 97).primes()
    for _ in range(600):
        p = rng.choice(primes)
        a1 = rng.choice([v for v in range(-1000, 1001) if v])
        a2 = rng.choice([v for v in range(-1000, 1001) if v])
        b = rng.choice([v for v in range(-1000, 1001) if v])
        lhs = hilbert_symbol(a1 * a2, b, p)
        rhs = hilbert_symbol(a1, b, p) * hilbert_symbol(a2, b, p)
        assert lhs == rhs, (a1, a2, b, p)


def test_hilbert_against_solubility_oracle():
    values = [-10, -7, -6, -5, -3, -2, -1, 1, 2, 3, 5, 6, 7, 10]
    for p, exp in ((2, 6), (3, 4), (5, 3)):
        for a in values:
            for b in values:
                expected = 1 if solvable_oracle(a, b, p, exp) else -1
                assert hilbert_symbol(a, b, p) == expected, (a, b, p)


def test_hilbert_squares_are_trivial():
    rng = random.Random(41)
    for _ in range(200):
        s = rng.choice([v for v in range(-30, 31) if v]) ** 2
        b = rng.choice([v for v in range(-1000, 1001) if v])
        p = rng.choice([2, 3, 5, 7, 13, 97])
        assert hilbert_symbol(s, b, p) == 1


# ------------------------------------------------------ square-class test


def at_pair(w, p1, p2):
    """The criterion at a pair p1 + p2 = 4*w**(2**(k-1)).  With
    x = |p1 - p2|/2 and d = p1*p2, x**2 + d = 4*w**(2**k), so the ideal
    of norm w is (w, (x + sqrt(-d))/2)."""
    return criteria.exact_order_test(w, (p1, p2))


def test_square_class_examples():
    # (2, 1, 5) and (1, 1, 4) are forms of discriminant -39 and -15
    assert local_symbols(2, 39) == [-1, -1]
    assert criteria.exact_order_test(2, (3, 13)) is True
    assert all(s == 1 for s in local_symbols(1, 15))
    assert criteria.exact_order_test(1, (3, 5)) is False


def test_square_class_product_formula_sweep():
    # w runs over the leading coefficients of the reduced forms, which
    # are ideal norms by construction
    count = 0
    for d in range(3, 2000, 4):
        fac = arith.factorize(d)
        if any(e > 1 for _, e in fac):
            continue
        primes = [p for p, _ in fac]
        for a, _, _ in forms.enumerate_reduced(d):
            if math.gcd(a, d) != 1 or a == 1:
                continue
            symbols = local_symbols(a, d)
            assert math.prod(symbols) == 1
            assert criteria.exact_order_test(a, primes) == (-1 in symbols)
            count += 1
    assert count > 500


def test_criterion_matches_composition_on_every_class():
    # the criterion checks none of its hypotheses, so this sweep carries
    # it: for every squarefree d = 3 (mod 4) up to 20,000, the class of
    # each reduced form (a, b, c) with a prime to d, the ideal of norm a,
    # is a non-square iff no class composed with itself gives it
    checked = 0
    for d in range(3, 20_001, 4):
        fac = arith.factorize(d)
        if any(e > 1 for _, e in fac):
            continue
        primes = [p for p, _ in fac]
        classes = forms.enumerate_reduced(d)
        squares = {forms.compose(f, f) for f in classes}
        for f in classes:
            if math.gcd(f[0], d) == 1:
                assert criteria.exact_order_test(f[0], primes) == (f not in squares), (d, f)
                checked += 1
    assert checked == 169_750


def test_square_class_broken_product_is_internal(monkeypatch):
    # the symbols over p | d multiply to 1 by a theorem; a symbol that
    # breaks the product is a bug in this code, not a bad input.  Each
    # symbol is Euler's criterion, one pow per prime; the one at p = 3
    # is negated.
    monkeypatch.setattr(
        criteria, "pow", lambda w, e, p: p - pow(w, e, p) if p == 3 else pow(w, e, p),
        raising=False,
    )
    with pytest.raises(ArithmeticError, match="Hilbert symbol product"):
        criteria.exact_order_test(2, (3, 13))


def test_square_class_principal_is_square():
    # the identity class (norm 1) is trivially a square
    for d in (15, 39, 183, 295, 455):
        primes = [p for p, _ in arith.factorize(d)]
        assert criteria.exact_order_test(1, primes) is False


# ------------------------------------------------------- exact-order test


def test_exact_order_examples():
    assert at_pair(2, 13, 3) is True
    assert at_pair(2, 5, 3) is True
    # p1 = 1 mod 8 makes the symbol +1: the group is strictly larger
    assert at_pair(18, 41, 31) is False
    assert at_pair(2, 17, 47) is False


def _pairs(w, k, d_max):
    """Prime pairs (p1, p2), p1 = 1 and p2 = 3 (mod 4), summing to
    4*w**(2**(k-1)), with p1*p2 <= d_max."""
    n = 4 * w ** (2 ** (k - 1))
    for p in arith.sieve(2, min(n // 2, math.isqrt(d_max))).primes():
        q = n - p
        if p >= q or p < 3 or p * q > d_max or not arith.is_prime(q):
            continue
        yield (p, q) if p % 4 == 1 else (q, p)


def kronecker_reference(p1, w):
    """The paper's shortcut for the criterion at p1 + p2 = 4*w**(2**(k-1))."""
    return kronecker(p1, w) == -1


def test_exact_order_biconditional_for_general_even_w():
    # the criterion holds for any even w, not only w = 2*M**2: enumerate
    # prime pairs summing to 4*w**(2**(k-1)) and compare the symbol
    # verdict against the enumerated 2-Sylow structure
    checked = 0
    for w, k in ((2, 1), (2, 2), (4, 1), (6, 1), (6, 2), (10, 1), (10, 2), (12, 1), (20, 1)):
        for p1, p2 in _pairs(w, k, 10**6):
            assert p1 % 4 == 1 and p2 % 4 == 3  # d = 3 mod 4 forces one of each
            verdict = at_pair(w, p1, p2)
            summary = forms.class_number(p1 * p2)
            assert summary.cyclic_2sylow
            assert verdict == (summary.two_part == 1 << k), (w, k, p1, p2)
            checked += 1
    assert checked > 40


@st.composite
def even_w_pairs(draw):
    w = 2 * draw(st.integers(1, 32))
    k = draw(st.sampled_from([1, 2]))
    r1 = draw(st.sampled_from([1, 5]))  # p1 = 1 or 5 (mod 8), p2 = -p1
    pairs = [pair for pair in _pairs(w, k, 10**6) if pair[0] % 8 == r1]
    assume(pairs)
    return w, k, draw(st.sampled_from(pairs))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(even_w_pairs())
def test_criterion_matches_kronecker_and_oracle_for_even_w(case):
    w, k, (p1, p2) = case
    verdict = at_pair(w, p1, p2)
    assert verdict == kronecker_reference(p1, w)
    assert verdict == (forms.class_number(p1 * p2).two_part == 1 << k)


def test_exact_order_matches_kronecker_on_pairs():
    for k, m in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (4, 1)):
        w = 2 * m * m
        for negative in (False, True):
            for p1, p2 in (negative_pairs if negative else factory.find_pairs)(k, m):
                want = at_pair(w, p1, p2)
                assert want == kronecker_reference(p1, w) != negative
                # the equivalent form of the criterion
                assert want == (
                    kronecker(p2, w) != kronecker(-1, w)
                )
