"""Tests for Hilbert symbols and the exact-order decision procedures."""

import math
import random

import pytest

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
            assert criteria.hilbert_symbol(1, b, p) == 1


def test_hilbert_examples():
    assert criteria.hilbert_symbol(2, -39, 13) == -1
    assert criteria.hilbert_symbol(2, -39, 3) == -1


def test_hilbert_validation():
    with pytest.raises(ValueError):
        criteria.hilbert_symbol(0, 5, 3)
    with pytest.raises(ValueError):
        criteria.hilbert_symbol(5, 0, 3)
    with pytest.raises(ValueError):
        criteria.hilbert_symbol(5, 7, 15)


def test_hilbert_symmetric():
    rng = random.Random(23)
    for _ in range(400):
        a = rng.choice([v for v in range(-50, 51) if v])
        b = rng.choice([v for v in range(-50, 51) if v])
        p = rng.choice([2, 3, 5, 7, 11, 13])
        assert criteria.hilbert_symbol(a, b, p) == criteria.hilbert_symbol(b, a, p)


def test_hilbert_bimultiplicative():
    rng = random.Random(31)
    primes = arith.sieve(2, 97).primes().tolist()
    for _ in range(600):
        p = rng.choice(primes)
        a1 = rng.choice([v for v in range(-1000, 1001) if v])
        a2 = rng.choice([v for v in range(-1000, 1001) if v])
        b = rng.choice([v for v in range(-1000, 1001) if v])
        lhs = criteria.hilbert_symbol(a1 * a2, b, p)
        rhs = criteria.hilbert_symbol(a1, b, p) * criteria.hilbert_symbol(a2, b, p)
        assert lhs == rhs, (a1, a2, b, p)


def test_hilbert_against_solubility_oracle():
    values = [-10, -7, -6, -5, -3, -2, -1, 1, 2, 3, 5, 6, 7, 10]
    for p, exp in ((2, 6), (3, 4), (5, 3)):
        for a in values:
            for b in values:
                expected = 1 if solvable_oracle(a, b, p, exp) else -1
                assert criteria.hilbert_symbol(a, b, p) == expected, (a, b, p)


def test_hilbert_squares_are_trivial():
    rng = random.Random(41)
    for _ in range(200):
        s = rng.choice([v for v in range(-30, 31) if v]) ** 2
        b = rng.choice([v for v in range(-1000, 1001) if v])
        p = rng.choice([2, 3, 5, 7, 13, 97])
        assert criteria.hilbert_symbol(s, b, p) == 1


# ------------------------------------------------------ square-class test


def test_square_class_examples():
    r = criteria.square_class_report(2, 39)
    assert r.symbols == ((3, -1), (13, -1))
    assert not r.is_square
    assert r.exact_order_2k
    assert math.prod(s for _, s in r.symbols) == 1

    r = criteria.square_class_report(1, 15)
    assert all(s == 1 for _, s in r.symbols)
    assert r.is_square


def test_square_class_validation():
    with pytest.raises(ValueError):
        criteria.square_class_report(3, 39)   # gcd(3, 39) > 1
    with pytest.raises(ValueError):
        criteria.square_class_report(2, 45)   # 45 = 9 * 5 not squarefree
    with pytest.raises(ValueError):
        criteria.square_class_report(2, 21)   # 21 = 1 mod 4
    with pytest.raises(ValueError):
        criteria.square_class_report(2, 3)    # 2 is inert: not an ideal norm


def test_square_class_product_formula_sweep():
    # w runs over the leading coefficients of the reduced forms, which
    # are ideal norms by construction
    count = 0
    for d in range(3, 2000, 4):
        if any(e > 1 for _, e in arith.factorize(d)):
            continue
        for a, _, _ in forms.enumerate_reduced(d):
            if math.gcd(a, d) != 1 or a == 1:
                continue
            r = criteria.square_class_report(a, d)
            assert math.prod(s for _, s in r.symbols) == 1
            count += 1
    assert count > 500


def test_square_class_principal_is_square():
    # the identity class (norm 1) is trivially a square
    for d in (15, 39, 183, 295, 455):
        assert criteria.square_class_report(1, d).is_square


# ------------------------------------------------------- exact-order test


def test_exact_order_examples():
    assert criteria.exact_order_test(13, 3, 2, 2) is True
    assert criteria.exact_order_test(5, 3, 2, 1) is True
    # p1 = 1 mod 8 makes the symbol +1: the group is strictly larger
    assert criteria.exact_order_test(41, 31, 18, 1) is False
    assert criteria.exact_order_test(17, 47, 2, 3) is False


def test_exact_order_validation():
    with pytest.raises(ValueError, match="p1"):
        criteria.exact_order_test(3, 13, 2, 2)    # p1 = 3 mod 4
    with pytest.raises(ValueError, match="p2"):
        criteria.exact_order_test(13, 5, 2, 2)    # p2 = 1 mod 4
    with pytest.raises(ValueError, match="4\\*w"):
        criteria.exact_order_test(13, 3, 4, 2)    # sum is not 4*w**2
    with pytest.raises(ValueError, match="even"):
        criteria.exact_order_test(13, 3, 3, 2)
    with pytest.raises(ValueError, match="prime"):
        criteria.exact_order_test(9, 7, 2, 2)
    with pytest.raises(ValueError, match="distinct"):
        criteria.exact_order_test(5, 5, 2, 1)


def test_exact_order_biconditional_for_general_even_w():
    # the criterion holds for any even w, not only w = 2*M**2: enumerate
    # prime pairs summing to 4*w**(2**(k-1)) and compare the symbol
    # verdict against the enumerated 2-Sylow structure
    table = arith.sieve(2, 1600)
    checked = 0
    for w, k in ((2, 1), (2, 2), (4, 1), (6, 1), (6, 2), (10, 1), (10, 2), (12, 1), (20, 1)):
        n = 4 * w ** (2 ** (k - 1))
        for p in table.primes().tolist():
            q = n - p
            if p >= q or q < 3 or p < 3 or q not in table:
                continue
            p1, p2 = (p, q) if p % 4 == 1 else (q, p)
            assert p1 % 4 == 1 and p2 % 4 == 3  # d = 3 mod 4 forces one of each
            verdict = criteria.exact_order_test(p1, p2, w, k)
            summary = forms.class_number(p1 * p2)
            assert summary.cyclic_2sylow
            assert verdict == (summary.two_part == 1 << k), (w, k, p1, p2)
            checked += 1
    assert checked > 40


def test_exact_order_matches_square_class_on_pairs():
    for k, m in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (4, 1)):
        w = 2 * m * m
        for negative in (False, True):
            for p1, p2 in factory.find_pairs(k, m, negative=negative):
                want = criteria.exact_order_test(p1, p2, w, k)
                report = criteria.square_class_report(w, p1 * p2)
                assert want == report.exact_order_2k == (not report.is_square)
                # the equivalent form of the criterion
                assert want == (
                    arith.kronecker(p2, w) != arith.kronecker(-1, w)
                )

