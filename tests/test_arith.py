"""Tests for the integer primitives, checked against independent oracles."""

import math
import random
import struct

import numpy as np
import pytest

from cyclic2 import arith


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


# ---------------------------------------------------------------- is_prime


@pytest.mark.parametrize("n,expected", [(2, True), (1, False), (499, True), (0, False)])
def test_is_prime_examples(n, expected):
    assert arith.is_prime(n) is expected


def test_is_prime_matches_trial_division():
    for n in range(20_000):
        assert arith.is_prime(n) == trial_is_prime(n), n
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randrange(2, 10**6)
        assert arith.is_prime(n) == trial_is_prime(n), n


def test_is_prime_large_known_values():
    assert arith.is_prime(2**61 - 1)            # Mersenne prime
    assert arith.is_prime(2**64 - 59)           # largest prime below 2**64
    assert not arith.is_prime(2**64 - 1)        # 3 * 5 * 17 * ...
    assert not arith.is_prime(3215031751)       # strong pseudoprime to 2,3,5,7
    assert not arith.is_prime(341550071728321)  # strong pseudoprime to 2..17


def test_is_prime_domain():
    with pytest.raises(ValueError):
        arith.is_prime(-1)
    with pytest.raises(ValueError):
        arith.is_prime(2**64)


# ------------------------------------------------------------------- sieve


def test_sieve_examples():
    assert arith.sieve(2, 20).primes().tolist() == [2, 3, 5, 7, 11, 13, 17, 19]
    assert arith.sieve(2, 2).primes().tolist() == [2]
    assert arith.sieve(90, 100).primes().tolist() == [97]


def test_sieve_matches_trial_division():
    table = arith.sieve(2, 100_000)
    expected = [n for n in range(2, 100_001) if trial_is_prime(n)]
    assert table.primes().tolist() == expected
    for n in (2, 3, 4, 9973, 99990, 99991):
        assert (n in table) == trial_is_prime(n)


def test_sieve_offset_window():
    lo, hi = 10**6, 10**6 + 10**4
    table = arith.sieve(lo, hi)
    assert table.primes().tolist() == [
        n for n in range(lo, hi + 1) if trial_is_prime(n)
    ]


def test_sieve_segment_boundaries(monkeypatch):
    reference = arith.sieve(2, 5000).primes().tolist()
    monkeypatch.setattr(arith, "SEGMENT_SIZE", 64)
    assert arith.sieve(2, 5000).primes().tolist() == reference


def test_sieve_residue_views():
    table = arith.sieve(2, 3000)
    all_primes = table.primes().tolist()
    for r in range(8):
        assert table.primes_mod8(r) == [p for p in all_primes if p % 8 == r]
    merged = sorted(p for r in (1, 3, 5, 7) for p in table.primes_mod8(r))
    assert merged == [p for p in all_primes if p % 2]


def test_prime_views_types():
    # numpy out, Python ints for the scalar consumers (is_prime rejects
    # numpy ints), and nothing memoised on the table
    table = arith.sieve(90, 3000)
    primes = table.primes()
    assert isinstance(primes, np.ndarray) and primes.dtype == np.int64
    assert primes is not table.primes()
    for r in range(8):
        assert all(type(p) is int for p in table.primes_mod8(r))
    assert all(arith.is_prime(p) for p in table.primes_mod8(5))
    assert sorted(vars(table)) == ["bits", "hi", "lo"]


def test_sieve_validation():
    with pytest.raises(ValueError):
        arith.sieve(1, 10)
    with pytest.raises(ValueError):
        arith.sieve(10, 5)
    with pytest.raises(ValueError):
        arith.sieve(2, 1000, max_span=100)
    table = arith.sieve(2, 50)
    with pytest.raises(ValueError):
        51 in table


def test_cache_roundtrip(tmp_path):
    table = arith.sieve(2, 12345)
    path = tmp_path / "primes.c2sv"
    table.save(path)
    loaded = arith.PrimeTable.load(path)
    assert (loaded.lo, loaded.hi) == (table.lo, table.hi)
    assert loaded.bits == table.bits
    assert loaded.primes().tolist() == table.primes().tolist()
    assert [p.name for p in tmp_path.iterdir()] == ["primes.c2sv"]


def test_cache_rejects_version_1(tmp_path):
    table = arith.sieve(2, 12345)
    path = tmp_path / "v1.c2sv"
    path.write_bytes(struct.pack("<4sIQQ", b"C2SV", 1, table.lo, table.hi) + table.bits)
    with pytest.raises(ValueError, match="version 1"):
        arith.PrimeTable.load(path)


def test_cache_rejects_garbage(tmp_path):
    path = tmp_path / "bad.c2sv"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        arith.PrimeTable.load(path)


# ------------------------------------------------------------------ jacobi


def test_jacobi_examples():
    for a in (-5, 0, 1, 7, 123):
        assert arith.jacobi(a, 1) == 1
    assert arith.jacobi(5, 11) == 1   # 5**5 = 1 mod 11
    assert arith.jacobi(2, 15) == 1


def test_jacobi_euler_criterion():
    for p in arith.sieve(3, 499).primes().tolist():
        for a in range(p):
            e = pow(a, (p - 1) // 2, p)
            expected = 0 if e == 0 else (1 if e == 1 else -1)
            assert arith.jacobi(a, p) == expected, (a, p)


def test_jacobi_reciprocity():
    for m in range(3, 500, 2):
        for n in range(3, 500, 2):
            if math.gcd(m, n) != 1:
                continue
            sign = -1 if (m % 4 == 3 and n % 4 == 3) else 1
            assert arith.jacobi(m, n) * arith.jacobi(n, m) == sign, (m, n)


def test_jacobi_zero_iff_common_factor():
    for n in range(1, 200, 2):
        for a in range(-50, 51):
            assert (arith.jacobi(a, n) == 0) == (math.gcd(a, n) > 1)


def test_jacobi_validation():
    with pytest.raises(ValueError):
        arith.jacobi(3, 10)
    with pytest.raises(ValueError):
        arith.jacobi(3, -5)
    with pytest.raises(ValueError):
        arith.jacobi(3, 0)


# --------------------------------------------------------------- kronecker


def test_kronecker_denominator_two_table():
    assert arith.kronecker(13, 2) == -1   # 13 = -3 mod 8
    assert arith.kronecker(7, 2) == 1     # 7 = -1 mod 8
    assert arith.kronecker(6, 2) == 0     # even numerator
    table = {1: 1, 3: -1, 5: -1, 7: 1}
    for a in range(-99, 100, 2):
        assert arith.kronecker(a, 2) == table[a % 8]


def test_kronecker_edge_cases():
    assert arith.kronecker(1, 0) == 1
    assert arith.kronecker(-1, 0) == 1
    assert arith.kronecker(5, 0) == 0
    assert arith.kronecker(0, 3) == 0
    assert arith.kronecker(0, 1) == 1
    assert arith.kronecker(-1, -1) == -1
    assert arith.kronecker(3, -1) == 1
    with pytest.raises(ValueError):
        arith.kronecker(0, 0)


def test_kronecker_matches_jacobi_on_odd_denominators():
    for n in range(1, 1000, 2):
        for a in range(-999, 1000):
            assert arith.kronecker(a, n) == arith.jacobi(a, n), (a, n)


def test_kronecker_multiplicative_in_denominator():
    rng = random.Random(7)
    for _ in range(500):
        a = rng.randrange(-300, 301)
        m = rng.randrange(1, 60)
        n = rng.randrange(1, 60)
        assert arith.kronecker(a, m * n) == arith.kronecker(a, m) * arith.kronecker(a, n)


# ----------------------------------------------- mobius / phi / factorize


def test_mobius_phi_examples():
    assert arith.mobius(1) == 1 and arith.euler_phi(1) == 1
    assert arith.mobius(8) == 0 and arith.euler_phi(8) == 4
    assert arith.mobius(6) == 1 and arith.mobius(30) == -1
    assert arith.euler_phi(9) == 6


def test_factorize_examples():
    assert arith.factorize(6487) == [(13, 1), (499, 1)]
    assert arith.factorize(1) == []
    assert arith.factorize(2**40) == [(2, 40)]
    assert arith.factorize(2**61 - 1) == [(2**61 - 1, 1)]


def test_factorize_large_semiprimes():
    for p, q in [(1_000_003, 1_000_033), (2147483629, 2147483647)]:
        assert arith.factorize(p * q) == [(p, 1), (q, 1)]


def test_factorize_roundtrip_random():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 10**9)
        fac = arith.factorize(n)
        prod = 1
        for p, e in fac:
            assert arith.is_prime(p)
            prod *= p**e
        assert prod == n
        assert fac == sorted(fac)


def test_multiplicativity():
    rng = random.Random(3)
    checked = 0
    while checked < 4000:
        m = rng.randrange(1, 1001)
        n = rng.randrange(1, 1001)
        if math.gcd(m, n) != 1:
            continue
        assert arith.mobius(m * n) == arith.mobius(m) * arith.mobius(n)
        assert arith.euler_phi(m * n) == arith.euler_phi(m) * arith.euler_phi(n)
        checked += 1


def test_mobius_phi_against_sieved_tables():
    limit = 3000
    mu = [1] * (limit + 1)
    phi = list(range(limit + 1))
    for p in arith.sieve(2, limit).primes().tolist():
        for k in range(p, limit + 1, p):
            mu[k] *= -1
            phi[k] -= phi[k] // p
        for k in range(p * p, limit + 1, p * p):
            mu[k] = 0
    for n in range(1, limit + 1):
        assert arith.mobius(n) == mu[n], n
        assert arith.euler_phi(n) == phi[n], n
