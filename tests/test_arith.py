"""Tests for the integer primitives, checked against independent oracles."""

import math
import random
import tracemalloc

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
    spans = [(10**6, 10**6 + 10**4), (2, 9), (5, 12), (3, 3),
             (10**6 + 1, 10**6 + 77_777), (10**9, 10**9 + 12_345)]
    for lo, hi in spans:
        # trial_is_prime steps by 1, too slow near 1e9: is_prime there
        oracle = trial_is_prime if hi < 10**7 else arith.is_prime
        table = arith.sieve(lo, hi)
        assert table.primes().tolist() == [
            n for n in range(lo, hi + 1) if oracle(n)
        ], (lo, hi)


def test_sieve_segment_boundaries(monkeypatch):
    reference = arith.sieve(2, 5000).primes().tolist()
    monkeypatch.setattr(arith, "SEGMENT_SIZE", 64)
    assert arith.sieve(2, 5000).primes().tolist() == reference


def test_sieve_residue_views():
    table = arith.sieve(2, 3000)
    all_primes = table.primes().tolist()
    for r in range(8):
        assert table.primes_mod8(r).tolist() == [p for p in all_primes if p % 8 == r]
    merged = sorted(p for r in (1, 3, 5, 7) for p in table.primes_mod8(r).tolist())
    assert merged == [p for p in all_primes if p % 2]
    # lo in each residue mod 8, tiny tables with empty classes, and a
    # window near 1e9: each class is the filter of primes() by p % 8
    spans = [(lo, lo + 500) for lo in range(1000, 1008)]
    spans += [(2, 2), (3, 3), (9, 10), (10**9, 10**9 + 12_345)]
    for lo, hi in spans:
        table = arith.sieve(lo, hi)
        p = table.primes()
        for r in range(8):
            cls = table.primes_mod8(r)
            assert cls.dtype == np.int64, (lo, hi, r)
            assert cls.tolist() == p[p % 8 == r].tolist(), (lo, hi, r)
    with pytest.raises(ValueError):
        table.primes_mod8(8)


def test_prime_views_types():
    # fresh int64 arrays out (scalar consumers call .tolist(), since
    # is_prime rejects numpy ints), and nothing memoised on the table
    table = arith.sieve(90, 3000)
    primes = table.primes()
    assert isinstance(primes, np.ndarray) and primes.dtype == np.int64
    assert primes is not table.primes()
    for r in range(8):
        cls = table.primes_mod8(r)
        assert isinstance(cls, np.ndarray) and cls.dtype == np.int64
        assert cls.flags.writeable and not np.shares_memory(cls, table.flags)
        assert not np.shares_memory(cls, table.primes_mod8(r))
    assert all(arith.is_prime(p) for p in table.primes_mod8(5).tolist())
    assert sorted(vars(table)) == ["flags", "hi", "lo"]
    assert table.flags.dtype == bool and not table.flags.flags.writeable


def test_primes_peak_memory():
    table = arith.sieve(2, 2**22)
    tracemalloc.start()
    try:
        primes = table.primes()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(primes) == 295_947  # pi(2**22)
    assert primes[0] == 2 and primes[-1] == 4_194_301
    assert all(arith.is_prime(p) for p in primes[::997].tolist())
    assert peak < 1.5 * primes.nbytes, (peak, primes.nbytes)


def test_primes_mod8_peak_memory():
    # read from the strided view flags[first::8]: no full prime array,
    # no copy of the view
    table = arith.sieve(2, 2**22)
    tracemalloc.start()
    try:
        cls = table.primes_mod8(3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    p = table.primes()
    assert cls.tolist() == p[p % 8 == 3].tolist()
    assert peak < 1.5 * cls.nbytes, (peak, cls.nbytes)


def test_sieve_validation():
    with pytest.raises(ValueError):
        arith.sieve(1, 10)
    with pytest.raises(ValueError):
        arith.sieve(10, 5)
    with pytest.raises(ValueError):
        arith.sieve(2, arith.DEFAULT_MAX_SPAN + 2)
    table = arith.sieve(2, 50)
    with pytest.raises(ValueError):
        51 in table


@pytest.mark.parametrize("flags", [
    np.ones(48, dtype=bool), np.ones(50, dtype=bool),
    np.ones(49, dtype=np.uint8), np.ones((7, 7), dtype=bool), [True] * 49,
])
def test_prime_table_rejects_bad_flags(flags):
    with pytest.raises(ValueError):
        arith.PrimeTable(2, 50, flags)


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


def test_sqrt_mod_p_every_residue():
    # primes p = 1 (mod 8) run the Tonelli loop for more than one step
    for p in arith.sieve(2, 2_000).primes().tolist():
        squares = {x * x % p for x in range(p)}
        for n in range(p):
            r = arith.sqrt_mod_p(n, p)
            if n in squares:
                assert r is not None and 0 <= r < p and r * r % p == n, (n, p)
            else:
                assert r is None, (n, p)
            assert arith.sqrt_mod_p(n - 3 * p, p) == r  # -d arrives negative
