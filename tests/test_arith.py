"""Tests for the integer primitives, checked against independent oracles."""

import math
import random
import sys
import tracemalloc

import pytest
from reference_circle import euler_phi, mobius, reference_mult_tables
from reference_symbols import jacobi, kronecker

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


# psi_j, the least strong pseudoprime to the first j prime bases
# (Jaeschke 1993), with j: is_prime needs j + 1 bases at psi_j itself.
PSEUDOPRIMES = {
    2047: 1,                    # 23 * 89
    1373653: 2,                 # 829 * 1657
    25326001: 3,                # 2251 * 11251
    3215031751: 4,              # 151 * 751 * 28351
    2152302898747: 5,           # 6763 * 10627 * 29947
    3474749660383: 6,           # 1303 * 16927 * 157543
    341550071728321: 8,         # 10670053 * 32010157
    3825123056546413051: 11,    # 149491 * 747451 * 34233211
}


def strong_probable_prime(n: int, a: int) -> bool:
    """One Miller-Rabin round: n passes base a."""
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    x = pow(a, t, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))


def test_is_prime_tests_one_base_past_each_pseudoprime_bound():
    # each psi_j fools its first j bases, so a base prefix one short there
    # would call it prime
    for n, j in PSEUDOPRIMES.items():
        assert all(strong_probable_prime(n, a) for a in arith._MR_BASES[:j]), n
        assert not strong_probable_prime(n, arith._MR_BASES[j]), n
        assert not arith.is_prime(n), n
    assert sorted(set(arith._MR_BOUNDS)) == sorted(PSEUDOPRIMES)


def test_is_prime_matches_the_sieve_around_the_smallest_bounds():
    # the base count changes at 2047, 1373653 and 25326001
    for bound in (2047, 1373653, 25326001):
        lo, hi = max(2, bound - 10**5), bound + 10**5
        assert [n for n in range(lo, hi + 1) if arith.is_prime(n)] == arith.sieve(lo, hi).primes()


def test_is_prime_domain():
    with pytest.raises(ValueError):
        arith.is_prime(-1)
    with pytest.raises(ValueError):
        arith.is_prime(2**64)


# ------------------------------------------------------------------- sieve


def test_sieve_examples():
    assert arith.sieve(2, 20).primes() == [2, 3, 5, 7, 11, 13, 17, 19]
    assert arith.sieve(2, 2).primes() == [2]
    assert arith.sieve(90, 100).primes() == [97]


def test_sieve_matches_trial_division():
    table = arith.sieve(2, 100_000)
    expected = [n for n in range(2, 100_001) if trial_is_prime(n)]
    assert table.primes() == expected
    # one byte per value, exactly 0 or 1
    assert bytes(table.flags) == bytes(trial_is_prime(n) for n in range(2, 100_001))


def test_sieve_offset_window():
    spans = [(10**6, 10**6 + 10**4), (2, 9), (5, 12), (3, 3),
             (10**6 + 1, 10**6 + 77_777), (10**9, 10**9 + 12_345)]
    for lo, hi in spans:
        # trial_is_prime steps by 1, too slow near 1e9: is_prime there
        oracle = trial_is_prime if hi < 10**7 else arith.is_prime
        table = arith.sieve(lo, hi)
        assert table.primes() == [
            n for n in range(lo, hi + 1) if oracle(n)
        ], (lo, hi)


def test_sieve_segment_boundaries(monkeypatch):
    reference = arith.sieve(2, 5000).primes()
    monkeypatch.setattr(arith, "SEGMENT_SIZE", 64)
    assert arith.sieve(2, 5000).primes() == reference


def test_sieve_residue_views():
    table = arith.sieve(2, 3000)
    all_primes = table.primes()
    for r in range(8):
        assert table.primes_mod8(r) == [p for p in all_primes if p % 8 == r]
    merged = sorted(p for r in (1, 3, 5, 7) for p in table.primes_mod8(r))
    assert merged == [p for p in all_primes if p % 2]
    # lo in each residue mod 8, tiny tables with empty classes, and a
    # window near 1e9: each class is the filter of primes() by p % 8
    spans = [(lo, lo + 500) for lo in range(1000, 1008)]
    spans += [(2, 2), (3, 3), (9, 10), (10**9, 10**9 + 12_345)]
    for lo, hi in spans:
        table = arith.sieve(lo, hi)
        p = table.primes()
        for r in range(8):
            assert table.primes_mod8(r) == [q for q in p if q % 8 == r], (lo, hi, r)
    with pytest.raises(ValueError):
        table.primes_mod8(8)


def test_prime_views_types():
    # fresh lists of ints out, nothing memoised on the table, and the
    # table itself a read-only memoryview of bytes
    table = arith.sieve(90, 3000)
    primes = table.primes()
    assert type(primes) is list and all(type(p) is int for p in primes)
    assert primes is not table.primes()
    primes.append(0)
    assert table.primes()[-1] == 2999
    for r in range(8):
        cls = table.primes_mod8(r)
        assert type(cls) is list and all(type(p) is int for p in cls)
        assert cls is not table.primes_mod8(r)
    assert all(arith.is_prime(p) for p in table.primes_mod8(5))
    assert sorted(vars(table)) == ["flags", "hi", "lo"]
    flags = table.flags
    assert isinstance(flags, memoryview) and flags.readonly
    assert flags.format == "B" and flags.ndim == 1 and len(flags) == 3000 - 90 + 1
    with pytest.raises(TypeError):
        flags[7] = 1


def test_primes_peak_memory():
    # the list and its ints are the only allocation of any size
    table = arith.sieve(2, 2**22)
    tracemalloc.start()
    try:
        primes = table.primes()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(primes) == 295_947  # pi(2**22)
    assert primes[0] == 2 and primes[-1] == 4_194_301
    assert all(arith.is_prime(p) for p in primes[::997])
    size = sys.getsizeof(primes) + sum(map(sys.getsizeof, primes))
    assert peak < 1.5 * size, (peak, size)


def test_sieve_peak_memory():
    # one byte per value; the segments bound the crossing-off transients,
    # so no per-prime temporary of the table's size is ever alive
    span = 2**22 - 1
    tracemalloc.start()
    try:
        table = arith.sieve(2, 2**22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.flags) == span
    assert peak < 1.6 * span, (peak, span)


def test_sieve_validation():
    with pytest.raises(ValueError):
        arith.sieve(1, 10)
    with pytest.raises(ValueError):
        arith.sieve(10, 5)
    with pytest.raises(ValueError):
        arith.sieve(2, arith.DEFAULT_MAX_SPAN + 2)


@pytest.mark.parametrize("flags", [
    memoryview(bytes(48)), memoryview(bytes(50)),            # wrong length
    memoryview(bytearray(49)),                               # writable
    memoryview(bytes(98)).cast("H"),                         # not bytes
    memoryview(bytes(49)).cast("B", (7, 7)),                 # two-dimensional
    bytes(49), [1] * 49,                                     # not a memoryview
])
def test_prime_table_rejects_bad_flags(flags):
    with pytest.raises(ValueError):
        arith.PrimeTable(2, 50, flags)
    assert arith.PrimeTable(2, 50, memoryview(bytes(49))).hi == 50


# ------------------------------------------------------------------ jacobi


def test_jacobi_examples():
    for a in (-5, 0, 1, 7, 123):
        assert jacobi(a, 1) == 1
    assert jacobi(5, 11) == 1   # 5**5 = 1 mod 11
    assert jacobi(2, 15) == 1


def test_jacobi_euler_criterion():
    for p in arith.sieve(3, 499).primes():
        for a in range(p):
            e = pow(a, (p - 1) // 2, p)
            expected = 0 if e == 0 else (1 if e == 1 else -1)
            assert jacobi(a, p) == expected, (a, p)


def test_jacobi_reciprocity():
    for m in range(3, 500, 2):
        for n in range(3, 500, 2):
            if math.gcd(m, n) != 1:
                continue
            sign = -1 if (m % 4 == 3 and n % 4 == 3) else 1
            assert jacobi(m, n) * jacobi(n, m) == sign, (m, n)


def test_jacobi_zero_iff_common_factor():
    for n in range(1, 200, 2):
        for a in range(-50, 51):
            assert (jacobi(a, n) == 0) == (math.gcd(a, n) > 1)


def test_jacobi_validation():
    with pytest.raises(ValueError):
        jacobi(3, 10)
    with pytest.raises(ValueError):
        jacobi(3, -5)
    with pytest.raises(ValueError):
        jacobi(3, 0)


# --------------------------------------------------------------- kronecker


def test_kronecker_denominator_two_table():
    assert kronecker(13, 2) == -1   # 13 = -3 mod 8
    assert kronecker(7, 2) == 1     # 7 = -1 mod 8
    assert kronecker(6, 2) == 0     # even numerator
    table = {1: 1, 3: -1, 5: -1, 7: 1}
    for a in range(-99, 100, 2):
        assert kronecker(a, 2) == table[a % 8]


def test_kronecker_edge_cases():
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(5, 0) == 0
    assert kronecker(0, 3) == 0
    assert kronecker(0, 1) == 1
    assert kronecker(-1, -1) == -1
    assert kronecker(3, -1) == 1
    with pytest.raises(ValueError):
        kronecker(0, 0)


def test_kronecker_matches_jacobi_on_odd_denominators():
    for n in range(1, 1000, 2):
        for a in range(-999, 1000):
            assert kronecker(a, n) == jacobi(a, n), (a, n)


def test_kronecker_multiplicative_in_denominator():
    rng = random.Random(7)
    for _ in range(500):
        a = rng.randrange(-300, 301)
        m = rng.randrange(1, 60)
        n = rng.randrange(1, 60)
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


# ------------------------------ factorize, and the mobius / phi oracles on it


def test_mobius_phi_examples():
    assert mobius(1) == 1 and euler_phi(1) == 1
    assert mobius(8) == 0 and euler_phi(8) == 4
    assert mobius(6) == 1 and mobius(30) == -1
    assert euler_phi(9) == 6


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


def trial_factorize(n: int) -> list[tuple[int, int]]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += 1
    if n > 1:
        out.append((n, 1))
    return out


def test_factorize_matches_trial_division():
    # past the twelve base primes everything is is_prime or Pollard-Brent:
    # prime powers p**k < 2**64 and products p*q, p*p*q of primes in
    # [41, 10**4), the range a trial-division stage once covered
    rng = random.Random(19)
    primes = [p for p in range(41, 10_000) if trial_is_prime(p)]
    cases = []
    for p in rng.sample(primes, 60):
        top = int(64 * math.log(2) / math.log(p))
        cases += [p**k for k in {1, 2, 3, top - 1, top} if 0 < k and p**k < 2**64]
    for _ in range(250):
        p, q = rng.choice(primes), rng.choice(primes)
        cases += [p * q, p * p * q]
    cases += [41, 41 * 41, 9973, 9973 * 9967, 41 * 9973, 37 * 41, 2**3 * 37 * 41**2 * 9973]
    for n in cases:
        assert arith.factorize(n) == trial_factorize(n), n


def test_multiplicativity():
    rng = random.Random(3)
    checked = 0
    while checked < 4000:
        m = rng.randrange(1, 1001)
        n = rng.randrange(1, 1001)
        if math.gcd(m, n) != 1:
            continue
        assert mobius(m * n) == mobius(m) * mobius(n)
        assert euler_phi(m * n) == euler_phi(m) * euler_phi(n)
        checked += 1


def test_mobius_phi_against_sieved_tables():
    # the scalar oracles over factorize against the sieved ones
    mu, phi = reference_mult_tables(3000)
    for n in range(1, 3001):
        assert (mobius(n), euler_phi(n)) == (mu[n], phi[n]), n


def test_sqrt_mod_p_every_residue():
    # primes p = 1 (mod 8) run the Tonelli loop for more than one step
    for p in arith.sieve(2, 2_000).primes():
        squares = {x * x % p for x in range(p)}
        for n in range(p):
            r = arith.sqrt_mod_p(n, p)
            if n in squares:
                assert r is not None and 0 <= r < p and r * r % p == n, (n, p)
            else:
                assert r is None, (n, p)
            assert arith.sqrt_mod_p(n - 3 * p, p) == r  # -d arrives negative
