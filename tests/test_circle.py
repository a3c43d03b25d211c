"""Tests for the restricted-residue exponential sums, singular series,
and representation counters, each against a direct-evaluation oracle."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_circle import (
    goldbach_lambda_sum,
    goldbach_restricted_count,
    reference_mult_tables,
    reference_restricted_sum,
    reference_series_sum,
)

from cyclic2 import arith, circle

SQRT2 = math.sqrt(2)


@pytest.fixture(scope="module")
def table():
    return arith.sieve(2, 3000)


def trial_is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


# ------------------------------------------------------ restricted mobius


def test_restricted_mobius_small_values():
    assert circle.restricted_mobius(1) == 0.5
    assert circle.restricted_mobius(2) == -0.5
    assert circle.restricted_mobius(4) == 0.0
    assert circle.restricted_mobius(6) == 0.5


def test_restricted_mobius_at_multiples_of_eight():
    assert circle.restricted_mobius(8) == pytest.approx(-SQRT2, abs=1e-12)
    assert circle.restricted_mobius(16) == 0.0
    assert circle.restricted_mobius(24) == pytest.approx(-SQRT2, abs=1e-12)
    assert circle.restricted_mobius(2**5) == 0.0
    assert circle.restricted_mobius(2**6) == 0.0
    # squarefree cofactor 7 = -1 mod 8 flips the sign to +sqrt(2)
    assert circle.restricted_mobius(56) == pytest.approx(SQRT2, abs=1e-12)
    # non-squarefree cofactor kills the value
    assert circle.restricted_mobius(72) == 0.0


def test_restricted_mobius_sum_examples():
    v = circle.restricted_mobius_sum(8)
    assert v.real == pytest.approx(2 * math.cos(3 * math.pi / 4), abs=1e-12)
    assert abs(v.imag) < 1e-12
    v = circle.restricted_mobius_sum(24)
    assert v.real == pytest.approx(-SQRT2, abs=1e-9)
    # sign fixed by direct summation: the cofactor 5 = -3 mod 8 gives -sqrt(2)
    v = circle.restricted_mobius_sum(40)
    assert v.real == pytest.approx(-SQRT2, abs=1e-9)
    with pytest.raises(ValueError):
        circle.restricted_mobius_sum(12)


def test_restricted_mobius_closed_form_matches_sum():
    for q in range(1, 200, 2):
        if arith.mobius(q) == 0:
            continue
        direct = circle.restricted_mobius_sum(8 * q)
        assert abs(direct.imag) < 1e-9, q
        assert abs(direct.real - circle.restricted_mobius(8 * q)) < 1e-9, q
    # a few even and non-squarefree cofactors
    for q in (2, 4, 6, 9, 12, 25):
        direct = circle.restricted_mobius_sum(8 * q)
        assert abs(direct - circle.restricted_mobius(8 * q)) < 1e-9, q


# -------------------------------------------------------- residue counts


def brute_totient(n, residues):
    return sum(1 for r in range(1, n) if math.gcd(r, n) == 1 and r % 8 in residues)


def test_totient_examples():
    assert circle.totient_pm3(8) == 2
    assert circle.totient_pm3(24) == 4
    assert circle.totient_pm1(24) == 4
    with pytest.raises(ValueError, match=r"totient_pm3 requires 8 \| n, got 12"):
        circle.totient_pm3(12)
    with pytest.raises(ValueError, match=r"totient_pm1 requires 8 \| n, got 12"):
        circle.totient_pm1(12)


def test_totient_closed_form():
    for n in range(8, 10_001, 8):
        q = n
        j = 0
        while q % 2 == 0:
            q //= 2
            j += 1
        expected = (1 << (j - 2)) * arith.euler_phi(q)
        assert circle.totient_pm3(n) == expected, n
        assert circle.totient_pm1(n) == expected, n


def test_totient_matches_brute_force():
    for n in range(8, 512, 8):
        assert circle.totient_pm3(n) == brute_totient(n, (3, 5))
        assert circle.totient_pm1(n) == brute_totient(n, (1, 7))


# ------------------------------------------------------------- gauss sums


def test_gauss_sum_examples():
    assert circle.restricted_gauss_sum(1, 8).real == pytest.approx(-SQRT2, abs=1e-12)
    assert circle.restricted_gauss_sum(3, 8).real == pytest.approx(SQRT2, abs=1e-12)
    v = circle.restricted_gauss_sum(7, 24)
    assert v.real == pytest.approx(
        arith.kronecker(7, 2) * circle.restricted_mobius(24), abs=1e-9
    )
    with pytest.raises(ValueError):
        circle.restricted_gauss_sum(3, 24)  # gcd(3, 24) > 1


def test_gauss_sum_identity_sweep():
    for q8 in range(8, 401, 8):
        mu2 = circle.restricted_mobius(q8)
        for a in range(1, q8):
            if math.gcd(a, q8) != 1:
                continue
            direct = circle.restricted_gauss_sum(a, q8)
            predicted = arith.kronecker(a, 2) * mu2
            assert abs(direct - predicted) < 1e-9, (a, q8)


# ---------------------------------------------------------- ramanujan sum


def direct_ramanujan(q, m):
    total = sum(
        cmath.exp(-2j * math.pi * a * m / q)
        for a in range(1, q + 1)
        if math.gcd(a, q) == 1
    )
    assert abs(total.imag) < 1e-9
    return total.real


def test_ramanujan_examples():
    assert circle.ramanujan_sum(8, 4) == -4
    assert circle.ramanujan_sum(8, 8) == 4
    for q in (1, 2, 3, 10, 15, 36):
        for m in (1, 7, 11):
            if math.gcd(q, m) == 1:
                assert circle.ramanujan_sum(q, m) == arith.mobius(q)


def test_ramanujan_matches_direct_sum():
    for q in range(1, 101):
        for m in range(-100, 101):
            assert circle.ramanujan_sum(q, m) == pytest.approx(
                direct_ramanujan(q, m), abs=1e-9
            ), (q, m)


def test_ramanujan_multiplicative():
    rng = random.Random(13)
    for _ in range(300):
        q1 = rng.randrange(1, 40)
        q2 = rng.randrange(1, 40)
        if math.gcd(q1, q2) != 1:
            continue
        m = rng.randrange(-60, 61)
        assert circle.ramanujan_sum(q1 * q2, m) == circle.ramanujan_sum(
            q1, m
        ) * circle.ramanujan_sum(q2, m)


# --------------------------------------------------------- singular series


def test_twin_prime_constant_against_partial_product():
    partial = 1.0
    for p in arith.sieve(3, 1_000_000).primes().tolist():
        partial *= 1 - 1 / (p - 1) ** 2
    # the truncated product converges like 1/(P log P)
    assert abs(partial - circle.TWIN_PRIME_CONSTANT) < 1e-6


def test_product_c8_factor_matches_ramanujan_sum():
    # 1 + c_8(m)/4 is read from m mod 8; it must give the same float as
    # the Ramanujan sum it stands for
    rng = random.Random(8)
    ms = list(range(1, 5000)) + [rng.randrange(2, 2**62) for _ in range(200)]
    for m in ms:
        want = circle._product_full(m) / 4 * (1 + circle.ramanujan_sum(8, m) / 4)
        assert circle.restricted_singular_series(m, "product").value == want, m


def test_singular_product_vanishing():
    for m in range(1, 600):
        s2 = circle.restricted_singular_series(m, "product").value
        if m % 2 or m % 8 == 4:
            assert s2 == 0.0, m
        else:
            assert s2 > 0.33, m
        s1 = circle.singular_series(m, "product").value
        assert (s1 == 0.0) == (m % 2 == 1)


def test_singular_product_examples():
    # m = 16 has no odd prime factors: S1 = 2*C2 and S2 = C2 exactly
    assert circle.singular_series(16, "product").value == pytest.approx(
        2 * circle.TWIN_PRIME_CONSTANT, abs=1e-15
    )
    assert circle.restricted_singular_series(16, "product").value == pytest.approx(
        circle.TWIN_PRIME_CONSTANT, abs=1e-15
    )
    # odd prime factors scale by (p-1)/(p-2)
    assert circle.singular_series(6, "product").value == pytest.approx(
        2 * circle.TWIN_PRIME_CONSTANT * 2, abs=1e-12
    )


def test_singular_series_vs_product():
    rng = random.Random(19)
    for _ in range(60):
        m = 2 * rng.randrange(1, 5001)
        series = circle.singular_series(m, "series", 10_000).value
        product = circle.singular_series(m, "product").value
        assert abs(series - product) < 1e-2, m
        series2 = circle.restricted_singular_series(m, "series", 10_000).value
        product2 = circle.restricted_singular_series(m, "product").value
        assert abs(series2 - product2) < 1e-2, m


def test_restricted_series_identity():
    rng = random.Random(29)
    for _ in range(40):
        m = 2 * rng.randrange(1, 5001)
        s1 = circle.singular_series(m, "series", 10_000).value
        s2 = circle.restricted_singular_series(m, "series", 10_000).value
        predicted = s1 / 4 * (1 + circle.ramanujan_sum(8, m) / 4)
        assert abs(s2 - predicted) < 1e-2, m


def test_singular_value_metadata():
    v = circle.singular_series(10, "series", 500)
    assert (v.mode, v.truncation_q, v.m) == ("series", 500, 10)
    v = circle.restricted_singular_series(10, "product")
    assert (v.mode, v.truncation_q) == ("product", None)
    with pytest.raises(ValueError):
        circle.singular_series(10, "euler")
    with pytest.raises(ValueError):
        circle.singular_series(0)


# ------------------------------- differential: scalar reference, bit for bit


@pytest.mark.parametrize(
    "limit", [2, 3, 4, 5, 8, 9, 10, 24, 25, 26, 100, 997, 1000, 4096, 10**4, 123457, 10**6]
)
def test_mult_tables_match_reference(limit):
    mu, phi = circle._mult_tables(limit)
    ref_mu, ref_phi = reference_mult_tables(limit)
    assert mu.tolist() == ref_mu.tolist()
    assert phi.tolist() == ref_phi.tolist()


def test_mult_tables_match_arith():
    mu, phi = circle._mult_tables(10**6)
    rng = random.Random(41)
    for q in [rng.randrange(1, 10**6 + 1) for _ in range(200)] + [10**6]:
        assert (int(mu[q]), int(phi[q])) == (arith.mobius(q), arith.euler_phi(q)), q


SERIES_MS = [1, 2, 4, 6, 8, 12, 16, 30, 210, 213396, 2**20, 8 * 3 * 5 * 7 * 11 * 13 * 17,
             2**64 + 6, 3 * 2**63 + 2]
SERIES_QS = [2, 3, 7, 8, 9, 16, 17, 100, 10**4]


@pytest.mark.parametrize("chunk", [circle._SERIES_CHUNK, 7])
def test_series_sum_matches_reference(monkeypatch, chunk):
    monkeypatch.setattr(circle, "_SERIES_CHUNK", chunk)
    for m in SERIES_MS:
        for Q in SERIES_QS:
            for restricted in (False, True):
                value = circle._series_sum(m, Q, restricted)
                assert type(value) is float
                assert value == reference_series_sum(m, Q, restricted), (m, Q, restricted)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 2**80), st.integers(2, 2 * 10**4), st.booleans())
def test_series_sum_property(m, Q, restricted):
    assert circle._series_sum(m, Q, restricted) == reference_series_sum(m, Q, restricted)


@pytest.fixture(scope="module")
def wide_table():
    return arith.sieve(2, 300_000)


def test_restricted_sum_matches_reference(table, wide_table):
    for n in range(2, 3000):
        value = circle.goldbach_restricted_sum(n, table)
        assert type(value) is float
        assert value == reference_restricted_sum(n, table), n
    rng = random.Random(43)
    for n in [rng.randrange(2, 300_001) for _ in range(300)] + [300_000, 299_998]:
        assert circle.goldbach_restricted_sum(n, wide_table) == (
            reference_restricted_sum(n, wide_table)
        ), n


def test_restricted_sum_on_offset_and_tiny_tables():
    # tables starting at 3 and tables too short for the n <= 6 cases
    for lo, hi in ((3, 3000), (2, 2), (2, 3), (3, 3), (2, 5)):
        t = arith.sieve(lo, hi)
        for n in range(2, max(hi, 6) + 1):
            assert circle.goldbach_restricted_sum(n, t) == reference_restricted_sum(n, t)


# --------------------------------------------------- representation counts


def test_lambda_sum_examples(table):
    assert goldbach_lambda_sum(4, table) == pytest.approx(
        math.log(2) ** 2, abs=1e-12
    )
    assert goldbach_lambda_sum(1, table) == 0.0
    assert goldbach_lambda_sum(2, table) == 0.0


def test_lambda_sum_brute_force(table):
    def von_mangoldt(n):
        if n < 2:
            return 0.0
        fac = arith.factorize(n)
        return math.log(fac[0][0]) if len(fac) == 1 else 0.0

    for d in list(range(2, 40)) + [100, 101, 255]:
        brute = sum(
            von_mangoldt(i) * von_mangoldt(d - i) for i in range(1, d)
        )
        assert goldbach_lambda_sum(d, table) == pytest.approx(brute, abs=1e-9)


def test_lambda_sum_prime_power_bound(table):
    # odd d that is not (prime + 2): only prime-power representations
    # survive, so the sum stays under sqrt(d) * log(d)**2
    for d in range(27, 2000, 2):
        if trial_is_prime(d - 2) or trial_is_prime(d - 4):
            continue
        val = goldbach_lambda_sum(d, table)
        assert val <= math.sqrt(d) * math.log(d) ** 2, d


def test_restricted_sum_examples(table):
    assert circle.goldbach_restricted_sum(8, table) == pytest.approx(
        2 * math.log(3) * math.log(5), abs=1e-12
    )
    expected16 = 2 * (math.log(3) * math.log(13) + math.log(5) * math.log(11))
    assert circle.goldbach_restricted_sum(16, table) == pytest.approx(
        expected16, abs=1e-12
    )
    for n in range(3, 300, 2):
        assert circle.goldbach_restricted_sum(n, table) == 0.0


def test_restricted_sum_brute_force(table):
    for n in list(range(2, 120)) + [256, 1000]:
        brute = 0.0
        count = 0
        for p in range(2, n - 1):
            q = n - p
            if (
                trial_is_prime(p)
                and trial_is_prime(q)
                and p % 8 in (3, 5)
                and q % 8 in (3, 5)
            ):
                brute += math.log(p) * math.log(q)
                count += 1
        assert circle.goldbach_restricted_sum(n, table) == pytest.approx(
            brute, abs=1e-9
        ), n
        assert goldbach_restricted_count(n, table) == count, n


def test_restricted_below_full(table):
    for n in range(4, 2000, 2):
        r2 = circle.goldbach_restricted_sum(n, table)
        r = goldbach_lambda_sum(n, table)
        assert r2 <= r + math.log(n) ** 2 * math.sqrt(n), n
        assert r2 <= r + 1e-9, n


def test_sum_range_errors(table):
    with pytest.raises(ValueError):
        goldbach_lambda_sum(5000, table)
    with pytest.raises(ValueError):
        circle.goldbach_restricted_sum(5000, table)


# ---------------------------------------------------------- window compare


def test_compare_window_single_row(table):
    rows = circle.compare_window(16, 16, 8, table)
    assert len(rows) == 1
    row = rows[0]
    r2 = circle.goldbach_restricted_sum(16, table)
    s2 = circle.restricted_singular_series(16, "product").value
    assert row.restricted_sum == r2
    assert row.main_term == 16 * s2
    assert row.ratio == pytest.approx(r2 / (16 * s2), rel=1e-12)


def test_compare_window_rejects_vanishing(table):
    with pytest.raises(ValueError, match="vanishes"):
        circle.compare_window(12, 20, 8, table)
    with pytest.raises(ValueError, match="vanishes"):
        circle.compare_window(15, 15, 8, table)


def test_compare_window_work_budget():
    # 100,000 rows up to n = 10**6 is exactly the budget; one row more is not
    n_hi = 10**6
    n_lo = n_hi - 8 * (circle.MAX_WINDOW_WORK // n_hi - 1)
    assert len(circle.window_range(n_lo, n_hi, 8)) * n_hi == circle.MAX_WINDOW_WORK
    with pytest.raises(ValueError, match="work budget"):
        circle.window_range(n_lo - 8, n_hi, 8)
    with pytest.raises(ValueError, match="work budget"):
        circle.compare_window(n_lo - 8, n_hi, 8, arith.sieve(2, 10))
    with pytest.raises(ValueError, match="step"):
        circle.window_range(8, 16, 0)
    with pytest.raises(ValueError, match="empty"):
        circle.window_range(16, 8, 8)


def test_compare_window_deterministic(table):
    a = circle.compare_window(1000, 1100, 8, table)
    b = circle.compare_window(1000, 1100, 8, table)
    assert a == b
    assert [r.n for r in a] == list(range(1000, 1101, 8))
