"""Tests for the restricted-residue exponential sums, singular series,
and representation counters, each against a direct-evaluation oracle."""

import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_circle import (
    euler_phi,
    goldbach_lambda_sum,
    mobius,
    ramanujan_sum,
    reference_mult_tables,
    reference_restricted_sum,
    reference_series_sum,
    residue_totient,
    restricted_gauss_sum,
    restricted_mobius,
    series_weight,
)
from reference_symbols import kronecker

from cyclic2 import arith, circle

SQRT2 = math.sqrt(2)


@pytest.fixture(scope="module")
def table():
    return arith.sieve(2, 3000)


# ------------------------------------------------------ restricted mobius


def test_restricted_mobius_small_values():
    assert restricted_mobius(1) == 0.5
    assert restricted_mobius(2) == -0.5
    assert restricted_mobius(4) == 0.0
    assert restricted_mobius(6) == 0.5


def test_restricted_mobius_at_multiples_of_eight():
    assert restricted_mobius(8) == pytest.approx(-SQRT2, abs=1e-12)
    assert restricted_mobius(16) == 0.0
    assert restricted_mobius(24) == pytest.approx(-SQRT2, abs=1e-12)
    assert restricted_mobius(2**5) == 0.0
    assert restricted_mobius(2**6) == 0.0
    # squarefree cofactor 7 = -1 mod 8 flips the sign to +sqrt(2)
    assert restricted_mobius(56) == pytest.approx(SQRT2, abs=1e-12)
    # non-squarefree cofactor kills the value
    assert restricted_mobius(72) == 0.0


def test_restricted_mobius_sum_examples():
    v = restricted_gauss_sum(1, 8)
    assert v.real == pytest.approx(2 * math.cos(3 * math.pi / 4), abs=1e-12)
    assert abs(v.imag) < 1e-12
    v = restricted_gauss_sum(1, 24)
    assert v.real == pytest.approx(-SQRT2, abs=1e-9)
    # sign fixed by direct summation: the cofactor 5 = -3 mod 8 gives -sqrt(2)
    v = restricted_gauss_sum(1, 40)
    assert v.real == pytest.approx(-SQRT2, abs=1e-9)
    with pytest.raises(ValueError):
        restricted_gauss_sum(1, 12)


def test_restricted_mobius_closed_form_matches_sum():
    # even and non-squarefree cofactors; acceptance 6 sweeps the odd ones
    for q in (2, 4, 6, 9, 12, 25):
        direct = restricted_gauss_sum(1, 8 * q)
        assert abs(direct - restricted_mobius(8 * q)) < 1e-9, q


# -------------------------------------------------------- residue counts


def test_totient_examples():
    assert residue_totient(8, (3, 5)) == 2
    assert residue_totient(24, (3, 5)) == 4
    assert residue_totient(24, (1, 7)) == 4
    with pytest.raises(ValueError, match=r"residue_totient requires 8 \| n, got 12"):
        residue_totient(12, (3, 5))


# ------------------------------------------------------------- gauss sums


def test_gauss_sum_examples():
    assert restricted_gauss_sum(1, 8).real == pytest.approx(-SQRT2, abs=1e-12)
    assert restricted_gauss_sum(3, 8).real == pytest.approx(SQRT2, abs=1e-12)
    v = restricted_gauss_sum(7, 24)
    assert v.real == pytest.approx(
        kronecker(7, 2) * restricted_mobius(24), abs=1e-9
    )
    with pytest.raises(ValueError):
        restricted_gauss_sum(3, 24)  # gcd(3, 24) > 1


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
    assert ramanujan_sum(8, 4) == -4
    assert ramanujan_sum(8, 8) == 4
    for q in (1, 2, 3, 10, 15, 36):
        for m in (1, 7, 11):
            if math.gcd(q, m) == 1:
                assert ramanujan_sum(q, m) == mobius(q)


def test_ramanujan_matches_direct_sum():
    for q in range(1, 101):
        for m in range(-100, 101):
            assert ramanujan_sum(q, m) == pytest.approx(
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
        assert ramanujan_sum(q1 * q2, m) == ramanujan_sum(q1, m) * ramanujan_sum(q2, m)


# --------------------------------------------------------- singular series


def test_twin_prime_constant_against_partial_product():
    partial = 1.0
    for p in arith.sieve(3, 1_000_000).primes():
        partial *= 1 - 1 / (p - 1) ** 2
    # the truncated product converges like 1/(P log P)
    assert abs(partial - circle.TWIN_PRIME_CONSTANT) < 1e-6


def test_product_c8_factor_matches_ramanujan_sum():
    # c_8(m) is read from m mod 8 (circle._C8, which the series use too);
    # it must be the Ramanujan sum it stands for, and give the same float
    for m in range(-64, 65):
        assert circle._C8.get(m % 8, 0) == ramanujan_sum(8, m), m
    rng = random.Random(8)
    ms = list(range(1, 5000)) + [rng.randrange(2, 2**62) for _ in range(200)]
    for m in ms:
        want = circle._product_full(m) / 4 * (1 + ramanujan_sum(8, m) / 4)
        assert circle.restricted_singular_series(m, "product") == want, m


def test_singular_product_vanishing():
    for m in range(1, 600):
        s2 = circle.restricted_singular_series(m, "product")
        if m % 2 or m % 8 == 4:
            assert s2 == 0.0, m
        else:
            assert s2 > 0.33, m
        s1 = circle.singular_series(m, "product")
        assert (s1 == 0.0) == (m % 2 == 1)


def test_singular_product_examples():
    # m = 16 has no odd prime factors: S1 = 2*C2 and S2 = C2 exactly
    assert circle.singular_series(16, "product") == pytest.approx(
        2 * circle.TWIN_PRIME_CONSTANT, abs=1e-15
    )
    assert circle.restricted_singular_series(16, "product") == pytest.approx(
        circle.TWIN_PRIME_CONSTANT, abs=1e-15
    )
    # odd prime factors scale by (p-1)/(p-2)
    assert circle.singular_series(6, "product") == pytest.approx(
        2 * circle.TWIN_PRIME_CONSTANT * 2, abs=1e-12
    )


def test_singular_series_vs_product():
    rng = random.Random(19)
    for _ in range(60):
        m = 2 * rng.randrange(1, 5001)
        series = circle.singular_series(m, "series", 10_000)
        product = circle.singular_series(m, "product")
        assert abs(series - product) < 1e-2, m
        series2 = circle.restricted_singular_series(m, "series", 10_000)
        product2 = circle.restricted_singular_series(m, "product")
        assert abs(series2 - product2) < 1e-2, m


def test_restricted_series_identity():
    rng = random.Random(29)
    for _ in range(40):
        m = 2 * rng.randrange(1, 5001)
        s1 = circle.singular_series(m, "series", 10_000)
        s2 = circle.restricted_singular_series(m, "series", 10_000)
        predicted = s1 / 4 * (1 + ramanujan_sum(8, m) / 4)
        assert abs(s2 - predicted) < 1e-2, m


def test_singular_value_metadata():
    # both series return a plain float in both modes
    for fn in (circle.singular_series, circle.restricted_singular_series):
        assert type(fn(10, "series", 500)) is float
        assert type(fn(10, "product")) is float
    with pytest.raises(ValueError):
        circle.singular_series(10, "euler")
    with pytest.raises(ValueError):
        circle.singular_series(0)


# ------------------------------- differential: scalar reference, bit for bit


def chunked_tables(limit):
    # the (q, mu, phi) chunks of the series sieve, joined into arrays
    parts = list(zip(*circle._mobius_totient(limit)))
    return tuple(np.concatenate(arrays) for arrays in parts)


def odd_part(q):
    return q // (q & -q)


MULT_LIMITS = [2, 3, 4, 5, 8, 9, 10, 24, 25, 26, 100, 997, 1000, 4096, 10**4, 123457, 10**6]


@pytest.mark.parametrize("limit", MULT_LIMITS)
def test_mult_tables_match_reference(monkeypatch, limit):
    # mu of the odd part of q and phi(q), chunk by chunk, at the default
    # chunk and at a small one: 7 up to 10**4, and 1009 above, where
    # chunk 7 would take from 6 s to over a minute.  At Q = 2 and 3 no
    # prime is sieved and 2 and 3 both lie above sqrt(Q).
    ref_mu, ref_phi = reference_mult_tables(limit)
    for chunk in (circle._SERIES_CHUNK, 7 if limit <= 10**4 else 1009):
        monkeypatch.setattr(circle, "_SERIES_CHUNK", chunk)
        q, mu, phi = chunked_tables(limit)
        assert q.tolist() == list(range(1, limit + 1)), chunk
        assert mu.tolist() == ref_mu[odd_part(q)].tolist(), chunk
        assert phi.tolist() == ref_phi[1:].tolist(), chunk


def test_mult_tables_match_arith(monkeypatch):
    rng = random.Random(41)
    for limit, chunk in ((10**6, circle._SERIES_CHUNK), (10**6, 1009), (10**4, 7)):
        monkeypatch.setattr(circle, "_SERIES_CHUNK", chunk)
        q, mu, phi = chunked_tables(limit)
        for i in [rng.randrange(limit) for _ in range(200)] + [limit - 1]:
            n = int(q[i])
            assert (int(mu[i]), int(phi[i])) == (
                mobius(odd_part(n)), euler_phi(n)
            ), (n, chunk)


def test_array_caches_keep_one_entry():
    # a second table evicts the first, so a library caller holds at most
    # one set of window-sum arrays: the class primes and their logs, 16
    # bytes per prime, and the bit index, 1/32 byte per sieved integer
    circle._restricted_primes(arith.sieve(2, 1000))
    for lo in (2, 3, 6):
        table = arith.sieve(lo, 20_000)
        classes = circle._restricted_primes(table)
        assert circle._restricted_primes.cache_info().currsize == 1
        for r, cls in classes.items():
            assert cls.primes.tolist() == table.primes_mod8(r)
            assert cls.logs.tolist() == [math.log(p) for p in cls.primes.tolist()]
            assert circle._index(cls, cls.primes).tolist() == list(range(len(cls.primes)))
            assert cls.primes.nbytes + cls.logs.nbytes == 16 * len(cls.primes)
            assert cls.words.nbytes + cls.counts.nbytes <= (table.hi - table.lo) / 32 + 16


# 2**20 * 3**5 * 7**3 has prime powers on both sides of chunk boundaries
# at chunk 7; 97 * 101 and 9973 * 10007 have a prime just below and one
# just above Q = 100 and Q = 10**4.  The odd m (3, 97 * 101, 2**64 - 59)
# give c_2(m) = -1 and c_8(m) = 0; m = 2, 6 (mod 8) give c_8(m) = 0,
# m = 4 (mod 8) gives -4 and m = 0 (mod 8) gives 4.
SERIES_MS = [1, 2, 3, 4, 6, 8, 12, 16, 30, 210, 213396, 2**20, 8 * 3 * 5 * 7 * 11 * 13 * 17,
             2**20 * 3**5 * 7**3, 97 * 101, 9973 * 10007, 2**64 - 59]
# the series factorizes m, so it refuses m >= 2**64, as `singular --m` does
UNFACTORED_MS = [2**64, 2**64 + 6, 3 * 2**63 + 2, 2**80]
SERIES_QS = [2, 3, 7, 8, 9, 16, 17, 100, 10**4]
# Q = 2**17 spans two default chunks, and 65537, a prime in (sqrt(Q), Q],
# is the first q of the second; at chunk 7 this Q would take seconds per m
WIDE_SERIES_MS = [2 * 3 * 65537, 4 * 65537, 8 * 65537, 213396, 2**64 - 59]
WIDE_SERIES_Q = 131_072


def test_series_weights_are_mu_squared():
    # the weights of the bit-exact reference, and so of circle._series_sums,
    # are mu(q)**2 and mu2(q)**2, the latter up to the rounding of sqrt(2)**2
    mu, _ = reference_mult_tables(10**4)
    for q in range(1, 10**4 + 1):
        assert series_weight(q, mu, False) == mobius(q) ** 2, q
        assert abs(series_weight(q, mu, True) - restricted_mobius(q) ** 2) <= 1e-15, q


@pytest.mark.parametrize("chunk", [circle._SERIES_CHUNK, 7])
def test_series_sum_matches_reference(monkeypatch, chunk):
    monkeypatch.setattr(circle, "_SERIES_CHUNK", chunk)
    circle._series_sums.cache_clear()
    cases = [(m, Q) for m in SERIES_MS for Q in SERIES_QS]
    if chunk != 7:
        cases += [(m, WIDE_SERIES_Q) for m in WIDE_SERIES_MS]
    for m, Q in cases:
        for restricted in (False, True):
            value = circle._series_sums(m, Q)[restricted]
            assert type(value) is float
            assert value == reference_series_sum(m, Q, restricted), (m, Q, restricted)


def test_series_sum_takes_no_gcd(monkeypatch):
    # c_q(m) comes from the primes of m, not from numpy.gcd
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.gcd called")

    monkeypatch.setattr(np, "gcd", refuse)
    circle._series_sums.cache_clear()
    for restricted in (False, True):
        assert circle._series_sums(213396, 10**5)[restricted] == (
            reference_series_sum(213396, 10**5, restricted)
        )


@pytest.mark.parametrize("m", UNFACTORED_MS)
def test_series_sum_refuses_m_from_2_to_the_64(m):
    with pytest.raises(ValueError, match=r"2\*\*64") as exc:
        circle._series_sums(m, 100)
    assert not isinstance(exc.value, circle.UsageError)


def test_series_peak_memory():
    # each chunk's terms are computed in two float64 buffers of
    # _SERIES_CHUNK, 16 bytes per q, beside the sieve's q, mu and phi of
    # this chunk and the last; the cofactor arrays go before each yield
    np.zeros(16).cumsum()  # warm numpy, whose first calls allocate caches
    circle._odd_primes(213396)  # factor m outside the trace
    circle._series_sums.cache_clear()
    tracemalloc.start()
    try:
        value = circle._series_sums(213396, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == tuple(reference_series_sum(213396, 10**6, r) for r in (False, True))
    assert peak < 48 * circle._SERIES_CHUNK, (peak, peak / circle._SERIES_CHUNK)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 2**80), st.integers(2, 2 * 10**4), st.booleans())
def test_series_sum_property(m, Q, restricted):
    if m >= 2**64:
        with pytest.raises(ValueError, match=r"2\*\*64"):
            circle._series_sums(m, Q)
    else:
        assert circle._series_sums(m, Q)[restricted] == reference_series_sum(m, Q, restricted)


@pytest.fixture(scope="module")
def wide_table():
    return arith.sieve(2, 300_000)


def restricted_sum(n, table):
    # the window sum of the one-row window n
    (value,) = circle.goldbach_restricted_sum(range(n, n + 1), table)
    return value


def test_restricted_sum_matches_reference(table, wide_table):
    for n in range(2, 3000):
        value = restricted_sum(n, table)
        assert type(value) is float
        assert value == reference_restricted_sum(n, table), n
    rng = random.Random(43)
    for n in [rng.randrange(2, 300_001) for _ in range(300)] + [300_000, 299_998]:
        assert restricted_sum(n, wide_table) == reference_restricted_sum(n, wide_table), n


def test_restricted_sum_on_offset_and_tiny_tables():
    # tables starting at 3 and tables too short for the n <= 6 cases
    for lo, hi in ((3, 3000), (2, 2), (2, 3), (3, 3), (2, 5)):
        t = arith.sieve(lo, hi)
        for n in range(2, max(hi, 6) + 1):
            assert restricted_sum(n, t) == reference_restricted_sum(n, t)


# window starts by step: steps that divide 8, where every pair of two
# classes lies on a row, and 16, 24 and 1000, where most do not
WINDOW_STARTS = {1: [2], 4: [2, 6], 8: [2, 6, 8], 16: [2, 6, 8], 24: [2, 6, 8],
                 1000: [2, 8]}


@pytest.mark.parametrize("chunk", [circle._SERIES_CHUNK, 7])
@pytest.mark.parametrize("lo", [2, 3])
def test_window_sum_matches_reference(monkeypatch, chunk, lo):
    # each row bit for bit against the scalar loop, which adds its terms
    # in the same order; rows n = 2p hold the one term that is not
    # doubled.  The row pass takes every window on its own too, and the
    # pair pass every window whose step divides 8.
    monkeypatch.setattr(circle, "_SERIES_CHUNK", chunk)
    table = arith.sieve(lo, 4000)
    classes = circle._restricted_primes(table)
    passes = {
        "rows": lambda ns, totals: circle._add_rows(ns, table, classes, totals),
        "pairs": lambda ns, totals: circle._add_pairs(ns, classes, totals),
    }
    for step, starts in WINDOW_STARTS.items():
        for n_lo in starts:
            ns = range(n_lo, 4001, step)
            want = [reference_restricted_sum(n, table) for n in ns]
            assert circle.goldbach_restricted_sum(ns, table) == want, (step, n_lo)
            for name, add in passes.items():
                if name == "pairs" and 8 % step:
                    continue
                totals = np.zeros(len(ns))
                add(ns, totals)
                assert totals.tolist() == want, (name, step, n_lo)


def test_window_sum_takes_the_pair_pass_from_pair_span(monkeypatch):
    # the pair pass for a step dividing 8 and a span of _PAIR_SPAN or
    # more, the row pass for any other window, one row or none included
    table = arith.sieve(2, 3000)
    taken = []
    for name in ("_add_pairs", "_add_rows"):
        add = getattr(circle, name)
        monkeypatch.setattr(
            circle, name, lambda *a, name=name, add=add: taken.append(name) or add(*a)
        )
    span = circle._PAIR_SPAN
    cases = {
        range(1000, 1001 + span, 8): "_add_pairs",
        range(1002, 1003 + span, 2): "_add_pairs",
        range(1000, 1000 + span, 8): "_add_rows",
        range(1000, 3001, 16): "_add_rows",
        range(1000, 1001): "_add_rows",
        range(1000, 1000): "_add_rows",
    }
    for ns, name in cases.items():
        taken.clear()
        got = circle.goldbach_restricted_sum(ns, table)
        assert taken == [name], ns
        assert got == [reference_restricted_sum(n, table) for n in ns], ns


def test_window_sum_on_tables_from_an_odd_lo():
    # a table that starts past 3 serves the rows n <= 6, and any table an
    # empty window
    for lo in (5, 7, 9):
        table = arith.sieve(lo, 50)
        for ns in (range(2, 7), range(2, 7, 4), range(6, 7), range(10, 10)):
            assert circle.goldbach_restricted_sum(ns, table) == [
                reference_restricted_sum(n, table) for n in ns
            ], (lo, ns)
        with pytest.raises(ValueError, match="cover"):
            circle.goldbach_restricted_sum(range(2, 9, 2), table)


@pytest.mark.parametrize("chunk", [circle._SERIES_CHUNK, 7])
@pytest.mark.parametrize("lo", [2, 3])
@pytest.mark.parametrize("n_lo", [2, 6, 8])
def test_compare_window_matches_reference(monkeypatch, chunk, lo, n_lo):
    # every n = 2, 6 or 0 (mod 8) from n_lo <= 8 up, on tables from 2 and
    # from 3; the n = 2p rows hold the one term that is not doubled
    monkeypatch.setattr(circle, "_SERIES_CHUNK", chunk)
    table = arith.sieve(lo, 4000)
    rows = circle.compare_window(n_lo, 4000, 8, table)
    assert [row.restricted_sum for row in rows] == [
        reference_restricted_sum(row.n, table) for row in rows
    ]
    middle = [row.n for row in rows if row.n // 2 % 8 in (3, 5) and table.flags[row.n // 2 - lo]]
    assert bool(middle) is (n_lo != 8)


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
        if arith.is_prime(d - 2) or arith.is_prime(d - 4):
            continue
        val = goldbach_lambda_sum(d, table)
        assert val <= math.sqrt(d) * math.log(d) ** 2, d


def test_restricted_sum_examples(table):
    assert restricted_sum(8, table) == pytest.approx(2 * math.log(3) * math.log(5), abs=1e-12)
    expected16 = 2 * (math.log(3) * math.log(13) + math.log(5) * math.log(11))
    assert restricted_sum(16, table) == pytest.approx(expected16, abs=1e-12)
    for n in range(3, 300, 2):
        assert restricted_sum(n, table) == 0.0


def test_restricted_sum_brute_force(table):
    for n in list(range(2, 120)) + [256, 1000]:
        brute = sum(
            math.log(p) * math.log(n - p)
            for p in range(2, n - 1)
            if p % 8 in (3, 5) and (n - p) % 8 in (3, 5)
            and arith.is_prime(p) and arith.is_prime(n - p)
        )
        assert restricted_sum(n, table) == pytest.approx(brute, abs=1e-9), n


def test_restricted_below_full(table):
    for n in range(4, 2000, 2):
        r2 = restricted_sum(n, table)
        r = goldbach_lambda_sum(n, table)
        assert r2 <= r + math.log(n) ** 2 * math.sqrt(n), n
        assert r2 <= r + 1e-9, n


def test_sum_range_errors(table):
    with pytest.raises(ValueError):
        goldbach_lambda_sum(5000, table)
    with pytest.raises(ValueError):
        circle.goldbach_restricted_sum(range(5000, 5001), table)


# ---------------------------------------------------------- window compare


def test_compare_window_single_row(table):
    rows = circle.compare_window(16, 16, 8, table)
    assert len(rows) == 1
    row = rows[0]
    r2 = restricted_sum(16, table)
    s2 = circle.restricted_singular_series(16, "product")
    assert row.restricted_sum == r2
    assert row.main_term == 16 * s2
    assert row.ratio == pytest.approx(r2 / (16 * s2), rel=1e-12)


def test_window_sum_never_lists_all_primes(monkeypatch):
    # the window sum reads each class from the table's bytes as an array;
    # it never builds a list of primes (the sieve itself does, for its
    # base primes, so tables come first)
    want = circle.compare_window(1000, 1100, 8, arith.sieve(2, 1100))
    fresh = arith.sieve(2, 1100)
    circle._restricted_primes.cache_clear()

    def refuse(*args):
        raise AssertionError("a prime list was built")

    monkeypatch.setattr(arith.PrimeTable, "primes", refuse)
    monkeypatch.setattr(arith.PrimeTable, "primes_mod8", refuse)
    assert circle.compare_window(1000, 1100, 8, fresh) == want


def test_class_primes_match_table():
    # int64 arrays, equal to the table's own lists, for lo in each
    # residue mod 8, tiny tables with empty classes and a window near 1e9
    spans = [(lo, lo + 500) for lo in range(1000, 1008)]
    spans += [(2, 2), (3, 3), (9, 10), (2, 3000), (10**9, 10**9 + 12_345)]
    for lo, hi in spans:
        table = arith.sieve(lo, hi)
        for r in range(8):
            cls = circle._class_primes(table, r)
            assert cls.dtype == np.int64 and cls.flags.writeable, (lo, hi, r)
            assert cls.tolist() == table.primes_mod8(r), (lo, hi, r)


def test_class_primes_peak_memory():
    # read from the strided view flags[first::8]: no full prime array,
    # no copy of the view
    table = arith.sieve(2, 2**22)
    tracemalloc.start()
    try:
        cls = circle._class_primes(table, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cls.tolist() == table.primes_mod8(3)
    assert peak < 1.5 * cls.nbytes, (peak, cls.nbytes)


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
