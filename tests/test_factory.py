"""Tests for the pair search and certification pipeline."""

import math
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_forms import element_order
from reference_pairs import negative_pairs, table_pairs

from cyclic2 import arith, criteria, factory, forms
from cyclic2.factory import CertificationError

# Largest target n on which find_pairs is compared with the table scan.
TARGET_CAP = 200_000


def _small_targets():
    out = []
    for k in range(1, 6):
        m = 1
        while factory.target(k, m) <= TARGET_CAP:
            out.append((k, m))
            m += 1
    return out


SMALL_TARGETS = _small_targets()

# The pair enumerator of each mode: find_pairs has only the positive one.
PAIRS = {False: factory.find_pairs, True: negative_pairs}


@pytest.fixture(scope="module")
def wide_table():
    return arith.sieve(2, TARGET_CAP)


# ------------------------------------------------------------------ target


def test_target_examples():
    assert factory.target(1, 1) == 8
    assert factory.target(2, 1) == 16
    assert factory.target(3, 1) == 64
    assert factory.target(4, 1) == 1024
    assert factory.target(1, 2) == 32
    # 4 * (2*4)**4; the exponent doubles per level
    assert factory.target(3, 2) == 16384


def test_target_overflow():
    with pytest.raises(ValueError, match="overflow"):
        factory.target(7, 1)
    with pytest.raises(ValueError, match="overflow"):
        factory.target(1, 2**31)
    with pytest.raises(ValueError):
        factory.target(0, 1)
    with pytest.raises(ValueError):
        factory.target(1, 0)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="overflow|hypothesis"):
            fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_huge_k_refused_before_the_shift():
    # w >= 2, so every k >= 7 overflows; 1 << (k - 1) is never built
    assert _peak_bytes(factory.target, 10**9, 1) < 1 << 20


# -------------------------------------------------------------- find_pairs


def test_find_pairs_examples():
    assert factory.find_pairs(1, 1) == [(5, 3)]
    assert factory.find_pairs(2, 1) == [(5, 11), (13, 3)]
    assert factory.find_pairs(3, 1) == [(5, 59), (53, 11), (61, 3)]


def test_find_pairs_negative_mode(wide_table):
    # find_pairs has no negative mode; the test references keep it
    assert table_pairs(2, 1, wide_table, negative=True) == negative_pairs(2, 1) == []
    pairs = table_pairs(3, 1, wide_table, negative=True)
    assert negative_pairs(3, 1) == pairs
    assert pairs == [(17, 47), (41, 23)]
    for p1, p2 in pairs:
        assert p1 % 8 == 1 and p2 % 8 == 7


def test_find_pairs_residues_and_order():
    for k, m in ((1, 2), (1, 3), (2, 2)):
        pairs = factory.find_pairs(k, m)
        n = factory.target(k, m)
        assert pairs == sorted(pairs)
        for p1, p2 in pairs:
            assert p1 + p2 == n
            assert p1 % 8 == 5 and p2 % 8 == 3
            assert arith.is_prime(p1) and arith.is_prime(p2)


def _within_budget(pairs, budget):
    return [(p1, p2) for p1, p2 in pairs if p1 * p2 <= budget]


def test_find_pairs_matches_table_scan(wide_table):
    assert len(SMALL_TARGETS) == 158 + 10 + 2 + 1
    rng = random.Random(3)
    for k, m in SMALL_TARGETS:
        n = factory.target(k, m)
        for negative in (False, True):
            pairs = table_pairs(k, m, wide_table, negative=negative)
            ds = sorted(p1 * p2 for p1, p2 in pairs)
            # d = 15 is the smallest product of two admissible primes,
            # (n/2)**2 bounds every d, and a pair's d and d - 1 straddle a
            # boundary.
            budgets = {-1, 0, 14, (n // 2) ** 2}
            budgets |= {rng.randrange((n // 2) ** 2) for _ in range(3)}
            for d in (ds[0], ds[len(ds) // 2]) if ds else ():
                budgets |= {d, d - 1}
            for budget in sorted(budgets):
                assert PAIRS[negative](k, m, budget) == _within_budget(pairs, budget), (
                    k, m, negative, budget)
            assert PAIRS[negative](k, m, 14) == []


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_find_pairs_property(wide_table, data):
    k, m = data.draw(st.sampled_from(SMALL_TARGETS))
    n = factory.target(k, m)
    budget = data.draw(st.integers(-1, (n // 2) ** 2 + 1))
    negative = data.draw(st.booleans())
    pairs = table_pairs(k, m, wide_table, negative=negative)
    assert PAIRS[negative](k, m, budget) == _within_budget(pairs, budget)


def test_search_sieves_only_below_the_budget_root(monkeypatch):
    sieve, his = arith.sieve, []
    monkeypatch.setattr(
        arith, "sieve", lambda lo, hi, **kw: his.append(hi) or sieve(lo, hi, **kw)
    )
    certs = list(factory.search(4, range(2, 3)))
    assert [(c.p1, c.p2) for c in certs] == [(5, 67108859)]
    assert his and max(his) <= math.isqrt(factory.DEFAULT_D_BUDGET)


# ----------------------------------------------------------------- certify


def test_certify_examples():
    c = factory.certify(1, 1, 5, 3)
    assert (c.d, c.x, c.w, c.oracle.two_part) == (15, 1, 2, 2)
    c = factory.certify(2, 1, 13, 3)
    assert (c.d, c.x, c.oracle.two_part, c.oracle.cyclic_2sylow) == (39, 5, 4, True)
    c = factory.certify(3, 1, 61, 3)
    assert (c.d, c.oracle.two_part) == (183, 8)
    assert c.symbol_ok


def test_certify_factorizes_nothing(monkeypatch):
    # p1 and p2 are proven distinct primes, so d = p1*p2 needs no
    # factorization: certify hands both primes to the oracle's genus route
    calls = []
    factorize = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda n: calls.append(n) or factorize(n))
    assert factory.certify(2, 1, 13, 3).d == 39
    assert factory.certify(3, 1, 61, 3).oracle.two_part == 8
    assert calls == []


def test_certify_rejections():
    with pytest.raises(CertificationError) as exc:
        factory.certify(2, 1, 11, 3)
    assert exc.value.reason == "sum-mismatch"
    with pytest.raises(CertificationError) as exc:
        factory.certify(1, 1, 4, 4)
    assert exc.value.reason == "equal-primes"
    with pytest.raises(CertificationError) as exc:
        factory.certify(2, 1, 15, 1)
    assert exc.value.reason == "prime-too-small"
    with pytest.raises(CertificationError) as exc:
        factory.certify(3, 1, 55, 9)
    assert exc.value.reason == "p1-not-prime"
    with pytest.raises(CertificationError) as exc:
        factory.certify(3, 1, 17, 47)   # negative-mode residues
    assert exc.value.reason == "p1-residue"
    with pytest.raises(CertificationError) as exc:
        factory.certify(3, 1, 11, 53)   # swapped residues
    assert exc.value.reason == "p1-residue"
    with pytest.raises(CertificationError) as exc:
        factory.certify(3, 1, 5, 59, d_budget=100)
    assert exc.value.reason == "oracle-budget-exceeded"


def test_search_stream():
    certs = list(factory.search(1, range(1, 5)))
    keys = [(c.M, c.p1, c.p2, c.d) for c in certs]
    assert (1, 5, 3, 15) in keys
    assert keys == sorted(keys)
    for c in certs:
        assert c.oracle.two_part == 2
        assert c.oracle.cyclic_2sylow
        factory.validate_certificate(c)


def test_search_deterministic():
    a = list(factory.search(2, range(1, 3)))
    b = list(factory.search(2, range(1, 3)))
    assert a == b


def test_search_overflow():
    # n = 4 * 2 * (2**31)**2 = 2**65: the target itself passes 2**63
    with pytest.raises(ValueError, match="overflow"):
        list(factory.search(1, range(2**31, 2**31 + 1)))


def test_search_overflow_checked_before_per_m_work():
    # two billion multipliers: the bound is checked at the largest M alone
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="overflow"):
            next(factory.search(1, range(1, 2**31)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_search_budget_rejections_not_fatal():
    # a tiny budget admits no pair, and the stream completes empty
    certs = list(factory.search(2, range(1, 2), d_budget=30))
    assert certs == []


def test_search_budget_partial():
    # d = 55 for (5, 11) exceeds the budget, d = 39 for (13, 3) does not
    certs = list(factory.search(2, range(1, 2), d_budget=45))
    assert [(c.p1, c.p2, c.d) for c in certs] == [(13, 3, 39)]


def _budget_targets(budget):
    """(k, M) with k <= 5 whose smallest candidate, p = 3, fits the d budget."""
    out = []
    for k in range(1, 6):
        m = 1
        while 3 * (factory.target(k, m) - 3) <= budget:
            out.append((k, m))
            m += 1
    return out


def test_search_stops_where_no_pair_fits_the_budget(monkeypatch):
    # k = 1: n = 8*M**2.  A budget of 15 = 3*(8 - 3) admits (5, 3) at
    # M = 1; at M = 2, 3*(32 - 3) = 87 > 15, so the search ends there
    calls = []
    find_pairs = factory.find_pairs
    monkeypatch.setattr(
        factory, "find_pairs", lambda *a, **kw: calls.append(a[1]) or find_pairs(*a, **kw)
    )
    certs = list(factory.search(1, range(1, 10**9), d_budget=15))
    assert [(c.M, c.p1, c.p2) for c in certs] == [(1, 5, 3)]
    assert calls == [1]


def test_search_certifies_every_enumerated_pair():
    # find_pairs fixes the sum, the residues, both primalities and the
    # budget, and (p1/2) = -1 for p1 = 5 (mod 8): certify rejects none
    budget, total = 10**6, 0
    for k, m in _budget_targets(budget):
        pairs = factory.find_pairs(k, m, budget)
        certs = list(factory.search(k, range(m, m + 1), d_budget=budget))
        assert [(c.p1, c.p2) for c in certs] == pairs
        total += len(pairs)
    assert total == 462


def test_search_propagates_a_rejection(monkeypatch):
    def reject(k, m, p1, p2, *, d_budget):
        raise CertificationError("p1-not-prime", "injected rejection")

    monkeypatch.setattr(factory, "certify", reject)
    with pytest.raises(CertificationError, match="injected"):
        list(factory.search(2, range(1, 2)))


def test_validate_certificate_catches_tampering():
    cert = factory.certify(2, 1, 13, 3)
    factory.validate_certificate(cert)
    bad = cert._replace(d=55)
    with pytest.raises(ValueError, match="invariant"):
        factory.validate_certificate(bad)
    bad = cert._replace(x=3)
    with pytest.raises(ValueError, match="invariant"):
        factory.validate_certificate(bad)
    bad = cert._replace(oracle=cert.oracle._replace(two_part=8))
    with pytest.raises(ValueError, match="invariant"):
        factory.validate_certificate(bad)


def test_validate_certificate_names_the_failure():
    cert = factory.certify(2, 1, 13, 3)
    bad = cert._replace(symbol_ok=False)
    with pytest.raises(ValueError, match="invariant violated: symbol_ok"):
        factory.validate_certificate(bad)
    bad = cert._replace(p1=5, p2=11)
    with pytest.raises(ValueError, match="invariant violated: x"):
        factory.validate_certificate(bad)
    bad = cert._replace(p1=1, p2=15)
    with pytest.raises(ValueError, match="invariant violated: prime-too-small"):
        factory.validate_certificate(bad)


def test_negative_pairs_have_larger_two_part():
    seen = 0
    for k, m in ((3, 1), (1, 3), (2, 2)):
        for p1, p2 in negative_pairs(k, m):
            summary = forms.class_number(p1 * p2)
            assert summary.two_part > 1 << k, (k, m, p1, p2)
            assert summary.cyclic_2sylow
            seen += 1
    assert seen >= 3


# ----------------------------------------------------------------- witness

# (k, largest M) of the pairs checked, both modes, with d <= 10**9
WITNESS_LEVELS = ((1, 20), (2, 5), (3, 3), (4, 2), (5, 1))


def test_witness_has_order_exactly_2k_in_both_modes():
    # g, the reduced class of (w, x, w**(2**k - 1)), has order exactly 2**k
    # for every pair; in negative mode the 2-part is larger, so the order
    # alone does not decide a certificate, the symbol route does
    seen = {False: 0, True: 0}
    for k, m_max in WITNESS_LEVELS:
        for m in range(1, m_max + 1):
            w, half = 2 * m * m, factory.target(k, m) // 2
            for negative in (False, True):
                for p1, p2 in PAIRS[negative](k, m, 10**9):
                    x = abs(p1 - half)
                    g = forms.reduce(forms.order_2m_form(w, x, 1 << (k - 1)))
                    assert element_order(g) == 1 << k, (k, m, p1, p2)
                    assert factory._order_2k_witness(w, x, k, p1 * p2) == g
                    seen[negative] += 1
    assert seen[False] >= 500 and seen[True] >= 100, seen


def test_certify_builds_no_form_list(monkeypatch):
    # the witness lets the oracle count blocks; no form is listed
    def no_list(d):
        raise AssertionError("a form list was built")

    monkeypatch.setattr(forms, "_forms", no_list)
    monkeypatch.setattr(forms, "enumerate_reduced", no_list)
    certs = list(factory.search(2, range(1, 6)))
    assert len(certs) == 124
    assert factory.certify(3, 2, 8861, 7523).oracle.two_part == 8


# Largest d = p1*p2 drawn for the two-route agreement test; the smaller
# prime is at least 3, so every such target n is at most D_CAP // 3 + 3.
D_CAP = 2 * 10**5


@st.composite
def capped_pairs(draw):
    k = draw(st.integers(1, 4))
    m_top = 1
    while factory.target(k, m_top + 1) <= D_CAP // 3 + 3:
        m_top += 1
    m = draw(st.integers(1, m_top))
    negative = draw(st.booleans())
    pairs = PAIRS[negative](k, m, D_CAP)
    assume(pairs)
    return k, m, negative, draw(st.sampled_from(pairs))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(capped_pairs())
def test_symbol_route_agrees_with_oracle(case):
    k, m, negative, (p1, p2) = case
    summary = forms.class_number(p1 * p2)
    verdict = criteria.exact_order_test(2 * m * m, abs(p1 - p2) // 2, (p1, p2))
    assert verdict == (summary.two_part == 1 << k)
    assert verdict != negative
    assert summary.cyclic_2sylow


def test_certificate_builds_no_characters(monkeypatch):
    # d = p1*p2 has two genera, so the oracle's walk evaluates no genus
    # character; a non-cyclic d, 3*5*7*11, does
    calls = []
    real = forms._bits
    monkeypatch.setattr(forms, "_bits", lambda chars, m: calls.append(m) or real(chars, m))
    c = factory.certify(3, 1, 61, 3)
    assert (c.d, c.oracle.cyclic_2sylow) == (183, True) and calls == []
    assert not forms.class_number(1155).cyclic_2sylow and calls
