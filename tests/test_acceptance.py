"""Acceptance suite: the end-to-end exit criteria for this package.

Each test prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`
to see the lines as they complete.
"""

import functools
import math
import random
import time

from reference_circle import (
    euler_phi,
    ramanujan_sum,
    residue_totient,
    restricted_gauss_sum,
    restricted_mobius,
)
from reference_forms import element_order
from reference_pairs import negative_pairs
from reference_symbols import kronecker, local_symbols

from cyclic2 import arith, circle, cli, criteria, factory, forms


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL {label}")
                raise
            print(f"PASS {label}")
            return result

        return run

    return wrap


@criterion("1 certified chain k=1,2,3 at M=1 (runtime < 10 s)")
def test_criterion_1_certified_chain():
    t0 = time.monotonic()
    streams = {k: list(factory.search(k, range(1, 2))) for k in (1, 2, 3)}
    for k, certs in streams.items():
        assert certs, f"no certificates for k={k}"
        for cert in certs:
            assert cert.oracle.two_part == 1 << k
            assert cert.oracle.cyclic_2sylow
            factory.validate_certificate(cert)
    triples = {k: [(c.p1, c.p2, c.d) for c in certs] for k, certs in streams.items()}
    assert triples[1] == [(5, 3, 15)]
    assert (13, 3, 39) in triples[2]
    assert (61, 3, 183) in triples[3]
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"took {elapsed:.1f}s"


@criterion("2 level k=4 instance with two_part 16 (runtime < 2 min)")
def test_criterion_2_k4_instance():
    t0 = time.monotonic()
    certs = list(factory.search(4, range(1, 2)))
    assert len(certs) >= 1
    for cert in certs:
        assert cert.p1 % 8 == 5 and cert.p2 % 8 == 3
        assert cert.oracle.two_part == 16
        assert cert.oracle.cyclic_2sylow
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"took {elapsed:.1f}s"


@criterion("3 symbol test matches oracle on every pair, k <= 5, d <= 1e7, zero exceptions")
def test_criterion_3_biconditional():
    # every target with a pair in budget: the smallest d of a target n
    # is 3*(n - 3), and n grows with m
    cases = []
    for k in range(1, 6):
        m = 1
        while 3 * (factory.target(k, m) - 3) <= 10**7:
            cases.append((k, m))
            m += 1
    examined = 0
    for k, m in cases:
        w = 2 * m * m
        for negative in (False, True):
            for p1, p2 in (negative_pairs if negative else factory.find_pairs)(k, m, 10**7):
                d = p1 * p2
                verdict = criteria.exact_order_test(w, abs(p1 - p2) // 2, (p1, p2))
                oracle = forms.class_number(d)
                assert oracle.cyclic_2sylow, (k, m, p1, p2)
                assert verdict == (oracle.two_part == 1 << k), (k, m, p1, p2)
                if negative:
                    assert not verdict and oracle.two_part > 1 << k
                examined += 1
    assert examined == 3101, f"{examined} pairs examined"


@criterion("4 constructed classes have order divisible by 2m, exact under the symbol test")
def test_criterion_4_order_divisibility():
    checked = exact_checked = 0
    for w in (2, 4, 6):
        for m in (1, 2, 3):
            for x in range(1, 2 * w**m - 1):
                if math.gcd(x, w) != 1:
                    continue
                f = forms.order_2m_form(w, x, m)
                order = element_order(f)
                assert order % (2 * m) == 0, (w, x, m, order)
                checked += 1
                if m not in (1, 2):
                    continue
                k = m.bit_length()  # m = 2**(k-1)
                lo, hi = 2 * w**m - x, 2 * w**m + x
                if not (arith.is_prime(lo) and arith.is_prime(hi) and lo >= 3):
                    continue
                p1, p2 = (lo, hi) if lo % 4 == 1 else (hi, lo)
                if criteria.exact_order_test(w, x, (p1, p2)):
                    assert order == 2 * m, (w, x, m, order)
                    exact_checked += 1
    assert checked > 200 and exact_checked > 10


@criterion("5 Hilbert symbol product over p | d equals 1 on the full sweep")
def test_criterion_5_product_formula():
    tested = 0
    for d in range(3, 10_001, 4):
        fac = arith.factorize(d)
        if any(e > 1 for _, e in fac):
            continue
        primes = [p for p, _ in fac]
        norms = {a: b for a, b, _ in forms.enumerate_reduced(d) if math.gcd(a, d) == 1}
        for w in sorted(norms):
            symbols = local_symbols(w, d)
            assert math.prod(symbols) == 1, (w, d)
            assert criteria.exact_order_test(w, norms[w], primes) == (-1 in symbols), (w, d)
            tested += 1
    # certificate-shaped pairs as well
    for k, m in ((1, 1), (1, 2), (1, 3), (2, 1), (1, 4)):
        for p1, p2 in factory.find_pairs(k, m):
            assert math.prod(local_symbols(2 * m * m, p1 * p2)) == 1
            assert criteria.exact_order_test(2 * m * m, abs(p1 - p2) // 2, (p1, p2))
            tested += 1
    assert tested > 3000, f"only {tested} pairs tested"


@criterion("6 exponential-sum identities: mu2, restricted Gauss sums, residue counts")
def test_criterion_6_identities():
    for q in range(1, 200, 2):
        direct = restricted_gauss_sum(1, 8 * q)
        assert abs(direct.imag) < 1e-9, q
        assert abs(direct.real - restricted_mobius(8 * q)) < 1e-9, q
    for q8 in range(8, 401, 8):
        mu2 = restricted_mobius(q8)
        for a in range(1, q8):
            if math.gcd(a, q8) == 1:
                predicted = kronecker(a, 2) * mu2
                assert abs(restricted_gauss_sum(a, q8) - predicted) < 1e-9
    for n in range(8, 10_001, 8):
        q = n
        j = 0
        while q % 2 == 0:
            q //= 2
            j += 1
        expected = (1 << (j - 2)) * euler_phi(q)
        assert residue_totient(n, (3, 5)) == expected == residue_totient(n, (1, 7)), n


@criterion("7 singular series: vanishing set, series/product and identity at 1e-2")
def test_criterion_7_singular_series():
    for m in range(1, 1000):
        value = circle.restricted_singular_series(m, "product")
        assert (value == 0.0) == (m % 2 == 1 or m % 8 == 4), m
    rng = random.Random(2024)
    sample = [2 * rng.randrange(1, 5001) for _ in range(200)]
    for m in sample:
        series1 = circle.singular_series(m, "series", 10_000)
        product1 = circle.singular_series(m, "product")
        assert abs(series1 - product1) < 1e-2, m
        series2 = circle.restricted_singular_series(m, "series", 10_000)
        product2 = circle.restricted_singular_series(m, "product")
        assert abs(series2 - product2) < 1e-2, m
        predicted = series1 / 4 * (1 + ramanujan_sum(8, m) / 4)
        assert abs(series2 - predicted) < 1e-2, m
    for m in (15, 21, 12, 28, 44):  # vanishing set holds for the series too
        assert abs(circle.restricted_singular_series(m, "series", 10_000)) < 1e-2


@criterion("8 window mean of count/main-term in [0.9, 1.1] near 2e5 (runtime < 2 min)")
def test_criterion_8_window_mean():
    t0 = time.monotonic()
    table = arith.sieve(2, 201_000)
    rows = []
    for start in (200_000, 200_002, 200_006):  # residues 0, 2, 6 mod 8
        rows.extend(circle.compare_window(start, 201_000, 8, table))
    assert {r.n % 8 for r in rows} == {0, 2, 6}
    assert len(rows) == 376
    mean = sum(r.ratio for r in rows) / len(rows)
    assert 0.9 <= mean <= 1.1, f"mean ratio {mean:.4f}"
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"took {elapsed:.1f}s"


@criterion("9 repeated runs produce byte-identical CSV")
def test_criterion_9_determinism(tmp_path):
    outs = []
    for name in ("s1.csv", "s2.csv"):
        path = tmp_path / name
        assert cli.main(["search", "--k", "2", "--m-max", "2",
                         "--output", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    outs = []
    for name in ("c1.csv", "c2.csv"):
        path = tmp_path / name
        assert cli.main(["compare", "--n-lo", "200000", "--n-hi", "200400",
                         "--step", "8", "--output", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


@criterion("10 level k=6 instance with two_part 64, by verify (runtime < 10 s)")
def test_criterion_10_k6_instance(capsys):
    t0 = time.monotonic()
    code = cli.main(["verify", "--k", "6", "--m", "1", "--p1", "17179869053",
                     "--p2", "131", "--d-max", "3000000000000"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == [
        "k,M,w,x,p1,p2,d,symbol_ok,h,two_part,cyclic",
        "6,1,2,8589934461,17179869053,131,2250562845943,true,570304,64,true",
    ]
    assert elapsed < 10, f"took {elapsed:.1f}s"
