"""Workload definitions: seeded argv generators and the layers each one loads.

A workload is a list of `cyclic2` invocations (argv lists, without the
program name) run one after another.  The program only ever sees the
generated argv; the seed stays in the benchmark.  Inputs whose cost
depends on the draw are drawn from equal-width strata, so that the work
in one iteration barely depends on the seed and seed-to-seed spread
stays small next to the bounds in BENCHMARK.json.

Number theory needed to generate and check inputs is done here by trial
division, independently of `cyclic2.arith`.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 1

# Every input below is at most 1e8, so primes to 1e4 factor all of them.
_TRIAL_LIMIT = 10_000


def _small_primes(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if flags[p]]


_PRIMES = _small_primes(_TRIAL_LIMIT)


def factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of 1 <= n <= 1e8, by trial division."""
    if not 1 <= n <= _TRIAL_LIMIT**2:
        raise ValueError(f"trial division covers 1 <= n <= {_TRIAL_LIMIT**2}, got {n}")
    out = []
    for p in _PRIMES:
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


def target(k: int, M: int) -> int:
    """Pair-sum target 4*(2*M**2)**(2**(k-1)) of `cyclic2 search`."""
    return 4 * (2 * M * M) ** (1 << (k - 1))


def class_number_estimate(d: int) -> float:
    """h(-d) ~ sqrt(d)/pi * L(1, chi) for squarefree d = 3 (mod 4) > 3,
    with the Euler product of L truncated at _EULER_LIMIT; the tail
    moves the estimate by about 1%."""
    chi2 = 1 if d % 8 == 7 else -1  # (-d / 2), from -d mod 8
    L = 1 / (1 - chi2 / 2)
    for p in _EULER_PRIMES:
        r = pow(-d % p, (p - 1) // 2, p)  # Euler's criterion: (-d / p) mod p
        chi = 1 if r == 1 else -1 if r == p - 1 else 0
        L /= 1 - chi / p
    return math.sqrt(d) / math.pi * L


_EULER_LIMIT = 3_000
_EULER_PRIMES = [p for p in _PRIMES[1:] if p < _EULER_LIMIT]
# The witness scan of a non-cyclic d costs about h*log(h) compositions,
# and h varies several-fold between d of the same size, so every `--d`
# input is drawn with its estimated h in this band.
H_BAND = (2_800, 3_400)


def _draw_d(rng: random.Random, lo: int, hi: int, accept) -> int:
    """Uniform d = 3 (mod 4) in [lo, hi), squarefree, with accept(omega)
    and the estimated class number in H_BAND."""
    while True:
        d = rng.randrange(lo, hi) // 4 * 4 + 3
        fac = factorize(d)
        if (all(e == 1 for _, e in fac) and accept(len(fac))
                and H_BAND[0] <= class_number_estimate(d) <= H_BAND[1]):
            return d


def _strata(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    width = (hi - lo) // parts
    return [(lo + i * width, lo + (i + 1) * width) for i in range(parts)]


VERIFY_K, VERIFY_M = 3, 2
# Pairs whose d is within 10% of the largest possible, (n/2)**2, so that
# the two `verify --k` invocations cost about the same at every seed.
_VERIFY_PAIR_D_FLOOR = 0.9


def verify_pairs() -> list[tuple[int, int]]:
    """Pairs of find_pairs(3, 2) with d >= 0.9 * (n/2)**2, p1 ascending."""
    n = target(VERIFY_K, VERIFY_M)
    floor = _VERIFY_PAIR_D_FLOOR * (n // 2) ** 2
    return [
        (p1, n - p1)
        for p1 in range(5, n - 2, 8)
        if p1 * (n - p1) >= floor and is_prime(p1) and is_prime(n - p1)
    ]


def search_oracle(rng: random.Random) -> list[list[str]]:
    """`search --k 2 --m-max 5`; the argv does not depend on the seed."""
    return [["search", "--k", "2", "--m-max", "5"]]


def search_sieve(rng: random.Random) -> list[list[str]]:
    """`search --k 4 --m-max 2`; the argv does not depend on the seed."""
    return [["search", "--k", "4", "--m-max", "2"]]


def verify_mixed(rng: random.Random) -> list[list[str]]:
    """8 `verify` invocations in seeded order:

    - 4 x `verify --d` on squarefree d = 3 (mod 4) in [5e7, 1e8) with at
      least 4 prime factors, one from each quarter of the range;
    - 2 x `verify --d` with exactly 2 prime factors, one from each half;
    - every d with its estimated class number in H_BAND;
    - 2 x `verify --k 3 --m 2 --p1 P1 --p2 P2` on distinct pairs of
      `verify_pairs()`.
    """
    ds = [_draw_d(rng, lo, hi, lambda w: w >= 4) for lo, hi in _strata(5 * 10**7, 10**8, 4)]
    ds += [_draw_d(rng, lo, hi, lambda w: w == 2) for lo, hi in _strata(5 * 10**7, 10**8, 2)]
    calls = [["verify", "--d", str(d)] for d in ds]
    for p1, p2 in rng.sample(verify_pairs(), 2):
        calls.append(["verify", "--k", str(VERIFY_K), "--m", str(VERIFY_M),
                      "--p1", str(p1), "--p2", str(p2)])
    rng.shuffle(calls)
    return calls


COMPARE_WINDOW = 5_000
_COMPARE_LO, _COMPARE_HI = 200_000, 300_000


def circle_window(rng: random.Random) -> list[list[str]]:
    """Two `compare` windows of width 5000 at step 8 plus one `singular`:

    - `compare --n-lo N0 --n-hi N0+5000 --step 8` with N0 = 0 (mod 8)
      drawn from [2e5, 2.475e5];
    - the same at the mirror image N1 = 4.95e5 - N0, so that N0 + N1 and
      with it the total window-sum work are the same at every seed;
    - `singular --m m --truncation-q 1000000` with m even in [2e5, 3e5].
    """
    top = _COMPARE_LO + _COMPARE_HI - COMPARE_WINDOW
    n0 = rng.randrange(_COMPARE_LO, top // 2 + 1, 8)
    m = rng.randrange(_COMPARE_LO, _COMPARE_HI + 1, 2)
    return [
        ["compare", "--n-lo", str(n), "--n-hi", str(n + COMPARE_WINDOW), "--step", "8"]
        for n in (n0, top - n0)
    ] + [["singular", "--m", str(m), "--truncation-q", "1000000"]]


GENERATORS = {
    "search-oracle": search_oracle,
    "search-sieve": search_sieve,
    "verify-mixed": verify_mixed,
    "circle-window": circle_window,
}

# Layers each workload loads (where its time goes at the seed commit)
# and the layers it bypasses, for which a change there predicts no
# change on the workload.
LAYERS = {
    "search-oracle": {
        "loads": ["forms.enumerate", "forms.ambiguous"],
        "light": ["forms.witness", "arith.sieve", "arith.is_prime", "factory.certify",
                  "criteria.symbol", "cli"],
        "bypasses": ["circle", "factory.validate"],
    },
    "search-sieve": {
        "loads": ["arith.is_prime", "factory.certify", "factory.find_pairs",
                  "arith.primes", "arith.sieve", "forms.enumerate"],
        "light": ["forms.ambiguous", "forms.witness", "criteria.symbol", "cli"],
        "bypasses": ["circle", "factory.validate"],
    },
    "verify-mixed": {
        "loads": ["forms.witness", "forms.enumerate", "factory.validate"],
        "light": ["forms.ambiguous", "factory.certify", "criteria.symbol",
                  "arith.factorize", "arith.is_prime", "cli"],
        "bypasses": ["circle", "arith.sieve", "factory.find_pairs"],
    },
    "circle-window": {
        "loads": ["circle.window_sum", "circle.series"],
        "light": ["arith.sieve", "arith.primes", "arith.factorize", "cli"],
        "bypasses": ["forms", "factory", "criteria"],
    },
}


def generate(workload: str, seed: int) -> list[list[str]]:
    """The argv lists of one iteration of `workload` at `seed`."""
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"))
