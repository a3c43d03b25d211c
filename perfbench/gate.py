"""Correctness gate: checks one invocation's stdout against its argv.

Two kinds of check:

- golden: `golden.json` maps an argv (joined by spaces) to the sha256 of
  its stdout, recorded at the default seed.  Any invocation whose argv is
  recorded must reproduce those bytes exactly.  The search argvs do not
  depend on the seed, so they are hash-checked at every seed.
- structural: relations that hold for any seed, checked with the trial
  division in `workloads` rather than with `cyclic2.arith`.

`check` raises GateError naming the first failed check.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

from workloads import factorize, is_prime, target

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

CERT_COLUMNS = ["k", "M", "w", "x", "p1", "p2", "d", "symbol_ok", "h", "two_part", "cyclic"]
GROUP_COLUMNS = ["d", "h", "two_part", "cyclic", "ambiguous"]
COMPARE_COLUMNS = ["n", "restricted_sum", "main_term", "ratio"]
SINGULAR_COLUMNS = ["m", "full_series", "full_product", "restricted_series",
                    "restricted_product", "truncation_q", "vanishing_reason"]
D_BUDGET = 10**9  # the CLI's default --d-max
TWIN_PRIME_CONSTANT = 0.66016181584686957393
# Printed reals have 12 significant digits, so a ratio recomputed from
# printed fields agrees to about 1e-12; the series tail at q > 1e6 is
# far below 1e-4.
RATIO_RTOL = 1e-10
SERIES_RTOL = 1e-4


class GateError(ValueError):
    """An invocation's output fails a correctness check."""


def load_golden(path: str = GOLDEN_PATH) -> dict[str, str]:
    with open(path) as fh:
        return json.load(fh)


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


def _close(a: float, b: float, rtol: float) -> bool:
    # relative for |values| > 1, absolute below, so that a vanishing
    # series (m = 4 mod 8) compares against 0
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def _rows(text: str, columns: list[str]) -> list[dict[str, str]]:
    table = list(csv.reader(io.StringIO(text)))
    _require(bool(table) and table[0] == columns, f"header is not {','.join(columns)}")
    _require(len(table) > 1, "no data rows")
    _require(all(len(r) == len(columns) for r in table[1:]), "ragged row")
    return [dict(zip(columns, r)) for r in table[1:]]


def _check_cert(row: dict[str, str], k: int) -> tuple[int, int]:
    M, p1, p2, d = (int(row[c]) for c in ("M", "p1", "p2", "d"))
    n = target(k, M)
    _require(int(row["k"]) == k, "k differs from argv")
    _require(int(row["w"]) == 2 * M * M, "w != 2*M**2")
    _require(p1 + p2 == n, "p1 + p2 != target")
    _require(p1 % 8 == 5 and p2 % 8 == 3, "residues are not p1 = 5, p2 = 3 (mod 8)")
    _require(is_prime(p1) and is_prime(p2), "p1 or p2 is not prime")
    _require(d == p1 * p2 and d <= D_BUDGET, "d != p1*p2 or d over budget")
    _require(int(row["x"]) == abs(p1 - n // 2), "x != |p1 - n/2|")
    _require(row["symbol_ok"] == "true", "symbol_ok is not true")
    _require(int(row["two_part"]) == 1 << k, "two_part != 2**k")
    h = int(row["h"])
    _require(h > 0 and h & -h == 1 << k, "2-part of h != 2**k")
    _require(row["cyclic"] == "true", "cyclic is not true")
    return M, p1


def check_search(opts: dict[str, str], text: str) -> None:
    k, m_min, m_max = int(opts["--k"]), int(opts.get("--m-min", 1)), int(opts["--m-max"])
    keys = [_check_cert(row, k) for row in _rows(text, CERT_COLUMNS)]
    _require(all(m_min <= M <= m_max for M, _ in keys), "M outside [m-min, m-max]")
    _require(keys == sorted(set(keys)), "rows not in (M, p1) order")


def check_verify(opts: dict[str, str], text: str) -> None:
    if "--d" in opts:
        (row,) = _rows(text, GROUP_COLUMNS)
        d, h, two_part, ambiguous = (int(row[c]) for c in ("d", "h", "two_part", "ambiguous"))
        fac = factorize(d)
        _require(d == int(opts["--d"]), "d differs from argv")
        _require(d % 4 == 3 and all(e == 1 for _, e in fac), "d is not squarefree 3 mod 4")
        # Genus theory: Cl(-d) has 2**(omega(d) - 1) classes of order <= 2.
        _require(ambiguous == 1 << (len(fac) - 1), "ambiguous != 2**(omega(d) - 1)")
        _require(row["cyclic"] == ("true" if len(fac) <= 2 else "false"),
                 "cyclic disagrees with omega(d) <= 2")
        _require(h > 0 and two_part == h & -h and h % ambiguous == 0, "h inconsistent with 2-part")
        return
    (row,) = _rows(text, CERT_COLUMNS)
    _check_cert(row, int(opts["--k"]))
    _require((row["M"], row["p1"], row["p2"]) == (opts["--m"], opts["--p1"], opts["--p2"]),
             "M, p1 or p2 differs from argv")


def check_compare(opts: dict[str, str], text: str) -> None:
    rows = _rows(text, COMPARE_COLUMNS)
    lo, hi, step = int(opts["--n-lo"]), int(opts["--n-hi"]), int(opts.get("--step", 8))
    _require([int(r["n"]) for r in rows] == list(range(lo, hi + 1, step)), "n column != window")
    for r in rows:
        rs, mt, ratio = float(r["restricted_sum"]), float(r["main_term"]), float(r["ratio"])
        _require(rs > 0 and mt > 0, "non-positive sum or main term")
        _require(_close(ratio, rs / mt, RATIO_RTOL), "ratio != restricted_sum / main_term")


def _ramanujan_c8(m: int) -> int:
    return {8: 4, 4: -4}.get(math.gcd(8, m), 0)


def check_singular(opts: dict[str, str], text: str) -> None:
    (row,) = _rows(text, SINGULAR_COLUMNS)
    m = int(row["m"])
    _require(m == int(opts["--m"]), "m differs from argv")
    _require(row["truncation_q"] == opts.get("--truncation-q", "10000"), "truncation_q differs")
    reason = "odd" if m % 2 else "4mod8" if m % 8 == 4 else "none"
    _require(row["vanishing_reason"] == reason, "wrong vanishing_reason")
    full = 0.0
    if m % 2 == 0:
        full = 2 * TWIN_PRIME_CONSTANT * math.prod((p - 1) / (p - 2) for p, _ in factorize(m) if p > 2)
    restricted = full / 4 * (1 + _ramanujan_c8(m) / 4)
    for col, want in (("full_product", full), ("restricted_product", restricted)):
        _require(_close(float(row[col]), want, RATIO_RTOL), f"{col} != Euler product")
    for col, want in (("full_series", full), ("restricted_series", restricted)):
        _require(_close(float(row[col]), want, SERIES_RTOL), f"{col} far from the product")


CHECKS = {
    "search": check_search,
    "verify": check_verify,
    "compare": check_compare,
    "singular": check_singular,
}


def check(argv: list[str], stdout: bytes, golden: dict[str, str]) -> None:
    """Raise GateError unless stdout is a correct output for argv."""
    want = golden.get(" ".join(argv))
    _require(want is None or want == digest(stdout), "stdout sha256 differs from golden.json")
    opts = dict(zip(argv[1::2], argv[2::2]))
    try:
        CHECKS[argv[0]](opts, stdout.decode())
    except GateError:
        raise
    except (KeyError, ValueError, UnicodeDecodeError) as exc:
        raise GateError(f"malformed output: {exc!r}") from exc
