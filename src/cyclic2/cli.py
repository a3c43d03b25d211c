"""Command-line front end.

The only module with I/O side effects.  Output is bit-exact and
reproducible: CSV with LF line endings, reals at 12 significant digits,
booleans as true/false, no timestamps in data files.  JSON mirrors the
CSV fields one-to-one.  Exit codes: 0 success with at least one output
row, 2 validation failure, 1 internal error; failures also emit one
machine-readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from dataclasses import dataclass

from . import arith, circle, criteria, factory, forms

CERT_COLUMNS = ["k", "M", "w", "x", "p1", "p2", "d", "symbol_ok", "h", "two_part", "cyclic"]
GROUP_COLUMNS = ["d", "h", "two_part", "cyclic", "ambiguous"]

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2


@dataclass
class RunConfig:
    subcommand: str
    k: int | None = None
    m_min: int = 1
    m_max: int | None = None
    m: int | None = None
    p1: int | None = None
    p2: int | None = None
    d: int | None = None
    d_budget: int = factory.DEFAULT_D_BUDGET
    truncation_q: int = 10_000
    n_lo: int | None = None
    n_hi: int | None = None
    step: int = 8
    with_forms: bool = False
    fmt: str = "csv"
    output: str | None = None
    cache_path: str | None = None


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _write_rows(cfg: RunConfig, columns: list[str], rows: list[dict]) -> None:
    if cfg.fmt == "json":
        payload = [{c: row[c] for c in columns} for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_value(row[c]) for c in columns])
        text = buf.getvalue()
    if cfg.output is None or cfg.output == "-":
        sys.stdout.write(text)
    else:
        with open(cfg.output, "w", newline="") as fh:
            fh.write(text)


def _error_line(kind: str, exc: BaseException) -> None:
    reason = getattr(exc, "reason", None)
    payload = {"error": kind, "message": str(exc)}
    if reason:
        payload["reason"] = reason
    print(json.dumps(payload), file=sys.stderr)


def _prime_table(hi: int, cache_path: str | None) -> arith.PrimeTable:
    """Sieve [2, hi], optionally through the cache file; results are
    identical with or without the cache."""
    if cache_path and os.path.exists(cache_path):
        try:
            table = arith.PrimeTable.load(cache_path)
        except (ValueError, OSError):
            table = None
        if table is not None and table.covers(2, hi):
            return table
    table = arith.sieve(2, hi)
    if cache_path:
        table.save(cache_path)
    return table


def _cert_row(cert: factory.Certificate) -> dict:
    return {
        "k": cert.k,
        "M": cert.M,
        "w": cert.w,
        "x": cert.x,
        "p1": cert.p1,
        "p2": cert.p2,
        "d": cert.d,
        "symbol_ok": cert.symbol_ok,
        "h": cert.oracle.h,
        "two_part": cert.oracle.two_part,
        "cyclic": cert.oracle.cyclic_2sylow,
    }


def cmd_search(cfg: RunConfig) -> list[tuple[list[str], list[dict]]]:
    if cfg.k is None or cfg.m_max is None:
        raise ValueError("search requires --k and --m-max")
    if cfg.m_min < 1 or cfg.m_max < cfg.m_min:
        raise ValueError("search requires 1 <= m-min <= m-max")
    certs = factory.search(cfg.k, range(cfg.m_min, cfg.m_max + 1), d_budget=cfg.d_budget)
    return [(CERT_COLUMNS, [_cert_row(c) for c in certs])]


def _group_row(summary: forms.ClassGroup2Summary) -> dict:
    return {
        "d": summary.d,
        "h": summary.h,
        "two_part": summary.two_part,
        "cyclic": summary.cyclic_2sylow,
        "ambiguous": summary.ambiguous_count,
    }


def _budgeted_d(cfg: RunConfig) -> int:
    """--d for the oracle, refused before any enumeration above --d-max."""
    if cfg.d > cfg.d_budget:
        raise ValueError(f"d={cfg.d} exceeds the oracle budget --d-max {cfg.d_budget}")
    return cfg.d


def cmd_verify(cfg: RunConfig) -> list[tuple[list[str], list[dict]]]:
    if cfg.d is not None:
        summary = forms.class_number(_budgeted_d(cfg))
        return [(GROUP_COLUMNS, [_group_row(summary)])]
    if None in (cfg.k, cfg.m, cfg.p1, cfg.p2):
        raise ValueError("verify requires either --d or all of --k --m --p1 --p2")
    cert = factory.certify(cfg.k, cfg.m, cfg.p1, cfg.p2, d_budget=cfg.d_budget)
    return [(CERT_COLUMNS, [_cert_row(cert)])]


def cmd_classgroup(cfg: RunConfig) -> list[tuple[list[str], list[dict]]]:
    if cfg.d is None:
        raise ValueError("classgroup requires --d")
    d = _budgeted_d(cfg)
    group = forms.enumerate_reduced(d) if cfg.with_forms else None
    row = _group_row(forms.class_number(d, group))
    columns = list(GROUP_COLUMNS)
    if cfg.with_forms:
        columns.append("forms")
        row["forms"] = ";".join(str(f) for f in group)
    return [(columns, [row])]


def cmd_singular(cfg: RunConfig) -> list[tuple[list[str], list[dict]]]:
    if cfg.m is None:
        raise ValueError("singular requires --m")
    m, q = cfg.m, cfg.truncation_q
    if m % 2:
        reason = "odd"
    elif m % 8 == 4:
        reason = "4mod8"
    else:
        reason = "none"
    row = {
        "m": m,
        "full_series": circle.singular_series(m, "series", q).value,
        "full_product": circle.singular_series(m, "product").value,
        "restricted_series": circle.restricted_singular_series(m, "series", q).value,
        "restricted_product": circle.restricted_singular_series(m, "product").value,
        "truncation_q": q,
        "vanishing_reason": reason,
    }
    return [(list(row.keys()), [row])]


def cmd_compare(cfg: RunConfig) -> list[tuple[list[str], list[dict]]]:
    if cfg.n_lo is None or cfg.n_hi is None:
        raise ValueError("compare requires --n-lo and --n-hi")
    circle.window_range(cfg.n_lo, cfg.n_hi, cfg.step)  # refused before the sieve
    table = _prime_table(max(cfg.n_hi, 2), cfg.cache_path)
    rows = circle.compare_window(cfg.n_lo, cfg.n_hi, cfg.step, table)
    out = [
        {
            "n": r.n,
            "restricted_sum": r.restricted_sum,
            "main_term": r.main_term,
            "ratio": r.ratio,
        }
        for r in rows
    ]
    return [(["n", "restricted_sum", "main_term", "ratio"], out)]


_COMMANDS = {
    "search": cmd_search,
    "verify": cmd_verify,
    "classgroup": cmd_classgroup,
    "singular": cmd_singular,
    "compare": cmd_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclic2",
        description="Certified cyclic 2-class group construction and "
        "restricted Goldbach arithmetic.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log per-pair rejections to stderr")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="output path (default stdout)")

    def d_max(p):
        p.add_argument("--d-max", type=int, default=factory.DEFAULT_D_BUDGET,
                       help="largest discriminant the enumeration oracle will accept")

    p = sub.add_parser("search", help="emit certificates for a multiplier range")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m-min", type=int, default=1)
    p.add_argument("--m-max", type=int, required=True)
    d_max(p)
    common(p)

    p = sub.add_parser("verify", help="re-validate a claimed certificate, or "
                       "report the 2-Sylow structure of a discriminant")
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--p1", type=int)
    p.add_argument("--p2", type=int)
    d_max(p)
    common(p)

    p = sub.add_parser("classgroup", help="class number and 2-Sylow structure")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--forms", action="store_true", help="include the reduced forms")
    d_max(p)
    common(p)

    p = sub.add_parser("singular", help="singular series in both modes")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--truncation-q", type=int, default=10_000,
                   help=f"series truncation, at most {circle.MAX_TRUNCATION_Q}")
    common(p)

    p = sub.add_parser("compare", help="restricted counts against the main term; "
                       f"rows * n-hi at most {circle.MAX_WINDOW_WORK}")
    p.add_argument("--n-lo", type=int, required=True)
    p.add_argument("--n-hi", type=int, required=True)
    p.add_argument("--step", type=int, default=8)
    common(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand)
    cfg.fmt = getattr(args, "format", "csv")
    cfg.output = getattr(args, "output", None)
    cfg.cache_path = os.environ.get("C2_CACHE")
    for attr, name in (
        ("k", "k"), ("m_min", "m_min"), ("m_max", "m_max"), ("m", "m"),
        ("p1", "p1"), ("p2", "p2"), ("d", "d"), ("d_budget", "d_max"),
        ("truncation_q", "truncation_q"), ("n_lo", "n_lo"), ("n_hi", "n_hi"),
        ("step", "step"), ("with_forms", "forms"),
    ):
        if hasattr(args, name):
            setattr(cfg, attr, getattr(args, name))
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    cfg = _config_from_args(args)
    try:
        sections = _COMMANDS[cfg.subcommand](cfg)
        total = sum(len(rows) for _, rows in sections)
        if total == 0:
            raise ValueError("no output rows produced")
        for columns, rows in sections:
            _write_rows(cfg, columns, rows)
        return EXIT_OK
    except factory.InternalInvariantError as exc:
        _error_line("internal", exc)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        _error_line("validation", exc)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        _error_line("internal", exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
