"""Command-line front end.

The only module with I/O side effects: it reads the command line and
writes rows to stdout or --output, and error lines and logs to stderr.
Output is bit-exact and reproducible: CSV with LF line endings, reals at
12 significant digits, booleans as true/false, no timestamps in data
files.  JSON mirrors the CSV fields one-to-one.  Exit codes: 0 success
with at least one output row, 2 validation failure, 1 internal error;
failures also emit one machine-readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import sys

from . import arith, circle, factory, forms

CERT_COLUMNS = ["k", "M", "w", "x", "p1", "p2", "d", "symbol_ok", "h", "two_part", "cyclic"]
GROUP_COLUMNS = ["d", "h", "two_part", "cyclic", "ambiguous"]

MAX_SINGULAR_M = 1 << 64

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _write_rows(args: argparse.Namespace, columns: list[str], rows: list[dict]) -> None:
    if args.format == "json":
        payload = [{c: row[c] for c in columns} for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_value(row[c]) for c in columns])
        text = buf.getvalue()
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)


def _error_line(kind: str, exc: BaseException) -> None:
    reason = getattr(exc, "reason", None)
    payload = {"error": kind, "message": str(exc)}
    if reason:
        payload["reason"] = reason
    print(json.dumps(payload), file=sys.stderr)


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


def cmd_search(args: argparse.Namespace) -> tuple[list[str], list[dict]]:
    if args.m_min < 1 or args.m_max < args.m_min:
        raise ValueError("search requires 1 <= m-min <= m-max")
    certs = factory.search(args.k, range(args.m_min, args.m_max + 1), d_budget=args.d_max)
    return CERT_COLUMNS, [_cert_row(c) for c in certs]


def _group_row(summary: forms.ClassGroup2Summary) -> dict:
    return {
        "d": summary.d,
        "h": summary.h,
        "two_part": summary.two_part,
        "cyclic": summary.cyclic_2sylow,
        "ambiguous": summary.ambiguous_count,
    }


def _budgeted_d(args: argparse.Namespace) -> int:
    """--d for the oracle, refused before any enumeration above --d-max."""
    if args.d > args.d_max:
        raise ValueError(f"d={args.d} exceeds the oracle budget --d-max {args.d_max}")
    return args.d


def cmd_verify(args: argparse.Namespace) -> tuple[list[str], list[dict]]:
    if args.d is not None:
        return GROUP_COLUMNS, [_group_row(forms.class_number(_budgeted_d(args)))]
    if None in (args.k, args.m, args.p1, args.p2):
        raise ValueError("verify requires either --d or all of --k --m --p1 --p2")
    cert = factory.certify(args.k, args.m, args.p1, args.p2, d_budget=args.d_max)
    return CERT_COLUMNS, [_cert_row(cert)]


def cmd_classgroup(args: argparse.Namespace) -> tuple[list[str], list[dict]]:
    d = _budgeted_d(args)
    group = forms.enumerate_reduced(d) if args.forms else None
    row = _group_row(forms.class_number(d, group))
    columns = list(GROUP_COLUMNS)
    if args.forms:
        columns.append("forms")
        row["forms"] = ";".join(",".join(map(str, f)) for f in group)
    return columns, [row]


def cmd_singular(args: argparse.Namespace) -> tuple[list[str], list[dict]]:
    m, q = args.m, args.truncation_q
    if m >= MAX_SINGULAR_M:
        # the product columns factorise m, which arith.factorize bounds
        raise ValueError(f"--m must be below 2**64, got {m}")
    row = {
        "m": m,
        "full_series": circle.singular_series(m, "series", q),
        "full_product": circle.singular_series(m, "product"),
        "restricted_series": circle.restricted_singular_series(m, "series", q),
        "restricted_product": circle.restricted_singular_series(m, "product"),
        "truncation_q": q,
        "vanishing_reason": circle.vanishing_reason(m),
    }
    return list(row.keys()), [row]


def cmd_compare(args: argparse.Namespace) -> tuple[list[str], list[dict]]:
    circle.window_range(args.n_lo, args.n_hi, args.step)  # refused before the sieve
    table = arith.sieve(2, max(args.n_hi, 2))
    rows = circle.compare_window(args.n_lo, args.n_hi, args.step, table)
    out = [
        {
            "n": r.n,
            "restricted_sum": r.restricted_sum,
            "main_term": r.main_term,
            "ratio": r.ratio,
        }
        for r in rows
    ]
    return ["n", "restricted_sum", "main_term", "ratio"], out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclic2",
        description="Certified cyclic 2-class group construction and "
        "restricted Goldbach arithmetic.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log per-pair rejections to stderr")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, run):
        p.set_defaults(run=run)
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
    common(p, cmd_search)

    p = sub.add_parser("verify", help="re-validate a claimed certificate, or "
                       "report the 2-Sylow structure of a discriminant")
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--p1", type=int)
    p.add_argument("--p2", type=int)
    d_max(p)
    common(p, cmd_verify)

    p = sub.add_parser("classgroup", help="class number and 2-Sylow structure")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--forms", action="store_true", help="include the reduced forms")
    d_max(p)
    common(p, cmd_classgroup)

    p = sub.add_parser("singular", help="singular series in both modes")
    p.add_argument("--m", type=int, required=True, help="argument of S1 and S2, below 2**64")
    p.add_argument("--truncation-q", type=int, default=10_000,
                   help=f"series truncation, at most {circle.MAX_TRUNCATION_Q}")
    common(p, cmd_singular)

    p = sub.add_parser("compare", help="restricted counts against the main term; "
                       f"rows * n-hi at most {circle.MAX_WINDOW_WORK}")
    p.add_argument("--n-lo", type=int, required=True)
    p.add_argument("--n-hi", type=int, required=True)
    p.add_argument("--step", type=int, default=8)
    common(p, cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        columns, rows = args.run(args)
        if not rows:
            raise ValueError("no output rows produced")
        _write_rows(args, columns, rows)
        return EXIT_OK
    except (ValueError, OSError) as exc:
        _error_line("validation", exc)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        _error_line("internal", exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
