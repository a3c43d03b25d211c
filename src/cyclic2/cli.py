"""Command-line front end.

The only module with I/O side effects: it reads the command line and
writes rows to stdout or --output, and error lines to stderr.
Output is bit-exact and reproducible: CSV with LF line endings, reals at
12 significant digits, booleans as true/false, no timestamps in data
files.  JSON mirrors the CSV fields one-to-one.  Rows are written as
they come, so `search` shows each certificate as soon as it is issued,
and rows written before a failure stay written.  Exit codes: 0 success
with at least one output row; 2 for a `bounds.UsageError`, an argparse
error or an unwritable --output; 1 for any other exception, a bug.
Failures also emit one machine-readable JSON line on stderr.  The
parser reads its bounds from `bounds`, and each `cmd_*` imports the
modules it runs, so `search` and `verify` never load `circle`, and
`compare` and `singular` never load the form oracle; `json` is imported
only where JSON is written.  `main` sets OPENBLAS_NUM_THREADS to 1
unless the caller set it, before the command first imports numpy, so
numpy's OpenBLAS starts no worker threads: `circle` calls no BLAS
routine, so no float can depend on the BLAS thread count.

`run` is the process entry, for `python -m cyclic2.cli` and the
installed `cyclic2` script: it returns `main`'s exit code after
`gc.freeze()`.  The interpreter's collection at shutdown skips frozen
objects, so the process no longer walks every object it made, numpy's
included, to free memory that the OS takes back at exit (about 15 ms
of a 0.11 s `import numpy` child, 6 ms of an empty one, on a 2-core
x86 machine).  atexit
handlers, stream flushes and the exit code are unchanged.  `main`
itself never freezes, for the in-process callers: tests, the tracer.
"""

from __future__ import annotations

import argparse
import csv
import gc
import os
import sys
from typing import TYPE_CHECKING, Iterable

from . import bounds

if TYPE_CHECKING:
    from . import factory, forms

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _write_rows(args: argparse.Namespace, rows: Iterable[dict]) -> int:
    """Write and flush each row as it comes; return the number of rows.

    Each row names its columns; the CSV header is the first row's keys.
    The header, or the JSON "[", is written and --output opened only
    with the first row.  The JSON bytes are json.dumps(rows, indent=2)
    plus a newline; rows written before a failure stay written, and the
    JSON then lacks its closing "]".
    """
    out, count = None, 0
    try:
        for count, row in enumerate(rows, 1):
            if out is None:
                to_stdout = args.output is None or args.output == "-"
                out = sys.stdout if to_stdout else open(args.output, "w", newline="")
                writer = csv.writer(out, lineterminator="\n")
                if args.format == "csv":
                    writer.writerow(row)
            if args.format == "json":
                import json
                out.write(("[" if count == 1 else ",") + "\n  "
                          + json.dumps(row, indent=2).replace("\n", "\n  "))
            else:
                writer.writerow(map(_fmt_value, row.values()))
            out.flush()
        if count and args.format == "json":
            out.write("\n]\n")
    finally:
        if out is not None and out is not sys.stdout:
            out.close()
    return count


def _error_line(kind: str, exc: BaseException, message: str | None = None) -> None:
    import json
    reason = getattr(exc, "reason", None)
    payload = {"error": kind, "message": str(exc) if message is None else message}
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


def cmd_search(args: argparse.Namespace) -> Iterable[dict]:
    """Rows as they are certified, for `_write_rows` to stream."""
    from . import factory
    if args.m_min < 1 or args.m_max < args.m_min:
        raise bounds.UsageError("search requires 1 <= m-min <= m-max")
    certs = factory.search(args.k, range(args.m_min, args.m_max + 1), d_budget=_d_budget(args))
    return map(_cert_row, certs)


def _group_row(summary: forms.ClassGroup2Summary) -> dict:
    return {
        "d": summary.d,
        "h": summary.h,
        "two_part": summary.two_part,
        "cyclic": summary.cyclic_2sylow,
        "ambiguous": summary.ambiguous_count,
    }


def _d_budget(args: argparse.Namespace) -> int:
    """--d-max, refused above the oracle's own bound before any work."""
    if args.d_max > bounds.MAX_D:
        raise bounds.UsageError(f"--d-max {args.d_max} exceeds the oracle bound {bounds.MAX_D}")
    return args.d_max


def cmd_verify(args: argparse.Namespace) -> list[dict]:
    if args.d is None:
        from . import factory
        if args.forms:
            raise bounds.UsageError("--forms requires --d")
        if None in (args.k, args.m, args.p1, args.p2):
            raise bounds.UsageError("verify requires either --d or all of --k --m --p1 --p2")
        cert = factory.certify(args.k, args.m, args.p1, args.p2, d_budget=_d_budget(args))
        return [_cert_row(cert)]
    given = [f"--{name}" for name in ("k", "m", "p1", "p2") if getattr(args, name) is not None]
    if given:
        raise bounds.UsageError(f"{' '.join(given)} cannot be given with --d")
    from . import forms
    if args.d > _d_budget(args):  # refused before any enumeration
        raise bounds.UsageError(f"d={args.d} exceeds the oracle budget --d-max {args.d_max}")
    if args.forms and args.d > bounds.MAX_FORMS_D:
        raise bounds.UsageError(f"--forms lists every form, so d={args.d} must be at most "
                                f"{bounds.MAX_FORMS_D}")
    row = _group_row(forms.class_number(args.d))
    if args.forms:
        row["forms"] = ";".join(",".join(map(str, f)) for f in forms.enumerate_reduced(args.d))
    return [row]


def cmd_singular(args: argparse.Namespace) -> list[dict]:
    from . import circle
    m, q = args.m, args.truncation_q
    if not 1 <= m < bounds.MAX_SINGULAR_M:
        raise bounds.UsageError(f"--m must lie in [1, 2**64), got {m}")
    row = {
        "m": m,
        "full_series": circle.singular_series(m, "series", q),
        "full_product": circle.singular_series(m, "product"),
        "restricted_series": circle.restricted_singular_series(m, "series", q),
        "restricted_product": circle.restricted_singular_series(m, "product"),
        "truncation_q": q,
        "vanishing_reason": circle.vanishing_reason(m),
    }
    return [row]


def cmd_compare(args: argparse.Namespace) -> list[dict]:
    from . import arith, circle
    ns = circle.window_range(args.n_lo, args.n_hi, args.step)  # refused before the sieve
    rows = circle.compare_window(ns, arith.sieve(2, args.n_hi))
    return [r._asdict() for r in rows]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclic2",
        description="Certified cyclic 2-class group construction and "
        "restricted Goldbach arithmetic.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, run):
        p.set_defaults(run=run)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="output path (default stdout)")

    def d_max(p):
        p.add_argument("--d-max", type=int, default=bounds.DEFAULT_D_BUDGET,
                       help="largest discriminant the enumeration oracle will accept, "
                       f"at most {bounds.MAX_D}")

    p = sub.add_parser("search", help="emit certificates for a multiplier range")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m-min", type=int, default=1)
    p.add_argument("--m-max", type=int, required=True)
    d_max(p)
    common(p, cmd_search)

    p = sub.add_parser("verify", help="re-validate a claimed certificate (--k --m --p1 "
                       "--p2), or report the 2-Sylow structure of a discriminant (--d alone)")
    p.add_argument("--d", type=int, help="refused with any of --k --m --p1 --p2")
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--p1", type=int)
    p.add_argument("--p2", type=int)
    p.add_argument("--forms", action="store_true",
                   help=f"with --d at most {bounds.MAX_FORMS_D}, include the reduced forms")
    d_max(p)
    common(p, cmd_verify)

    p = sub.add_parser("singular", help="singular series in both modes")
    p.add_argument("--m", type=int, required=True,
                   help="argument of S1 and S2, at least 1 and below 2**64")
    p.add_argument("--truncation-q", type=int, default=10_000,
                   help=f"series truncation, at most {bounds.MAX_TRUNCATION_Q}")
    common(p, cmd_singular)

    p = sub.add_parser("compare", help="restricted counts against the main term; "
                       f"rows * n-hi at most {bounds.MAX_WINDOW_WORK}")
    p.add_argument("--n-lo", type=int, required=True)
    p.add_argument("--n-hi", type=int, required=True)
    p.add_argument("--step", type=int, default=8)
    common(p, cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        if not _write_rows(args, args.run(args)):
            raise bounds.UsageError("no output rows produced")
        return EXIT_OK
    except (bounds.UsageError, OSError) as exc:
        _error_line("validation", exc)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        _error_line("internal", exc)
        return EXIT_INTERNAL
    except Exception as exc:  # a bug; its type is named, as str(exc) may be empty
        _error_line("internal", exc, f"{type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


def run(argv=None) -> int:
    """`main`, then freeze every object it leaves, for the process entry."""
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
