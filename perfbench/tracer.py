"""Traced `cyclic2` child: wraps public functions, then runs the CLI.

Usage: python perfbench/tracer.py OUT.json ARGV...

Runs `cyclic2.cli.main(ARGV)` with span wrappers set as module and class
attributes, so intra-module calls (`compose` inside `class_number`) go
through them too.  Spans are aggregated in memory by (name, parent):
calls, total seconds and self seconds (total minus the time of traced
children).  Counters record the work done at the same boundaries.  Both
are written to OUT.json once, when the CLI returns.  Importing this
module installs nothing; only `main` does.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

ROOT_SPAN = ""


def _span_name(owner, attr: str) -> str:
    """`forms.compose`, `arith.PrimeTable.primes`: the public name, less `cyclic2.`."""
    base = f"{owner.__module__}.{owner.__qualname__}" if isinstance(owner, type) else owner.__name__
    return f"{base.removeprefix('cyclic2.')}.{attr}"


class Tracer:
    def __init__(self):
        self.stack = [[ROOT_SPAN, 0.0]]  # [name, seconds spent in traced children]
        self.stats: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, total, self]
        self.counters: dict[str, int] = defaultdict(int)

    def _record(self, name, parent, frame, dt, new_call):
        parent[1] += dt
        rec = self.stats.get((name, parent[0]))
        if rec is None:
            rec = self.stats[(name, parent[0])] = [0, 0.0, 0.0]
        rec[0] += new_call
        rec[1] += dt
        rec[2] += dt - frame[1]

    def span(self, fn, name, hook=None):
        """fn wrapped in a span; hook(bound_args, result, exc) updates counters."""
        stack, record, clock = self.stack, self._record, time.perf_counter
        sig = inspect.signature(fn) if hook else None

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                record(name, parent, frame, dt, True)
                if hook:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(bound.arguments, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    def generator_span(self, fn, name):
        """A generator function wrapped so that each resume is timed as
        part of one span, whose parent is the frame that resumes it."""
        stack, record, clock = self.stack, self._record, time.perf_counter

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def traced():
                first = True
                while True:
                    parent = stack[-1]
                    frame = [name, 0.0]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        record(name, parent, frame, clock() - t0, first)
                        first = False
                    yield item

            return traced()

        wrapper.__wrapped__ = fn
        return wrapper

    def by_mode(self, fn, name, hook):
        """Spans `name.series` / `name.product` chosen by fn's `mode` argument."""
        sig = inspect.signature(fn)
        series = self.span(fn, name + ".series", hook)
        product = self.span(fn, name + ".product")

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return (series if bound.arguments["mode"] == "series" else product)(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key, amount):
        self.counters[key] += amount

    def install(self):
        """Set the wrappers on the cyclic2 modules and classes."""
        from cyclic2 import arith, circle, cli, criteria, factory, forms

        def certify_hook(a, result, exc):
            if exc is None:
                self.count("factory.certified", 1)
            elif isinstance(exc, factory.CertificationError):
                self.count("factory.rejected." + exc.reason, 1)

        def length(key):
            return lambda a, result, exc: self.count(key, len(result) if exc is None else 0)

        def series_hook(a, result, exc):
            self.count("circle.series_terms", a["truncation_q"])

        plain = [
            (cli, "main", None),
            (arith, "is_prime", None),
            (arith, "sieve", lambda a, r, e: self.count("arith.sieve_entries", a["hi"] - a["lo"] + 1)),
            (arith, "factorize", None),
            (arith.PrimeTable, "primes", None),
            (arith.PrimeTable, "primes_mod8", None),
            (forms, "enumerate_reduced", length("forms.forms_enumerated")),
            (forms, "class_number", None),
            (forms, "compose", None),
            (forms, "form_pow", None),
            (criteria, "exact_order_test", None),
            (factory, "find_pairs", length("factory.pairs_found")),
            (factory, "certify", certify_hook),
            (factory, "validate_certificate", None),
            (circle, "compare_window", length("circle.window_rows")),
            (circle, "goldbach_restricted_sum", None),
        ]
        for owner, attr, hook in plain:
            setattr(owner, attr, self.span(getattr(owner, attr), _span_name(owner, attr), hook))
        factory.search = self.generator_span(factory.search, "factory.search")
        for attr in ("singular_series", "restricted_singular_series"):
            setattr(circle, attr, self.by_mode(getattr(circle, attr), f"circle.{attr}", series_hook))
        return cli

    def dump(self, path):
        spans = [
            {"name": name, "parent": parent, "calls": c, "total_s": t, "self_s": s}
            for (name, parent), (c, t, s) in self.stats.items()
        ]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "counters": dict(self.counters)}, fh)


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    cli = tracer.install()
    try:
        return cli.main(cli_argv)
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
