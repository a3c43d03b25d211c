"""Closed-loop benchmark of the `cyclic2` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N        # every workload, one after another
    python3 perfbench/run.py --record-golden

Run from the root of a source tree.  Every invocation is a subprocess
`python -m cyclic2.cli ARGV` with PYTHONPATH=<root>/src and C2_CACHE
removed; one client runs them one after another, so at most one child is
alive at a time.  One iteration runs a workload's whole argv list (see
workloads.py); a run repeats iterations for about S seconds and reports
medians over them.

The speed of the shared machine this was built on drifts by a factor of
up to two within minutes, for every process alike.  So the benchmark
runs a fixed pure-Python loop (`reference_s`) before and after every
child, and reports times in calibrated seconds: the child's measured
seconds * REF_NOMINAL_S / (mean of the two reference times).
A calibrated second is a real second whenever the loop takes
REF_NOMINAL_S; the report also prints the raw seconds and the probes.

--trace 0 reports the end-to-end metrics (times calibrated):
  wall_s       spawn to exit, summed over the iteration's invocations
  peak_rss_mb  largest ru_maxrss over the iteration's children (os.wait4)
  first_row_s  per invocation, spawn until the first data row after the
               header can be read from the pipe; summed over the iteration
  setup_s      wall time of a child that only imports cyclic2.cli, median
               of SETUP_CHILDREN children
--trace 1 alternates an untraced and a traced iteration (tracer.py) and
reports the per-layer metrics of the traced ones (raw seconds and exact
counts) plus trace_overhead_frac (from calibrated wall times).

Every output goes through gate.py.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}, where attempted and
failed count invocations; lines before it are a human-readable report.
--record-golden rewrites golden.json from the default seed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field

import gate
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACER = os.path.join(HERE, "tracer.py")
SETUP_CHILDREN = 5
REF_LOOP = 3_000_000
REF_NOMINAL_S = 0.2  # about the loop's time on the 2-core x86-64 machine it was tuned on
# Start another iteration only if it is expected to end less than a
# quarter of an iteration after --seconds.
OVERSHOOT = 0.25


def reference_s() -> float:
    """Seconds this process takes for a fixed pure-Python integer loop,
    the machine-speed probe that calibrates every reported time."""
    start = time.perf_counter()
    x = 0
    for j in range(REF_LOOP):
        x += j * j
    return time.perf_counter() - start


class Calibrator:
    """Reference probes between timed steps; neighbours share a probe."""

    def __init__(self):
        self.probes = [reference_s()]

    def scale(self) -> float:
        """Probe again and return the scale for the step since the last
        probe: REF_NOMINAL_S / mean of the probes on either side."""
        self.probes.append(reference_s())
        return 2 * REF_NOMINAL_S / (self.probes[-2] + self.probes[-1])


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("C2_CACHE", "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def child_command(argv: list[str], trace_path: str | None = None) -> list[str]:
    """The untraced CLI, or the tracer writing its spans to trace_path."""
    if trace_path is None:
        return [sys.executable, "-m", "cyclic2.cli", *argv]
    return [sys.executable, TRACER, trace_path, *argv]


@dataclass
class Invocation:
    argv: list[str]
    returncode: int
    stdout: bytes
    stderr: bytes
    start: float
    end: float
    first_row_s: float
    maxrss_kb: int
    trace: dict | None = None
    error: str | None = None
    scale: float = 1.0  # calibrated seconds per measured second

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def spawn(argv: list[str], tmpdir: str, trace: bool = False) -> Invocation:
    """Run one child to completion; time it, read its rusage and output."""
    trace_path = os.path.join(tmpdir, "trace.json") if trace else None
    with open(os.path.join(tmpdir, "stderr"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(child_command(argv, trace_path), stdout=subprocess.PIPE,
                                stderr=err, env=child_env(), cwd=ROOT)
        try:
            head = proc.stdout.readline() + proc.stdout.readline()
            first_row = time.perf_counter() - start
            stdout = head + proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
        err.seek(0)
        stderr = err.read()
    inv = Invocation(argv, proc.returncode, stdout, stderr, start, end, first_row, usage.ru_maxrss)
    if trace_path and os.path.exists(trace_path):
        with open(trace_path) as fh:
            inv.trace = json.load(fh)
        os.remove(trace_path)
    return inv


def check(inv: Invocation, golden: dict[str, str]) -> None:
    """Set inv.error if the child failed or its output fails the gate."""
    if inv.returncode != 0:
        inv.error = f"exit {inv.returncode}: {inv.stderr.decode(errors='replace').strip()[-300:]}"
        return
    try:
        gate.check(inv.argv, inv.stdout, golden)
    except gate.GateError as exc:
        inv.error = str(exc)


@dataclass
class Iteration:
    invocations: list[Invocation]
    traced: bool

    @property
    def raw_wall_s(self) -> float:
        return sum(inv.wall_s for inv in self.invocations)

    @property
    def wall_s(self) -> float:
        return sum(inv.wall_s * inv.scale for inv in self.invocations)

    @property
    def peak_rss_mb(self) -> float:
        return max(inv.maxrss_kb for inv in self.invocations) / 1024

    @property
    def first_row_s(self) -> float:
        return sum(inv.first_row_s * inv.scale for inv in self.invocations)


def run_iteration(argvs: list[list[str]], tmpdir: str, golden: dict[str, str],
                  traced: bool, cal: Calibrator) -> Iteration:
    invocations = []
    for argv in argvs:
        invocations.append(spawn(argv, tmpdir, traced))
        invocations[-1].scale = cal.scale()
    for inv in invocations:  # the gate runs outside every timed span
        check(inv, golden)
    return Iteration(invocations, traced)


def measure_setup(cal: Calibrator) -> tuple[list[float], list[float]]:
    """Raw and calibrated wall times of children that only import
    cyclic2.cli, after one untimed warm-up child (byte-code and file
    caches)."""
    raw, scaled = [], []
    for i in range(SETUP_CHILDREN + 1):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", "import cyclic2.cli"], env=child_env(),
                              cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"cannot import cyclic2.cli from {ROOT}/src: "
                               f"{done.stderr.decode(errors='replace').strip()[-300:]}")
        if i:
            raw.append(elapsed)
            scaled.append(elapsed * cal.scale())
        else:
            cal.scale()  # the probe after the warm-up starts the next interval
    return raw, scaled


# ----------------------------------------------------------------- per layer


@dataclass
class Trace:
    """Spans (name, parent) -> [calls, total_s, self_s] and counters,
    summed over the invocations of one traced iteration."""

    spans: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    counters: dict = field(default_factory=lambda: defaultdict(int))

    @classmethod
    def of(cls, it: Iteration) -> "Trace":
        tr = cls()
        for inv in it.invocations:
            for s in (inv.trace or {}).get("spans", []):
                rec = tr.spans[(s["name"], s["parent"])]
                rec[0] += s["calls"]
                rec[1] += s["total_s"]
                rec[2] += s["self_s"]
            for key, value in (inv.trace or {}).get("counters", {}).items():
                tr.counters[key] += value
        tr.counters["cli.bytes_out"] = sum(len(inv.stdout) for inv in it.invocations)
        return tr

    def _sum(self, col: int, name: str, parent: str | None) -> float:
        return sum((rec[col] for (n, p), rec in self.spans.items()
                    if n == name and (parent is None or p == parent)), 0.0 if col else 0)

    def calls(self, name, parent=None):
        return self._sum(0, name, parent)

    def total(self, name, parent=None):
        return self._sum(1, name, parent)

    def self_time(self, name, parent=None):
        return self._sum(2, name, parent)

    def layer_metrics(self) -> dict[str, float]:
        c = self.counters
        certify_calls = self.calls("factory.certify")
        return {
            "forms.enumerate_s": self.total("forms.enumerate_reduced"),
            "forms.forms_enumerated": c["forms.forms_enumerated"],
            "forms.ambiguous_s": self.total("forms.compose", "forms.class_number"),
            "forms.ambiguous_compose_calls": self.calls("forms.compose", "forms.class_number"),
            "forms.witness_s": self.total("forms.form_pow", "forms.class_number"),
            "forms.witness_pow_calls": self.calls("forms.form_pow", "forms.class_number"),
            "forms.witness_compose_calls": self.calls("forms.compose", "forms.form_pow"),
            "forms.class_number_calls": self.calls("forms.class_number"),
            "factory.validate_s": self.total("factory.validate_certificate"),
            "arith.is_prime_s": self.total("arith.is_prime"),
            "arith.is_prime_calls": self.calls("arith.is_prime"),
            "factory.certify_s": self.self_time("factory.certify"),
            "factory.certify_calls": certify_calls,
            "factory.certified": c["factory.certified"],
            "factory.rejected_budget": c["factory.rejected.oracle-budget-exceeded"],
            "factory.certify_yield": c["factory.certified"] / certify_calls if certify_calls else 0.0,
            "arith.sieve_s": self.total("arith.sieve"),
            "arith.sieve_entries": c["arith.sieve_entries"],
            "arith.primes_s": (self.self_time("arith.PrimeTable.primes")
                               + self.self_time("arith.PrimeTable.primes_mod8")),
            "factory.find_pairs_s": self.self_time("factory.find_pairs"),
            "factory.pairs_found": c["factory.pairs_found"],
            "arith.factorize_s": self.total("arith.factorize"),
            "criteria.symbol_s": self.total("criteria.exact_order_test"),
            "criteria.symbol_calls": self.calls("criteria.exact_order_test"),
            "circle.window_sum_s": self.total("circle.goldbach_restricted_sum"),
            "circle.window_rows": c["circle.window_rows"],
            "circle.series_s": (self.total("circle.singular_series.series")
                                + self.total("circle.restricted_singular_series.series")),
            "circle.series_terms": c["circle.series_terms"],
            "cli.self_s": self.self_time("cli.main"),
            "cli.bytes_out": c["cli.bytes_out"],
        }


# ------------------------------------------------------------------ report


def load_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def environment() -> dict:
    """What the run depends on; git fields are null outside a git checkout."""
    env = {"python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
           "nproc": os.cpu_count(), "git_sha": None, "dirty": None,
           "loadavg_start": os.getloadavg()}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        env["git_sha"] = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                        text=True).stdout.strip() or None
        env["dirty"] = bool(subprocess.run(git + ["status", "--porcelain", "-uno"],
                                           capture_output=True, text=True).stdout.strip())
    return env


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def print_trace_table(it: Iteration) -> None:
    for inv in it.invocations:
        spans = Trace.of(Iteration([inv], traced=True)).spans
        wall = inv.wall_s
        top = sorted(spans.items(), key=lambda kv: -kv[1][2])[:3]
        print(f"# {wall:7.3f} s  cyclic2 {' '.join(inv.argv)}  top self: "
              + ", ".join(f"{n}<{p or '-'} {rec[2] / wall:.0%}" for (n, p), rec in top))
    tr, wall = Trace.of(it), it.raw_wall_s
    print(f"# spans of one traced iteration ({wall:.3f} s); share = total / wall")
    print(f"# {'span':40} {'parent':32} {'calls':>9} {'self_s':>9} {'total_s':>9} share")
    for (name, parent), (calls, total, self_s) in sorted(tr.spans.items(), key=lambda kv: -kv[1][1]):
        print(f"# {name:40} {parent or '-':32} {calls:9d} {self_s:9.4f} {total:9.4f} {total / wall:6.1%}")
    print(f"# counters {json.dumps(dict(sorted(tr.counters.items())))}")


# -------------------------------------------------------------------- main


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "cyclic2", "cli.py")):
        raise RuntimeError(f"no cyclic2 sources under {ROOT}/src")
    units = load_units()
    golden = gate.load_golden()
    argvs = workloads.generate(workload, seed)
    env = environment()
    print(f"# workload {workload} seed {seed}: {len(argvs)} invocations per iteration")
    for argv in argvs:
        print("#   cyclic2 " + " ".join(argv))
    print(f"# layers {json.dumps(workloads.LAYERS[workload])}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpdir:
        cal = Calibrator()
        setup_raw, setup = measure_setup(cal)
        iterations: list[Iteration] = []
        # One step is an untraced iteration, followed by a traced one
        # under --trace 1; steps repeat while they fit in --seconds.
        start = time.perf_counter()
        while True:
            for kind in (False, True) if traced else (False,):
                iterations.append(run_iteration(argvs, tmpdir, golden, kind, cal))
            elapsed = time.perf_counter() - start
            step = elapsed / (len(iterations) // (2 if traced else 1))
            if elapsed + (1 - OVERSHOOT) * step > seconds:
                break
    env["loadavg_end"] = os.getloadavg()
    print(f"# env {json.dumps(env)}")
    print(f"# reference probes (s; {REF_NOMINAL_S} s is nominal): "
          + " ".join(f"{p:.4f}" for p in cal.probes))

    invocations = [inv for it in iterations for inv in it.invocations]
    failed = [inv for inv in invocations if inv.error]
    for inv in failed:
        print(f"# FAILED cyclic2 {' '.join(inv.argv)}: {inv.error}")
    print(f"# failed_frac {len(failed) / len(invocations):.6g} "
          f"({len(failed)}/{len(invocations)} invocations)")

    plain = [it for it in iterations if not it.traced]
    if traced:
        tracing = [it for it in iterations if it.traced]
        per_iter = [Trace.of(it).layer_metrics() for it in tracing]
        # counts repeat exactly, so median_low keeps them whole numbers
        metrics = {name: (statistics.median_low if isinstance(per_iter[0][name], int)
                          else statistics.median)([m[name] for m in per_iter])
                   for name in per_iter[0]}
        untraced_wall = statistics.median(it.wall_s for it in plain)
        metrics["trace_overhead_frac"] = (
            statistics.median(it.wall_s for it in tracing) - untraced_wall) / untraced_wall
        print_trace_table(tracing[-1])
        print("# raw wall_s untraced / traced: "
              + " ".join(f"{a.raw_wall_s:.3f}/{b.raw_wall_s:.3f}" for a, b in zip(plain, tracing)))
        for name, value in metrics.items():
            print(f"# {name} = {value} {units[name]}")
    else:
        samples = {
            "wall_s": [it.wall_s for it in plain],
            "peak_rss_mb": [it.peak_rss_mb for it in plain],
            "first_row_s": [it.first_row_s for it in plain],
            "setup_s": setup,
        }
        print("# raw wall_s: " + " ".join(f"{it.raw_wall_s:.3f}" for it in plain)
              + f"; raw setup_s median {statistics.median(setup_raw):.4f}")
        metrics = {}
        for name, values in samples.items():
            med, q1, q3 = summary(values)
            metrics[name] = med
            print(f"# {name:12} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"{units[name]}  (n={len(values)})")
    return {
        "correct": not failed,
        "attempted": len(invocations),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def record_golden() -> None:
    """Rewrite golden.json from one iteration of every workload at the
    default seed; each output must still pass the structural checks."""
    golden = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpdir:
        for workload in workloads.GENERATORS:
            for argv in workloads.generate(workload, workloads.DEFAULT_SEED):
                inv = spawn(argv, tmpdir)
                check(inv, {})
                if inv.error:
                    raise RuntimeError(f"cyclic2 {' '.join(argv)}: {inv.error}")
                golden[" ".join(argv)] = gate.digest(inv.stdout)
                print(f"{gate.digest(inv.stdout)}  cyclic2 {' '.join(argv)}")
    with open(gate.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=2)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed
    # and reaped by spawn().
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.record_golden:
            record_golden()
            return 0
        for workload in [args.workload] if args.workload else list(workloads.GENERATORS):
            result = run(workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
