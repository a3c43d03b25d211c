"""End-to-end tests of the command-line interface and its output formats."""

import ast
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cyclic2 import arith, bounds, circle, cli, criteria, factory, forms


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_search_csv(capsys):
    code, out, _ = run(capsys, "search", "--k", "2", "--m-max", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,M,w,x,p1,p2,d,symbol_ok,h,two_part,cyclic"
    assert "2,1,2,5,13,3,39,true,4,4,true" in lines
    assert "2,1,2,3,5,11,55,true,4,4,true" in lines
    assert out.endswith("\n") and "\r" not in out


def test_search_json_mirrors_csv(capsys):
    code, out, _ = run(capsys, "search", "--k", "2", "--m-max", "1",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["p1"] for r in rows] == [5, 13]
    assert set(rows[0]) == {
        "k", "M", "w", "x", "p1", "p2", "d", "symbol_ok", "h", "two_part", "cyclic"
    }
    assert rows[1]["d"] == 39 and rows[1]["cyclic"] is True


def test_singular_vanishing_reason(capsys):
    code, out, _ = run(capsys, "singular", "--m", "15")
    assert code == 0
    header, row = out.splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["restricted_product"] == "0"
    assert fields["vanishing_reason"] == "odd"
    code, out, _ = run(capsys, "singular", "--m", "12")
    fields = dict(zip(*[l.split(",") for l in out.splitlines()]))
    assert fields["vanishing_reason"] == "4mod8"
    assert fields["restricted_product"] == "0"


def test_singular_factorizes_m_once(capsys, monkeypatch):
    # all four columns need the odd primes of m = 2 * (2**31 - 1) * 4294967291
    calls = []
    factorize = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda n: calls.append(n) or factorize(n))
    circle._odd_primes.cache_clear()
    circle._series_sums.cache_clear()
    code, _, _ = run(capsys, "singular", "--m", "18446744043644780554", "--truncation-q", "2")
    assert code == 0
    assert calls == [18446744043644780554]


def test_singular_m_bound_refused_before_work(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("work ran for an over-bound --m")

    monkeypatch.setattr(circle, "singular_series", no_work)
    monkeypatch.setattr(circle, "restricted_singular_series", no_work)
    code, out, err = run(capsys, "singular", "--m", str(2**64 + 6))
    assert code == 2
    assert out == ""
    diag = json.loads(err.strip().splitlines()[-1])
    assert diag["error"] == "validation"
    assert "--m" in diag["message"] and "2**64" in diag["message"]
    with pytest.raises(SystemExit):
        cli.main(["singular", "--help"])
    assert "below 2**64" in capsys.readouterr().out


def test_verify_by_discriminant(capsys):
    code, out, _ = run(capsys, "verify", "--d", "39")
    assert code == 0
    assert out.splitlines() == ["d,h,two_part,cyclic,ambiguous", "39,4,4,true,2"]


def test_verify_claimed_pair(capsys):
    code, out, _ = run(capsys, "verify", "--k", "2", "--m", "1",
                       "--p1", "13", "--p2", "3")
    assert code == 0
    assert "2,1,2,5,13,3,39,true,4,4,true" in out


def test_verify_rejects_bad_pair(capsys):
    code, out, err = run(capsys, "verify", "--k", "2", "--m", "1",
                         "--p1", "11", "--p2", "5")
    assert code == 2
    assert out == ""
    diag = json.loads(err.splitlines()[-1])
    assert diag["error"] == "validation"
    assert diag["reason"] == "p1-residue"


def test_verify_claimed_pair_runs_the_oracle_once(capsys, monkeypatch):
    calls, witnesses, factorizations = [], [], []
    class_number = forms.class_number

    def counted(d, witness=None, factors=None):
        calls.append(d)
        witnesses.append(witness)
        factorizations.append(factors)
        return class_number(d, witness, factors)

    monkeypatch.setattr(forms, "class_number", counted)
    code, _, _ = run(capsys, "verify", "--k", "2", "--m", "1",
                     "--p1", "13", "--p2", "3")
    assert code == 0
    assert calls == [39]
    assert witnesses == [(2, 1, 5)]  # (w, x, w**3) = (2, 5, 8), reduced
    assert factorizations == [[(13, 1), (3, 1)]]


def _assert_refused_before_enumeration(capsys, monkeypatch, *flags):
    def no_enumeration(d):
        raise AssertionError("the oracle ran on an over-budget d")

    # every oracle route, enumeration or count, goes through this walk
    monkeypatch.setattr(forms, "_blocks", no_enumeration)
    code, out, err = run(capsys, "verify", *flags, "--d-max", "100", "--d", "103")
    assert code == 2
    assert out == ""
    diag = json.loads(err.splitlines()[-1])
    assert diag["error"] == "validation"
    assert "--d-max" in diag["message"]


def test_verify_d_respects_d_max(capsys, monkeypatch):
    _assert_refused_before_enumeration(capsys, monkeypatch)


def test_verify_forms_respects_d_max(capsys, monkeypatch):
    _assert_refused_before_enumeration(capsys, monkeypatch, "--forms")


def test_verify_forms_has_its_own_bound(capsys, monkeypatch):
    # --forms keeps and sorts every form, so it takes d only up to
    # MAX_FORMS_D, though --d-max admits more; refused before any walk
    d = str(bounds.MAX_FORMS_D + 3)
    blocks = forms._blocks

    def no_enumeration(d):
        raise AssertionError("the oracle ran on an over-bound --forms d")

    monkeypatch.setattr(forms, "_blocks", no_enumeration)
    code, out, err = run(capsys, "verify", "--d", d, "--forms", "--d-max", str(bounds.MAX_D))
    assert code == 2
    assert out == ""
    diag = json.loads(err.splitlines()[-1])
    assert diag["error"] == "validation"
    assert "--forms" in diag["message"] and str(bounds.MAX_FORMS_D) in diag["message"]
    # the same d without --forms is only counted
    monkeypatch.setattr(forms, "_blocks", blocks)
    code, out, _ = run(capsys, "verify", "--d", d, "--d-max", str(bounds.MAX_D))
    assert code == 0 and out.startswith("d,h,")


@pytest.mark.parametrize("argv", [
    ["search", "--k", "2", "--m-max", "1"],
    ["verify", "--d", "39"],
    ["verify", "--k", "2", "--m", "1", "--p1", "13", "--p2", "3"],
    ["verify", "--d", "39", "--forms"],
])
def test_d_max_above_the_oracle_bound_refused(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran past an over-bound --d-max")

    for owner, name in ((arith, "sieve"), (forms, "_blocks"),
                        (factory, "find_pairs"), (factory, "certify")):
        monkeypatch.setattr(owner, name, no_work)
    code, out, err = run(capsys, *argv, "--d-max", str(forms.MAX_D + 1))
    assert code == 2
    assert out == ""
    diag = json.loads(err.splitlines()[-1])
    assert diag["error"] == "validation"
    assert "--d-max" in diag["message"] and str(forms.MAX_D) in diag["message"]


def test_d_max_help_names_the_oracle_bound(capsys):
    for subcommand in ("search", "verify"):
        with pytest.raises(SystemExit):
            cli.main([subcommand, "--help"])
        help_text = capsys.readouterr().out
        assert f"at most {forms.MAX_D}" in help_text
    assert f"with --d at most {bounds.MAX_FORMS_D}" in help_text  # verify's --forms


# The certificate commands run on integers alone; only compare and
# singular build arrays.  Each child starts with none of the named modules
# loaded, and the probe records which of them are loaded after each command.
_PROBE = """
import json, os, sys
from cyclic2 import cli
names, argvs = json.loads(sys.argv[1])
seen = []
for argv in argvs:  # an empty argv only imports cyclic2.cli
    code = cli.main(argv + ["--output", os.devnull]) if argv else None
    seen.append([code, [name for name in names if name in sys.modules]])
print(json.dumps(seen))
"""


def _run_probe(probe, payload, openblas_threads=None):
    # a fresh interpreter runs `probe` on payload, JSON in and JSON out.
    # OPENBLAS_NUM_THREADS is not inherited: an in-process cli.main call
    # sets it in this process, so the child gets only `openblas_threads`.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(payload)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


def _modules_loaded_after(names, *argvs):
    return _run_probe(_PROBE, [names, list(argvs)])


def _numpy_loaded_after(*argvs):
    return [[code, loaded == ["numpy"]] for code, loaded in _modules_loaded_after(["numpy"], *argvs)]


def test_certificate_commands_never_load_numpy():
    seen = _numpy_loaded_after(
        ["verify", "--d", "39"],
        ["verify", "--k", "3", "--m", "2", "--p1", "8861", "--p2", "7523"],
        ["search", "--k", "2", "--m-max", "1"],
        ["verify", "--d", "39", "--forms"],
    )
    assert seen == [[0, False]] * 4


def test_compare_and_singular_load_numpy():
    assert _numpy_loaded_after(["compare", "--n-lo", "200", "--n-hi", "208"]) == [[0, True]]
    assert _numpy_loaded_after(["singular", "--m", "16"]) == [[0, True]]


# The probe records each command's exit code, its stdout,
# OPENBLAS_NUM_THREADS and the process's thread count, None without /proc.
_THREAD_PROBE = """
import contextlib, io, json, os, sys
from cyclic2 import cli
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    tasks = "/proc/self/task"
    threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
    seen.append([code, out.getvalue(), os.environ.get("OPENBLAS_NUM_THREADS"), threads])
print(json.dumps(seen))
"""


def test_compare_and_singular_start_no_blas_threads():
    seen = _run_probe(_THREAD_PROBE, [["compare", "--n-lo", "200", "--n-hi", "208"],
                                      ["singular", "--m", "16"]])
    assert [(code, variable) for code, _, variable, _ in seen] == [(0, "1")] * 2
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    assert [threads for *_, threads in seen] == [1, 1]


def test_preset_openblas_threads_kept_and_changes_no_byte():
    argvs = [["compare", "--n-lo", "200006", "--n-hi", "201006", "--step", "8"],
             ["singular", "--m", "30", "--truncation-q", "100000"]]
    unset = _run_probe(_THREAD_PROBE, argvs)
    preset = _run_probe(_THREAD_PROBE, argvs, openblas_threads="2")
    assert [variable for _, _, variable, _ in preset] == ["2", "2"]
    assert [code for code, *_ in unset + preset] == [0] * 4
    assert [out for _, out, *_ in preset] == [out for _, out, *_ in unset]
    assert all(out.count("\n") > 1 for _, out, *_ in unset)


def test_each_command_loads_only_its_own_modules():
    # the parser reads its bounds from cyclic2.bounds; each command
    # imports the modules it runs, one fresh interpreter per command
    five = ["cyclic2.arith", "cyclic2.circle", "cyclic2.criteria", "cyclic2.factory",
            "cyclic2.forms"]
    certificate = ["cyclic2.arith", "cyclic2.criteria", "cyclic2.factory", "cyclic2.forms"]
    circle_only = ["cyclic2.arith", "cyclic2.circle"]
    cases = [
        ([], []),
        (["search", "--k", "2", "--m-max", "1"], certificate),
        (["verify", "--k", "3", "--m", "2", "--p1", "8861", "--p2", "7523"], certificate),
        (["verify", "--d", "39", "--forms"], ["cyclic2.arith", "cyclic2.forms"]),
        (["compare", "--n-lo", "200", "--n-hi", "208"], circle_only),
        (["singular", "--m", "16"], circle_only),
    ]
    for argv, loaded in cases:
        assert _modules_loaded_after(five, argv) == [[0 if argv else None, loaded]], argv


def test_no_command_loads_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize; the result
    # types are named tuples, so the certificate commands load none of it
    seen = _modules_loaded_after(
        ["dataclasses", "inspect"],
        ["verify", "--d", "39"],
        ["verify", "--k", "3", "--m", "2", "--p1", "8861", "--p2", "7523"],
        ["search", "--k", "2", "--m-max", "1"],
    )
    assert seen == [[0, []]] * 3
    # numpy's own numpy._core.overrides imports inspect, so compare and
    # singular are checked for dataclasses alone
    for argv in (["compare", "--n-lo", "200", "--n-hi", "208"], ["singular", "--m", "16"]):
        assert _modules_loaded_after(["dataclasses", "numpy"], argv) == [[0, ["numpy"]]]


# Every statement in a function body under src/cyclic2 runs on a README
# command line or a refused input, except `raise`, `global` and
# docstrings.  A stretch of statements that none of them runs is named
# by its function and the first line of its first statement; these are
# kept for the reason given.
UNRUN = {
    ("cli.main", '_error_line("internal", exc)'):
        "an ArithmeticError is a bug in this code; the fault-injection tests reach it",
    ("cli.main", '_error_line("internal", exc, f"{type(exc).__name__}: {exc}")'):
        "any other exception is a bug in this code; the fault-injection tests reach it",
    ("factory.validate_certificate", "try:"): "perfbench/tracer.py wraps it by name",
    ("arith.is_prime", "return False"):
        "no command asks about n < 2; the unit tests check that answer",
    ("arith.sqrt_mod_p", "return None"):
        "the oracle asks only where -d is a residue; tests/reference_forms.py reads it",
    ("factory.find_pairs", "return []"):
        "search stops at an M whose 3*(n - 3) exceeds the budget before it calls "
        "find_pairs; tests call find_pairs with such budgets",
}

# One fresh interpreter runs the commands under sys.settrace and prints
# every (file, line) that ran in a frame of the package.
_REACH_PROBE = """
import json, os, sys
from cyclic2 import cli
package, ran = os.path.dirname(cli.__file__), set()

def line(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return line

def call(frame, event, arg):
    return line if frame.f_code.co_filename.startswith(package) else None

sys.settrace(call)
codes = [cli.main(argv + ["--output", os.devnull]) for argv in json.loads(sys.argv[1])]
sys.settrace(None)
print(json.dumps([codes, sorted(ran)]))
"""


def _unrun_stretches(ran):
    """{(function, first line)} of each stretch of statements in a function
    body under src/cyclic2 that no line in `ran`, a set of (file, line),
    falls in.  A compound statement ran if any line of it ran."""
    unrun = set()

    def block(body, name, path, text):
        previous_ran = True
        for stmt in body:
            if isinstance(stmt, (ast.Raise, ast.Global)) or (
                    isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)):
                continue
            if not any((path, n) in ran for n in range(stmt.lineno, stmt.end_lineno + 1)):
                if previous_ran:
                    unrun.add((name, text[stmt.lineno - 1].strip()))
                previous_ran = False
                continue
            previous_ran = True
            inner = f"{name}.{stmt.name}" if isinstance(stmt, ast.FunctionDef) else name
            bodies = [getattr(stmt, field, []) for field in ("body", "orelse", "finalbody")]
            for body in bodies + [h.body for h in getattr(stmt, "handlers", [])]:
                block(body, inner, path, text)

    def scope(body, prefix, path, text):
        for node in body:
            if isinstance(node, ast.FunctionDef):
                block(node.body, f"{prefix}.{node.name}", path, text)
            elif isinstance(node, ast.ClassDef):
                scope(node.body, f"{prefix}.{node.name}", path, text)

    package = pathlib.Path(os.path.abspath(cli.__file__)).parent
    for path in package.glob("*.py"):
        source = path.read_text()
        scope(ast.parse(source).body, path.stem, str(path), source.splitlines())
    return unrun


def test_every_function_runs_from_the_cli():
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("\n```\n", 1)[0]
    readme = [shlex.split(line, comments=True)[1:]
              for line in block.splitlines() if line.startswith("cyclic2 ")]
    refused = [
        ["verify", "--d", "5"],
        ["singular", "--m", "0"],
        ["search", "--k", "9", "--m-max", "1"],
        ["verify", "--k", "2", "--m", "1", "--p1", "9", "--p2", "7"],
    ]
    codes, ran = _run_probe(_REACH_PROBE, readme + refused)
    assert readme, "no cyclic2 line in the README's CLI block"
    assert codes == [0] * len(readme) + [2] * len(refused)
    assert _unrun_stretches({tuple(key) for key in ran}) == set(UNRUN)


def _record_sieve_his(monkeypatch):
    sieve, his = arith.sieve, []
    monkeypatch.setattr(
        arith, "sieve", lambda lo, hi: his.append(hi) or sieve(lo, hi)
    )
    return his


def test_search_past_the_old_sieve_wall(capsys, monkeypatch):
    # n = 285,610,000 is above arith.DEFAULT_MAX_SPAN, but only primes up
    # to the budget root are sieved.
    his = _record_sieve_his(monkeypatch)
    code, out, _ = run(capsys, "search", "--k", "2", "--m-min", "65", "--m-max", "65")
    assert code == 0
    row = "2,65,8450,142804997,285609997,3,856829991,true,26724,4,true"
    assert out.splitlines()[1:] == [row]
    assert max(his) <= math.isqrt(factory.DEFAULT_D_BUDGET)


def test_search_far_target_sieves_nothing_large(capsys, monkeypatch):
    # n ~ 4.4e10: even p = 3 gives d = 3*(n - 3) above the default
    # --d-max, so no pair is in budget; nothing near [2, n] is sieved.
    his = _record_sieve_his(monkeypatch)
    code, out, err = run(capsys, "search", "--k", "4", "--m-min", "3", "--m-max", "3")
    assert code == 2
    assert out == ""
    diag = json.loads(err.splitlines()[-1])
    assert diag["error"] == "validation"
    assert diag["message"] == "no output rows produced"
    assert all(hi <= math.isqrt(factory.DEFAULT_D_BUDGET) for hi in his)


def test_search_stops_at_the_first_m_past_the_budget(capsys, monkeypatch):
    # at M = 20000, n = 3.2e9 and even p = 3 gives d = 3*(n - 3) > 1e9;
    # n grows with M, so no later M is searched
    calls = []
    find_pairs = factory.find_pairs
    monkeypatch.setattr(
        factory, "find_pairs", lambda *a, **kw: calls.append(a) or find_pairs(*a, **kw)
    )
    code, out, err = run(capsys, "search", "--k", "1", "--m-min", "20000",
                         "--m-max", "1000000")
    assert code == 2
    assert out == ""
    assert json.loads(err)["message"] == "no output rows produced"
    assert len(calls) <= 1


SEARCH_HEADER = "k,M,w,x,p1,p2,d,symbol_ok,h,two_part,cyclic"
SEARCH_K2_M1 = ["2,1,2,3,5,11,55,true,4,4,true", "2,1,2,5,13,3,39,true,4,4,true"]


def test_search_writes_each_row_before_the_next_certificate(monkeypatch, tmp_path):
    # --output is opened with the first row, and each row is flushed
    # before the next pair is certified
    path = tmp_path / "rows.csv"
    certify, seen = factory.certify, []

    def spy(*args, **kwargs):
        seen.append(path.read_text() if path.exists() else None)
        return certify(*args, **kwargs)

    monkeypatch.setattr(factory, "certify", spy)
    assert cli.main(["search", "--k", "2", "--m-max", "1", "--output", str(path)]) == 0
    assert seen == [None, f"{SEARCH_HEADER}\n{SEARCH_K2_M1[0]}\n"]
    assert path.read_text().splitlines() == [SEARCH_HEADER, *SEARCH_K2_M1]


def test_search_keeps_rows_written_before_a_failure(capsys, monkeypatch):
    # the two certificates issued before an internal error stay printed
    certify, calls = factory.certify, []

    def fail_third(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise ArithmeticError("injected fault")
        return certify(*args, **kwargs)

    monkeypatch.setattr(factory, "certify", fail_third)
    code, out, err = run(capsys, "search", "--k", "2", "--m-max", "2")
    assert code == 1
    assert len(calls) == 3
    assert out.splitlines() == [SEARCH_HEADER, *SEARCH_K2_M1]
    (line,) = err.splitlines()
    assert json.loads(line) == {"error": "internal", "message": "injected fault"}


def test_zero_row_search_opens_no_output(capsys, tmp_path):
    path = tmp_path / "rows.json"
    code, out, err = run(capsys, "search", "--k", "1", "--m-max", "3", "--d-max", "2",
                         "--format", "json", "--output", str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["message"] == "no output rows produced"
    assert not path.exists()


@pytest.mark.parametrize("argv, count", [
    (["search", "--k", "2", "--m-max", "1", "--d-max", "39"], 1),
    (["verify", "--d", "39", "--forms"], 1),
    (["search", "--k", "2", "--m-max", "3"], 34),
    (["compare", "--n-lo", "200", "--n-hi", "240"], 6),
])
def test_streamed_json_equals_one_dump(capsys, argv, count):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == count
    assert out == json.dumps(rows, indent=2) + "\n"


def test_search_huge_k_refused_before_allocating(capsys):
    # w >= 2, so k >= 7 overflows; 1 << (k - 1) is never built
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "search", "--k", "8000000000", "--m-max", "1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    diag = json.loads(line)
    assert diag["error"] == "validation" and "overflows" in diag["message"]
    assert peak < 1 << 20


def test_search_k6_certificate(capsys, monkeypatch):
    # n = 2**34: the one pair with d <= 3e12 is certified with a cyclic
    # 2-part of 64, and only primes up to isqrt(--d-max) are sieved
    his = _record_sieve_his(monkeypatch)
    code, out, _ = run(capsys, "search", "--k", "6", "--m-max", "1",
                       "--d-max", "3000000000000")
    assert code == 0
    assert out.splitlines()[1:] == [
        "6,1,2,8589934461,17179869053,131,2250562845943,true,570304,64,true"
    ]
    assert his and max(his) <= math.isqrt(3 * 10**12)


def test_singular_truncation_q_is_capped(capsys, monkeypatch):
    # the series sieve starts from a prime table; none may be built
    def no_sieve(lo, hi):
        raise AssertionError("the series sieve was started")

    monkeypatch.setattr(arith, "sieve", no_sieve)
    q = str(circle.MAX_TRUNCATION_Q + 1)
    code, out, err = run(capsys, "singular", "--m", "16", "--truncation-q", q)
    assert code == 2
    assert out == ""
    diag = json.loads(err.splitlines()[-1])
    assert diag["error"] == "validation"
    assert "truncation_q" in diag["message"]


def test_verify_forms_listing(capsys):
    code, out, _ = run(capsys, "verify", "--d", "39", "--forms")
    assert code == 0
    header, row = out.splitlines()
    assert header == "d,h,two_part,cyclic,ambiguous,forms"
    assert row.endswith('"1,1,10;2,-1,5;2,1,5;3,3,4"')


def test_verify_forms_enumerates_once(capsys, monkeypatch):
    calls = []
    enumerate_reduced = forms.enumerate_reduced
    monkeypatch.setattr(forms, "enumerate_reduced",
                        lambda d: calls.append(d) or enumerate_reduced(d))
    code, out, _ = run(capsys, "verify", "--d", "39", "--forms")
    assert code == 0
    assert out == 'd,h,two_part,cyclic,ambiguous,forms\n39,4,4,true,2,"1,1,10;2,-1,5;2,1,5;3,3,4"\n'
    assert calls == [39]


def test_verify_forms_builds_two_root_tables_never_both_alive(capsys, monkeypatch):
    # class_number and enumerate_reduced each build their own table, and
    # the first is gone before the second is built
    built, alive = [], []

    class Table(forms.RootTable):
        def __init__(self, d):
            alive.append(sum(ref() is not None for ref in built))
            super().__init__(d)
            built.append(weakref.ref(self))

    monkeypatch.setattr(forms, "RootTable", Table)
    code, _, _ = run(capsys, "verify", "--d", "39", "--forms")
    assert code == 0
    assert len(built) == 2 and all(ref() is None for ref in built)
    assert alive == [0, 0]


def test_verify_forms_requires_d(capsys):
    code, out, err = run(capsys, "verify", "--k", "2", "--m", "1",
                         "--p1", "13", "--p2", "3", "--forms")
    assert code == 2
    assert out == ""
    diag = json.loads(err.strip())
    assert diag["error"] == "validation" and "--d" in diag["message"]


@pytest.mark.parametrize("extra, named", [
    (["--k", "2", "--m", "1", "--p1", "11", "--p2", "5"], "--k --m --p1 --p2"),
    (["--k", "2"], "--k"),
    (["--p2", "5", "--forms"], "--p2"),
    (["--m", "-1", "--p1", str(10**31)], "--m --p1"),
])
def test_verify_d_refuses_certificate_flags(capsys, monkeypatch, extra, named):
    # --d reports one discriminant; the flags of a claimed certificate
    # beside it are refused, naming them, not ignored
    def no_enumeration(d):
        raise AssertionError("the oracle ran on a refused verify --d")

    monkeypatch.setattr(forms, "_blocks", no_enumeration)
    code, out, err = run(capsys, "verify", "--d", "39", *extra)
    assert (code, out) == (2, "")
    diag = json.loads(err.strip())
    assert diag == {"error": "validation", "message": f"{named} cannot be given with --d"}


def test_verify_forms_json_lists_the_forms(capsys):
    code, out, _ = run(capsys, "verify", "--d", "39", "--forms", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"d": 39, "h": 4, "two_part": 4, "cyclic": True,
                                "ambiguous": 2, "forms": "1,1,10;2,-1,5;2,1,5;3,3,4"}]


def test_removed_subcommand_and_flag_exit_2(capsys):
    for argv in (["classgroup", "--d", "39"], ["-v", "search", "--k", "2", "--m-max", "1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_compare_over_work_budget_refused_before_sieve(capsys, monkeypatch):
    def no_sieve(lo, hi):
        raise AssertionError("a sieve ran for an over-budget window")

    monkeypatch.setattr(arith, "sieve", no_sieve)
    code, out, err = run(capsys, "compare", "--n-lo", "8", "--n-hi", "268435000",
                         "--step", "8")
    assert code == 2
    assert out == ""
    diag = json.loads(err.splitlines()[-1])
    assert diag["error"] == "validation"
    assert "work budget" in diag["message"]


def test_compare_over_sieve_budget_refused_before_allocating(capsys):
    # one row at n = 3e8 is within the window work budget, but its sieve
    # span exceeds arith.DEFAULT_MAX_SPAN; the span is refused first
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "compare", "--n-lo", "300000000", "--n-hi", "300000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    diag = json.loads(line)
    assert diag["error"] == "validation" and "exceeds the budget" in diag["message"]
    assert peak < 1 << 20


def test_compare_rows(capsys):
    code, out, _ = run(capsys, "compare", "--n-lo", "16", "--n-hi", "32", "--step", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,restricted_sum,main_term,ratio"
    assert len(lines) == 4
    assert lines[1].startswith("16,13.354296892,")


def test_compare_rejects_vanishing_n(capsys):
    code, out, err = run(capsys, "compare", "--n-lo", "12", "--n-hi", "20", "--step", "8")
    assert code == 2
    assert json.loads(err.splitlines()[-1])["error"] == "validation"


@pytest.mark.parametrize("argv, words", [
    (["--n-lo", "12", "--n-hi", "20"], "vanishes"),
    (["--n-lo", "16", "--n-hi", "40", "--step", "4"], "n=20 is rejected"),
    (["--n-lo", "50000001", "--n-hi", "50000001"], "vanishes"),
    (["--n-lo", "-1000000000000", "--n-hi", "-8"], "--n-lo"),
    (["--n-lo", "0", "--n-hi", "0"], "--n-lo"),
], ids=["vanishing-first-n", "vanishing-second-n", "odd-n", "negative", "zero"])
def test_compare_window_refused_before_sieve(capsys, monkeypatch, argv, words):
    # n_lo < 2 and an n where S2 vanishes are refused before any sieve
    def no_sieve(lo, hi):
        raise AssertionError("a sieve ran for a refused window")

    monkeypatch.setattr(arith, "sieve", no_sieve)
    code, out, err = run(capsys, "compare", *argv)
    assert (code, out) == (2, "")
    diag = json.loads(err.splitlines()[-1])
    assert diag["error"] == "validation" and words in diag["message"]


# Exit codes under drawn argv.  Each draw is a base argv, one value per
# flag from its list (None leaves the flag out, True passes it bare), and
# at most one edge case, which overrides a few flags at once.  Every base
# runs in a few milliseconds.  The edge cases hold values past a bound at
# the bound's real value, and integers at and past 2**31, 2**63 and 2**64;
# where a value is accepted only with small other flags, the case sets
# them too, so no draw runs for long.  Every base was run with every edge
# case: all 142,446 exit 0 or 2, the slowest in 0.16 s.
INTS = [-(2**63), -1, 0, 1, 2**31, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1, 10**30]
FUZZ = {
    "search": (
        {"--k": [1, 2, 3, 4], "--m-min": [None, 1, 2], "--m-max": [1, 2, 3],
         "--d-max": [10**4, 10**6, 10**8]},
        [{"--k": v} for v in INTS + [5, 6, 7]]
        + [{"--m-min": v} for v in INTS + [4]]
        + [{"--m-max": v} for v in INTS + [2**30]]
        # 2**31 is an accepted d budget, at which k = 3 takes 0.4 s
        + [{"--d-max": v} for v in INTS + [bounds.MAX_D + 1] if v != 2**31]
        # the largest M whose k = 1 target fits 63 bits, and the d bound
        + [{"--k": 1, "--m-max": 2**30 - 1, "--d-max": 10**4},
           {"--k": 1, "--m-max": 2, "--d-max": bounds.MAX_D}],
    ),
    "verify": (
        {"--d": [None, 3, 4, 7, 15, 39, 420, 100415], "--k": [None, 2], "--m": [None, 1],
         "--p1": [None, 13, 11], "--p2": [None, 3, 5], "--forms": [None, True],
         "--d-max": [None, 1000, 10**6]},
        [{"--d": v} for v in INTS + [2, 5, bounds.MAX_D + 1]]
        + [{"--d-max": v} for v in INTS + [bounds.MAX_D, bounds.MAX_D + 1]]
        + [{flag: v} for flag in ("--k", "--m", "--p1", "--p2") for v in INTS]
        + [{"--d": bounds.MAX_D + 1, "--d-max": bounds.MAX_D},
           {"--d": bounds.MAX_FORMS_D + 3, "--forms": True, "--d-max": bounds.MAX_D},
           # the first k = 6 certificate, over the default budget
           {"--d": None, "--k": 6, "--m": 1, "--p1": 17179869053, "--p2": 131}],
    ),
    "singular": (
        {"--m": [1, 2, 15, 16, 30, 213396], "--truncation-q": [None, 2, 3, 100, 10**4]},
        [{"--m": v} for v in INTS + [2**64 - 59]]
        + [{"--truncation-q": v} for v in INTS + [bounds.MAX_TRUNCATION_Q + 1]],
    ),
    "compare": (
        {"--n-lo": [2, 6, 8, 16, 100, 1000], "--n-hi": [2, 8, 16, 100, 1000, 5000],
         "--step": [None, 1, 2, 8, 16]},
        [{flag: v} for flag in ("--n-lo", "--n-hi", "--step") for v in INTS]
        # one row past the sieve span; a window one row past the work budget
        + [{"--n-lo": 2**28 + 2, "--n-hi": 2**28 + 2},
           {"--n-lo": 10**6 - 8 * 10**5, "--n-hi": 10**6, "--step": 8}],
    ),
}


@st.composite
def edge_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ)))
    base, edges = FUZZ[command]
    flags = {flag: draw(st.sampled_from(values)) for flag, values in base.items()}
    flags.update(draw(st.sampled_from([{}] + edges)))
    argv = [command]
    for flag, value in flags.items():
        if value is True:
            argv.append(flag)
        elif value is not None:
            argv.append(f"{flag}={value}")
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edge_argv())
@example(["compare", "--n-lo=2", "--n-hi=18446744073709551616", "--step=1"])
def test_exit_code_is_0_or_2_on_edge_values(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code in (0, 2), (argv, err)
    if code == 2:
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "validation", argv


@pytest.mark.parametrize("m", ["0", "-5"])
def test_singular_m_below_one_names_the_flag(capsys, m):
    code, out, err = run(capsys, "singular", "--m", m)
    assert (code, out) == (2, "")
    diag = json.loads(err.splitlines()[-1])
    assert diag["error"] == "validation" and "--m" in diag["message"]


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--k", "2", "--m-max", "1", "--frobnicate"])
    assert exc.value.code == 2


def test_byte_identical_reruns(capsys, tmp_path):
    args = ["search", "--k", "3", "--m-max", "1", "--output"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + [str(p1)]) == 0
    assert cli.main(args + [str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()

    args = ["compare", "--n-lo", "1000", "--n-hi", "1200", "--step", "8", "--output"]
    q1, q2 = tmp_path / "c.csv", tmp_path / "d.csv"
    assert cli.main(args + [str(q1)]) == 0
    assert cli.main(args + [str(q2)]) == 0
    assert q1.read_bytes() == q2.read_bytes()


def test_compare_ignores_c2_cache(capsys, tmp_path, monkeypatch):
    # C2_CACHE is not read: compare always sieves and writes only its rows
    args = ["compare", "--n-lo", "1000", "--n-hi", "1100", "--step", "8"]
    monkeypatch.delenv("C2_CACHE", raising=False)
    code, plain, _ = run(capsys, *args)
    assert code == 0

    monkeypatch.setenv("C2_CACHE", str(tmp_path / "primes.c2sv"))
    code, out, err = run(capsys, *args)
    assert code == 0
    assert out == plain
    assert err == ""
    assert list(tmp_path.iterdir()) == []


def test_output_file_has_lf_endings(capsys, tmp_path):
    out = tmp_path / "rows.csv"
    assert cli.main(["verify", "--d", "39", "--output", str(out)]) == 0
    data = out.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")


def failure(capsys, code, *argv):
    """The one JSON line on stderr of a run that exits `code` with no stdout."""
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    (line,) = err.splitlines()
    return json.loads(line)


def test_verify_reports_a_broken_compose_as_internal(capsys, monkeypatch):
    # d = 77154395 is cyclic (h = 3360, 2-part 32), so its verdict is
    # checked by the witness scan; a compose that squares every class to
    # the principal form leaves no class of order 32, and the scan fails
    real = forms.compose
    monkeypatch.setattr(
        forms, "compose",
        lambda f, g: forms.principal_form(forms.discriminant(f)) if f == g else real(f, g),
    )
    error = failure(capsys, 1, "verify", "--d", "77154395")
    assert error["error"] == "internal" and "no element of order 32" in error["message"]


@pytest.mark.parametrize("d", [77154395], ids=["cyclic"])
def test_verify_d_reports_a_refused_composition_as_internal(capsys, monkeypatch, d):
    # d is valid, so a composed form that reduce refuses (a ValueError)
    # is a bug in the witness scan, not bad input; the raw error reaches
    # stderr, named by its type.  A non-cyclic d composes nothing.
    real = forms.compose

    def broken(f, g):
        a, b, c = real(f, g)
        return forms.reduce((a, b, -c))

    monkeypatch.setattr(forms, "compose", broken)
    error = failure(capsys, 1, "verify", "--d", str(d))
    assert error["error"] == "internal"
    assert error["message"].startswith("ValueError: ") and "not positive definite" in error["message"]


def test_verify_d_reports_a_value_error_in_the_walk_as_internal(capsys, monkeypatch):
    # d = 1155 is valid, so a ValueError from the walk is a bug
    def broken(d, block):
        raise ValueError("broken expansion")

    monkeypatch.setattr(forms, "_expand", broken)
    error = failure(capsys, 1, "verify", "--d", "1155")
    assert error["error"] == "internal" and "broken expansion" in error["message"]


@pytest.mark.parametrize("d", [5, forms.MAX_D + 3])
def test_verify_d_refuses_a_bad_discriminant_before_the_walk(capsys, monkeypatch, d):
    # d = 1 (mod 4) and d above the oracle bound are the user's error,
    # refused before the walk could raise
    def broken(d, block):
        raise ValueError("broken expansion")

    monkeypatch.setattr(forms, "_expand", broken)
    error = failure(capsys, 2, "verify", "--d", str(d), "--d-max", str(forms.MAX_D))
    assert error["error"] == "validation" and "broken" not in error["message"]


def test_verify_reports_an_oracle_mismatch_as_internal(capsys, monkeypatch):
    # the symbol route certifies (13, 3) with 2-part 4; an oracle that
    # reports 8 contradicts it, which is a bug and not a rejection
    real = forms.class_number
    monkeypatch.setattr(
        forms, "class_number",
        lambda d, witness=None, factors=None: real(d, witness, factors)._replace(two_part=8),
    )
    error = failure(capsys, 1, "verify", "--k", "2", "--m", "1",
                    "--p1", "13", "--p2", "3")
    assert error["error"] == "internal" and "oracle-mismatch" in error["message"]


@pytest.mark.parametrize("fault", ["reduce-refuses", "wrong-class"])
def test_verify_k_reports_a_broken_witness_check_as_internal(capsys, monkeypatch, fault):
    # certify checks that g = (2, 1, 5) has order exactly 4 by composition
    # before the oracle runs; a compose whose result reduce refuses (a
    # ValueError), or that squares to the wrong class, is a bug: exit 1
    real = forms.compose

    def broken(f, g):
        a, b, c = real(f, g)
        if fault == "reduce-refuses":
            return forms.reduce((a, b, -c))
        return forms.principal_form(b * b - 4 * a * c)

    monkeypatch.setattr(forms, "compose", broken)
    error = failure(capsys, 1, "verify", "--k", "2", "--m", "1",
                    "--p1", "13", "--p2", "3")
    message = "not positive definite" if fault == "reduce-refuses" else "witness check failed"
    assert error["error"] == "internal" and message in error["message"]


def test_verify_k_reports_a_failed_symbol_test_as_internal(capsys, monkeypatch):
    # after certify's own checks (w, -d)_p1 = -1 is a theorem, so a
    # False from the symbol test is a bug and not a rejection
    monkeypatch.setattr(criteria, "exact_order_test", lambda w, b, primes: False)
    error = failure(capsys, 1, "verify", "--k", "2", "--m", "1",
                    "--p1", "13", "--p2", "3")
    assert error["error"] == "internal" and "symbol test failed" in error["message"]
    assert "reason" not in error


def test_verify_k_reports_a_refused_criterion_as_internal(capsys, monkeypatch):
    # certify's own checks establish every hypothesis of the criterion,
    # so a ValueError from it is a bug, not a bad input; here it is handed
    # d = 39 as one "prime", which passes every other check and is refused
    real = criteria.exact_order_test
    monkeypatch.setattr(criteria, "exact_order_test",
                        lambda w, b, primes: real(w, b, (math.prod(primes),)))
    error = failure(capsys, 1, "verify", "--k", "2", "--m", "1",
                    "--p1", "13", "--p2", "3")
    assert error["error"] == "internal" and "requires a prime p" in error["message"]
    assert "reason" not in error


def test_unexpected_exception_reported_as_internal(capsys, monkeypatch):
    # a bug that is not an ArithmeticError still exits 1 with one JSON
    # line naming the exception type
    def broken(f, g):
        raise TypeError("injected fault")

    monkeypatch.setattr(forms, "compose", broken)
    error = failure(capsys, 1, "verify", "--d", "77154395")
    assert error["error"] == "internal"
    assert error["message"] == "TypeError: injected fault"


def test_search_reports_a_value_error_outside_the_oracle_as_internal(capsys, monkeypatch):
    # only a check of user input raises UsageError; a bare ValueError from
    # inside the search is a bug, not the user's error
    def broken(n):
        raise ValueError("injected fault")

    monkeypatch.setattr(arith, "is_prime", broken)
    error = failure(capsys, 1, "search", "--k", "2", "--m-max", "1")
    assert error == {"error": "internal", "message": "ValueError: injected fault"}

