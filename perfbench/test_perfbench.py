"""Tests of the benchmark itself: generators, gate, tracer, child commands.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import sys

import pytest

import gate
import run
import tracer
import workloads

SEARCH_ARGV = ["search", "--k", "2", "--m-max", "1"]
SEARCH_OUT = (
    "k,M,w,x,p1,p2,d,symbol_ok,h,two_part,cyclic\n"
    "2,1,2,3,5,11,55,true,4,4,true\n"
    "2,1,2,5,13,3,39,true,4,4,true\n"
)
VERIFY_ARGV = ["verify", "--d", "39"]
VERIFY_OUT = "d,h,two_part,cyclic,ambiguous\n39,4,4,true,2\n"


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_per_seed(workload):
    for seed in (1, 2, 17):
        assert workloads.generate(workload, seed) == workloads.generate(workload, seed)


@pytest.mark.parametrize("workload", ["verify-mixed", "circle-window"])
def test_seed_changes_the_inputs(workload):
    assert workloads.generate(workload, 1) != workloads.generate(workload, 2)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_verify_mixed_composition(seed):
    calls = workloads.generate("verify-mixed", seed)
    ds = [int(argv[2]) for argv in calls if argv[1] == "--d"]
    omegas = []
    for d in ds:
        fac = workloads.factorize(d)
        assert 5 * 10**7 <= d < 10**8 and d % 4 == 3
        assert all(e == 1 for _, e in fac)
        omegas.append(len(fac))
    assert sum(w >= 4 for w in omegas) == 4 and omegas.count(2) == 2
    pairs = [argv for argv in calls if argv[1] == "--k"]
    assert len(pairs) == 2 and len(calls) == 8
    for argv in pairs:
        opts = dict(zip(argv[1::2], argv[2::2]))
        p1, p2 = int(opts["--p1"]), int(opts["--p2"])
        assert (opts["--k"], opts["--m"]) == ("3", "2")
        assert p1 + p2 == workloads.target(3, 2) and p1 % 8 == 5 and p2 % 8 == 3
        assert workloads.is_prime(p1) and workloads.is_prime(p2)
    assert pairs[0] != pairs[1]


def test_circle_window_windows_mirror():
    for seed in range(1, 6):
        a, b, singular = workloads.generate("circle-window", seed)
        lo_a, lo_b = int(a[2]), int(b[2])
        assert lo_a % 8 == 0 and lo_a + lo_b == 495_000
        assert 200_000 <= lo_a <= lo_b and int(b[4]) <= 300_000
        assert singular[0] == "singular" and int(singular[2]) % 2 == 0


def test_gate_accepts_correct_rows():
    gate.check(SEARCH_ARGV, SEARCH_OUT.encode(), {})
    gate.check(VERIFY_ARGV, VERIFY_OUT.encode(), {})


@pytest.mark.parametrize("argv,good,bad", [
    (SEARCH_ARGV, SEARCH_OUT, SEARCH_OUT.replace("39,true,4,4,true", "39,true,4,4,false")),
    (SEARCH_ARGV, SEARCH_OUT, SEARCH_OUT.replace("55,true,4,", "55,true,6,")),
    (VERIFY_ARGV, VERIFY_OUT, VERIFY_OUT.replace("true", "false")),
    (VERIFY_ARGV, VERIFY_OUT, VERIFY_OUT.replace(",2\n", ",4\n")),
])
def test_gate_rejects_tampered_row(argv, good, bad):
    gate.check(argv, good.encode(), {})
    with pytest.raises(gate.GateError):
        gate.check(argv, bad.encode(), {})


def test_golden_hash_rejects_edit_structure_cannot_see():
    # h = 12 keeps the 2-part 4, so only the recorded sha256 catches it
    bad = SEARCH_OUT.replace("55,true,4,", "55,true,12,").encode()
    gate.check(SEARCH_ARGV, bad, {})
    golden = {" ".join(SEARCH_ARGV): gate.digest(SEARCH_OUT.encode())}
    with pytest.raises(gate.GateError, match="sha256"):
        gate.check(SEARCH_ARGV, bad, golden)


def test_gate_rejects_inconsistent_compare_ratio():
    argv = ["compare", "--n-lo", "200000", "--n-hi", "200000", "--step", "8"]
    good = "n,restricted_sum,main_term,ratio\n200000,176096.57999,176043.150892,1.0003035\n"
    gate.check(argv, good.encode(), {})
    with pytest.raises(gate.GateError, match="ratio"):
        gate.check(argv, good.replace("1.0003035", "1.0003036").encode(), {})


def test_golden_covers_the_default_seed():
    golden = gate.load_golden()
    for workload in workloads.GENERATORS:
        for argv in workloads.generate(workload, workloads.DEFAULT_SEED):
            assert " ".join(argv) in golden


def test_untraced_child_has_no_wrappers(tmp_path):
    assert run.child_command(VERIFY_ARGV) == [sys.executable, "-m", "cyclic2.cli", *VERIFY_ARGV]
    inv = run.spawn(VERIFY_ARGV, str(tmp_path))
    run.check(inv, {})
    assert inv.error is None and inv.trace is None
    assert inv.stdout.decode() == VERIFY_OUT


def test_importing_tracer_installs_nothing():
    from cyclic2 import arith, forms
    assert callable(tracer.main)  # the module is imported by this file
    assert not hasattr(forms.compose, "__wrapped__")
    assert not hasattr(arith.PrimeTable.primes, "__wrapped__")


def test_traced_child_counts_exactly(tmp_path):
    inv = run.spawn(VERIFY_ARGV, str(tmp_path), trace=True)
    run.check(inv, {})
    assert inv.error is None and inv.stdout.decode() == VERIFY_OUT
    tr = run.Trace.of(run.Iteration([inv], traced=True))
    m = tr.layer_metrics()
    assert m["forms.class_number_calls"] == 1
    assert m["forms.forms_enumerated"] == 4  # h(-39) = 4
    assert m["forms.ambiguous_compose_calls"] == 4
    assert m["forms.witness_pow_calls"] == 2  # the principal form, then a witness
    assert m["cli.bytes_out"] == len(VERIFY_OUT)
    assert m["circle.window_rows"] == 0 and m["factory.certify_calls"] == 0


def test_layer_metrics_attribute_compose_by_parent():
    tr = run.Trace()
    tr.spans[("forms.compose", "forms.class_number")] = [10, 1.0, 1.0]
    tr.spans[("forms.compose", "forms.form_pow")] = [30, 3.0, 3.0]
    tr.spans[("forms.form_pow", "forms.class_number")] = [5, 3.5, 0.5]
    tr.spans[("factory.certify", "factory.search")] = [4, 2.0, 0.25]
    tr.counters["factory.certified"] = 1
    m = tr.layer_metrics()
    assert (m["forms.ambiguous_compose_calls"], m["forms.ambiguous_s"]) == (10, 1.0)
    assert (m["forms.witness_compose_calls"], m["forms.witness_s"]) == (30, 3.5)
    assert m["forms.witness_pow_calls"] == 5
    assert (m["factory.certify_s"], m["factory.certify_yield"]) == (0.25, 0.25)
