"""End-to-end tests of the command-line interface and its output formats."""

import dataclasses
import json
import math

import pytest

from cyclic2 import arith, circle, cli, factory, forms


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
    # both product columns need the odd primes of m = 2 * (2**31 - 1) * 4294967291
    calls = []
    factorize = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda n: calls.append(n) or factorize(n))
    circle._product_full.cache_clear()
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
    calls = []
    class_number = forms.class_number
    monkeypatch.setattr(forms, "class_number",
                        lambda d: calls.append(d) or class_number(d))
    code, _, _ = run(capsys, "verify", "--k", "2", "--m", "1",
                     "--p1", "13", "--p2", "3")
    assert code == 0
    assert calls == [39]


def _assert_refused_before_enumeration(capsys, monkeypatch, subcommand):
    def no_enumeration(d):
        raise AssertionError("the oracle ran on an over-budget d")

    monkeypatch.setattr(forms, "enumerate_reduced", no_enumeration)
    code, out, err = run(capsys, subcommand, "--d-max", "100", "--d", "103")
    assert code == 2
    assert out == ""
    diag = json.loads(err.splitlines()[-1])
    assert diag["error"] == "validation"
    assert "--d-max" in diag["message"]


def test_verify_d_respects_d_max(capsys, monkeypatch):
    _assert_refused_before_enumeration(capsys, monkeypatch, "verify")


def test_classgroup_respects_d_max(capsys, monkeypatch):
    _assert_refused_before_enumeration(capsys, monkeypatch, "classgroup")


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
    # n ~ 4.4e10: the derived discriminants overflow 63 bits, which is
    # refused before any sieve, instead of a sieve of [2, n].
    his = _record_sieve_his(monkeypatch)
    code, out, err = run(capsys, "search", "--k", "4", "--m-min", "3", "--m-max", "3")
    assert code == 2
    assert out == ""
    diag = json.loads(err.splitlines()[-1])
    assert diag["error"] == "validation"
    assert "overflow" in diag["message"]
    assert all(hi <= math.isqrt(factory.DEFAULT_D_BUDGET) for hi in his)


def test_singular_truncation_q_is_capped(capsys, monkeypatch):
    def no_tables(limit):
        raise AssertionError("the series tables were allocated")

    monkeypatch.setattr(circle, "_mult_tables", no_tables)
    q = str(circle.MAX_TRUNCATION_Q + 1)
    code, out, err = run(capsys, "singular", "--m", "16", "--truncation-q", q)
    assert code == 2
    assert out == ""
    diag = json.loads(err.splitlines()[-1])
    assert diag["error"] == "validation"
    assert "truncation_q" in diag["message"]


def test_classgroup_forms_listing(capsys):
    code, out, _ = run(capsys, "classgroup", "--d", "39", "--forms")
    assert code == 0
    header, row = out.splitlines()
    assert header == "d,h,two_part,cyclic,ambiguous,forms"
    assert row.endswith('"1,1,10;2,-1,5;2,1,5;3,3,4"')


def test_classgroup_forms_enumerates_once(capsys, monkeypatch):
    calls = []
    enumerate_reduced = forms.enumerate_reduced
    monkeypatch.setattr(forms, "enumerate_reduced",
                        lambda d: calls.append(d) or enumerate_reduced(d))
    code, out, _ = run(capsys, "classgroup", "--d", "39", "--forms")
    assert code == 0
    assert out == 'd,h,two_part,cyclic,ambiguous,forms\n39,4,4,true,2,"1,1,10;2,-1,5;2,1,5;3,3,4"\n'
    assert calls == [39]


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


def test_verify_reports_a_broken_compose_as_internal(capsys, monkeypatch):
    # d = 86531263 is non-cyclic (h = 3168, 8 ambiguous classes), so its
    # verdict is checked by counting squares; a compose that squares
    # every class to the principal form must make that check fail
    real = forms.compose
    monkeypatch.setattr(
        forms, "compose",
        lambda f, g: forms.principal_form(forms.discriminant(f)) if f == g else real(f, g),
    )
    code, out, err = run(capsys, "verify", "--d", "86531263")
    assert code == 1
    assert out == ""
    error = json.loads(err.strip().splitlines()[-1])
    assert error["error"] == "internal" and "squares" in error["message"]


def test_verify_reports_an_oracle_mismatch_as_internal(capsys, monkeypatch):
    # the symbol route certifies (13, 3) with 2-part 4; an oracle that
    # reports 8 contradicts it, which is a bug and not a rejection
    real = forms.class_number
    monkeypatch.setattr(
        forms, "class_number", lambda d: dataclasses.replace(real(d), two_part=8)
    )
    code, out, err = run(capsys, "verify", "--k", "2", "--m", "1",
                         "--p1", "13", "--p2", "3")
    assert code == 1
    assert out == ""
    error = json.loads(err.strip().splitlines()[-1])
    assert error["error"] == "internal" and "oracle-mismatch" in error["message"]
