"""End-to-end tests of the command-line interface and its output formats."""

import json

import pytest

from cyclic2 import cli, forms


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


def test_verify_d_respects_d_max(capsys, monkeypatch):
    def no_enumeration(d):
        raise AssertionError("the oracle ran on an over-budget d")

    monkeypatch.setattr(forms, "enumerate_reduced", no_enumeration)
    code, out, err = run(capsys, "verify", "--d-max", "100", "--d", "103")
    assert code == 2
    assert out == ""
    diag = json.loads(err.splitlines()[-1])
    assert diag["error"] == "validation"
    assert "--d-max" in diag["message"]


def test_classgroup_forms_listing(capsys):
    code, out, _ = run(capsys, "classgroup", "--d", "39", "--forms")
    assert code == 0
    header, row = out.splitlines()
    assert header == "d,h,two_part,cyclic,ambiguous,forms"
    assert row.endswith('"1,1,10;2,-1,5;2,1,5;3,3,4"')


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


def test_sieve_cache_is_transparent(capsys, tmp_path, monkeypatch):
    args = ["compare", "--n-lo", "1000", "--n-hi", "1100", "--step", "8"]
    code, plain, _ = run(capsys, *args)
    assert code == 0

    cache = tmp_path / "primes.c2sv"
    monkeypatch.setenv("C2_CACHE", str(cache))
    code, first, _ = run(capsys, *args)
    assert code == 0
    assert cache.exists()
    assert cache.read_bytes()[:4] == b"C2SV"
    code, second, _ = run(capsys, *args)
    assert code == 0
    assert plain == first == second


def test_output_file_has_lf_endings(capsys, tmp_path):
    out = tmp_path / "rows.csv"
    assert cli.main(["verify", "--d", "39", "--output", str(out)]) == 0
    data = out.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
