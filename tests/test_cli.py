import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tripoint.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "gaps", "--n", "2")
    assert code == 1 and "n must be >= 3" in err
    code, _, err = run(capsys, "code", "--curve", "q16-n4")
    assert code == 1           # --design or --divisor required
    code, _, err = run(capsys, "code", "--curve", "q16-n4",
                       "--design", "2,1", "--divisor", "9,4,0")
    assert code == 1           # mutually exclusive
    code, _, err = run(capsys, "gaps")
    assert code == 1 and "--n" in err
    code, _, err = run(capsys, "nonsense")
    assert code == 1
    for n_max in ("2", "6", "7"):   # outside the bundled check curves
        code, out, err = run(capsys, "verify", "--n-max", n_max)
        assert code == 1 and out == "" and "--n-max must be in 3..5" in err
    # negative sizes are refused, not read as slices from the end
    for flag, value in (("--length", "-3"), ("--estimate-trials", "-5")):
        code, out, err = run(capsys, "code", "--curve", "q16-n4",
                             "--design", "2,1", flag, value)
        assert code == 1 and out == "" and f"{flag} must be >= 0" in err


def test_module_entry_point():
    # python -m tripoint runs the CLI from a checkout, with no install
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "tripoint", "--help"],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: tripoint")
    assert "reproduce" in done.stdout


def test_io_error(capsys):
    code, _, err = run(capsys, "gaps", "--n", "3",
                       "--out", "/nonexistent/dir/x.json")
    assert code == 3


def test_gaps_payload(capsys):
    code, doc, _ = run_json(capsys, "gaps", "--n", "4")
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["command"] == "gaps"
    assert "generated_at" in doc and "version" in doc
    assert doc["config"]["n"] == 4 and doc["config"]["format"] == "json"
    assert doc["gaps"] == [1, 2, 3, 5, 6, 9]
    assert doc["semigroup_generators"] == [4, 7, 10, 13]
    assert set(doc["kim_maps"]) == {"P1->P2", "P2->P3", "P3->P1"}
    assert len(doc["kim_maps"]["P1->P2"]) == 6
    first = doc["kim_maps"]["P1->P2"][0]
    assert first["gap"] == 1 and first["image"] == 9


def test_gaps_check_against_oracle(capsys):
    code, doc, err = run_json(capsys, "gaps", "--n", "3",
                              "--curve", "q8-n3", "--check")
    assert code == 0
    assert "closed-form = oracle: PASS" in err
    assert doc["oracle_check"]["points"]["P1"]["oracle"] == [1, 2, 4]
    assert doc["oracle_check"]["passed"] is True


def test_pure_gaps_payload(capsys):
    code, doc, _ = run_json(capsys, "pure-gaps", "--n", "4")
    assert code == 0 and doc["count"] == 10
    assert all(set(r) >= {"a", "b", "predicted_dimension"}
               for r in doc["rows"])
    code, doc, _ = run_json(capsys, "pure-gaps", "--n", "5", "--points", "3")
    assert code == 0 and doc["count"] == 57
    assert {r["a"] for r in doc["rows"]} and "c" in doc["rows"][0]


def test_pure_gaps_checked(capsys):
    code, doc, _ = run_json(capsys, "pure-gaps", "--n", "3",
                            "--curve", "q8-n3", "--check")
    assert code == 0
    assert doc["oracle_check"]["passed"] is True
    assert doc["oracle_check"]["confirmed"] == 2


def test_pure_gaps_check_counts_records(capsys, monkeypatch):
    # each record fails both checks: confirmed counts records, not problems
    monkeypatch.setattr("tripoint.weierstrass.pure_gap_oracle",
                        lambda *a, **k: False)
    monkeypatch.setattr("tripoint.weierstrass.dim_L_oracle",
                        lambda *a, **k: -1)
    code, doc, _ = run_json(capsys, "pure-gaps", "--n", "3",
                            "--curve", "q8-n3", "--check")
    assert code == 2 and doc["count"] == 2
    check = doc["oracle_check"]
    assert check["confirmed"] == 0 and check["passed"] is False
    assert len(check["problems"]) == 4


def test_pure_gaps_check_oracle_work(capsys, monkeypatch):
    # every uncached ell query builds one condition matrix; each run loads
    # a new curve object, so its memo starts empty
    from tripoint import riemann_roch
    original = riemann_roch._condition_matrix
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(riemann_roch, "_condition_matrix", counted)
    for n, points, want in ((4, 2, 18), (4, 3, 21), (5, 2, 50), (5, 3, 103)):
        calls.clear()
        code, doc, _ = run_json(capsys, "pure-gaps", "--n", str(n),
                                "--points", str(points), "--check")
        assert code == 0 and doc["oracle_check"]["passed"] is True
        assert len(calls) == want, (n, points)


def test_dims_check(capsys):
    code, doc, _ = run_json(capsys, "dims", "--n", "3",
                            "--curve", "q8-n3", "--check",
                            "--families", "mP,Sd")
    assert code == 0
    assert doc["families"] == ["mP", "Sd"]
    assert doc["rows"]
    assert all(r["match"] for r in doc["rows"])
    assert any(r["family"] == "mP" and r["oracle"] is not None
               for r in doc["rows"])
    # the unchecked table: S_d rows are the i, j, k >= 0 triples, d <= n
    for n, count in ((3, 50), (4, 111), (5, 196)):
        code, doc, _ = run_json(capsys, "dims", "--n", str(n))
        assert code == 0 and len(doc["rows"]) == count
        want = [f"S({i},{j},{d - i - j})" for d in range(n + 1)
                for i in range(d + 1) for j in range(d - i + 1)]
        assert [r["label"] for r in doc["rows"]
                if r["family"] == "Sd"] == want


def test_code_pipeline(capsys, tmp_path):
    mdir = tmp_path / "mats"
    code, doc, _ = run_json(capsys, "code", "--curve", "q16-n4",
                            "--design", "2,1", "--certify", "5",
                            "--estimate-trials", "20",
                            "--budget", "500000",
                            "--matrix-csv", str(mdir))
    assert code == 0
    rep = doc["report"]
    assert rep["length"] == 37 and rep["dimension"] == 29
    assert rep["pure_gap_bound"] == 6 and rep["goppa_bound"] == 3
    assert rep["verified_floor"] == 6
    assert rep["weight_upper"] == 6
    cert = doc["certification"]
    assert cert["ok"] is True and cert["checked"] == 435897
    assert doc["design"]["hypotheses_met"] is True
    parity = (mdir / "parity_check.csv").read_text().strip().splitlines()
    assert len(parity) == 8
    gen = (mdir / "generator.csv").read_text().strip().splitlines()
    assert len(gen) == 29
    # cells are ':'-joined coefficient digits, low degree first
    cell = parity[0].split(",")[0]
    assert all(part.isdigit() for part in cell.split(":"))
    assert len(cell.split(":")) == 4   # GF(16) elements over GF(2)


def test_code_design_gate(capsys):
    code, _, err = run(capsys, "code", "--curve", "q16-n4", "--design", "1,1")
    assert code == 1
    assert "(n+2)/2 <= i+j <= n-1" in err


def test_code_exclude_p3(capsys):
    code, doc, _ = run_json(capsys, "code", "--curve", "q16-n4",
                            "--design", "2,1", "--exclude-p3")
    assert code == 0
    assert doc["report"]["length"] == 36


def test_code_budget_note(capsys):
    code, doc, _ = run_json(capsys, "code", "--curve", "q16-n4",
                            "--design", "2,1", "--certify", "5",
                            "--budget", "1000")
    assert code == 0
    assert doc["certification"]["ok"] is None
    assert "budget" in doc["certification"]["skipped"]
    assert doc["report"]["verified_floor"] is None


def test_reproduce_row(capsys):
    code, doc, _ = run_json(capsys, "reproduce", "--rows", "q16-n4",
                            "--budget", "500000")
    assert code == 0 and doc["passed"] is True
    row = doc["rows"][0]
    assert row["row"] == "q16-n4" and row["tag"] == "reproduced-exact"
    assert row["got_dimension"] == row["want_dimension"] == 29
    code, _, err = run(capsys, "reproduce", "--rows", "bogus")
    assert code == 1 and "unknown rows" in err


def test_reproduce_ladder_and_counts(capsys):
    code, doc, _ = run_json(capsys, "reproduce", "--rows",
                            "record-ladder,counts")
    assert code == 0
    names = [r["row"] for r in doc["rows"]]
    assert "q49-n5-record-m113" in names and "q49-n5-record-m107" in names
    assert "hurwitz-q2" in names and "hermitian-q2" in names
    counts = {r["row"]: r for r in doc["rows"]}
    assert counts["hurwitz-q2"]["got_points"] == 24
    assert counts["hermitian-q2"]["got_points"] == 81
    ladder = counts["q49-n5-record-m113"]
    assert ladder["got_dimension"] == 95 and ladder["got_floor"] == 12


def test_reproduce_sweeps_each_curve_once(capsys, monkeypatch):
    from tripoint import curves
    swept = []
    raw = curves.rational_points_raw

    def counting(field, F_terms):
        swept.append(field.q)
        return raw(field, F_terms)

    monkeypatch.setattr(curves, "rational_points_raw", counting)
    code, doc, _ = run_json(capsys, "reproduce", "--rows", "record-ladder")
    assert code == 0 and len(doc["rows"]) == 7
    assert swept == [49]
    swept.clear()
    code, doc, _ = run_json(capsys, "reproduce", "--rows", "q16-n4",
                            "--budget", "1000")
    assert code == 0 and swept == [16]


def test_reproduce_parallel(capsys):
    code, doc, _ = run_json(capsys, "reproduce", "--rows", "q16-n4,q27-n4",
                            "--jobs", "2", "--budget", "1000")
    assert code == 0
    assert {r["row"] for r in doc["rows"]} == {"q16-n4", "q27-n4"}
    assert all(r["tag"] == "formula-only" for r in doc["rows"])


def test_verify_invariant_exit(capsys):
    code, doc, err = run_json(capsys, "verify", "--inject-bug",
                              "--skip-oracle-sweeps", "--n-max", "3")
    assert code == 2
    assert doc["passed"] is False
    assert "FAIL" in err
    failing = [r for r in doc["rows"] if not r["passed"]]
    assert failing and any("fields-injected-bug" == r["section"]
                           for r in failing)


def test_verify_clean(capsys):
    code, doc, _ = run_json(capsys, "verify", "--skip-oracle-sweeps",
                            "--n-max", "3")
    assert code == 0 and doc["passed"] is True
    assert doc["checks"] == len(doc["rows"]) > 50


def test_verify_suite_exception(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("tripoint.verification.gap_suite", broken)
    code, doc, err = run_json(capsys, "verify", "--skip-oracle-sweeps",
                              "--n-max", "3")
    assert code == 2 and doc["passed"] is False
    failing = [r for r in doc["rows"] if not r["passed"]]
    assert len(failing) == 1 and failing[0]["section"] == "gaps-n3"
    assert failing[0]["detail"].startswith("RuntimeError: boom")
    # the suites after the broken one still ran
    assert any(r["section"] == "riemann-roch-n3" for r in doc["rows"])


def test_verify_record_curve(capsys):
    code, doc, _ = run_json(capsys, "verify", "--n-max", "5")
    assert code == 0 and doc["passed"] is True
    assert all(r["passed"] for r in doc["rows"])
    assert {"dims-n5", "pure-gaps-n5", "riemann-roch-n5"} <= \
        {r["section"] for r in doc["rows"]}


def test_csv_output(capsys):
    code, out, _ = run(capsys, "gaps", "--n", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["gap"] for r in rows] == ["1", "2", "4"]
    assert rows[0]["kim_image"] == "4"


def test_config_file_precedence(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"n": 4, "format": "json"}))
    code, doc, _ = run_json(capsys, "gaps", "--config", str(conf))
    assert code == 0 and doc["n"] == 4
    # explicit flag beats the config file
    code, doc, _ = run_json(capsys, "gaps", "--config", str(conf),
                            "--n", "3")
    assert code == 0 and doc["n"] == 3
    conf.write_text(json.dumps({"bogus_key": 1}))
    code, _, err = run(capsys, "gaps", "--n", "3", "--config", str(conf))
    assert code == 1 and "unknown config keys" in err


def test_deterministic_output(capsys):
    code1, doc1, _ = run_json(capsys, "pure-gaps", "--n", "4")
    code2, doc2, _ = run_json(capsys, "pure-gaps", "--n", "4")
    assert code1 == code2 == 0
    doc1.pop("generated_at")
    doc2.pop("generated_at")
    assert doc1 == doc2


def test_search_json_lines(capsys):
    code, out, _ = run(capsys, "search", "--q", "2", "--n", "3",
                       "--keep-singular")
    assert code == 0
    lines = out.strip().splitlines()
    header = json.loads(lines[0])
    assert header["command"] == "search"
    matches = [json.loads(line) for line in lines[1:]]
    assert len(matches) == 8
    sing = [m for m in matches if m["singular"]]
    assert len(sing) == 1 and sing[0]["singular"][0][1] == [1, 1, 1]
    code, out, _ = run(capsys, "search", "--q", "2", "--n", "3",
                       "--min-points", "7", "--limit", "2")
    lines = out.strip().splitlines()
    assert len(lines) - 1 <= 2
    assert all(json.loads(l)["points"] >= 7 for l in lines[1:])
