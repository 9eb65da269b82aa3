import argparse
import ast
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tripoint import (CurveSpec, cli, codes, make_field, verification,
                      weierstrass)
from tripoint.catalog import builtin_curves
from tripoint.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_usage_errors(capsys, tmp_path, monkeypatch):
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
    for n_max in ("2", "9"):   # outside verify's range
        code, out, err = run(capsys, "verify", "--n-max", n_max)
        assert code == 1 and out == "" and "--n-max must be in 3..8" in err
    # negative sizes are refused, not read as slices from the end, as
    # flags and as config values
    for flag, value in (("--length", "-3"), ("--estimate-trials", "-5")):
        code, out, err = run(capsys, "code", "--curve", "q16-n4",
                             "--design", "2,1", flag, value)
        assert code == 1 and out == ""
        assert f"argument {flag}: expected a non-negative integer" in err
    path = tmp_path / "length.json"
    path.write_text(json.dumps({"length": -3}))
    code, out, err = run(capsys, "code", "--curve", "q16-n4",
                         "--design", "2,1", "--config", str(path))
    assert code == 1 and out == ""
    assert "length: expected a non-negative integer" in err and "'-3'" in err
    # and --length 1e1 is read as 10
    code, out, err = run(capsys, "code", "--curve", "q16-n4",
                         "--design", "2,1", "--length", "1e1")
    assert code == 0 and json.loads(out)["report"]["length"] == 10
    for q, why in (("6", "6 is not a prime power"),
                   ("1", "field order must be >= 2, got 1")):
        code, out, err = run(capsys, "search", "--q", q, "--n", "3")
        assert code == 1 and out == "" and why in err
    # 4^10 members are too many to exhaust: refused before the header
    code, out, err = run(capsys, "search", "--q", "4", "--n", "5")
    assert code == 1 and out == ""
    assert err.startswith("usage error: coefficient space 1048576 ")
    assert "--sample N" in err
    # --budget is a non-negative integer, written out or in exponent form
    for value in ("1.5", "2.5e-1", "-1", "-1e3", "1e-3", "1e400", "nan",
                  "ten", ""):
        code, out, err = run(capsys, "code", "--curve", "q16-n4",
                             "--design", "2,1", f"--budget={value}")
        assert code == 1 and out == ""
        assert "argument --budget: expected a non-negative integer" in err
    # so is --sample, as a flag and as a config value
    code, out, err = run(capsys, "search", "--q", "64", "--n", "4",
                         "--sample", "-2")
    assert code == 1 and out == ""
    assert "argument --sample: expected a non-negative integer" in err
    path = tmp_path / "sample.json"
    path.write_text(json.dumps({"sample": -2}))
    code, out, err = run(capsys, "search", "--q", "64", "--n", "4",
                         "--config", str(path))
    assert code == 1 and out == ""
    assert "expected a non-negative integer" in err and "'-2'" in err
    # and --min-points: a negative floor is refused, 1e1 is read as 10
    code, out, err = run(capsys, "search", "--q", "2", "--n", "3",
                         "--min-points", "-5")
    assert code == 1 and out == ""
    assert "argument --min-points: expected a non-negative integer" in err
    path = tmp_path / "min_points.json"
    path.write_text(json.dumps({"min_points": -5}))
    code, out, err = run(capsys, "search", "--q", "2", "--n", "3",
                         "--config", str(path))
    assert code == 1 and out == ""
    assert "expected a non-negative integer" in err and "'-5'" in err
    found = []
    for floor in ("1e1", "10"):
        code, out, err = run(capsys, "search", "--q", "8", "--n", "3",
                             "--min-points", floor, "--limit", "3")
        lines = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and err == ""
        assert lines[0]["config"]["min_points"] == 10
        found.append([(m["spec"], m["points"]) for m in lines[1:]])
    assert found[0] == found[1] and [p for _, p in found[0]] == [24, 12, 10]
    # --certify W is a count in 1..length (37 here), refused before the
    # code is built
    def unbuilt(*args, **kwargs):
        raise AssertionError("build_COmega ran")

    path = tmp_path / "certify.json"
    path.write_text(json.dumps({"certify": 0}))
    with monkeypatch.context() as m:
        m.setattr(cli, "build_COmega", unbuilt)
        for extra, why in (
                (("--certify", "-1"),
                 "argument --certify: expected a non-negative integer"),
                (("--certify", "0"), "--certify must be in 1..37, the code "
                                     "length, got 0"),
                (("--certify", "38"), "--certify must be in 1..37, the code "
                                      "length, got 38"),
                (("--config", str(path)), "--certify must be in 1..37")):
            code, out, err = run(capsys, "code", "--curve", "q16-n4",
                                 "--design", "2,1", *extra)
            assert code == 1 and out == "" and why in err, extra
    # and --certify 1e1 is --certify 10
    outs = []
    for w in ("1e1", "10"):
        code, out, err = run(capsys, "code", "--curve", "q16-n4",
                             "--design", "2,1", "--certify", w)
        assert code == 0 and err == ""
        outs.append(_STAMP.sub("", out))
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["certification"]["w"] == 10
    # --seed is a count too, as a flag and as a config value
    path = tmp_path / "seed.json"
    path.write_text(json.dumps({"seed": -1}))
    for argv in (("code", "--curve", "q16-n4", "--design", "2,1",
                  "--estimate-trials", "5", "--seed", "-1"),
                 ("search", "--q", "2", "--n", "3", "--sample", "3",
                  "--seed", "-1")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "argument --seed: expected a non-negative integer" in err
    code, out, err = run(capsys, "search", "--q", "2", "--n", "3",
                         "--sample", "3", "--config", str(path))
    assert code == 1 and out == ""
    assert "seed: expected a non-negative integer" in err and "'-1'" in err
    # --seed and --budget are flags only of the subcommands that read them
    for flag, commands in (("--seed", ("gaps", "pure-gaps", "dims",
                                       "reproduce", "verify")),
                           ("--budget", ("gaps", "pure-gaps", "dims",
                                         "search", "verify"))):
        for command in commands:
            code, out, err = run(capsys, command, flag, "1")
            assert (code, out) == (1, "")
            assert err == f"usage error: unrecognized arguments: {flag} 1\n"
    # the removed flags are unknown arguments
    for argv, extra in ((("reproduce", "--rows", "counts"), ("--jobs", "2")),
                        (("verify", "--n-max", "3"), ("--skip-oracle-sweeps",)),
                        (("verify", "--n-max", "3"), ("--inject-bug",)),
                        (("search", "--q", "2", "--n", "3"),
                         ("--probe-ext", "2"))):
        code, out, err = run(capsys, *argv, *extra)
        assert code == 1 and out == ""
        assert f"unrecognized arguments: {' '.join(extra)}" in err
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({"probe_ext": 1}))
    code, out, err = run(capsys, "search", "--q", "2", "--n", "3",
                         "--config", str(path))
    assert code == 1 and out == ""
    assert "unknown config keys: ['probe_ext']" in err
    # a selection that names nothing checks nothing: refused, not passed
    for argv in (("reproduce", "--rows", ","), ("reproduce", "--rows", ""),
                 ("dims", "--n", "3", "--families", ","),
                 ("dims", "--n", "3", "--families", " ")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and f"{argv[-2]} names nothing" in err
    # a curve file of valid JSON but the wrong shape is refused, not a crash
    for i, bad in enumerate(({"n": 3}, [1, 2], {"field": 3, "n": 3},
                             {"field": {"p": 2, "k": 3}, "n": 3})):
        path = tmp_path / f"curve{i}.json"
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "gaps", "--n", "3", "--check",
                             "--curve", str(path))
        assert code == 1 and out == ""
        assert f"usage error: curve file {path}" in err, bad
    # a config-file null where the flag's default is a value is refused,
    # not passed on to int() or to the family list
    for argv, key in ((("pure-gaps", "--n", "4"), "points"),
                      (("verify",), "n_max"),
                      (("code", "--curve", "q16-n4", "--design", "2,1",
                        "--certify", "5"), "budget"),
                      (("code", "--curve", "q16-n4", "--design", "2,1",
                        "--certify", "5"), "estimate_trials"),
                      (("dims", "--n", "3"), "families")):
        path = tmp_path / f"null-{key}.json"
        path.write_text(json.dumps({key: None}))
        code, out, err = run(capsys, *argv, "--config", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"usage error: config file {path}: {key}: "
                              f"must not be null"), err
    # null stays valid where the default is None, for a switch and --format
    path = tmp_path / "null-ok.json"
    path.write_text(json.dumps({"curve": None, "check": None,
                                "format": None}))
    code, doc, _ = run_json(capsys, "gaps", "--n", "3", "--config", str(path))
    assert code == 0 and doc["n"] == 3
    # the integer settings are counts, checked by test_count_flags
    assert {"--n", "--q", "--points", "--n-max"} <= {
        flag for _, flag, _ in _count_actions()}


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


def test_gaps_check_fallback_curve(capsys, monkeypatch):
    # no bundled curve has n = 6: the certified G = 0 member over GF(8) is
    # checked instead, and an uncertified one is refused
    curve = cli._load_curve({"curve": None}, 6)
    assert curve == CurveSpec(make_field(2, 3), 6)
    code, doc, err = run_json(capsys, "gaps", "--n", "6", "--check")
    assert code == 0 and err == "closed-form = oracle: PASS\n"
    assert doc["oracle_check"]["passed"] is True
    monkeypatch.setattr(CurveSpec, "is_smooth", lambda self: False)
    code, out, err = run(capsys, "gaps", "--n", "6", "--check")
    assert code == 1 and out == "" and "GF(8) is singular" in err


def test_check_curve_is_verify_curve():
    # without --curve, a check at n runs on verify's curve: the bundled one
    # at n = 3, 4, 5 and the G = 0 member over GF(8) beyond
    for n in range(3, 9):
        curve = cli._load_curve({"curve": None}, n)
        assert curve == verification.check_curve(n)
        if n in verification.VERIFY_CURVES:
            assert curve == builtin_curves()[verification.VERIFY_CURVES[n]]
        else:
            assert curve == CurveSpec(make_field(2, 3), n)


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
    for n, points, want in ((4, 2, 18), (4, 3, 17), (5, 2, 50), (5, 3, 63)):
        calls.clear()
        code, doc, _ = run_json(capsys, "pure-gaps", "--n", str(n),
                                "--points", str(points), "--check")
        assert code == 0 and doc["oracle_check"]["passed"] is True
        assert len(calls) == want, (n, points)
    # one matrix per (degree, class) queried, not per divisor
    calls.clear()
    code, doc, _ = run_json(capsys, "dims", "--n", "5", "--check")
    assert code == 0 and all(r["match"] for r in doc["rows"])
    assert len(calls) == 91


def test_oracle_chart_power_builds(capsys, monkeypatch):
    # the power cache at each point grows geometrically, so a whole check
    # run builds only a few caches; a cache rebuilt per query would not
    from tripoint import riemann_roch
    original = riemann_roch.chart_powers
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(riemann_roch, "chart_powers", counted)
    for argv, want in ((("dims", "--n", "5", "--check"), 8),
                       (("pure-gaps", "--n", "5", "--points", "3",
                         "--check"), 7)):
        calls.clear()
        code, _, _ = run_json(capsys, *argv)
        assert code == 0 and len(calls) == want, argv


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
    # a repeated family is listed, and its claims tabled, once
    code, doc, _ = run_json(capsys, "dims", "--n", "3",
                            "--families", "Sd+e,mP,Sd+e,mP")
    assert code == 0 and doc["families"] == ["Sd+e", "mP"]
    assert len(doc["rows"]) == 12 + 4     # 12 m*P claims, 4 S_d + e


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


def test_zero_code_states_no_bound(capsys):
    # a code of dimension 0 has no nonzero word: no distance bound applies,
    # and a certification that passes sets no floor
    for argv, certified in ((("--divisor=60,0,0", "--certify", "3"), True),
                            (("--design", "2,1", "--length", "0"), None)):
        code, doc, _ = run_json(capsys, "code", "--curve", "q16-n4", *argv)
        assert code == 0
        rep = doc["report"]
        assert rep["dimension"] == 0
        assert rep["goppa_bound"] is rep["pure_gap_bound"] is None
        assert rep["verified_floor"] is None
        assert rep["notes"][-1] == ("zero code: no nonzero word, so no "
                                    "distance bound applies")
        assert (doc["certification"] or {}).get("ok") is certified
    code, out, _ = run(capsys, "code", "--curve", "q16-n4",
                       "--divisor=60,0,0", "--format", "csv")
    assert code == 0 and out.splitlines()[1] == "37,0,,,,"


def test_code_design_gate(capsys):
    code, _, err = run(capsys, "code", "--curve", "q16-n4", "--design", "1,1")
    assert code == 1
    assert "(n+2)/2 <= i+j <= n-1" in err


def test_code_hypotheses_at_built_length(capsys):
    # the design block reads the hypotheses at the length built: a pair
    # wants m >= 2n^2 - 4n - 2 (14 at n = 4), a triple m > deg G (27 for
    # (1, 1, 0) at n = 5); the full length meets both (the triple's G has
    # a pole at P3, so its full length leaves P3 out)
    for argv, length, met in (
            (("--curve", "q16-n4", "--design", "2,1", "--length", "10"),
             10, False),
            (("--curve", "q16-n4", "--design", "2,1"), 37, True),
            (("--curve", "q49-n5-record", "--design", "1,1,0",
              "--length", "20"), 20, False),
            (("--curve", "q49-n5-record", "--design", "1,1,0"), 112, True)):
        code, doc, _ = run_json(capsys, "code", *argv)
        assert code == 0, argv
        assert doc["report"]["length"] == length, argv
        assert doc["design"]["hypotheses_met"] is met, argv


def test_code_refused_triple_names_range(capsys):
    # out of range, or d = n - 2 with an empty box: exit 1, and the
    # message names the params and the range
    for design, text in (("1,1,1", "want entries >= 0 with sum <= 2"),
                         ("1,1,0", "want a sum <= 1")):
        code, out, err = run(capsys, "code", "--curve", "q16-n4",
                             "--design", design)
        assert (code, out) == (1, ""), design
        assert f"({design.replace(',', ', ')})" in err and text in err
        assert "empty box [" not in err


def test_code_exclude_p3(capsys):
    code, doc, _ = run_json(capsys, "code", "--curve", "q16-n4",
                            "--design", "2,1", "--exclude-p3")
    assert code == 0
    assert doc["report"]["length"] == 36


def test_code_divisor_negative_first_coefficient(capsys):
    # argparse reads a value that starts with '-' as a flag; the = form
    # passes it.  G = -3 P1 has L(G) = 0, so the code is the full space
    # (an empty parity check) and the search finds a weight-1 word
    code, _, err = run(capsys, "code", "--curve", "q16-n4",
                       "--divisor", "-3,0,0")
    assert code == 1 and "argument --divisor: expected one argument" in err
    code, doc, _ = run_json(capsys, "code", "--curve", "q16-n4",
                            "--divisor=-3,0,0", "--estimate-trials", "3")
    assert code == 0
    assert doc["rows"][0]["dimension"] == 37
    assert doc["rows"][0]["weight_upper"] == 1
    assert doc["report"]["parity_check"] == []


def test_code_budget_note(capsys):
    code, doc, _ = run_json(capsys, "code", "--curve", "q16-n4",
                            "--design", "2,1", "--certify", "5",
                            "--budget", "1000")
    assert code == 0
    assert doc["certification"]["ok"] is None
    assert "budget" in doc["certification"]["skipped"]
    assert doc["report"]["verified_floor"] is None


def test_code_certify_more_than_rows(capsys):
    # the parity check has 8 rows, so any 9 columns are dependent: the
    # first 9-subset is the witness, although C(37, 9) exceeds the budget
    code, doc, _ = run_json(capsys, "code", "--curve", "q16-n4",
                            "--design", "2,1", "--certify", "9")
    assert code == 0
    assert doc["certification"] == {"w": 9, "ok": False, "checked": 1,
                                    "witness": list(range(9))}
    assert doc["report"]["floor_witness"] == list(range(9))
    assert doc["report"]["verified_floor"] is None


def test_budget_exponent_form(capsys):
    # 1e3 is the budget 1000: the same refusal as the written-out value
    docs = []
    for value in ("1000", "1e3", "1.0E3"):
        code, doc, _ = run_json(capsys, "code", "--curve", "q16-n4",
                                "--design", "2,1", "--certify", "5",
                                "--budget", value)
        assert code == 0 and doc["config"]["budget"] == 1000
        doc.pop("generated_at")
        docs.append(doc)
    assert docs[0] == docs[1] == docs[2]
    assert "exceed the budget 1000" in docs[0]["certification"]["skipped"]
    code, doc, _ = run_json(capsys, "reproduce", "--rows", "q16-n4",
                            "--budget", "5e5")
    assert code == 0 and doc["config"]["budget"] == 500000
    assert doc["rows"][0]["tag"] == "reproduced-exact"


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
    # ladder rows are certified within --budget like the reference rows;
    # their w = 11 floors are far beyond it
    code, doc, _ = run_json(capsys, "reproduce", "--rows", "record-ladder",
                            "--budget", "1000")
    assert code == 0 and len(doc["rows"]) == 7
    for row in doc["rows"]:
        m = row["got_length"]
        assert row["tag"] == "formula-only"
        assert row["note"] == (f"C({m}, 11) = {math.comb(m, 11)} subset "
                               f"checks exceed the budget 1000")


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


def test_verify_invariant_exit(capsys, monkeypatch, corrupted_field):
    suite = verification.field_axiom_suite
    # every field the `fields` section checks comes with the broken GF(16)
    monkeypatch.setattr(verification, "field_axiom_suite",
                        lambda field: suite(field) + suite(corrupted_field))
    code, doc, err = run_json(capsys, "verify", "--n-max", "3")
    assert code == 2
    assert doc["passed"] is False
    assert "FAIL" in err
    failing = [r for r in doc["rows"] if not r["passed"]]
    assert failing and all(r["section"] == "fields" for r in failing)


def test_failed_identity_exits_2(capsys, monkeypatch):
    # an internal identity that fails is exit 2 and one stderr line, not a
    # traceback and not a usage error: a wrong Kim witness, and an ell(G)
    # that is off by one against the code's dimension
    with monkeypatch.context() as m:
        m.setattr(weierstrass, "_witness_monomial",
                  lambda pair, n, a: (0, a))
        code, out, err = run(capsys, "gaps", "--n", "3")
    assert (code, out) == (2, "")
    assert err.startswith("invariant failed: witness x^0 y^1 has pole ")
    assert err.count("\n") == 1
    build_CL = codes.build_CL

    def off_by_one(*args, **kwargs):
        E, rr = build_CL(*args, **kwargs)
        return E, dataclasses.replace(rr, dimension=rr.dimension + 1)

    monkeypatch.setattr(codes, "build_CL", off_by_one)
    code, out, err = run(capsys, "code", "--curve", "q16-n4",
                         "--design", "2,1")
    assert (code, out) == (2, "")
    assert err == ("invariant failed: dimension 29 disagrees with "
                   "index-of-specialty value 28\n")


def test_verify_clean(capsys):
    code, doc, _ = run_json(capsys, "verify", "--n-max", "3")
    assert code == 0 and doc["passed"] is True
    assert doc["checks"] == len(doc["rows"]) > 50


def test_verify_suite_exception(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("tripoint.verification.gap_suite", broken)
    code, doc, err = run_json(capsys, "verify", "--n-max", "3")
    assert code == 2 and doc["passed"] is False
    failing = [r for r in doc["rows"] if not r["passed"]]
    assert len(failing) == 1 and failing[0]["section"] == "gaps-n3"
    assert failing[0]["detail"].startswith("RuntimeError: boom")
    # the suites after the broken one still ran
    assert any(r["section"] == "riemann-roch-n3" for r in doc["rows"])


def test_verify_catches_wrong_class(capsys, monkeypatch):
    # a representative in the wrong class changes the memo answers; the
    # stability check compares them with the unreduced oracle
    from tripoint import riemann_roch
    original = riemann_roch._representative
    shift = riemann_roch.ThreePointDivisor(1, -1, 0)
    monkeypatch.setattr(riemann_roch, "_representative",
                        lambda n, D: original(n, D) + shift)
    code, doc, _ = run_json(capsys, "verify", "--n-max", "3")
    assert code == 2 and doc["passed"] is False
    failing = {r["name"] for r in doc["rows"] if not r["passed"]}
    assert "oracle stability under larger form degree (n=3)" in failing


def test_verify_record_curve(capsys):
    code, doc, _ = run_json(capsys, "verify", "--n-max", "6")
    assert code == 0 and doc["passed"] is True
    assert all(r["passed"] for r in doc["rows"])
    sections = {r["section"] for r in doc["rows"]}
    assert {"dims-n5", "pure-gaps-n5", "riemann-roch-n5"} <= sections
    # beyond the bundled curves, the G = 0 member over GF(8)
    assert {f"{suite}-n6" for suite in ("curve", "gaps", "dims", "pure-gaps",
                                        "riemann-roch")} <= sections


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
    # config values get the checks of their flags, and a key of another
    # subcommand's flag (limit, seed under gaps) is checked all the same
    q16 = ("code", "--curve", "q16-n4", "--design", "2,1")
    for argv, bad in (
            (("gaps", "--n", "3"), {"format": "xml"}),
            (q16, {"budget": -5}), (q16, {"budget": 2.5}),
            (("gaps", "--n", "3"), {"limit": -1}),
            (("gaps", "--n", "3"), {"seed": -1})):
        conf.write_text(json.dumps(bad))
        code, out, err = run(capsys, *argv, "--config", str(conf))
        assert code == 1 and out == "" and "usage error" in err, bad
    conf.write_text(json.dumps({"budget": "1e7"}))
    code, doc, _ = run_json(capsys, *q16, "--config", str(conf))
    assert code == 0 and doc["config"]["budget"] == 10_000_000
    # every value passes its flag's type and choices; a store_true flag
    # takes a JSON bool; the message names the key
    for bad, why in (({"check": "no"}, "check: must be true or false"),
                     ({"check": 1}, "check: must be true or false"),
                     ({"points": 5}, "points: invalid choice: 5"),
                     ({"n": "four"}, "n: expected a non-negative integer")):
        conf.write_text(json.dumps(bad))
        code, out, err = run(capsys, "pure-gaps", "--n", "4",
                             "--config", str(conf))
        assert code == 1 and out == "" and why in err, bad
    # a valid key of another subcommand's flag is accepted and not applied
    conf.write_text(json.dumps({"check": False, "points": "3", "seed": 2}))
    code, doc, _ = run_json(capsys, "pure-gaps", "--n", "4",
                            "--config", str(conf))
    assert code == 0 and "oracle_check" not in doc
    assert {k: doc["config"][k] for k in ("check", "points")} == {
        "check": False, "points": 3}
    assert "seed" not in doc["config"]
    # the keys of the removed flags are unknown, not silently accepted, and
    # so is help, the one flag that is not a setting
    for bad in ({"jobs": 2}, {"skip_oracle_sweeps": True},
                {"inject_bug": True}, {"help": True}):
        conf.write_text(json.dumps(bad))
        code, out, err = run(capsys, "verify", "--n-max", "3",
                             "--config", str(conf))
        assert code == 1 and out == "" and "unknown config keys" in err, bad


# Each invocation's stdout as SHA-256, every timestamp masked (search repeats
# its stamp on each line), and its stderr and exit code.  A change here is a
# change in what the CLI computes or prints.  conf.json is written to the
# working directory, so the config echo holds the relative path.
_CONF = {"n": 4, "check": True, "seed": 3, "limit": 2, "format": None}
_STAMP = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ")
_PASS = "closed-form = oracle: PASS\n"
_PINNED = (
    ("gaps --n 4 --check --curve q16-n4",
     "46a64837ee2b9b91aa448ff47bf57a98ed6e5299785f3c7b943c997a8efc56b8",
     _PASS, 0),
    ("pure-gaps --n 4 --points 3 --check",
     "9a6599e9b2ef1dcbdc28f4953e912f3154d805fe5cb1cb2961bcb0f2d2d07299",
     "", 0),
    ("dims --n 3 --check --format csv",
     "2f097372a6bd63376481a8f7dd1eb1ccdfca5e6ba4093f89df75c33cbcf21bcf",
     "", 0),
    ("code --curve q16-n4 --design 2,1 --certify 5 --estimate-trials 20",
     "c9c542ee561621300354fc34104ba0e8d458f606396e6a8c4e65bbc7f811a714",
     "", 0),
    ("code --curve q16-n4 --design 2,1 --exclude-p3",
     "3f4a898696f7a22b0ea348f2da1729557e8b41e32ee244bf14e38edf32e311c5",
     "", 0),
    ("code --curve q27-n4 --divisor=12,5,-3 --estimate-trials 20",
     "50e67a4251f098164cdc7facc2cfb5fb438f6809c79d83ca149bdad0d808e3ca",
     "", 0),
    ("reproduce --rows counts --format csv",
     "e3392b840bd86a4b99cf37e54baf816553bc8e305af6275287ee1eaa73943b1d",
     "", 0),
    ("verify --n-max 3",
     "9b2c25d55be1f6a8d4bc6ddabfe1b7555f5b0e3aeec62368f8a9012b60053395",
     "", 0),
    ("verify --n-max 3 --format csv",
     "234dd897fcf478f0643aaf3aaec48587f50d5638d4cc4dfa75645e763e9f9d52",
     "", 0),
    ("search --q 2 --n 3",
     "bcd0af1a090701fb8c4e6e593a0b034a28d09b512ecb83204c6b449b7b24b71f",
     "", 0),
    ("search --q 2 --n 3 --keep-singular",
     "31bec6a90786cdcc80c09bdc31ec28e8e099081cf628fadee3e47477b0546e2a",
     "", 0),
    ("gaps --config conf.json",
     "5f1ed12a44a16c30e608ee5f4e9059cd7f8dc77e56015167e96d4915ee3a6786",
     _PASS, 0),
    ("pure-gaps --n 4 --points 5",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "usage error: argument --points: invalid choice: 5 "
     "(choose from 2, 3)\n", 1),
)


@pytest.mark.parametrize("command, stdout_sha256, stderr, exit_code",
                         _PINNED, ids=[pin[0] for pin in _PINNED])
def test_output_pinned(capsys, tmp_path, monkeypatch, command,
                       stdout_sha256, stderr, exit_code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "conf.json").write_text(json.dumps(_CONF))
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (exit_code, stderr)
    digest = hashlib.sha256(_STAMP.sub("", out).encode()).hexdigest()
    assert digest == stdout_sha256


def test_parser_built_once(capsys, tmp_path, monkeypatch):
    # main builds its parser once per process; only a --config run builds
    # a parser of its own, and a plain run after it is unchanged
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for argv in (("gaps", "--n", "3"), ("gaps", "--n", "4"),
                     ("pure-gaps", "--n", "4"), ("nonsense",)):
            run(capsys, *argv)
        assert len(built) == 1
        (tmp_path / "conf.json").write_text(json.dumps(_CONF))
        command, stdout_sha256, stderr, exit_code = _PINNED[0]
        for argv in ("gaps --config conf.json".split(), command.split()):
            code, out, err = run(capsys, *argv)
        assert len(built) == 2
        assert (code, err) == (exit_code, stderr)
        digest = hashlib.sha256(_STAMP.sub("", out).encode()).hexdigest()
        assert digest == stdout_sha256
    finally:
        cli._parser.cache_clear()


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
    # G = X + Y + Z, singular at (1:1:1), is the one singular member
    assert {type(m["smooth"]) for m in matches} == {bool}
    assert [m["spec"]["g_coeffs"] for m in matches if not m["smooth"]] == [
        [[[0, 0, 1], 1], [[0, 1, 0], 1], [[1, 0, 0], 1]]]
    code, out, _ = run(capsys, "search", "--q", "2", "--n", "3",
                       "--min-points", "7", "--limit", "2")
    lines = out.strip().splitlines()
    assert len(lines) - 1 <= 2
    assert all(json.loads(l)["points"] >= 7 for l in lines[1:])
    code, out, _ = run(capsys, "search", "--q", "2", "--n", "3",
                       "--keep-singular", "--limit", "0")
    assert code == 0 and len(out.strip().splitlines()) == 1    # header only
    code, out, err = run(capsys, "search", "--q", "2", "--n", "3",
                         "--keep-singular", "--limit", "-1")
    assert code == 1 and out == "" and "--limit" in err


def _count_actions():
    """(subcommand, flag, dest) of every action of build_parser() whose
    type is cli._count."""
    sub = next(a.choices for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, a.option_strings[0], a.dest)
            for name, parser in sub.items() for a in parser._actions
            if a.type is cli._count]


def _cfg_reads(func, seen=()) -> set:
    """The config keys that func reads: cfg[key], cfg.get(key), the key
    of _need(cfg, key, flag), and the keys read by each cli function that
    it hands cfg to (_need_n, _load_curve, ...)."""
    keys = set()
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and getattr(node.value, "id", "")
                == "cfg" and isinstance(node.slice, ast.Constant)):
            keys.add(node.slice.value)
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if (isinstance(callee, ast.Attribute) and callee.attr == "get"
                and getattr(callee.value, "id", "") == "cfg"):
            keys.add(node.args[0].value)
        elif isinstance(callee, ast.Name) and any(
                getattr(arg, "id", "") == "cfg" for arg in node.args):
            if callee.id == "_need":
                keys.add(node.args[1].value)
            elif callee.id not in seen:
                keys |= _cfg_reads(getattr(cli, callee.id),
                                   (*seen, callee.id))
    return keys


def test_no_unread_flag():
    # every setting a subcommand takes is read by that subcommand; the
    # report settings --out, --format and --config are read by main
    sub = next(a.choices for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    unread = [(name, a.dest) for name, parser in sub.items()
              for a in parser._actions
              if a.dest not in {"help", "out", "format", "config"}
              and a.dest not in _cfg_reads(parser.get_default("func"))]
    assert unread == []


@pytest.mark.parametrize("command, flag, dest", _count_actions(),
                         ids=[" ".join(c[:2]) for c in _count_actions()])
def test_count_flags(capsys, tmp_path, command, flag, dest):
    # every count reads 1e1 as 10, and refuses -1, 4.5 and true with a usage
    # error naming the flag, as a flag and as a config value
    path = tmp_path / "conf.json"

    def read(*argv):
        try:
            return cli._resolve(build_parser().parse_args(argv), argv)[dest]
        except cli.UsageError as exc:    # e.g. --points 10: not a choice
            return str(exc)

    flags = [read(command, flag, value) for value in ("1e1", "10")]
    confs = []
    for value in ('"1e1"', "1e1", "10"):
        path.write_text(f'{{"{dest}": {value}}}')
        confs.append(read(command, "--config", str(path)))
    assert flags[0] == flags[1] and confs[0] == confs[1] == confs[2]
    # 10 is the value, or a value its flag's choices refuse
    assert flags[0] == confs[0] == 10 or all(
        "invalid choice: 10 " in why for why in (flags[0], confs[0]))
    for value, text in (("-1", "-1"), ("4.5", "4.5"), ("true", "True")):
        code, out, err = run(capsys, command, flag, value)
        assert code == 1 and out == ""
        assert err == (f"usage error: argument {flag}: expected a "
                       f"non-negative integer, written out (12) or in "
                       f"exponent form (1e3), got {value!r}\n")
        path.write_text(f'{{"{dest}": {value}}}')
        code, out, err = run(capsys, command, "--config", str(path))
        assert code == 1 and out == ""
        assert err == (f"usage error: config file {path}: {dest}: expected "
                       f"a non-negative integer, written out (12) or in "
                       f"exponent form (1e3), got {text!r}\n")


def test_dump_matches_json_indent(capsys, tmp_path, monkeypatch):
    # the report writer against json.dumps(indent=2): every JSON report the
    # pinned invocations emit, then the corners of json's encoder
    monkeypatch.chdir(tmp_path)
    (tmp_path / "conf.json").write_text(json.dumps(_CONF))
    dump, seen = cli._dump, []

    def recorded(obj, indent=""):
        if not indent:
            seen.append(obj)
        return dump(obj, indent)

    monkeypatch.setattr(cli, "_dump", recorded)
    for command, *_ in _PINNED:
        run(capsys, *command.split())
    monkeypatch.undo()
    assert len(seen) == 7
    for obj in seen + [
            {}, [], [[]], (), (1, (2, "x")), {"t": (True, None)}, [1, True],
            [True, 1], [False, 0, None], None, True, 0.1, -0.0, 1e300,
            float("nan"), float("-inf"), 10 ** 40, -(10 ** 40), [10 ** 40, -1],
            "quote \" backslash \\ tab \t, non-ASCII: é ∑ \U0001d11e",
            {"ключ": {"": []}, "b": [{}, [{}], ""]},
            {1: "int key", 2.5: "float key", None: 0, False: [0.5]}]:
        assert dump(obj) == json.dumps(obj, indent=2), obj
