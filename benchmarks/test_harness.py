"""Tests of the benchmark harness itself: the BENCHMARK.json schema, that a
smoke run reports every metric by name and unit, and that the correctness
gate trips on a wrong expected value. Nothing here checks speed.

    python3 -m pytest benchmarks/test_harness.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(HERE), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import run  # noqa: E402
import workloads  # noqa: E402
from tripoint import riemann_roch  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def smoke(capsys, workload: str, trace: int):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--smoke"])
    return code, capsys.readouterr().out.splitlines()


def test_spec_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks"]
    assert SPEC["command"][1] == "benchmarks/run.py"
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_reports_every_metric(capsys, workload, trace):
    code, lines = smoke(capsys, workload, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    info = json.loads(lines[-2])
    assert set(info["machine"]) == {"nproc", "cpu_model", "python", "numpy",
                                    "git_commit", "source_sha256"}
    if trace:
        checked = result["metrics"]["codes.subsets_checked"]["value"]
        want = workloads.CERTIFY_CHECKED["q16-n4"] if workload == "certify" \
            else 0
        assert checked == want


CORRUPTIONS = {
    "certify": ("CERTIFY_CHECKED", "q16-n4"),
    "oracle": ("PURE_GAPS", (4, 2)),
    "codes": ("POINT_COUNTS", "hermitian-q3"),
}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_gate_trips_on_corrupted_expectation(capsys, monkeypatch, workload):
    table, key = CORRUPTIONS[workload]
    corrupted = dict(getattr(workloads, table))
    corrupted[key] += 1
    monkeypatch.setattr(workloads, table, corrupted)
    code, lines = smoke(capsys, workload, 0)
    assert code == 1
    assert lines == []


def test_oracle_error_counts_as_failed(capsys, monkeypatch):
    refused = riemann_roch.ThreePointDivisor(1000, 0, 0)
    original_divisors = workloads.identity_divisors
    original_dim = riemann_roch.dim_L_oracle

    def divisors(seed, n, count):
        return [refused] + original_divisors(seed, n, count)

    def dim(curve, D, **kwargs):
        if D == refused:
            raise riemann_roch.OracleError("refused by the test")
        return original_dim(curve, D, **kwargs)

    monkeypatch.setattr(workloads, "identity_divisors", divisors)
    monkeypatch.setattr(riemann_roch, "dim_L_oracle", dim)
    code, lines = smoke(capsys, "oracle", 0)
    assert code == 0
    assert json.loads(lines[-1])["failed"] == 1


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
