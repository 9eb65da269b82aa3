"""The benchmark's tracer patches package names where their callers look
them up; a rename or an import cleanup there would break only the benchmark
runs, so the names are checked here."""

import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module, dotted, name",
                         tracing.PASS_PATCHES + tracing.SETUP_PATCHES)
def test_tracing_patch_target_resolves(module, dotted, name):
    owner, attr = tracing._resolve(module, dotted)
    assert callable(getattr(owner, attr, None)), f"{module}.{dotted}"
