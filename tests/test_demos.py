"""Every demo script runs to the end in-process and prints something."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

_DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(_DEMOS) == 7


@pytest.mark.parametrize("path", _DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().strip()
