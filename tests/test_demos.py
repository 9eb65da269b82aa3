"""Every demo script runs to the end in-process and prints, byte for byte,
the output pinned below; the README's library quick start prints what its
comments say."""

import contextlib
import hashlib
import io
import re
import runpy
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout (UTF-8); every demo is deterministic, so a
# change here is a change in what the package computes or prints
_STDOUT_SHA256 = {
    "01_field_arithmetic":
        "fddf1b4553b41f0f6f781babab13d95e186d37ddc9ddc1bb79a3fe5b295e5ef4",
    "02_curves_and_points":
        "5065df5aed8e1695a7a1601eaf03e789264f181cfee6a22a73e683554c29e915",
    "03_gap_sequences":
        "0c26741b2ae748930bae9afe301dca2b69d3ac8611fbbe75ab9775487ce8c5e7",
    "04_pure_gaps":
        "211a7650bd1d32e85a39e58db7cf58d9707cee1051197b53d7bc67728065ae8b",
    "05_riemann_roch":
        "83372a7aaccc8d4da66226ef8d3d90f4c212b1e5c895104d36bafff3c4d597d2",
    "06_code_q16":
        "c2a89a5d770ae796dbd79345110578dd631d3df5ce2e2531e8d84de722a13ca5",
    "07_record_ladder":
        "ccbb54cd43fc6d9ddb32acf20883c3d14bd5a91295f833601fe512d29ba6c976",
}


def test_demos_are_found():
    assert [p.stem for p in _DEMOS] == sorted(_STDOUT_SHA256)


@pytest.mark.parametrize("path", _DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().strip()
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == _STDOUT_SHA256[path.stem]


def test_readme_quick_start():
    # each `print(...)  # value` line prints value, the comment up to any
    # " =>"; the block runs as written, other prints unchecked
    readme = (_ROOT / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    want = {}
    for k, line in enumerate(block.splitlines(), start=1):
        m = re.match(r"print\(.*\)\s+# (.*?)(?:\s+=>.*)?$", line)
        if m:
            want[k] = m.group(1)
    printed = {}

    def record(*args):
        printed[sys._getframe(1).f_lineno] = " ".join(map(str, args))

    exec(compile(block, "README.md", "exec"), {"print": record})
    assert len(want) == 3
    assert {k: printed.get(k) for k in want} == want
