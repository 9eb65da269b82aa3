import sys

import pytest

from tripoint.catalog import builtin_curves
from tripoint.fields import Field, _reduction_rows

# Session-scoped curves: the Riemann-Roch oracle memoizes per curve object,
# so sharing these across test modules saves most of the suite's runtime.

_CURVES = builtin_curves()


@pytest.fixture(scope="session")
def klein():
    return _CURVES["q8-n3"]


@pytest.fixture(scope="session")
def c16():
    return _CURVES["q16-n4"]


@pytest.fixture(scope="session")
def c27():
    return _CURVES["q27-n4"]


@pytest.fixture(scope="session")
def record():
    return _CURVES["q49-n5-record"]


@pytest.fixture
def corrupted_field():
    """A deliberately broken GF(16) for negative testing.

    The modulus is swapped post-construction for the reducible x^4 + 1, and
    the reduction rows recomputed, so multiplication happens in a quotient
    ring with zero divisors.  The cached healthy GF(16) is untouched; the
    axiom suite must flag this object, never accept it.
    """
    bad = Field(2, 4)
    bad.modulus = (1, 0, 0, 0, 1)
    bad._red_rows = _reduction_rows(2, 4, bad.modulus)
    bad._tables = None
    bad._generator = None
    return bad


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # acceptance tests collect one verdict line each; echo them past capture
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICTS", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
