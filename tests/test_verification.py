from tripoint.catalog import builtin_curves
from tripoint.fields import make_field
from tripoint.verification import (corrupted_field_fixture, curve_suite,
                                   default_verify_report, field_axiom_suite,
                                   kim_suite)


def test_field_axiom_suite_clean():
    results = field_axiom_suite(make_field(2, 4))
    assert results and all(r.passed for r in results)


def test_field_axiom_suite_catches_injected_bug():
    # reducible modulus => a quotient ring with zero divisors, not a field;
    # the suite must fail with a concrete witness rather than crash
    bad = corrupted_field_fixture()
    results = field_axiom_suite(bad)
    failing = [r for r in results if not r.passed]
    assert failing
    assert any("inverse" in r.name for r in failing)


def test_kim_suite():
    results = kim_suite(n_max=8)
    assert all(r.passed for r in results)
    names = {r.name for r in results}
    assert any("fixed points" in name for name in names)


def test_default_report_shape():
    report = default_verify_report(n_max=3, oracle_sweeps=False)
    assert report["passed"] is True
    assert report["checks"] == sum(len(v) for v in report["sections"].values())
    assert {"fields", "kim"} <= set(report["sections"])
    assert any(key.startswith("dims-") for key in report["sections"])


def test_curve_suite_beyond_table_limit():
    # 128^2 > TABLE_LIMIT: the quadratic-extension check is skipped, the
    # rest of the suite still runs over GF(128)
    results = curve_suite(builtin_curves()["q128-n4"])
    assert results and all(r.passed for r in results)
    assert not any("quadratic extension" in r.name for r in results)
