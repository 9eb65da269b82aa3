from tripoint.catalog import builtin_curves
from tripoint.fields import make_field
from tripoint.verification import (curve_suite, default_verify_report,
                                   field_axiom_suite, kim_suite)


def test_field_axiom_suite_clean():
    results = field_axiom_suite(make_field(2, 4))
    assert results and all(r.passed for r in results)


def test_field_axiom_suite_catches_injected_bug(corrupted_field):
    # reducible modulus => a quotient ring with zero divisors, not a field;
    # the suite must fail with a concrete witness rather than crash
    results = field_axiom_suite(corrupted_field)
    failing = [r for r in results if not r.passed]
    assert failing
    assert any("inverse" in r.name for r in failing)


def test_kim_suite():
    results = kim_suite()
    assert all(r.passed for r in results)
    names = {r.name for r in results}
    assert any("fixed points" in name for name in names)


def test_default_report_shape():
    report = default_verify_report(n_max=3)
    assert report["passed"] is True
    rows = report["rows"]
    assert report["checks"] == len(rows)
    assert all(row["passed"] is True for row in rows)
    assert all(set(row) == {"section", "name", "passed", "detail"}
               for row in rows)
    sections = list(dict.fromkeys(row["section"] for row in rows))
    assert sections[:2] == ["fields", "kim"]
    assert any(key.startswith("dims-") for key in sections)


def test_curve_suite_beyond_table_limit():
    # 128^2 > TABLE_LIMIT: the quadratic-extension check is skipped, the
    # rest of the suite still runs over GF(128)
    results = curve_suite(builtin_curves()["q128-n4"])
    assert results and all(r.passed for r in results)
    assert not any("quadratic extension" in r.name for r in results)
