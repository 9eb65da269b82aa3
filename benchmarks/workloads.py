"""The benchmark workloads and their correctness gates.

Each workload drives the package only through its public functions and CLI
entry points, times the calls into the package, and then checks every
answer it got. A wrong answer raises GateError. An OracleError from a
Riemann-Roch query is the package declining to answer: it is counted as a
failed operation, never dropped.

Call into the package through module attributes (``cli.main``,
``rr.dim_L_oracle``), so that a traced run sees the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import time

import numpy as np

from tripoint import catalog, cli, fields
from tripoint import riemann_roch as rr


class GateError(AssertionError):
    """An answer from the package differs from its expected value."""


def gate(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


class Pass:
    """Tallies of one pass: seconds spent in the package, units of work
    done (workload specific), and operations attempted and failed."""

    def __init__(self):
        self.seconds = 0.0
        self.work = 0
        self.attempted = 0
        self.failed = 0

    @contextlib.contextmanager
    def timed(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - start


def run_cli(p: Pass, argv: list) -> dict:
    """One in-process CLI call; its JSON report is parsed outside the
    timed region. A non-zero exit is a missing answer and fails the gate."""
    out, err = io.StringIO(), io.StringIO()
    with p.timed(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    gate(code == 0, f"tripoint {' '.join(argv)} exited {code}: "
                    f"{err.getvalue().strip()[-300:]}")
    return json.loads(out.getvalue())


def _reference_row(name: str):
    return next(row for row in catalog.REFERENCE_ROWS if row.name == name)


# ---------------------------------------------------------------------------
# certify: `tripoint reproduce --rows q16-n4,q27-n4`
# ---------------------------------------------------------------------------

# C(37, 5) and C(57, 5): every 5-subset of parity-check columns
CERTIFY_CHECKED = {"q16-n4": 435_897, "q27-n4": 4_187_106}
CERTIFY_FIELDS = ((2, 4), (3, 3))


def certify_pass(p: Pass, seed: int, smoke: bool) -> None:
    # The certification is exhaustive, so its inputs do not depend on seed.
    rows = ("q16-n4",) if smoke else tuple(CERTIFY_CHECKED)
    report = run_cli(p, ["reproduce", "--rows", ",".join(rows)])
    got = {row["row"]: row for row in report["rows"]}
    gate(sorted(got) == sorted(rows), f"reproduce rows {sorted(got)}")
    for name in rows:
        row, ref = got[name], _reference_row(name)
        p.attempted += 1
        gate(row["tag"] == "reproduced-exact", f"{name} tag {row['tag']}")
        gate((row["got_points"], row["got_length"], row["got_dimension"])
             == (ref.expected_points, ref.expected_length,
                 ref.expected_dimension), f"{name} parameters {row}")
        match = re.fullmatch(r"(\d+) column subsets checked", row["note"])
        gate(match is not None and int(match[1]) == CERTIFY_CHECKED[name],
             f"{name} certification note {row['note']!r}")
        p.work += int(match[1])


# ---------------------------------------------------------------------------
# oracle: Riemann-Roch dimension queries, each checked
# ---------------------------------------------------------------------------

ORACLE_CURVES = {3: "q8-n3", 4: "q16-n4", 5: "q49-n5-record"}
ORACLE_FIELDS = ((2, 3), (2, 4), (7, 2))
# rows of `tripoint dims --check` (families mP, shifted, MdNd, Sd, Sd+e)
DIMS_ROWS = {3: 50, 4: 111, 5: 196}
# pure gap pairs and triples at n = 4, 5
PURE_GAPS = {(4, 2): 10, (4, 3): 11, (5, 2): 30, (5, 3): 57}
IDENTITY_DIVISORS = 25


def sd_sweep(n: int) -> list:
    """(i, j, k) in [-2, n+2]^3 with -2 <= i+j+k <= n."""
    span = range(-2, n + 3)
    return [(i, j, k) for i in span for j in span for k in span
            if -2 <= i + j + k <= n]


def identity_divisors(seed: int, n: int, count: int) -> list:
    """Seeded uniform divisors in [-2g, 2g]^3, as `tripoint verify` draws
    them."""
    g = n * (n - 1) // 2
    rng = np.random.default_rng([seed, n])
    return [rr.ThreePointDivisor(*map(int, rng.integers(-2 * g, 2 * g + 1, 3)))
            for _ in range(count)]


def oracle_pass(p: Pass, seed: int, smoke: bool) -> None:
    ns = (3,) if smoke else (3, 4, 5)
    # `dims --check` builds new curve objects on every call
    for n in ns:
        report = run_cli(p, ["dims", "--n", str(n), "--check",
                             "--curve", ORACLE_CURVES[n]])
        rows = report["rows"]
        gate(len(rows) == DIMS_ROWS[n], f"dims n={n}: {len(rows)} rows")
        bad = [row["label"] for row in rows
               if row["oracle"] != row["dimension"]]
        gate(not bad, f"dims n={n} mismatches {bad[:5]}")
        p.attempted += len(rows)
        p.work += len(rows)

    for n in ns:
        curve = catalog.builtin_curves()[ORACLE_CURVES[n]]
        ijks = sd_sweep(n)
        divisors = [rr.Sd_divisor(n, *ijk) for ijk in ijks]
        with p.timed():
            got = [rr.dim_L_oracle(curve, D) for D in divisors]
        bad = [ijk for ijk, ell in zip(ijks, got) if ell != rr.dim_Sd(n, *ijk)]
        gate(not bad, f"Sd sweep n={n} mismatches {bad[:5]}")
        p.attempted += len(ijks)
        p.work += len(ijks)

    pure = ({(4, 2): PURE_GAPS[(4, 2)]} if smoke else PURE_GAPS)
    for (n, points), count in pure.items():
        report = run_cli(p, ["pure-gaps", "--n", str(n), "--points",
                             str(points), "--check", "--curve",
                             ORACLE_CURVES[n]])
        check = report["oracle_check"]
        gate(report["count"] == count and check["confirmed"] == count
             and not check["problems"],
             f"pure-gaps n={n} points={points}: {report['count']} found, "
             f"{check['confirmed']} confirmed, {check['problems'][:3]}")
        p.attempted += count
        p.work += count

    for n in (4,) if smoke else (4, 5):
        curve = catalog.builtin_curves()[ORACLE_CURVES[n]]
        g = curve.genus
        K = rr.canonical_divisor(n)
        divisors = identity_divisors(seed, n, 5 if smoke else IDENTITY_DIVISORS)
        got = []
        with p.timed():
            for D in divisors:
                try:
                    got.append(rr.dim_L_oracle(curve, D)
                               - rr.dim_L_oracle(curve, K - D))
                except rr.OracleError:
                    got.append(None)
        for D, lhs in zip(divisors, got):
            p.attempted += 1
            if lhs is None:
                p.failed += 1
                continue
            gate(lhs == D.degree + 1 - g,
                 f"ell(D) - ell(K-D) = {lhs} at D = {D!r}, n = {n}")
            p.work += 1


# ---------------------------------------------------------------------------
# codes: code construction without certification
# ---------------------------------------------------------------------------

CODES_ROWS = "record-ladder,counts,q49-n4,q81-n4,q128-n4"
CODES_FIELDS = ((7, 2), (2, 3), (3, 3), (2, 6), (3, 6), (2, 7), (3, 4))
# [113, 95] down to [107, 89] on the record curve
LADDER = {length: length - 18 for length in catalog.RECORD_LENGTHS}
# Hurwitz and Hermitian point counts
POINT_COUNTS = {"hurwitz-q2": 24, "hurwitz-q3": 55, "hurwitz-q4": 108,
                "hermitian-q2": 81, "hermitian-q3": 892}
BUDGET_REFUSED = ("q49-n4", "q81-n4", "q128-n4")
ESTIMATE_TRIALS = 200


def _check_reproduce_codes(p: Pass, report: dict, wanted: set) -> None:
    got = {row["row"]: row for row in report["rows"]}
    record = catalog.RECORD_ROW
    expect = set()
    if "record-ladder" in wanted:
        for length, dim in LADDER.items():
            name = f"{record.name}-m{length}"
            expect.add(name)
            row = got.get(name, {})
            gate(row.get("tag") == "formula-only"
                 and (row["got_points"], row["got_length"],
                      row["got_dimension"], row["got_floor"])
                 == (record.expected_points, length, dim,
                     record.expected_floor), f"ladder row {name}: {row}")
    if "counts" in wanted:
        for name, count in POINT_COUNTS.items():
            expect.add(name)
            row = got.get(name, {})
            gate(row.get("tag") == "reproduced-exact"
                 and row["got_points"] == count, f"count row {name}: {row}")
    for name in BUDGET_REFUSED:
        if name not in wanted:
            continue
        expect.add(name)
        row, ref = got.get(name, {}), _reference_row(name)
        gate(row.get("tag") == "formula-only"
             and "exceed the budget" in row["note"]
             and (row["got_points"], row["got_length"], row["got_dimension"])
             == (ref.expected_points, ref.expected_length,
                 ref.expected_dimension), f"refused row {name}: {row}")
    gate(set(got) == expect, f"reproduce rows {sorted(got)}")
    p.attempted += len(expect)
    p.work += len(expect)


def _check_code(report: dict, length: int) -> None:
    """Parameters, bounds and H * G^T = 0 of one `tripoint code` report."""
    code = report["report"]
    dim = LADDER[length]
    field = fields.Field.from_json(code["field"])
    H = np.array(code["parity_check"], dtype=np.int64)
    G = np.array(code["generator"], dtype=np.int64)
    gate(code["length"] == length and code["dimension"] == dim
         and H.shape == (length - dim, length) and G.shape == (dim, length),
         f"code m={length}: [{code['length']}, {code['dimension']}], "
         f"H {H.shape}, G {G.shape}")
    acc = field.zeros((H.shape[0], G.shape[0]))
    for col in range(length):
        acc = field.vadd(acc, field.vmul(H[:, col, None], G[None, :, col]))
    gate(not acc.any(), f"code m={length}: H * G^T != 0")
    floor = catalog.RECORD_ROW.expected_floor
    weight = code["weight_upper"]
    gate(code["pure_gap_bound"] == floor
         and floor <= weight <= length - dim + 1,
         f"code m={length}: floor {code['pure_gap_bound']}, "
         f"weight found {weight}")


def codes_pass(p: Pass, seed: int, smoke: bool) -> None:
    wanted = "counts" if smoke else CODES_ROWS
    _check_reproduce_codes(p, run_cli(p, ["reproduce", "--rows", wanted]),
                           set(wanted.split(",")))
    trials = 5 if smoke else ESTIMATE_TRIALS
    for length in list(LADDER)[:1] if smoke else LADDER:
        search_seed = int(np.random.default_rng([seed, length])
                          .integers(1 << 31))
        report = run_cli(p, [
            "code", "--curve", catalog.RECORD_ROW.name, "--design", "3,1",
            "--length", str(length), "--estimate-trials", str(trials),
            "--seed", str(search_seed)])
        _check_code(report, length)
        p.attempted += 1
        p.work += 1


class Workload:
    def __init__(self, run_pass, field_orders):
        self._run_pass = run_pass
        self.field_orders = field_orders

    def setup(self) -> dict:
        """Build the lookup tables of every field the workload uses and the
        bundled curve objects."""
        for p, k in self.field_orders:
            fields.make_field(p, k).tables()
        return catalog.builtin_curves()

    def run_pass(self, seed: int, smoke: bool) -> Pass:
        tally = Pass()
        self._run_pass(tally, seed, smoke)
        return tally


WORKLOADS = {
    "certify": Workload(certify_pass, CERTIFY_FIELDS),
    "oracle": Workload(oracle_pass, ORACLE_FIELDS),
    "codes": Workload(codes_pass, CODES_FIELDS),
}
