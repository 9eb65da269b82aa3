"""Command line interface: every pipeline stage behind a subcommand.

Reports are machine readable (JSON by default, CSV for the tabular part of
a payload), self describing (schema version, fully resolved configuration,
and a single timestamp field), and deterministic given the configuration.

Exit codes: 0 success, 1 usage or validation error, 2 a checked invariant
failed, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from itertools import islice
from json.encoder import encode_basestring_ascii

from . import __version__
from .catalog import (RECORD_LENGTHS, RECORD_ROW, REFERENCE_ROWS,
                      builtin_curves)
from .claims import FAMILIES, dimension_claims
from .codes import (DEFAULT_BUDGET, BudgetError, CodesError, build_COmega,
                    curve_search, design, evaluation_points,
                    hermitian_maximal_count, hurwitz_count, low_weight_search,
                    verify_distance_floor)
from .curves import FUNDAMENTAL_POINTS, CurveSpec, rational_points_raw
from .fields import _factorise, make_field
from .riemann_roch import OracleError, ThreePointDivisor, dim_L_oracle
from .verification import VERIFY_N_MAX, check_curve, default_verify_report
# pure_gap_oracle is unused here; benchmarks/tracing.py patches it on this module
from .weierstrass import (CYCLIC_PAIRS, gap_index, gaps_closed_form,
                          gaps_oracle, kim_image, kim_map, pure_gap_oracle,
                          pure_gap_problems, pure_gaps,
                          pure_gaps_pair_via_homma_kim, semigroup_generators)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_IO = 3


class UsageError(Exception):
    """Bad arguments or configuration; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments, which would collide
    # with the invariant-failure code; route through UsageError instead.
    def error(self, message):
        raise UsageError(message)


def _count(text: str) -> int:
    """A non-negative integer, written out (12) or in exponent form (1e3,
    read as a float); anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            value = float("nan")
        value = int(value) if value.is_integer() else -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, written out (12) or in "
            f"exponent form (1e3), got {text!r}")
    return value


FORMATS = ("json", "csv")


def _need(cfg: dict, key: str, flag: str):
    if cfg.get(key) is None:
        raise UsageError(f"{flag} is required (flag or config file)")
    return cfg[key]


def _need_n(cfg: dict) -> int:
    n = _need(cfg, "n", "--n")
    if n < 3:
        raise UsageError(f"n must be >= 3, got {n}")
    return n


def _config_value(action: argparse.Action, value):
    """A config-file value checked and converted as its flag's value."""
    if action.nargs == 0 and not isinstance(value, bool):     # store_true
        raise UsageError(f"must be true or false, got {value!r}")
    if action.type is not None:
        try:
            value = action.type(str(value))
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise UsageError(str(exc))
    if action.choices is not None and value not in action.choices:
        raise UsageError(f"invalid choice: {value!r} (choose from "
                         f"{', '.join(map(repr, action.choices))})")
    return value


def _nullable(action: argparse.Action) -> bool:
    """Whether a config-file null may stand for the flag's value: where the
    default is None, and where the commands read None as the default (off
    for a switch, JSON for --format).  Elsewhere a null would reach int()
    or a name list."""
    return (action.default is None or action.nargs == 0
            or action.dest == "format")


def _resolve(args: argparse.Namespace, argv) -> dict:
    """The run's configuration: explicit flag > config file > the flag's
    default.  With --config the file's values are checked by their flags'
    actions, on any subcommand, and a null is refused where _nullable says
    so.  Then argv is parsed again by a fresh parser whose subcommand takes
    the values of its own flags as its defaults (set_defaults rewrites the
    actions it shares with the other subcommands through the parent parsers
    output, seed, budget and config, so the cached parser is left alone)."""
    if args.config:
        try:
            with open(args.config) as fh:
                conf = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {args.config}: {exc}")
        if not isinstance(conf, dict):
            raise UsageError("config file must hold a JSON object")
        conf = {str(k).replace("-", "_"): v for k, v in conf.items()}
        parser = build_parser()
        subparsers = next(a.choices for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        actions = {a.dest: a for p in subparsers.values() for a in p._actions
                   if a.dest != "help"}
        unknown = set(conf) - set(actions)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        # config values get the checks their flags get
        for key, value in conf.items():
            try:
                if value is not None:
                    conf[key] = _config_value(actions[key], value)
                elif not _nullable(actions[key]):
                    raise UsageError(f"must not be null (the flag's default "
                                     f"is {actions[key].default!r})")
            except UsageError as exc:
                raise UsageError(f"config file {args.config}: {key}: {exc}")
        sub = subparsers[args.command]
        own = {a.dest for a in sub._actions}
        sub.set_defaults(**{k: v for k, v in conf.items() if k in own})
        args = parser.parse_args(argv)
    return {k: v for k, v in vars(args).items() if k != "func"}


def _csv_text(rows: list) -> str:
    names = list(dict.fromkeys(key for row in rows for key in row))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=names, restval="",
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: (json.dumps(v)
                             if isinstance(v, (list, tuple, dict)) else v)
                         for k, v in row.items()})
    return buf.getvalue()


# writers of the scalars that reports hold, by exact type; json.dumps
# writes any other scalar, subclasses included.  A json.dumps call for
# each true, false and null made small reports slower than json.dumps
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda _: "null"}


def _dump(obj, indent: str = "") -> str:
    """json.dumps(obj, indent=2), byte for byte.  Python's json indents
    with its pure-Python encoder; here the layout is built directly.
    Strings go through json's C string encoder, ints through int.__repr__,
    true, false and null are written as such, and any other scalar goes
    through json.dumps.  A list of exact ints is joined in one go."""
    write = _SCALARS.get(type(obj))
    if write is not None:
        return write(obj)
    if not isinstance(obj, (list, tuple, dict)):
        return json.dumps(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        body = sep.join([
            encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k))
            + ": " + _dump(v, inner) for k, v in obj.items()])
        return f"{{\n{inner}{body}\n{indent}}}"
    if all(type(v) is int for v in obj):
        body = sep.join(map(int.__repr__, obj))
    else:
        body = sep.join([_dump(v, inner) for v in obj])
    return f"[\n{inner}{body}\n{indent}]"


def _emit(cfg: dict, envelope: dict) -> None:
    if cfg["format"] == "csv":
        text = _csv_text(envelope.get("rows") or [])
    else:
        text = _dump(envelope) + "\n"
    if cfg["out"]:
        with open(cfg["out"], "w") as fh:
            fh.write(text)
        print(f"wrote {cfg['out']}")
    else:
        sys.stdout.write(text)


def _envelope(cfg: dict, payload: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": cfg["command"],
        "config": {k: v for k, v in cfg.items() if k != "command"},
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **payload,
    }


def _parse_prime_power(q: int) -> tuple:
    if q < 2:
        raise UsageError(f"field order must be >= 2, got {q}")
    factors = _factorise(q)
    if len(factors) != 1:
        raise UsageError(f"{q} is not a prime power")
    return next(iter(factors.items()))


def _load_curve(cfg: dict, n: int | None = None) -> CurveSpec:
    """--curve accepts a bundled curve name or a JSON file path; without it
    a check at n runs on `verify`'s curve, verification.check_curve(n)."""
    name = cfg.get("curve")
    if name is None:
        if n is None:
            raise UsageError("--curve is required")
        return check_curve(n)
    builtins = builtin_curves()
    if name in builtins:
        curve = builtins[name]
    else:
        try:
            with open(name) as fh:
                curve = CurveSpec.from_json(json.load(fh))
        except json.JSONDecodeError as exc:
            raise UsageError(f"curve file {name}: {exc}")
        except (KeyError, TypeError) as exc:    # valid JSON, wrong shape
            raise UsageError(f"curve file {name}: not a curve spec ({exc!r})")
        except OSError:
            if not os.path.exists(name):
                raise UsageError(
                    f"--curve {name!r}: not a file and not one of "
                    f"{sorted(builtins)}")
            raise
    if n is not None and curve.n != n:
        raise UsageError(f"curve has n = {curve.n}, command asked for n = {n}")
    return curve


def _parse_ints(text: str, flag: str, count: tuple) -> tuple:
    try:
        vals = tuple(int(part) for part in str(text).split(","))
    except ValueError:
        raise UsageError(f"{flag} wants comma-separated integers, got {text!r}")
    if len(vals) not in count:
        raise UsageError(f"{flag} wants {' or '.join(map(str, count))} "
                         f"integers, got {len(vals)}")
    return vals


def _selection(text: str, flag: str, known) -> tuple:
    """The names in a comma list, in order, a repeated name kept once; a
    name outside `known`, or a list that names nothing, is a usage error."""
    names = tuple(dict.fromkeys(part.strip() for part in str(text).split(",")
                                if part.strip()))
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise UsageError(f"unknown {flag[2:]} {unknown}; "
                         f"choose from {list(known)}")
    if not names:
        raise UsageError(f"{flag} names nothing, got {text!r}")
    return names


def _oracle_check(payload: dict, curve: CurveSpec, passed: bool,
                  **fields) -> int:
    """Attach the --check block {curve, *fields, passed}; its exit code."""
    payload["oracle_check"] = {"curve": curve.to_json(), **fields,
                               "passed": passed}
    return EXIT_OK if passed else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# subcommands; each returns (payload, exit_code)
# ---------------------------------------------------------------------------

def cmd_gaps(cfg: dict):
    n = _need_n(cfg)
    gaps = gaps_closed_form(n)
    rows = []
    for a in gaps:
        i, j = gap_index(n, a)
        rows.append({"gap": a, "i": i, "j": j, "kim_image": kim_image(n, a)})
    payload = {
        "n": n,
        "genus": len(gaps),
        "gaps": list(gaps),
        "semigroup_generators": list(semigroup_generators(n)),
        "kim_maps": {
            f"{pair[0]}->{pair[1]}": [
                {"gap": a, "image": b, "witness_u": u, "witness_v": v}
                for a, b, (u, v) in kim_map(n, pair)]
            for pair in CYCLIC_PAIRS
        },
        "rows": rows,
    }
    if not cfg["check"]:
        return payload, EXIT_OK
    curve = _load_curve(cfg, n)
    per_point = {}
    for point in ("P1", "P2", "P3"):
        got = gaps_oracle(curve, point)
        per_point[point] = {"oracle": list(got), "match": got == gaps}
    passed = all(v["match"] for v in per_point.values())
    print(f"closed-form = oracle: {'PASS' if passed else 'FAIL'}",
          file=sys.stderr)
    return payload, _oracle_check(payload, curve, passed, points=per_point)


def cmd_pure_gaps(cfg: dict):
    n = _need_n(cfg)
    points = cfg["points"]
    records = pure_gaps(n, points)
    rows = []
    for rec in records:
        row = {}
        for axis, value in zip(("a", "b", "c"), rec.tuple_):
            row[axis] = value
        row.update(rec.params)
        row["predicted_dimension"] = rec.predicted_dimension
        rows.append(row)
    payload = {"n": n, "points": points, "count": len(records), "rows": rows}
    if not cfg["check"]:
        return payload, EXIT_OK
    curve = _load_curve(cfg, n)
    problems = []
    if points == 2 and ([r.tuple_ for r in records]
                        != pure_gaps_pair_via_homma_kim(n)):
        problems.append("inversion description disagrees")
    # a pair (a, b) is the divisor aP1 + bP2
    found = [pure_gap_problems(curve, rec) for rec in records]
    problems += [p for bad in found for p in bad]
    return payload, _oracle_check(payload, curve, not problems,
                                  confirmed=found.count([]), problems=problems)


def cmd_dims(cfg: dict):
    n = _need_n(cfg)
    fams = _selection(cfg["families"], "--families", FAMILIES)
    g = n * (n - 1) // 2
    # the table keeps the S_d claims with i, j, k >= 0
    entries = [({"family": c.family, "label": c.label,
                 "dimension": c.dimension}, c.divisor)
               for c in dimension_claims(n, fams)
               if c.family != "Sd" or min(c.params) >= 0]
    rows = [row for row, _ in entries]
    payload = {"n": n, "genus": g, "families": list(fams), "rows": rows}
    if not cfg["check"]:
        return payload, EXIT_OK
    curve = _load_curve(cfg, n)
    mismatches = []
    for row, D in entries:
        got = dim_L_oracle(curve, D)
        row["oracle"] = got
        row["match"] = got == row["dimension"]
        if not row["match"]:
            mismatches.append(row["label"])
    return payload, _oracle_check(payload, curve, not mismatches,
                                  mismatches=mismatches)


def cmd_code(cfg: dict):
    curve = _load_curve(cfg)
    n = curve.n
    params = cfg["design"]
    divisor = cfg["divisor"]
    if (params is None) == (divisor is None):
        raise UsageError("pass exactly one of --design or --divisor")
    spec = None
    if params is not None:
        params = _parse_ints(params, "--design", (2, 3))
        spec = design(n, params)
        # a pair below its length-free hypothesis is refused; a triple is
        # built and its hypotheses reported
        if len(params) == 2 and not spec.hypotheses_met:
            raise UsageError(
                f"design (i, j) = {params} invalid for n = {n}: need "
                f"(n+2)/2 <= i+j <= n-1 with i, j >= 1")
        G = spec.G
    else:
        G = ThreePointDivisor(*_parse_ints(divisor, "--divisor", (3,)))
    pts = evaluation_points(curve, G)
    if cfg["exclude_p3"]:
        pts = [p for p in pts if p != FUNDAMENTAL_POINTS[2]]
    want = cfg["length"]
    if want is not None:
        if want > len(pts):
            raise UsageError(f"only {len(pts)} usable points, wanted {want}")
        pts = pts[:want]
    if spec is not None:
        spec = design(n, params, m=len(pts))
    w = cfg["certify"]
    if w is not None and not 1 <= w <= len(pts):
        raise UsageError(f"--certify must be in 1..{len(pts)}, the code "
                         f"length, got {w}")
    report = build_COmega(curve, pts, G,
                          boxes=spec.boxes if spec is not None else None)
    notes = list(report.notes)
    certification = None
    if w is not None:
        certification = _certify(curve.field, report.parity_check, w,
                                 cfg["budget"])
        if certification["ok"]:     # a zero code has no distance to bound
            report.verified_floor = w + 1 if report.dimension else None
        elif certification["ok"] is None:
            notes.append("certification skipped: " + certification["skipped"])
        else:
            report.floor_witness = certification["witness"]
    if cfg["estimate_trials"] > 0:
        best_w, _ = low_weight_search(curve.field, report.parity_check,
                                      trials=cfg["estimate_trials"],
                                      seed=cfg["seed"])
        report.weight_upper = best_w
    report.notes = tuple(notes)
    if cfg["matrix_csv"]:
        _write_matrix_csv(cfg["matrix_csv"], curve, report)
    summary = {
        "length": report.length,
        "dimension": report.dimension,
        "goppa_bound": report.goppa_bound,
        "pure_gap_bound": report.pure_gap_bound,
        "verified_floor": report.verified_floor,
        "weight_upper": report.weight_upper,
    }
    payload = {"report": report.to_json(), "certification": certification,
               "design": (None if spec is None else
                          {**dict(zip("ijk", (*spec.params, None))),
                           "hypotheses_met": spec.hypotheses_met}),
               "rows": [summary]}
    return payload, EXIT_OK


def _certify(field, H, w: int, budget: int) -> dict:
    """verify_distance_floor within the budget, as the report's
    certification block: {w, ok, checked, witness}, or {w, ok: None,
    skipped} with the refusal when C(m, w) exceeds the budget."""
    try:
        ok, witness, checked = verify_distance_floor(field, H, w,
                                                     budget=budget)
    except BudgetError as exc:
        return {"w": w, "ok": None, "skipped": str(exc)}
    return {"w": w, "ok": ok, "checked": checked, "witness": witness}


def _write_matrix_csv(directory: str, curve: CurveSpec, report) -> None:
    """Row-major CSV; each cell is the element's coefficient vector,
    low-degree first, joined with ':'."""
    os.makedirs(directory, exist_ok=True)
    field = curve.field
    for fname, mat in (("parity_check.csv", report.parity_check),
                       ("generator.csv", report.generator)):
        with open(os.path.join(directory, fname), "w") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for row in mat:
                writer.writerow(
                    [":".join(map(str, field.digits(int(c)))) for c in row])


def cmd_search(cfg: dict):
    q = _need(cfg, "q", "--q")
    n = _need_n(cfg)
    p, k = _parse_prime_power(q)
    field = make_field(p, k)
    floor = cfg["min_points"]
    predicate = None if floor is None else (lambda c: c >= floor)
    seed = cfg["seed"]
    try:
        hits = curve_search(field, n, predicate=predicate,
                            sample=cfg["sample"], seed=seed)
    except CodesError as exc:
        raise UsageError(f"{exc} with --sample N")
    hits = (hit for hit in hits if cfg["keep_singular"] or hit["smooth"])
    header = _envelope(cfg, {"note": "JSON-lines follow, one per match"})
    stamp = header["generated_at"]

    sink = open(cfg["out"], "w") if cfg["out"] else sys.stdout
    rows = []
    try:
        if cfg["format"] != "csv":
            sink.write(json.dumps(header) + "\n")
        for hit in islice(hits, cfg["limit"]):
            record = {
                "spec": hit["curve"].to_json(),
                "points": len(hit["points"]),
                "smooth": hit["smooth"],
                "seed": seed,
                "timestamp": stamp,
            }
            if cfg["format"] == "csv":
                rows.append(record)
            else:
                sink.write(json.dumps(record) + "\n")
        if cfg["format"] == "csv":
            sink.write(_csv_text(rows))
    finally:
        if cfg["out"]:
            sink.close()
    return None, EXIT_OK


# ---------------------------------------------------------------------------
# reproduce: rebuild every bundled table row from scratch
# ---------------------------------------------------------------------------

def _reproduce_code(row, budget: int, curve=None, length=None) -> dict:
    """One code row: build the row's design on its curve, keeping the first
    `length` evaluation points when given (a record-ladder row), compare
    with the expected parameters and certify the floor within the budget."""
    curve = row.curve() if curve is None else curve
    spec = design(row.n, row.design)
    D = evaluation_points(curve, spec.G, length=length)
    report = build_COmega(curve, D, spec.G, boxes=spec.boxes)
    name, want_length, want_dimension = (row.name, row.expected_length,
                                         row.expected_dimension)
    if length is not None:
        name, want_length = f"{row.name}-m{length}", length
        want_dimension = length - (spec.G.degree + 1 - curve.genus)
    got = {"points": len(curve.rational_points()), "length": report.length,
           "dimension": report.dimension, "floor": spec.designed_distance}
    want = {"points": row.expected_points, "length": want_length,
            "dimension": want_dimension, "floor": row.expected_floor}
    tag, note = "mismatch", ""
    if got == want:
        cert = _certify(curve.field, report.parity_check,
                        row.expected_floor - 1, budget)
        if cert["ok"] is None:
            tag, note = "formula-only", cert["skipped"]
        else:
            note = f"{cert['checked']} column subsets checked"
            if cert["ok"]:
                tag = "reproduced-exact"
            else:   # certification disproved the floor
                note += f"; dependent columns {cert['witness']}"
    return {"row": name, "tag": tag, "goppa_bound": spec.goppa_distance,
            "note": note, **{f"got_{k}": v for k, v in got.items()},
            **{f"want_{k}": v for k, v in want.items()}}


def _reproduce_counts() -> list:
    """Points of the G = 0 member X Y^n + Y Z^n + Z X^n against the
    Hurwitz (n = q + 1 over GF(q^3)) and Hermitian (n = q over GF(q^6))
    counts.  The form is swept directly: the curve type wants n >= 3."""
    rows = ([("hurwitz", q, q + 1, q ** 3, hurwitz_count(q))
             for q in (2, 3, 4)]
            + [("hermitian", q, q, q ** 6, hermitian_maximal_count(q))
               for q in (2, 3)])
    out = []
    for family, q, n, order, formula in rows:
        field = make_field(*_parse_prime_power(order))
        enumerated = len(rational_points_raw(
            field, {(1, n, 0): 1, (0, 1, n): 1, (n, 0, 1): 1}))
        out.append({
            "row": f"{family}-q{q}",
            "tag": "reproduced-exact" if enumerated == formula else "mismatch",
            "note": f"n = {n} member over GF({order})",
            "got_points": enumerated, "want_points": formula,
        })
    return out


def cmd_reproduce(cfg: dict):
    budget = cfg["budget"]
    wanted = None
    if cfg["rows"] is not None:
        known = sorted({row.name for row in REFERENCE_ROWS}
                       | {"record-ladder", "counts"})
        wanted = set(_selection(cfg["rows"], "--rows", known))
    rows = [_reproduce_code(row, budget) for row in REFERENCE_ROWS
            if wanted is None or row.name in wanted]
    if wanted is None or "record-ladder" in wanted:
        curve = RECORD_ROW.curve()
        rows += [_reproduce_code(RECORD_ROW, budget, curve, length)
                 for length in RECORD_LENGTHS]
    if wanted is None or "counts" in wanted:
        rows.extend(_reproduce_counts())
    mismatches = [row["row"] for row in rows if row["tag"] == "mismatch"]
    payload = {"rows": rows, "mismatches": mismatches,
               "passed": not mismatches}
    return payload, EXIT_OK if not mismatches else EXIT_INVARIANT


def cmd_verify(cfg: dict):
    n_max = cfg["n_max"]
    if not 3 <= n_max <= VERIFY_N_MAX:
        raise UsageError(f"--n-max must be in 3..{VERIFY_N_MAX}, got {n_max}")
    report = default_verify_report(n_max)
    for row in report["rows"]:
        if not row["passed"]:
            print(f"FAIL [{row['section']}] {row['name']}: {row['detail']}",
                  file=sys.stderr)
    return report, EXIT_OK if report["passed"] else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    # parent parsers; a subcommand lists its own in the config echo's order
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="write the report here instead of stdout")
    output.add_argument("--format", choices=FORMATS, default="json")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_count, default=0)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=_count, default=DEFAULT_BUDGET,
                        help="max column subsets C(m, w) per certification, "
                             "an integer such as 10000000 or 1e7")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config",
                        help="JSON config file; flags override its values")

    parser = _Parser(prog="tripoint",
                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gaps", parents=[output, config],
                       help="gap sequence, semigroup, and the gap bijections")
    p.add_argument("--n", type=_count)
    p.add_argument("--check", action="store_true",
                   help="compare against the linear-algebra computation")
    p.add_argument("--curve", help="bundled curve name or JSON file")
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("pure-gaps", parents=[output, config],
                       help="pure gap pairs or triples with parameters")
    p.add_argument("--n", type=_count)
    p.add_argument("--points", type=_count, choices=(2, 3), default=2)
    p.add_argument("--check", action="store_true")
    p.add_argument("--curve")
    p.set_defaults(func=cmd_pure_gaps)

    p = sub.add_parser("dims", parents=[output, config],
                       help="closed-form dimension tables, optionally "
                            "checked against the oracle")
    p.add_argument("--n", type=_count)
    p.add_argument("--families", default=",".join(FAMILIES),
                   help=f"comma list from {','.join(FAMILIES)}")
    p.add_argument("--check", action="store_true")
    p.add_argument("--curve")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("code", parents=[output, seed, budget, config],
                       help="build a differential code and its bounds")
    p.add_argument("--curve")
    p.add_argument("--design", help="i,j (two-point) or i,j,k (three-point)")
    p.add_argument("--divisor",
                   help="explicit G as a,b,c; a negative first coefficient "
                        "needs the = form, --divisor=-3,0,0")
    p.add_argument("--length", type=_count,
                   help="truncate the evaluation set")
    p.add_argument("--certify", type=_count, metavar="W",
                   help="prove every W parity-check columns independent")
    p.add_argument("--estimate-trials", type=_count, default=0,
                   help="random information sets for a weight upper bound")
    p.add_argument("--exclude-p3", action="store_true",
                   help="drop the third fundamental point from the "
                        "evaluation set even when permitted")
    p.add_argument("--matrix-csv", metavar="DIR",
                   help="also write parity/generator matrices as CSV")
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("search", parents=[output, seed, config],
                       help="sweep G-coefficient space for many-point curves")
    p.add_argument("--q", type=_count, help="field order (prime power)")
    p.add_argument("--n", type=_count)
    p.add_argument("--min-points", type=_count)
    p.add_argument("--sample", type=_count,
                   help="random draws when the space is too big to exhaust")
    p.add_argument("--limit", type=_count,
                   help="stop after this many matches")
    p.add_argument("--keep-singular", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("reproduce", parents=[output, budget, config],
                       help="rebuild every bundled reference row from scratch")
    p.add_argument("--rows", help="comma list of row names (default: all)")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("verify", parents=[output, config],
                       help="run the full formula-vs-oracle check suite")
    p.add_argument("--n-max", type=_count, default=4)
    p.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser of every run, built once per process.  Nothing mutates
    it: _resolve builds a parser of its own for --config."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        cfg = _resolve(args, argv)
        payload, code = args.func(cfg)
        if payload is not None:
            _emit(cfg, _envelope(cfg, payload))
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OracleError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:   # an internal identity failed
        print(f"invariant failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
