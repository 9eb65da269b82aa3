"""In-memory call spans for the benchmark's traced runs.

A span is recorded around every call into a public function of the package
listed in PASS_PATCHES. Each name is patched where its caller looks it up
(``tripoint.cli.verify_distance_floor``, ``tripoint.codes.build_CL``, ...),
so calls made inside the package are seen too. Spans are kept in memory
as ``[name, start, end, parent, run, note]`` and written out once at the
end of the run; self times, counts and ratios are derived from them.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

import numpy as np

# (module, attribute where the caller looks the name up, span name)
PASS_PATCHES = (
    ("tripoint.cli", "main", "cli.main"),
    ("tripoint.cli", "build_COmega", "codes.build_COmega"),
    ("tripoint.cli", "verify_distance_floor", "codes.verify_distance_floor"),
    ("tripoint.cli", "low_weight_search", "codes.low_weight_search"),
    ("tripoint.cli", "dim_L_oracle", "riemann_roch.dim_L_oracle"),
    ("tripoint.cli", "pure_gap_oracle", "weierstrass.pure_gap_oracle"),
    ("tripoint.cli", "rational_points_raw", "curves.rational_points"),
    ("tripoint.codes", "build_COmega", "codes.build_COmega"),
    ("tripoint.codes", "build_CL", "codes.build_CL"),
    ("tripoint.codes", "verify_distance_floor", "codes.verify_distance_floor"),
    ("tripoint.codes", "low_weight_search", "codes.low_weight_search"),
    ("tripoint.codes", "basis_L_oracle", "riemann_roch.basis_L_oracle"),
    ("tripoint.codes", "dim_L_oracle", "riemann_roch.dim_L_oracle"),
    ("tripoint.weierstrass", "pure_gap_oracle", "weierstrass.pure_gap_oracle"),
    ("tripoint.weierstrass", "dim_L_oracle", "riemann_roch.dim_L_oracle"),
    ("tripoint.riemann_roch", "dim_L_oracle", "riemann_roch.dim_L_oracle"),
    ("tripoint.riemann_roch", "basis_L_oracle", "riemann_roch.basis_L_oracle"),
    ("tripoint.riemann_roch", "solve_chart", "series.solve_chart"),
    ("tripoint.series", "solve_chart", "series.solve_chart"),
    ("tripoint.curves", "CurveSpec.rational_points", "curves.rational_points"),
    ("tripoint.linalg", "rank", "linalg.rank"),
    ("tripoint.linalg", "rref", "linalg.rref"),
    ("tripoint.linalg", "nullspace", "linalg.nullspace"),
)

# Field.tables is called by every vector operation, so it is traced only
# while the benchmark sets up, where it builds each field's tables.
SETUP_PATCHES = (("tripoint.fields", "Field.tables", "fields.tables"),)


def _shape_note(args, out):
    rows, cols = np.shape(args[1])
    return {"cells": rows * cols, "cols": cols}


def _checked_note(args, out):
    return {"checked": int(out[2])}


_NOTES = {"linalg.rank": _shape_note,
          "codes.verify_distance_floor": _checked_note}


def _resolve(module: str, dotted: str):
    owner = importlib.import_module(module)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans while its patches are installed."""

    def __init__(self):
        self.spans = []
        self.run = None
        self._stack = []
        self._saved = []

    def install(self, patches) -> None:
        for module, dotted, name in patches:
            owner, attr = _resolve(module, dotted)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        # rank is a thin wrapper over rref: the elimination it runs counts
        # as rank's own time, so the oracle's rank work and the rref calls
        # of row_space_basis and nullspace stay separate figures.
        fold_into = "linalg.rank" if name == "linalg.rref" else None
        note = _NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if fold_into and stack and spans[stack[-1]][0] == fold_into:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = {"error": type(exc).__name__}
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                rec[5] = note(args, out)
            return out

        return traced


def _pass_metrics(spans: list, run) -> dict:
    """Per-layer figures for the spans of one traced pass."""
    child = [0.0] * len(spans)
    has_rank = set()
    for sp in spans:
        if sp[3] >= 0:
            child[sp[3]] += sp[2] - sp[1]
            if sp[0] == "linalg.rank":
                has_rank.add(sp[3])
    calls, self_s, incl = {}, {}, {}
    cells = max_cols = checked = failed_dims = memo_hits = 0
    for i, (name, start, end, _parent, sp_run, note) in enumerate(spans):
        if sp_run != run:
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        incl[name] = incl.get(name, 0.0) + (end - start)
        note = note or {}
        if name == "linalg.rank":
            cells += note["cells"]
            max_cols = max(max_cols, note["cols"])
        elif name == "codes.verify_distance_floor":
            checked += note.get("checked", 0)
        elif name == "riemann_roch.dim_L_oracle":
            if "error" in note:
                failed_dims += 1
            elif i not in has_rank:
                memo_hits += 1
    out = {}
    for name in {p[2] for p in PASS_PATCHES}:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    dims = calls.get("riemann_roch.dim_L_oracle", 0)
    cert_s = incl.get("codes.verify_distance_floor", 0.0)
    dims_s = incl.get("riemann_roch.dim_L_oracle", 0.0)
    out.update({
        "linalg.rank.cells": cells,
        "linalg.rank.max_cols": max_cols,
        "riemann_roch.dim_L_oracle.failed": failed_dims,
        "riemann_roch.dim_L_oracle.memo_hit_ratio":
            memo_hits / dims if dims else 0.0,
        "codes.subsets_checked": checked,
        "subsets_per_s": checked / cert_s if cert_s else 0.0,
        "dims_per_s": (dims - failed_dims) / dims_s if dims_s else 0.0,
    })
    return out


def layer_metrics(spans: list, runs: list) -> dict:
    """Median over the traced passes of each per-pass figure, plus the
    set-up time spent building field tables."""
    per_pass = [_pass_metrics(spans, run) for run in runs]
    out = {name: statistics.median(p[name] for p in per_pass)
           for name in per_pass[0]}
    out["fields.tables_s"] = sum(sp[2] - sp[1] for sp in spans
                                 if sp[0] == "fields.tables")
    return out
