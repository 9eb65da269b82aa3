"""Benchmark of the tripoint package, run from the root of a source checkout:

    python3 benchmarks/run.py --workload {certify,oracle,codes} --seed N \\
        --seconds S --trace {0,1} [--smoke]

The package is imported from ./src; nothing needs installing. A run sets up
once in this process, times several cold set-ups in fresh interpreters
started one after another, then repeats passes of the workload in this
process until the next pass would end after S seconds (at least one pass).
Every answer is checked after each pass; a wrong answer exits 1 without a
result.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json. With
--trace 1 untraced and traced passes alternate; the metrics are the
per-layer ones, from the spans of the traced passes, and the spans are
written to benchmarks/out/. The last line of stdout is the result object;
the line before it describes the machine. --smoke shrinks every workload
to a few seconds for the harness test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "oracle", "codes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one set-up probe")
    return parser.parse_args(argv)


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def machine() -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tripoint").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def setup_samples(workload: str, repeats: int) -> list:
    """Seconds of each cold set-up, each in a fresh interpreter."""
    out = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_passes(wl, seed, seconds, smoke, tracer) -> list:
    """Repeat the workload until the next pass (or, when tracing, the next
    untraced + traced pair) would end after `seconds`."""
    done = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(done) % 2 == 1
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        if traced:
            tracer.run = len(done)
            tracer.install(tracing.PASS_PATCHES)
        try:
            tally = wl.run_pass(seed, smoke)
        finally:
            if traced:
                tracer.uninstall()
        done.append({"traced": traced, "wall_s": tally.seconds,
                     "cpu_s": _cpu_seconds() - cpu0,
                     "pass_s": time.perf_counter() - t0, "work": tally.work,
                     "attempted": tally.attempted, "failed": tally.failed})
        if tracer is not None and not traced:
            continue
        step = sum(d["pass_s"] for d in done[-2 if tracer else -1:])
        if time.perf_counter() - start + step > seconds:
            return done


def end_to_end(passes: list, setup: list) -> dict:
    plain = [d for d in passes if not d["traced"]]
    return {
        "wall_s": statistics.median(d["wall_s"] for d in plain),
        "ops_per_s": statistics.median(d["work"] / d["wall_s"] for d in plain),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }


def per_layer(tracer, passes: list) -> dict:
    plain = [d for d in passes if not d["traced"]]
    traced = [d for d in passes if d["traced"]]
    out = tracing.layer_metrics(
        tracer.spans, [i for i, d in enumerate(passes) if d["traced"]])
    attempted = sum(d["attempted"] for d in passes)
    out.update({
        "run.cpu_s": statistics.median(d["cpu_s"] for d in plain),
        "trace.overhead_s": statistics.median(d["wall_s"] for d in traced)
        - statistics.median(d["wall_s"] for d in plain),
        "failed_ratio": sum(d["failed"] for d in passes) / attempted,
    })
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tripoint" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'tripoint'}; "
              f"run from the root of a tripoint checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import tripoint
    import workloads
    if Path(tripoint.__file__).resolve().parent != ROOT / "src" / "tripoint":
        print(f"error: imported tripoint from {tripoint.__file__}",
              file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.run = "setup"
        tracer.install(tracing.SETUP_PATCHES)
    try:
        wl.setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup = setup_samples(args.workload, 1 if args.smoke else SETUP_REPEATS)
    try:
        passes = run_passes(wl, args.seed, args.seconds, args.smoke, tracer)
    except workloads.GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 1

    if tracer is None:
        values, wanted = end_to_end(passes, setup), spec["end_to_end"]
    else:
        values, wanted = per_layer(tracer, passes), spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2
    info = {"machine": machine(), "workload": args.workload,
            "seed": args.seed, "smoke": args.smoke, "setup_samples": setup,
            "passes": passes}
    if tracer is not None:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({**info, "spans": tracer.spans}))
    result = {
        "correct": True,
        "attempted": sum(d["attempted"] for d in passes),
        "failed": sum(d["failed"] for d in passes),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
