#!/usr/bin/env python3
"""holesat benchmark: one workload, one run, one JSON line of results.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sat-replay --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` prints the per-layer metrics: the run does half the work
with the wrappers of ``tracing.py`` installed, then the same work without
them, and reports the difference as the tracing overhead. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; a
record of the run (machine, commit, solver availability, encoding
fingerprints, sample counts) goes to ``.perfbench/results/``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "holesat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _binaries() -> dict:
    from holesat.solver import SolverError, discover_checker, discover_solver

    found = {}
    for kind, discover in (("solver", discover_solver), ("checker", discover_checker)):
        try:
            found[kind] = discover().identity()
        except SolverError:
            found[kind] = None
    return found


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    from workloads import WORKLOADS, end_to_end, measure, units_for

    make = WORKLOADS[workload]
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT / "tmp"))
    # Anything the program puts in a temp directory lands in ours too.
    saved_tempdir, tempfile.tempdir = tempfile.tempdir, str(work)
    tracer = None
    try:
        if not trace:
            m = measure(make(seed, work), units_for(make, seconds), SETUP_REPEATS, tracing.NullTracer())
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, detail = end_to_end(m, rss)
            checked, failed, record = m.checked, m.failed, m.record
        else:
            # Traced half first, so ru_maxrss still rises across the first build.
            units = units_for(make, seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(make(seed, work), units, 1, tracer)
            finally:
                tracer.uninstall()
            plain = measure(make(seed, work), units, 1, tracing.NullTracer())
            problems = tracer.check_tree()
            if problems:
                raise RuntimeError("broken span tree: " + "; ".join(problems[:5]))
            metrics = tracer.metrics(traced.seconds / plain.seconds - 1)
            detail = {"units": len(plain.units), "ops": traced.ops, "spans": len(tracer.spans)}
            checked = plain.checked + traced.checked
            failed = plain.failed + traced.failed
            record = traced.record
    finally:
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(work, ignore_errors=True)

    binaries = _binaries()
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "solver_found": binaries["solver"],
        "checker_found": binaries["checker"],
        # Real solve and proof-check times need binaries; no stand-in number.
        "unavailable": {
            name: "unavailable" if binaries[kind] is None else "not measured (replay)"
            for name, kind in zip(tracing.UNAVAILABLE_WITHOUT_BINARIES, ("solver", "checker"))
        },
        "detail": detail,
        "checked": checked,
        "failed": failed,
        "metrics": metrics,
        **record,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if tracer is not None:
        tracer.dump(results / f"{stem}-spans.json")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sat-replay", "anneal-h45-n12"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "holesat" / "__init__.py").is_file():
        print(f"error: no holesat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import tracing
    from workloads import END_TO_END_UNITS

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    unit_of = tracing.LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['checked']} checked, {result['failed']} failed")
    if args.workload == "sat-replay":
        print("sat verdict times: solver replaced by replay")
    for name, value in result["metrics"].items():
        print(f"  {name} = {value:.6g} {unit_of[name]}")
    for name, value in result["unavailable"].items():
        print(f"  {name} = {value}")
    for key, value in result["detail"].items():
        print(f"  [{key}] {value}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["checked"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
