"""Fast self-test of the benchmark harness: python3 -m pytest perfbench

Runs both workloads at their smallest size (the replay on a 9-point
instance), then a traced pass, and checks the span tree, the per-layer
metric set, the output contract and that no temp directory is left.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import replay  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from holesat import cli, search  # noqa: E402


def _smallest(work: Path):
    return [
        workloads.SatReplay(0, work, instances=workloads.SMALL),
        workloads.Anneal(0, work, budget=6, warmup_budget=2),
    ]


def _holesat_temp_dirs() -> set[str]:
    return {p.name for p in Path(tempfile.gettempdir()).glob("holesat-*")}


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.LAYER_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_every_workload_at_its_smallest_size(tmp_path):
    before = _holesat_temp_dirs()
    for wl in _smallest(tmp_path):
        m = workloads.measure(wl, 1, 2, tracing.NullTracer())
        assert m.checked >= 1 and m.failed == 0, type(wl).__name__
        metrics, _ = workloads.end_to_end(m, 1.0)
        assert set(metrics) == set(workloads.END_TO_END_UNITS)
        assert all(v > 0 for v in metrics.values()), metrics
    assert _holesat_temp_dirs() == before
    assert not list(tmp_path.glob("pass-*")), "per-pass work directories left behind"


def test_sat_replay_fingerprints_are_stable(tmp_path):
    wl = workloads.SatReplay(0, tmp_path, instances=workloads.SMALL)
    m = workloads.measure(wl, 2, 1, tracing.NullTracer())
    assert m.failed == 0
    (fp,) = m.record["fingerprints"].values()
    assert fp["clauses"] == sum(fp["groups"].values()) == m.record["cnf_clauses"]
    assert len(fp["cnf_sha256"]) == 64


def test_traced_pass_covers_every_layer_metric(tmp_path):
    originals = (cli.main, search.objective_count, search.PointSet)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for wl in _smallest(tmp_path):
            assert workloads.measure(wl, 1, 1, tracer).failed == 0
    finally:
        tracer.uninstall()
    assert (cli.main, search.objective_count, search.PointSet) == originals
    assert tracer.check_tree() == []
    metrics = tracer.metrics(0.1)
    assert set(metrics) == set(tracing.LAYER_UNITS)
    recorded = {rec[0] for rec in tracer.spans}
    assert {name for name in tracing.OP_SPANS} <= recorded
    for name in ("encoder.olit_calls", "holes.hulls_disjoint_calls", "search.evaluated_share",
                 "cli.self_s", "encoder.cnf_clauses", "encoder.assignment_from_chirotope_setup_s"):
        assert metrics[name] > 0, name
    tracer.dump(tmp_path / "spans.json")
    dumped = json.loads((tmp_path / "spans.json").read_text())
    assert len(dumped["spans"]) == len(tracer.spans)


def test_tail_leaves_ten_samples_beyond():
    xs = [float(i) for i in range(140)]
    p, value = workloads.tail(xs)
    assert p == 92 and sum(x > value for x in xs) >= 10
    assert workloads.tail([3.0, 1.0, 8.0]) == (50, 3.0)


def test_replay_without_model_is_unknown(tmp_path, capsys):
    cnf = tmp_path / "x.cnf"
    cnf.write_text("c holesat instance missing-key\np cnf 1 1\n1 0\n")
    assert replay.main([str(tmp_path), str(cnf)]) == 0
    assert "s UNKNOWN" in capsys.readouterr().out


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_command_prints_the_result_line():
    proc = _run(ROOT, "--workload", "anneal-h45-n12", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == set(workloads.END_TO_END_UNITS)
    record = json.loads((ROOT / ".perfbench/results/anneal-h45-n12-seed3-trace0.json").read_text())
    for key in ("python", "nproc", "git_commit", "seed", "solver_found", "checker_found"):
        assert key in record
    assert not list((ROOT / ".perfbench/tmp").iterdir())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "sat-replay", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
