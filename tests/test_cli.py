"""Command-line interface: exit codes, file outputs, printed reports."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from holesat import cli, recipes, search
from holesat.constructions import witness
from holesat.encoder import HoleProblem, assignment_from_chirotope
from holesat.geometry import PointSet, canonicalize, chirotope, write_points
from holesat.recipes import RECIPE_NAMES, recipe_steps
from holesat.solver import DEFAULT_TIMEOUT, default_timeout

from conftest import requires_solver


def run(argv):
    return cli.main(argv)


PENTAGON = [(0, 0), (100, 10), (130, 110), (50, 190), (-40, 100)]


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.txt"
    path.write_text("".join(f"{x} {y}\n" for x, y in PENTAGON))
    return str(path)


# --- encode ---------------------------------------------------------------

def test_encode_writes_cnf_and_registry(tmp_path, capsys):
    out = tmp_path / "inst.cnf"
    code = run([
        "encode", "--n", "6", "--mode", "forbid-hole", "--k", "4",
        "-o", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert text.startswith("c ") and "p cnf " in text
    assert (tmp_path / "inst.vars").is_file()
    assert "wrote" in capsys.readouterr().out


def test_encode_default_name_and_stats(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run(["encode", "--n", "5", "--mode", "forbid-gon", "--k", "4", "--stats"])
    assert code == 0
    assert (tmp_path / "forbid-gon-k4-n5-compact.cnf").is_file()
    out = capsys.readouterr().out
    assert "vars O:" in out and "clauses signotope:" in out


def test_encode_rejects_conflicting_size_flags(capsys):
    code = run([
        "encode", "--n", "6", "--mode", "forbid-hole", "--k", "4",
        "--sizes", "4",
    ])
    assert code == cli.ERROR
    assert "error" in capsys.readouterr().err


def test_encode_rejects_bad_problem(capsys, tmp_path):
    code = run([
        "encode", "--n", "10", "--mode", "forbid-hole", "--k", "5",
        "--hints", "-o", str(tmp_path / "x.cnf"),
    ])
    assert code == cli.ERROR  # window hints only exist for the disjoint tables


@pytest.mark.parametrize("threshold", ["2", "3"])
def test_encode_count_holes_with_one_subset(tmp_path, threshold):
    # k = n: one k-subset, and at most t - 1 >= 1 of one hole always holds
    code = run([
        "encode", "--n", "5", "--mode", "count-holes", "--k", "5",
        "--threshold", threshold, "-o", str(tmp_path / "x.cnf"),
    ])
    assert code == 0


def test_encode_rejects_hints_with_directional_defs(tmp_path, capsys):
    out = tmp_path / "x.cnf"
    code = run([
        "encode", "--n", "11", "--mode", "two-disjoint-holes", "--sizes", "5,5",
        "--hints", "--directional-defs", "-o", str(out),
    ])
    assert code == cli.ERROR
    assert "hints" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("command", ["encode", "solve"])
def test_hints_below_ten_points_rejected(tmp_path, capsys, command):
    out = tmp_path / "x.cnf"
    code = run([
        command, "--n", "9", "--mode", "two-disjoint-holes", "--sizes", "5,5",
        "--hints", "-o" if command == "encode" else "--workdir", str(out),
    ])
    assert code == cli.ERROR
    assert "hints need n >= 10" in capsys.readouterr().err and not out.exists()


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as err:
        run(["frobnicate"])
    assert err.value.code == 2


# --- verify-witness -------------------------------------------------------

def test_verify_witness_passes(pentagon_file, capsys):
    code = run([
        "verify-witness", pentagon_file,
        "--hole", "5", "--hole", "4", "--gon", "4",
        "--no-disjoint-holes", "3,3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("pass:") == 4
    assert "result: pass" in out


def test_verify_witness_fails_on_unmet_claim(pentagon_file, capsys):
    code = run(["verify-witness", pentagon_file, "--no-hole", "5"])
    assert code == cli.FAIL
    out = capsys.readouterr().out
    assert "fail:" in out and "result: fail" in out


def test_verify_witness_interior_disjoint_flags(tmp_path, capsys):
    path = tmp_path / "fig6.txt"
    write_points(path, witness("fig6-n14"))
    code = run([
        "verify-witness", str(path),
        "--no-interior-disjoint-holes", "5,5", "--disjoint-holes", "4,4",
    ])
    assert code == 0


def test_verify_witness_rejects_collinear(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 0\n1 1\n2 2\n3 0\n")
    assert run(["verify-witness", str(path), "--hole", "3"]) == cli.FAIL
    assert "fail:" in capsys.readouterr().out


def test_verify_witness_garbage_file_is_infrastructure_error(tmp_path, capsys):
    path = tmp_path / "garbage.txt"
    path.write_text("zero zero\n")
    assert run(["verify-witness", str(path), "--hole", "3"]) == cli.ERROR
    assert run(["verify-witness", str(tmp_path / "absent.txt"), "--hole", "3"]) == cli.ERROR


def test_verify_witness_canonical_check(tmp_path, capsys):
    canonical = tmp_path / "canon.txt"
    # x-sorted with every chi(0,a,b) positive
    canonical.write_text("0 0\n10 -30\n20 -35\n30 -30\n")
    assert run(["verify-witness", str(canonical), "--canonical"]) == 0
    shuffled = tmp_path / "shuffled.txt"
    shuffled.write_text("130 110\n0 0\n100 10\n50 190\n")
    assert run(["verify-witness", str(shuffled), "--canonical"]) == cli.FAIL


# Every flag on the bundled witnesses, each family with a passing and a
# failing claim. Lines come out grouped by flag in declaration order, not in
# command-line order, and a --no flag's note names the tuple it found.
VERIFY_GOLDEN = [
    ("fig2-n16",
     "--hole 5 --hole 2 --no-hole 6 --gon 6 --no-gon 9 --disjoint-holes 4,4 "
     "--no-disjoint-holes 5,5 --no-disjoint-holes 3,3 --interior-disjoint-holes 4,5 "
     "--no-interior-disjoint-holes 5,5 --canonical", cli.FAIL, """\
pass: contains a 5-hole (count=156)
pass: contains a 2-hole (count=120)
fail: no 6-hole (count=66)
pass: contains a 6-gon (count=532)
pass: no 9-gon (count=0)
pass: contains disjoint 4/4 holes ((0, 1, 4, 5) (2, 3, 6, 7))
pass: no disjoint 5/5 holes (none)
fail: no disjoint 3/3 holes (witness (0, 1, 4) (2, 3, 6))
pass: contains interior-disjoint 4/5 holes ((0, 1, 4, 5) (0, 3, 8, 11, 12))
fail: no interior-disjoint 5/5 holes (witness (0, 8, 12, 13, 15) (3, 11, 12, 14, 15))
fail: canonical form
result: fail
"""),
    ("fig6-n14",
     "--hole 5 --no-hole 8 --no-gon 9 --disjoint-holes 4,4 --no-interior-disjoint-holes 5,5",
     cli.PASS, """\
pass: contains a 5-hole (count=34)
pass: no 8-hole (count=0)
pass: no 9-gon (count=0)
pass: contains disjoint 4/4 holes ((0, 1, 2, 3) (4, 5, 6, 7))
pass: no interior-disjoint 5/5 holes (none)
result: pass
"""),
    ("fig4-n21", "--gon 6 --no-disjoint-holes 5,5,5 --interior-disjoint-holes 5,5", cli.PASS, """\
pass: contains a 6-gon (count=5641)
pass: no disjoint 5/5/5 holes (none)
pass: contains interior-disjoint 5/5 holes ((0, 7, 8, 9, 10) (0, 12, 13, 14, 15))
result: pass
"""),
    ("fig6-n14",
     "--interior-disjoint-holes 5,5 --disjoint-holes 5,5 --gon 9 --hole 8 --no-gon 5 --no-hole 3",
     cli.FAIL, """\
fail: contains a 8-hole (count=0)
fail: no 3-hole (count=154)
fail: contains a 9-gon (count=0)
fail: no 5-gon (count=276)
fail: contains disjoint 5/5 holes (none)
fail: contains interior-disjoint 5/5 holes (none)
result: fail
"""),
    ("fig4-n21",
     "--no-disjoint-holes 5,5 --disjoint-holes 5,5,5 --no-interior-disjoint-holes 4,4 "
     "--no-gon 6 --no-hole 5", cli.FAIL, """\
fail: no 5-hole (count=961)
fail: no 6-gon (count=5641)
fail: contains disjoint 5/5/5 holes (none)
fail: no disjoint 5/5 holes (witness (0, 7, 8, 9, 10) (11, 12, 13, 14, 15))
fail: no interior-disjoint 4/4 holes (witness (0, 1, 2, 3) (0, 3, 4, 5))
result: fail
"""),
    ("fig4-n21", "", cli.PASS, "pass: general position (21 points)\nresult: pass\n"),
]


@pytest.mark.parametrize("name, flags, code, text", VERIFY_GOLDEN)
def test_verify_witness_outputs_are_pinned(tmp_path, capsys, name, flags, code, text):
    path = tmp_path / f"{name}.txt"
    write_points(path, witness(name))
    assert run(["verify-witness", str(path)] + flags.split()) == code
    assert capsys.readouterr().out == text


def test_sizes_above_n_count_zero(tmp_path, capsys):
    path = tmp_path / "fig6.txt"
    write_points(path, witness("fig6-n14"))
    assert run(["verify-witness", str(path), "--no-hole", "20", "--no-gon", "20"]) == 0
    assert capsys.readouterr().out.count("(count=0)") == 2
    assert run(["count-holes", str(path), "--k", "20"]) == 0
    assert capsys.readouterr().out == "0\n"
    # below the least size is still a bad flag
    assert run(["verify-witness", str(path), "--hole", "1"]) == cli.ERROR


# --- count-holes ----------------------------------------------------------

def test_count_holes_prints_integer(pentagon_file, capsys):
    assert run(["count-holes", pentagon_file, "--k", "4"]) == 0
    assert capsys.readouterr().out.strip() == "5"


# --- construct ------------------------------------------------------------

def test_construct_generator_to_file(tmp_path):
    out = tmp_path / "dc.txt"
    assert run(["construct", "double-circle", "--n", "8", "-o", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    rows = [line.split() for line in lines]
    assert len(rows) == 8 and all(len(r) == 2 for r in rows)
    int(rows[0][0]), int(rows[0][1])


def test_construct_fixed_witness_to_stdout(capsys):
    assert run(["construct", "fig2-n16"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 16


def test_construct_size_validation(capsys):
    assert run(["construct", "double-circle", "--n", "7"]) == cli.ERROR
    assert run(["construct", "two-ring"]) == cli.ERROR          # --n required
    assert run(["construct", "fig4-n21", "--n", "20"]) == cli.ERROR  # fixed size


@pytest.mark.parametrize("name, n", [("two-ring", "100"), ("double-circle", "400")])
def test_construct_rounding_failure_is_infrastructure_error(capsys, name, n):
    # radius 1 rounds every point onto a handful of lattice points
    assert run(["construct", name, "--n", n, "--radius", "1"]) == cli.ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"n={n}" in err and "radius 1" in err


# --- search ---------------------------------------------------------------

def test_search_writes_witness(tmp_path, capsys):
    out = tmp_path / "w.txt"
    code = run([
        "search", "--n", "8", "--mode", "forbid-gon", "--k", "5",
        "--seeds", "0-1", "--workers", "1", "-o", str(out),
    ])
    assert code == 0
    assert "seed" in capsys.readouterr().out
    assert run(["verify-witness", str(out), "--no-gon", "5"]) == 0


def test_search_miss_exits_one(capsys):
    code = run([
        "search", "--n", "5", "--mode", "forbid-hole", "--k", "3",
        "--seeds", "0", "--budget", "100", "--workers", "1",
    ])
    assert code == cli.FAIL
    assert "no witness" in capsys.readouterr().out


def test_search_box_too_small_exits_two(capsys):
    # a 3x3 grid holds at most 6 points with no three collinear
    code = run([
        "search", "--n", "8", "--mode", "forbid-gon", "--k", "5",
        "--box", "1", "--seeds", "0", "--workers", "1",
    ])
    assert code == cli.ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: box 1 ") and "n=8" in err


def test_search_negative_budget_exits_two(monkeypatch, capsys):
    started = []
    monkeypatch.setattr(search, "local_search", lambda *args, **kw: started.append(args))
    code = run(["search", "--n", "8", "--mode", "forbid-gon", "--k", "5", "--budget", "-5"])
    assert code == cli.ERROR and started == []
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: budget must be >= 0 proposals, got -5\n"
    # budget 0 checks the start set alone: every 5-point set has a 3-hole
    monkeypatch.undo()
    assert run(SEARCH_MISS[:-1] + ["0", "--workers", "1"]) == cli.FAIL
    assert "1 restarts x 0 proposals" in capsys.readouterr().out


def test_search_negative_box_exits_two(monkeypatch, capsys):
    started = []
    monkeypatch.setattr(search, "local_search", lambda *args, **kw: started.append(args))
    code = run(["search", "--n", "8", "--mode", "forbid-gon", "--k", "5", "--box", "-5"])
    assert code == cli.ERROR and started == []
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: box must be >= 1, got -5\n"


def test_parallel_search_finds_witness(tmp_path):
    # several workers, so the first success terminates the pool; a hang
    # fails the test at the subprocess timeout instead of stalling the run
    out = tmp_path / "w.txt"
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "holesat.cli", "search", "--n", "6", "--mode", "forbid-hole",
         "--k", "5", "--seeds", "0-3", "--workers", "2", "-o", str(out)],
        capture_output=True, text=True, timeout=60, env={"PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert run(["verify-witness", str(out), "--no-hole", "5"]) == 0


def test_interrupted_parallel_search_exits():
    # Ctrl-C reaches every process in the group: the workers must leave the
    # shutdown to the parent, or the pool waits forever for their lost jobs
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "holesat.cli", "search", "--n", "12", "--mode",
         "two-disjoint-holes", "--sizes", "4,5", "--seeds", "0-3", "--workers", "2",
         "--budget", "100000"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env={"PYTHONPATH": str(src)},
        start_new_session=True,
    )
    time.sleep(3)  # long enough for the workers to be annealing
    os.killpg(proc.pid, signal.SIGINT)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        pytest.fail("interrupted search did not exit")
    assert proc.returncode == -signal.SIGINT


def test_search_with_a_dead_worker_exits_with_an_error(tmp_path):
    # a worker killed mid-job (the OOM killer, say) breaks the pool: the search
    # reports it instead of waiting for ever on the lost job's result. Spawned
    # workers import this script too, so they find the job it substitutes.
    script = tmp_path / "dying.py"
    script.write_text("\n".join([
        "import os, sys",
        "from holesat import cli, search",
        "job = search._search_job",
        "def dying(args):",
        "    if args[2] == 1:",
        "        os._exit(1)",
        "    return job(args)",
        "search._search_job = dying",
        "if __name__ == '__main__':",
        "    sys.exit(cli.main(['search', '--n', '12', '--mode', 'two-disjoint-holes', '--sizes',"
        " '4,5', '--seeds', '0-3', '--workers', '2', '--budget', '100000']))",
    ]) + "\n")
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, str(script)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env={"PYTHONPATH": str(src)}, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("search with a dead worker did not exit")
    assert (proc.returncode, out) == (cli.ERROR, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_search_seed_spec_parsing():
    assert cli._seeds_arg("0-3,7") == [0, 1, 2, 3, 7]
    assert cli._seeds_arg("4") == [4]
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        cli._seeds_arg("three")
    with pytest.raises(argparse.ArgumentTypeError):
        cli._seeds_arg("1,9-3")
    with pytest.raises(argparse.ArgumentTypeError):
        cli._seeds_arg("0-3,2")


# --- solve / recipe (need a real solver) ----------------------------------

@requires_solver
@pytest.mark.solver
def test_solve_reports_and_expectations(tmp_path, capsys):
    argv = [
        "solve", "--n", "5", "--mode", "two-disjoint-holes", "--sizes", "3,3",
        "--workdir", str(tmp_path), "--summary", str(tmp_path / "s.json"),
    ]
    assert run(argv + ["--expect", "sat"]) == 0
    out = capsys.readouterr().out
    assert "verdict: SAT" in out and "verification: passed" in out
    data = json.loads((tmp_path / "s.json").read_text())
    assert data["verdict"] == "SAT"

    assert run(argv + ["--expect", "unsat"]) == cli.FAIL
    assert "expected UNSAT" in capsys.readouterr().err


@requires_solver
@pytest.mark.solver
def test_solve_unsat_keeps_proof(tmp_path, capsys):
    proof = tmp_path / "kept.drat"
    code = run([
        "solve", "--n", "6", "--mode", "two-disjoint-holes", "--sizes", "3,3",
        "--workdir", str(tmp_path / "w"), "--proof", str(proof),
        "--expect", "unsat",
    ])
    assert code == 0
    assert proof.is_file() and proof.stat().st_size > 0
    assert "verdict: UNSAT" in capsys.readouterr().out


def test_solve_missing_solver_is_infrastructure_error(tmp_path, capsys):
    code = run([
        "solve", "--n", "5", "--mode", "forbid-hole", "--k", "4",
        "--solver", str(tmp_path / "no-such-binary"),
    ])
    assert code == cli.ERROR
    assert "no-such-binary" in capsys.readouterr().err


@pytest.mark.parametrize("entry, named", [
    ({"path": "/bin/true", "flavour": "x"}, "flavour"),
    ({"path": "/bin/true", "dialect": "competition"}, "dialect"),
    ({"args": ["{cnf}"]}, "path"),
])
def test_solve_malformed_config_entry_is_infrastructure_error(
    tmp_path, monkeypatch, capsys, entry, named
):
    cfg = tmp_path / "holesat.json"
    cfg.write_text(json.dumps({"solver": entry}))
    monkeypatch.setenv("HOLESAT_CONFIG", str(cfg))
    monkeypatch.delenv("HOLESAT_SOLVER", raising=False)
    code = run(["solve", "--n", "5", "--mode", "forbid-hole", "--k", "4"])
    assert code == cli.ERROR
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("entry, named", [
    ({"path": 5}, "'path' must be a non-empty string"),
    ({"path": ""}, "'path' must be a non-empty string"),
    ({"path": "/bin/true", "args": "{cnf}"}, "'args' must be a list of strings"),
    ({"path": "/bin/true", "proof_args": ["-p", 1]}, "'proof_args' must be a list"),
    ({"path": "/bin/true", "name": ["x"]}, "'name' must be a string"),
])
def test_solve_malformed_config_value_is_infrastructure_error(
    tmp_path, monkeypatch, capsys, entry, named
):
    cfg = tmp_path / "holesat.json"
    cfg.write_text(json.dumps({"solver": entry}))
    monkeypatch.setenv("HOLESAT_CONFIG", str(cfg))
    monkeypatch.delenv("HOLESAT_SOLVER", raising=False)
    code = run(["solve", "--n", "5", "--mode", "forbid-hole", "--k", "4"])
    assert code == cli.ERROR
    assert named in capsys.readouterr().err


SEARCH_MISS = [
    "search", "--n", "5", "--mode", "forbid-hole", "--k", "3",
    "--seeds", "0", "--budget", "100",
]
SOLVE_STUB = ["solve", "--n", "5", "--mode", "forbid-hole", "--k", "4", "--solver", "/bin/true"]


@pytest.mark.parametrize("config, argv, named", [
    ([1, 2], SOLVE_STUB, "holesat.json must hold a JSON object"),
    (None, SOLVE_STUB, "holesat.json must hold a JSON object"),
    ({"timeout": [1]}, SOLVE_STUB, "'timeout' must be a number"),
    ({"timeout": True}, SOLVE_STUB, "'timeout' must be a number"),
    ({"workers": "4"}, SEARCH_MISS, "'workers' must be a number"),
    ({"workers": False}, SEARCH_MISS, "'workers' must be a number"),
])
def test_malformed_config_file_is_infrastructure_error(
    tmp_path, monkeypatch, capsys, config, argv, named
):
    cfg = tmp_path / "holesat.json"
    cfg.write_text(json.dumps(config))
    monkeypatch.setenv("HOLESAT_CONFIG", str(cfg))
    for env in ("HOLESAT_TIMEOUT", "HOLESAT_WORKERS"):
        monkeypatch.delenv(env, raising=False)
    assert run(argv) == cli.ERROR
    assert named in capsys.readouterr().err


def test_null_config_number_means_unset(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "holesat.json"
    cfg.write_text(json.dumps({"workers": None, "timeout": None}))
    monkeypatch.setenv("HOLESAT_CONFIG", str(cfg))
    for env in ("HOLESAT_TIMEOUT", "HOLESAT_WORKERS"):
        monkeypatch.delenv(env, raising=False)
    assert run(SEARCH_MISS) == cli.FAIL
    assert "no witness" in capsys.readouterr().out
    assert default_timeout() == DEFAULT_TIMEOUT


def test_recipe_undecodable_model_is_infrastructure_error(tmp_path, capsys):
    stub = tmp_path / "partial"
    stub.write_text("#!/bin/sh\necho s SATISFIABLE; echo v 1 0\n")
    stub.chmod(0o755)
    code = run([
        "recipe", "h55-small-table", "--no-proof", "--workers", "1",
        "--solver", str(stub), "--workdir", str(tmp_path / "w"),
    ])
    assert code == cli.ERROR
    assert "model decoding failed" in capsys.readouterr().out


def test_solve_replayed_model_with_forbidden_structure_fails(tmp_path, capsys):
    # the model decodes, but every 5-point set has a 4-hole
    problem = HoleProblem(n=5, mode="forbid-hole", sizes=(4,))
    model = assignment_from_chirotope(chirotope(canonicalize(PointSet(PENTAGON))), problem)
    lits = " ".join(str(v if value else -v) for v, value in sorted(model.items()))
    stub = tmp_path / "replay"
    stub.write_text(f"#!/bin/sh\necho s SATISFIABLE\necho v {lits} 0\n")
    stub.chmod(0o755)
    code = run([
        "solve", "--n", "5", "--mode", "forbid-hole", "--k", "4",
        "--solver", str(stub), "--expect", "sat",
    ])
    assert code == cli.FAIL
    out = capsys.readouterr().out
    assert "verification: failed" in out
    assert "detail: model verification failed: 4-hole present" in out


def test_solve_model_with_a_variable_of_both_signs_is_malformed(tmp_path, capsys):
    # the model is right once its last sign wins, but a solver that gives
    # variable 1 both signs printed no model
    problem = HoleProblem(n=5, mode="two-disjoint-holes", sizes=(3, 3))
    model = assignment_from_chirotope(chirotope(canonicalize(PointSet(PENTAGON))), problem)
    lits = " ".join(str(v if value else -v) for v, value in sorted(model.items()))
    stub = tmp_path / "replay"
    stub.write_text(f"#!/bin/sh\necho s SATISFIABLE\necho v {-1 if model[1] else 1} {lits} 0\n")
    stub.chmod(0o755)
    code = run([
        "solve", "--n", "5", "--mode", "two-disjoint-holes", "--sizes", "3,3",
        "--solver", str(stub), "--expect", "sat",
    ])
    assert code == cli.ERROR
    out = capsys.readouterr().out
    assert "verification: failed" in out
    assert "detail: model decoding failed: variables given both signs: [1]" in out


def _unsat_stub_config(tmp_path, monkeypatch, **extra) -> None:
    """Config naming a stub solver that writes a proof and answers UNSAT.

    PATH holds only the stub, so no checker is found by scanning.
    """
    bindir = tmp_path / "bin"
    bindir.mkdir()
    stub = bindir / "unsat"
    stub.write_text('#!/bin/sh\necho 0 > "$1"\necho s UNSATISFIABLE\n')
    stub.chmod(0o755)
    cfg = tmp_path / "holesat.json"
    solver = {"path": str(stub), "proof_args": ["{proof}"]}
    cfg.write_text(json.dumps({"solver": solver, **extra}))
    monkeypatch.setenv("HOLESAT_CONFIG", str(cfg))
    monkeypatch.setenv("PATH", str(bindir))
    for env in ("HOLESAT_SOLVER", "HOLESAT_CHECKER"):
        monkeypatch.delenv(env, raising=False)


SOLVE_UNSAT = ["solve", "--n", "5", "--mode", "forbid-hole", "--k", "4"]


@pytest.mark.parametrize("argv", [
    ["recipe", "h55-small-table", "--workers", "1"],
    SOLVE_UNSAT + ["--proof", "kept.drat"],
])
def test_malformed_checker_entry_is_infrastructure_error(tmp_path, monkeypatch, capsys, argv):
    # a checker named in the config must resolve, not silently skip the check
    _unsat_stub_config(tmp_path, monkeypatch, checker={"path": 5})
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--workdir", str(tmp_path / "w")]) == cli.ERROR
    out = capsys.readouterr()
    assert "checker entry 'path' must be a non-empty string" in out.out + out.err
    # resolved before the solve, so no step got a verdict
    assert "UNSAT" not in out.out.replace("expected UNSAT", "")


def test_solve_proof_uses_named_checker(tmp_path, monkeypatch, capsys):
    _unsat_stub_config(tmp_path, monkeypatch)
    checker = tmp_path / "confirming"
    checker.write_text("#!/bin/sh\necho s VERIFIED\n")
    checker.chmod(0o755)
    proof = tmp_path / "kept.drat"
    code = run(SOLVE_UNSAT + ["--proof", str(proof), "--checker", str(checker)])
    assert code == cli.PASS
    assert "verification: passed" in capsys.readouterr().out


def test_solve_proof_without_any_checker_is_skipped(tmp_path, monkeypatch, capsys):
    _unsat_stub_config(tmp_path, monkeypatch)
    proof = tmp_path / "kept.drat"
    assert run(SOLVE_UNSAT + ["--proof", str(proof)]) == cli.PASS
    out = capsys.readouterr().out
    assert "verdict: UNSAT" in out and "verification: skipped" in out
    assert proof.read_text() == "0\n"


def test_recipe_count_16_steps():
    assert "count-16" in RECIPE_NAMES
    steps = recipe_steps("count-16")
    assert [(s.problem.key(), s.expect) for s in steps] == [
        ("count-holes-k5-n16-t12-compact", "SAT"),
        ("count-holes-k5-n16-t11-compact", "UNSAT"),
    ]


@requires_solver
@pytest.mark.solver
def test_recipe_small_table(tmp_path, capsys):
    report = tmp_path / "r.json"
    code = run([
        "recipe", "h55-small-table", "--workdir", str(tmp_path),
        "--no-proof", "--report", str(report),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "18/18 steps" in out
    data = json.loads(report.read_text())
    assert data["recipe"] == "h55-small-table" and data["passed"] is True
    assert len(data["steps"]) == 18


# --- pinned outputs with stub solvers and checkers ------------------------

def _bin(tmp_path, name: str, body: str) -> None:
    """A shell script in the stub config's bin directory (on PATH)."""
    path = tmp_path / "bin" / name
    path.write_text(f"#!/bin/sh\n{body}\n")
    path.chmod(0o755)


def _masked(text: str, tmp_path) -> str:
    """Text with wall times and the test's directory masked."""
    text = text.replace(str(tmp_path), "TMP")
    text = re.sub(r"\d+\.\d+s,", "Ts,", text)
    return re.sub(r"wall-time: \d+\.\d+", "wall-time: T", text)


def _masked_json(path) -> dict:
    data = json.loads(path.read_text())
    for row in data.get("steps", [data]):
        assert isinstance(row["wall_time"], float)
        row["wall_time"] = "T"
    return data


@pytest.fixture
def stub_bin(tmp_path, monkeypatch):
    """An always-UNSAT solver in the config, PATH with stubs and no checker."""
    _unsat_stub_config(tmp_path, monkeypatch)
    _bin(tmp_path, "confirming", "echo s VERIFIED")
    _bin(tmp_path, "rejecting", "echo s NOT VERIFIED; exit 1")
    _bin(tmp_path, "partial", "echo s SATISFIABLE; echo v 1 0")
    monkeypatch.chdir(tmp_path)
    return tmp_path


COUNT_16 = ["count-holes (5) n=16 t=12", "count-holes (5) n=16 t=11"]
UNDECODABLE = (
    "model decoding failed: model does not cover orientation variable ('O', 0, 1, 3)"
)


def _recipe_rows(verdict, verification, passed=(False, True), detail=""):
    return [
        {"label": label, "expect": expect, "verdict": verdict,
         "verification": verification, "wall_time": "T",
         "passed": ok, "detail": detail}
        for label, expect, ok in zip(COUNT_16, ("SAT", "UNSAT"), passed)
    ]


REJECTED = "checker rejecting exit 1: s NOT VERIFIED"


@pytest.mark.parametrize("flags, code, text, rows", [
    (["--no-proof"], cli.FAIL, [
        "  FAIL: count-holes (5) n=16 t=12 -> UNSAT [expected SAT, Ts, verification skipped]",
        "  pass: count-holes (5) n=16 t=11 -> UNSAT [expected UNSAT, Ts, verification skipped]",
        "result: FAIL (1/2 steps)",
    ], _recipe_rows("UNSAT", "skipped")),
    ([], cli.FAIL, [
        "  FAIL: count-holes (5) n=16 t=12 -> UNSAT [expected SAT, Ts, verification skipped]",
        "  pass: count-holes (5) n=16 t=11 -> UNSAT [expected UNSAT, Ts, verification skipped]",
        "result: FAIL (1/2 steps)",
    ], _recipe_rows("UNSAT", "skipped")),
    (["--checker", "confirming"], cli.FAIL, [
        "  FAIL: count-holes (5) n=16 t=12 -> UNSAT [expected SAT, Ts, verification passed]",
        "  pass: count-holes (5) n=16 t=11 -> UNSAT [expected UNSAT, Ts, verification passed]",
        "result: FAIL (1/2 steps)",
    ], _recipe_rows("UNSAT", "passed")),
    (["--checker", "rejecting"], cli.FAIL, [
        "  FAIL: count-holes (5) n=16 t=12 -> UNSAT [expected SAT, Ts, verification failed]"
        f" ({REJECTED})",
        "  FAIL: count-holes (5) n=16 t=11 -> UNSAT [expected UNSAT, Ts, verification failed]"
        f" ({REJECTED})",
        "result: FAIL (0/2 steps)",
    ], _recipe_rows("UNSAT", "failed", (False, False), REJECTED)),
    (["--no-proof", "--solver", "partial"], cli.ERROR, [
        "  FAIL: count-holes (5) n=16 t=12 -> SAT [expected SAT, Ts, verification failed]"
        f" ({UNDECODABLE})",
        "  FAIL: count-holes (5) n=16 t=11 -> SAT [expected UNSAT, Ts, verification failed]"
        f" ({UNDECODABLE})",
        "result: FAIL (0/2 steps)",
    ], _recipe_rows("SAT", "failed", (False, False), UNDECODABLE)),
])
def test_recipe_outputs_are_pinned(stub_bin, capsys, flags, code, text, rows):
    report = stub_bin / "r.json"
    argv = ["recipe", "count-16", "--workers", "1", "--report", str(report)]
    assert run(argv + flags) == code
    out = capsys.readouterr()
    assert _masked(out.out, stub_bin).splitlines() == [
        "recipe count-16", *text, "wrote TMP/r.json"
    ]
    assert out.err == ""
    assert _masked_json(report) == {"recipe": "count-16", "passed": False, "steps": rows}


def _solve_text(verdict, verification, *extra):
    return [
        "instance: forbid-hole-k4-n5-compact",
        f"verdict: {verdict}",
        "solver: unsat" if verdict == "UNSAT" else "solver: partial",
        "wall-time: T",
        f"verification: {verification}",
        *extra,
        "",
    ]


@pytest.mark.parametrize("flags, code, text, err", [
    (["--expect", "unsat"], cli.PASS, _solve_text("UNSAT", "skipped"), ""),
    (["--expect", "sat"], cli.FAIL, _solve_text("UNSAT", "skipped"),
     "expected SAT, got UNSAT\n"),
    (["--check", "--checker", "confirming", "--proof", "kept.drat"], cli.PASS,
     _solve_text("UNSAT", "passed", "certificate: kept.drat"), ""),
    (["--check", "--checker", "rejecting", "--expect", "unsat"], cli.FAIL,
     _solve_text("UNSAT", "failed", f"detail: {REJECTED}"), ""),
    (["--solver", "partial", "--expect", "sat"], cli.ERROR,
     _solve_text("SAT", "failed", f"detail: {UNDECODABLE}"),
     f"error: {UNDECODABLE}\n"),
])
def test_solve_outputs_are_pinned(stub_bin, capsys, flags, code, text, err):
    summary = stub_bin / "s.json"
    assert run(SOLVE_UNSAT + flags + ["--summary", str(summary)]) == code
    out = capsys.readouterr()
    assert _masked(out.out, stub_bin).splitlines() == text
    assert out.err == err
    fields = dict(line.split(": ", 1) for line in text if line)
    assert _masked_json(summary) == {
        "instance": fields["instance"],
        "verdict": fields["verdict"],
        "solver": fields["solver"],
        "wall_time": "T",
        "verification": fields["verification"],
        "certificate_path": fields.get("certificate"),
        "model_size": 1 if fields["verdict"] == "SAT" else 0,
        "detail": fields.get("detail", ""),
    }


def test_solve_named_checker_asks_for_a_checked_proof(stub_bin, capsys):
    assert run(SOLVE_UNSAT + ["--checker", "rejecting"]) == cli.FAIL
    out = capsys.readouterr().out
    assert "verification: failed" in out and REJECTED in out


@pytest.mark.parametrize("config, env", [
    ({"checker": {"path": 5}}, {}),
    ({}, {"HOLESAT_WORKERS": "2.5"}),
])
def test_recipe_resolves_tools_before_encoding(
    tmp_path, monkeypatch, capsys, config, env
):
    _unsat_stub_config(tmp_path, monkeypatch, **config)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    built = []
    monkeypatch.setattr(recipes, "build_instance", built.append)
    assert run(["recipe", "interior-55", "--workdir", str(tmp_path / "w")]) == cli.ERROR
    assert built == []
    out = capsys.readouterr()
    assert out.out == "" and len(out.err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["recipe", "interior-55", "--solver", "partial", "--workers", "1"],
    SOLVE_UNSAT + ["--solver", "partial", "--proof", "kept.drat"],
])
def test_solver_without_proof_template_fails_before_encoding(
    stub_bin, monkeypatch, capsys, argv
):
    built = []
    monkeypatch.setattr(recipes, "build_instance", built.append)
    monkeypatch.setattr(cli, "build_instance", built.append)
    assert run(argv) == cli.ERROR
    assert built == []
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: solver partial has no proof argument template\n"


@pytest.mark.parametrize("env, value, argv", [
    ("HOLESAT_TIMEOUT", "abc", SOLVE_UNSAT),
    ("HOLESAT_WORKERS", "2.5", SEARCH_MISS),
])
def test_bad_setting_names_its_variable(stub_bin, monkeypatch, capsys, env, value, argv):
    monkeypatch.setenv(env, value)
    assert run(argv) == cli.ERROR
    err = capsys.readouterr().err
    assert env in err and repr(value) in err


def test_unparsable_config_file_names_the_file(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "holesat.json"
    cfg.write_text("{bad")
    monkeypatch.setenv("HOLESAT_CONFIG", str(cfg))
    for env in ("HOLESAT_SOLVER", "HOLESAT_TIMEOUT"):
        monkeypatch.delenv(env, raising=False)
    assert run(SOLVE_UNSAT) == cli.ERROR
    err = capsys.readouterr().err
    assert str(cfg) in err and "line 1 column 2" in err


SOLVE_TRUE = ["solve", "--n", "5", "--mode", "forbid-hole", "--k", "5", "--solver", "/bin/true"]
RECIPE_TRUE = ["recipe", "h55-small-table", "--solver", "/bin/true", "--no-proof"]


@pytest.mark.parametrize("argv, env, config, value", [
    (SOLVE_TRUE + ["--timeout", "inf"], {}, None, "inf"),
    (SOLVE_TRUE, {"HOLESAT_TIMEOUT": "inf"}, None, "inf"),
    (SOLVE_TRUE, {}, '{"timeout": 1e999}', "inf"),
    (RECIPE_TRUE + ["--timeout", "inf"], {}, None, "inf"),
    (SOLVE_TRUE + ["--timeout", "nan"], {}, None, "nan"),
    (SOLVE_TRUE + ["--timeout", "-1"], {}, None, "-1.0"),
    (SOLVE_TRUE + ["--timeout", "0"], {}, None, "0.0"),
], ids=["flag-inf", "env-inf", "config-inf", "recipe-inf", "nan", "negative", "zero"])
def test_timeout_must_be_finite_and_positive(
    tmp_path, monkeypatch, capsys, argv, env, config, value
):
    cfg = tmp_path / "holesat.json"
    if config:
        cfg.write_text(config)
    monkeypatch.setenv("HOLESAT_CONFIG", str(cfg))
    monkeypatch.delenv("HOLESAT_TIMEOUT", raising=False)
    for key, setting in env.items():
        monkeypatch.setenv(key, setting)
    built = []
    monkeypatch.setattr(recipes, "build_instance", built.append)
    monkeypatch.setattr(cli, "build_instance", built.append)
    assert run(argv) == cli.ERROR
    assert built == []
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: timeout must be a finite number of seconds > 0, got {value}\n"
