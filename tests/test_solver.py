"""Solver harness: output parsing, error classing, decoding, verification."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
import stat
import tempfile
import tracemalloc

import pytest

from holesat import solver as harness
from holesat.cli import main as cli_main
from holesat.encoder import MODES, HoleProblem, assignment_from_chirotope, build_instance
from holesat.geometry import PointSet, Signotope, canonicalize, chirotope
from holesat.holes import enumerate_holes, find_disjoint_tuple
from holesat.solver import (
    ERROR,
    FAIL,
    KNOWN_CHECKERS,
    KNOWN_SOLVERS,
    MODEL_DECODING_FAILED,
    PASS,
    CheckerConfig,
    SolveReport,
    SolverConfig,
    SolverError,
    decode_model,
    default_timeout,
    default_workers,
    discover_checker,
    discover_solver,
    load_config,
    normalize_certificate,
    parse_solver_output,
    resolve_tools,
    run_batch,
    run_proof_check,
    run_solver,
    solve_instance,
    verify_model,
)

from conftest import (
    HAVE_CHECKER,
    oracle_is_gon,
    oracle_is_hole,
    random_point_set,
    requires_checker,
    requires_solver,
)


# --- parsing --------------------------------------------------------------

def test_parse_competition_output():
    text = "c comment\ns SATISFIABLE\nv 1 -2 3\nv -4 0\n"
    assert parse_solver_output(text) == ("SAT", [1, -2, 3, -4])
    assert parse_solver_output("s UNSATISFIABLE\n") == ("UNSAT", [])
    assert parse_solver_output("s UNKNOWN\n") == ("UNKNOWN", [])
    assert parse_solver_output("nothing to see\n") == (None, [])


def test_parse_tolerates_status_decorations():
    # some solvers echo the file name after the status word
    text = "s SATISFIABLE: /tmp/foo.cnf\ns SATISFIABLE\nv 2 -1 0\n"
    assert parse_solver_output(text) == ("SAT", [2, -1])


def test_parse_stops_model_at_zero():
    assert parse_solver_output("s SATISFIABLE\nv 5 0 trailing\n")[1] == [5]


# --- tool configuration ---------------------------------------------------

def test_solver_argv_substitution():
    cfg = SolverConfig(
        path="/bin/fake",
        args=("-q", "{cnf}"),
        proof_args=("--proof", "{proof}"),
        name="fake",
    )
    assert cfg.argv("a.cnf") == ["/bin/fake", "-q", "a.cnf"]
    assert cfg.argv("a.cnf", "p.drat") == [
        "/bin/fake", "--proof", "p.drat", "-q", "a.cnf",
    ]
    chk = CheckerConfig(path="/bin/chk", name="chk")
    assert chk.argv("a.cnf", "p.drat") == ["/bin/chk", "a.cnf", "p.drat"]


def test_known_presets_cover_shipped_tools():
    assert {"varisat", "splr"} <= set(KNOWN_SOLVERS)
    assert {"rate", "drat-trim"} <= set(KNOWN_CHECKERS)
    # the rate preset must keep drat-trim-compatible deletion semantics
    assert "--skip-unit-deletions" in KNOWN_CHECKERS["rate"]["args"]


def _stub(tmp_path, name: str, script: str) -> str:
    path = tmp_path / name
    path.write_text(f"#!/bin/sh\n{script}\n")
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def test_discover_solver_precedence(tmp_path, monkeypatch):
    stub = _stub(tmp_path, "mysolver", "echo s UNKNOWN")
    assert discover_solver(stub).path == stub

    monkeypatch.setenv("HOLESAT_SOLVER", stub)
    assert discover_solver().path == stub
    monkeypatch.delenv("HOLESAT_SOLVER")

    cfg_file = tmp_path / "holesat.json"
    cfg_file.write_text(json.dumps({"solver": {"path": stub, "name": "custom"}}))
    monkeypatch.setenv("HOLESAT_CONFIG", str(cfg_file))
    found = discover_solver()
    assert found.path == stub and found.name == "custom"


def test_discover_solver_missing_is_clear_error(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path))
    monkeypatch.delenv("HOLESAT_SOLVER", raising=False)
    monkeypatch.setenv("HOLESAT_CONFIG", str(tmp_path / "absent.json"))
    with pytest.raises(SolverError, match="no SAT solver"):
        discover_solver()
    with pytest.raises(SolverError, match="no proof checker"):
        discover_checker()
    with pytest.raises(SolverError, match="does not exist"):
        discover_solver(str(tmp_path / "missing-binary"))


def test_config_defaults(tmp_path, monkeypatch):
    monkeypatch.setenv("HOLESAT_CONFIG", str(tmp_path / "none.json"))
    assert load_config() == {}
    monkeypatch.setenv("HOLESAT_TIMEOUT", "12.5")
    assert default_timeout() == 12.5
    monkeypatch.setenv("HOLESAT_WORKERS", "3")
    assert default_workers() == 3


def test_resolved_solver_comes_with_its_checker(monkeypatch):
    def lookup(*args):
        raise AssertionError("looked up")

    monkeypatch.setattr(shutil, "which", lookup)
    monkeypatch.setattr(harness, "load_config", lookup)
    monkeypatch.delenv("HOLESAT_CHECKER", raising=False)
    solver = SolverConfig(path="/bin/true", proof_args=("{proof}",))
    checker = CheckerConfig(path="/bin/true")
    assert resolve_tools(solver, None, want_proof=True) == (solver, None)
    assert resolve_tools(solver, checker, want_proof=True) == (solver, checker)
    # a checker named, or asked for, is still looked up
    for named, checked in (("rate", False), (None, True)):
        with pytest.raises(AssertionError, match="looked up"):
            resolve_tools(solver, named, want_proof=True, checked=checked)


def test_run_batch_refuses_a_solver_without_proof_template_before_building(
    tmp_path, monkeypatch
):
    cfg = tmp_path / "holesat.json"
    cfg.write_text(json.dumps({"solver": {"path": "/bin/true", "name": "plain"}}))
    monkeypatch.setenv("HOLESAT_CONFIG", str(cfg))
    monkeypatch.delenv("HOLESAT_SOLVER", raising=False)
    built = []
    monkeypatch.setattr(harness, "build_instance", built.append)
    problems = [
        HoleProblem(n=5, mode="forbid-hole", sizes=(4,)),
        HoleProblem(n=6, mode="forbid-gon", sizes=(4,)),
    ]
    with pytest.raises(SolverError, match="solver plain has no proof argument template"):
        run_batch(problems, want_proof=True, workdir=tmp_path / "w")
    assert built == []


# --- error classification -------------------------------------------------

def _tiny_cnf(tmp_path):
    cnf = tmp_path / "tiny.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    return cnf


def test_crash_vs_unparsable_vs_timeout(tmp_path):
    cnf = _tiny_cnf(tmp_path)
    crash = SolverConfig(path=_stub(tmp_path, "crash", "echo boom >&2; exit 3"), name="crash")
    rep = run_solver(cnf, crash, timeout=5)
    assert rep.verdict == "UNKNOWN" and "solver crash (exit 3)" in rep.detail

    garbled = SolverConfig(path=_stub(tmp_path, "garbled", "echo hello; exit 10"), name="g")
    rep = run_solver(cnf, garbled, timeout=5)
    assert rep.verdict == "UNKNOWN" and "unparsable solver output" in rep.detail

    slow = SolverConfig(path=_stub(tmp_path, "slow", "sleep 5; echo s UNKNOWN"), name="slow")
    rep = run_solver(cnf, slow, timeout=0.2)
    assert rep.verdict == "UNKNOWN" and "timeout" in rep.detail

    with pytest.raises(SolverError, match="failed to launch"):
        run_solver(cnf, SolverConfig(path=str(tmp_path / "gone"), name="gone"), timeout=5)


def test_stubbed_sat_roundtrip(tmp_path):
    cnf = _tiny_cnf(tmp_path)
    sat = SolverConfig(
        path=_stub(tmp_path, "sat", "echo s SATISFIABLE; echo v 1 0"), name="sat"
    )
    rep = run_solver(cnf, sat, timeout=5)
    assert rep.verdict == "SAT" and rep.model == {1: True}
    assert rep.certificate_path is None


def test_normalize_certificate_strips_percent_header(tmp_path):
    plain = tmp_path / "plain.drat"
    plain.write_text("1 2 0\nd 1 2 0\n")
    assert normalize_certificate(plain) == str(plain)
    decorated = tmp_path / "decorated.drat"
    decorated.write_text("%SOME HEADER\n1 2 0\n")
    cleaned = normalize_certificate(decorated)
    assert cleaned.endswith(".clean")
    with open(cleaned) as fh:
        assert fh.read() == "1 2 0\n"


def test_normalize_certificate_streams_a_large_proof(tmp_path):
    # the cleaned copy of a 32 MB proof is exact, and it is not read whole
    decorated = tmp_path / "large.drat"
    block = b"".join(b"%d -%d %d 0\n" % (i, i + 1, i + 2) for i in range(1, 40001))
    digest = hashlib.sha256()
    with open(decorated, "wb") as f:
        f.write(b"%RUPD32 header\n")
        while f.tell() < 32 * 2**20:
            f.write(block)
            digest.update(block)
    tracemalloc.start()
    try:
        cleaned = normalize_certificate(decorated)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    copied = hashlib.sha256()
    with open(cleaned, "rb") as f:
        for chunk in iter(lambda: f.read(2**20), b""):
            copied.update(chunk)
    assert copied.hexdigest() == digest.hexdigest()
    assert peak < 4 * 2**20


def test_proof_check_needs_positive_verdict(tmp_path):
    cnf = _tiny_cnf(tmp_path)
    cert = tmp_path / "tiny.drat"
    cert.write_text("0\n")
    silent = CheckerConfig(path=_stub(tmp_path, "silent", "exit 0"), name="silent")
    ok, detail = run_proof_check(cnf, cert, silent, timeout=5)
    assert not ok and "exit 0" in detail
    confirming = CheckerConfig(
        path=_stub(tmp_path, "confirming", "echo c checking; echo s VERIFIED"),
        name="confirming",
    )
    assert run_proof_check(cnf, cert, confirming, timeout=5) == (True, "")


def test_proof_check_timeout_and_launch_failure(tmp_path):
    cnf = _tiny_cnf(tmp_path)
    cert = tmp_path / "tiny.drat"
    cert.write_text("0\n")
    slow = CheckerConfig(path=_stub(tmp_path, "slow", "sleep 5; echo s VERIFIED"), name="slow")
    assert run_proof_check(cnf, cert, slow, timeout=1) == (False, "checker timeout after 1s")
    gone = CheckerConfig(path=str(tmp_path / "gone"), name="gone")
    with pytest.raises(SolverError, match="failed to launch"):
        run_proof_check(cnf, cert, gone, timeout=5)


# --- temporary files and malformed models ---------------------------------

def test_solve_leaves_no_temporary_directories(tmp_path, monkeypatch):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    bindir = tmp_path / "bin"
    bindir.mkdir()
    # named after a preset so it gets proof arguments: picosat -R PROOF CNF
    unsat = _stub(bindir, "picosat", 'echo "0" > "$2"; echo s UNSATISFIABLE')
    p = HoleProblem(n=6, mode="two-disjoint-holes", sizes=(3, 3))

    rep = solve_instance(build_instance(p), discover_solver(unsat), want_proof=True)
    assert rep.verdict == "UNSAT" and rep.certificate_path is None

    proof = tmp_path / "kept.drat"
    code = cli_main([
        "solve", "--n", "6", "--mode", "two-disjoint-holes", "--sizes", "3,3",
        "--solver", unsat, "--proof", str(proof),
    ])
    assert code == 0 and proof.read_text() == "0\n"
    assert not list(tmp.glob("holesat-*"))

    # a directory the user names is kept
    keep = tmp_path / "keep"
    cli_main([
        "solve", "--n", "6", "--mode", "two-disjoint-holes", "--sizes", "3,3",
        "--solver", unsat, "--workdir", str(keep),
    ])
    assert (keep / f"{p.key()}.cnf").is_file()


def test_corrupt_model_fails_verification(tmp_path):
    sat = SolverConfig(
        path=_stub(tmp_path, "partial", "echo s SATISFIABLE; echo v 1 0"), name="partial"
    )
    p = HoleProblem(n=6, mode="forbid-hole", sizes=(5,))
    rep = solve_instance(build_instance(p), sat, workdir=tmp_path)
    assert rep.verdict == "SAT" and rep.verification == "failed"
    assert "does not cover orientation variable" in rep.detail


def test_undecodable_model_is_infrastructure_error(tmp_path, capsys):
    partial = _stub(tmp_path, "partial", "echo s SATISFIABLE; echo v 1 0")
    code = cli_main([
        "solve", "--n", "6", "--mode", "forbid-hole", "--k", "5", "--solver", partial,
    ])
    assert code == 2
    out = capsys.readouterr()
    assert "verification: failed" in out.out and "model decoding failed" in out.err


def test_run_batch_keeps_reports_when_one_solve_raises(tmp_path):
    # the stub deletes itself, so the second launch fails
    once = SolverConfig(
        path=_stub(tmp_path, "once", 'rm -f -- "$0"; echo s UNSATISFIABLE'), name="once"
    )
    problems = [
        HoleProblem(n=5, mode="forbid-hole", sizes=(4,)),
        HoleProblem(n=6, mode="forbid-gon", sizes=(4,)),
    ]
    reports = run_batch(problems, solver=once, workers=1, workdir=tmp_path)
    first, second = (reports[p.key()] for p in problems)
    assert first.verdict == "UNSAT"
    assert second.verdict == "UNKNOWN" and "failed to launch" in second.detail
    assert second.instance == problems[1].key()


def test_output_that_is_not_utf8_keeps_the_verdict(tmp_path, capsys):
    # a comment line of bytes that do not decode must not lose the answer
    junk = _stub(tmp_path, "junk", "printf 'c \\377\\376 junk\\n'; echo s UNSATISFIABLE; exit 20")
    code = cli_main([
        "solve", "--n", "5", "--mode", "forbid-hole", "--k", "4", "--solver", junk,
        "--workdir", str(tmp_path / "w"),
    ])
    assert code == 0 and "verdict: UNSAT" in capsys.readouterr().out
    problems = [
        HoleProblem(n=5, mode="forbid-hole", sizes=(4,)),
        HoleProblem(n=6, mode="forbid-gon", sizes=(4,)),
    ]
    reports = run_batch(
        problems, solver=SolverConfig(path=junk, name="junk"), workers=1, workdir=tmp_path,
    )
    assert [reports[p.key()].verdict for p in problems] == ["UNSAT", "UNSAT"]


def test_run_batch_marks_a_raised_solve_not_run(tmp_path):
    # a workdir that is a regular file raises inside the solve, before any launch
    unsat = SolverConfig(
        path=_stub(tmp_path, "unsat", 'echo 0 > "$1"; echo s UNSATISFIABLE'),
        name="unsat", proof_args=("{proof}",),
    )
    workdir = tmp_path / "w"
    workdir.write_text("")
    p = HoleProblem(n=5, mode="forbid-hole", sizes=(4,))
    [report] = run_batch([p], solver=unsat, workdir=workdir, want_proof=True).values()
    assert str(workdir) in report.detail
    assert (report.verdict, report.verification) == ("UNKNOWN", "not-run")
    assert "verification: not-run" in report.to_text()


# --- decoding and model verification --------------------------------------

def _canonical(seed: int, n: int):
    s = canonicalize(random_point_set(n, random.Random(seed)))
    return s, chirotope(s)


@pytest.mark.parametrize("orient", ["compact", "explicit"])
def test_decode_model_roundtrips_chirotope(orient):
    p = HoleProblem(n=7, mode="forbid-hole", sizes=(5,), orient_vars=orient)
    _, sig = _canonical(11, 7)
    inst = build_instance(p)
    assignment = assignment_from_chirotope(sig, p)
    assert decode_model(assignment, inst.registry) == sig


def test_decode_model_rejects_inconsistent_permutations():
    p = HoleProblem(n=7, mode="forbid-hole", sizes=(5,), orient_vars="explicit")
    _, sig = _canonical(11, 7)
    inst = build_instance(p)
    assignment = assignment_from_chirotope(sig, p)
    flipped = inst.registry.var("O", 2, 1, 4)  # one of the six for (1, 2, 4)
    assignment[flipped] = not assignment[flipped]
    with pytest.raises(
        ValueError, match=r"inconsistent orientation variables for triple \(1, 2, 4\)"
    ):
        decode_model(assignment, inst.registry)


MODES_PRESENT = {
    # problem, and whether a coordinate set holds its forbidden structure
    "forbid-hole": (HoleProblem(n=6, mode="forbid-hole", sizes=(6,)),
                    lambda s: enumerate_holes(s, 6)),
    "two-disjoint-holes": (HoleProblem(n=8, mode="two-disjoint-holes", sizes=(4, 4)),
                           lambda s: find_disjoint_tuple(s, (4, 4))),
    "two-interior-disjoint-holes": (
        HoleProblem(n=6, mode="two-interior-disjoint-holes", sizes=(4, 4)),
        lambda s: find_disjoint_tuple(s, (4, 4), "interior-disjoint"),
    ),
}


def _verify_case(mode: str, passes: bool):
    """(problem, decoded signotope) that verify_model should pass or reject."""
    if mode == "forbid-gon":
        # a triangle with a point inside has no 4-gon; a convex quadrilateral is one
        coords = [(0, 0), (2, 1), (3, 4), (4, 0)] if passes else [(0, 0), (1, 3), (3, 4), (4, 0)]
        return HoleProblem(n=4, mode=mode, sizes=(4,)), chirotope(canonicalize(PointSet(coords)))
    if mode == "count-holes":
        # the threshold one above the 4-hole count, or equal to it
        s, sig = _canonical(5, 7)
        count = len(enumerate_holes(s, 4))
        return HoleProblem(n=7, mode=mode, sizes=(4,), threshold=count + passes), sig
    problem, present = MODES_PRESENT[mode]
    for seed in range(100):
        s, sig = _canonical(seed, problem.n)
        if bool(present(s)) != passes:
            return problem, sig
    pytest.fail(f"no {problem.n}-point set {'without' if passes else 'with'} the structure")


@pytest.mark.parametrize("mode", MODES)
def test_verify_model_accepts_structure_free_set(mode):
    problem, sig = _verify_case(mode, True)
    result = verify_model(sig, problem)
    assert result.passed, result.description


@pytest.mark.parametrize("mode, described", [
    ("forbid-hole", "6-hole present"),
    ("forbid-gon", "4-gon present"),
    ("count-holes", "4-holes >= threshold"),
    ("two-disjoint-holes", "disjoint holes of sizes (4, 4) present"),
    ("two-interior-disjoint-holes", "interior-disjoint holes of sizes (4, 4) present"),
    ("not-a-signotope", "signotope axioms violated"),
    ("unsorted", "not sorted around first point"),
])
def test_verify_model_rejects_forbidden_structure(mode, described):
    if mode == "not-a-signotope":
        # chi_012, chi_013, chi_023, chi_123 change sign twice
        signs = {(0, 1, 2): 1, (0, 1, 3): -1, (0, 2, 3): 1, (1, 2, 3): 1}
        problem, sig = HoleProblem(n=4, mode="forbid-gon", sizes=(4,)), Signotope(4, signs)
    elif mode == "unsorted":
        # x-sorted, but points 1 and 2 turn clockwise around point 0
        s = PointSet([(0, 0), (1, 3), (2, 1), (4, 0)])
        problem, sig = HoleProblem(n=4, mode="forbid-gon", sizes=(4,)), chirotope(s)
    else:
        problem, sig = _verify_case(mode, False)
    result = verify_model(sig, problem)
    assert not result.passed
    assert described in result.description
    assert (result.counterexample is None) == (mode == "unsorted")


@pytest.mark.parametrize("mode, k, threshold", [
    ("forbid-hole", 5, 0), ("forbid-gon", 5, 0), ("count-holes", 4, 12),
])
def test_verify_model_counterexample_is_a_real_structure(mode, k, threshold):
    # the coordinate predicates, one k-subset at a time, are the oracle
    real = oracle_is_gon if mode == "forbid-gon" else oracle_is_hole
    rejected = 0
    for seed in range(40):
        s, sig = _canonical(seed, 7 + seed % 3)
        found = [x for x in itertools.combinations(range(s.n), k) if real(s, x)]
        problem = HoleProblem(n=s.n, mode=mode, sizes=(k,), threshold=threshold)
        result = verify_model(sig, problem)
        assert result.passed == (len(found) < (threshold or 1)), seed
        if not result.passed:
            rejected += 1
            if threshold:
                assert result.counterexample == (len(enumerate_holes(s, k)),) == (len(found),)
            else:
                assert len(result.counterexample) == k and real(s, result.counterexample)
    assert 10 <= rejected < 40  # both verdicts occur


def test_verify_model_rejects_wrong_size():
    p = HoleProblem(n=8, mode="forbid-hole", sizes=(5,))
    _, sig = _canonical(5, 7)
    assert not verify_model(sig, p).passed


def test_report_serialization(tmp_path):
    cnf = _tiny_cnf(tmp_path)
    sat = SolverConfig(
        path=_stub(tmp_path, "sat2", "echo s SATISFIABLE; echo v 1 0"), name="sat2"
    )
    rep = run_solver(cnf, sat, timeout=5)
    text = rep.to_text()
    assert "verdict: SAT" in text and "sat2" in text
    out = tmp_path / "report.json"
    rep.write_summary(out)
    data = json.loads(out.read_text())
    assert data["verdict"] == "SAT" and data["solver"] == "sat2"


JUDGED = list(itertools.product(
    ("SAT", "UNSAT", "UNKNOWN"),
    ("passed", "failed", "skipped", "not-run"),
    ("undecodable", "plain"),
    (None, "SAT", "UNSAT"),
))


@pytest.mark.parametrize(
    "verdict, verification, detail, expect", JUDGED,
    ids=["-".join([v, ver, d, f"expect={e}"]) for v, ver, d, e in JUDGED],
)
def test_judge_every_report(verdict, verification, detail, expect):
    # no verdict or an undecodable model is malformed output, whatever was expected
    text = f"{MODEL_DECODING_FAILED}: x" if detail == "undecodable" else "timeout after 600s"
    report = SolveReport(verdict=verdict, verification=verification, detail=text)
    if verdict == "UNKNOWN" or detail == "undecodable":
        want = ERROR
    elif verification != "failed" and expect in (None, verdict):
        want = PASS
    else:
        want = FAIL
    assert report.judge(expect) == want
    if expect is None:
        assert report.judge() == want


# --- real solvers ---------------------------------------------------------

@requires_solver
@pytest.mark.solver
def test_solve_instance_sat_end_to_end(tmp_path):
    p = HoleProblem(n=5, mode="two-disjoint-holes", sizes=(3, 3))
    rep = solve_instance(build_instance(p), workdir=tmp_path)
    assert rep.verdict == "SAT"
    assert rep.verification == "passed"


@requires_solver
@pytest.mark.solver
def test_solve_instance_unsat_with_certificate(tmp_path):
    p = HoleProblem(n=6, mode="two-disjoint-holes", sizes=(3, 3))
    checker = discover_checker() if HAVE_CHECKER else None
    rep = solve_instance(
        build_instance(p), checker=checker, workdir=tmp_path, want_proof=True
    )
    assert rep.verdict == "UNSAT"
    assert rep.verification == ("passed" if HAVE_CHECKER else "skipped")
    assert rep.certificate_path and os.path.exists(rep.certificate_path)


@requires_solver
@pytest.mark.solver
def test_explicit_orientation_model_decodes(tmp_path):
    p = HoleProblem(n=7, mode="forbid-hole", sizes=(5,), orient_vars="explicit")
    rep = solve_instance(build_instance(p), workdir=tmp_path)
    assert rep.verdict == "SAT" and rep.verification == "passed"


@requires_solver
@pytest.mark.solver
def test_run_batch_merges_reports(tmp_path):
    problems = [
        HoleProblem(n=5, mode="forbid-hole", sizes=(4,)),
        HoleProblem(n=6, mode="forbid-gon", sizes=(4,)),
    ]
    reports = run_batch(problems, workdir=tmp_path, workers=2)
    assert set(reports) == {p.key() for p in problems}
    assert all(r.verdict in ("SAT", "UNSAT") for r in reports.values())


@requires_solver
@requires_checker
@pytest.mark.solver
def test_both_solver_families_agree(tmp_path):
    # every configured preset found on PATH must agree on a small pair
    available = [
        name for name in KNOWN_SOLVERS
        if __import__("shutil").which(name) is not None
    ]
    if len(available) < 2:
        pytest.skip("fewer than two solvers installed")
    sat_p = build_instance(HoleProblem(n=9, mode="forbid-hole", sizes=(5,)))
    unsat_p = build_instance(HoleProblem(n=10, mode="forbid-hole", sizes=(5,)))
    for name in available:
        cfg = discover_solver(name)
        rep_sat = solve_instance(sat_p, cfg, workdir=tmp_path / name)
        rep_unsat = solve_instance(
            unsat_p, cfg, checker=discover_checker(), workdir=tmp_path / name, want_proof=True
        )
        assert rep_sat.verdict == "SAT" and rep_sat.verification == "passed"
        assert rep_unsat.verdict == "UNSAT"
        assert rep_unsat.verification == "passed"
