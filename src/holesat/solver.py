"""Subprocess harness: run SAT solvers and proof checkers, verify models.

Solvers are pluggable through :class:`SolverConfig` (binary path and
argument templates with ``{cnf}``/``{proof}`` placeholders). Every solver
is read as printing ``s SATISFIABLE`` / ``v ...`` lines; the parser is
lenient about decorations such as ``s SATISFIABLE: file.cnf``, and a
certificate's leading ``%`` comment line is stripped before checking.

Configuration precedence for solver/checker/timeout/workers: explicit
argument, then environment (``HOLESAT_SOLVER``, ``HOLESAT_CHECKER``,
``HOLESAT_TIMEOUT``, ``HOLESAT_WORKERS``), then a JSON config file
(``HOLESAT_CONFIG`` or ``./holesat.json``), then a PATH scan over known
solvers. Values may name a known tool ("varisat", "splr", "rate",
"drat-trim"), give a binary path, or, in the config file, give a mapping
of the config's fields (``path`` required).

SAT models are decoded to a :class:`~holesat.geometry.Signotope` and
verified semantically against the problem by the orientation-only
predicates of :mod:`holesat.abstract` — no clause information is reused.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Mapping, Sequence

from . import abstract
from .encoder import DISJOINT_FLAVOR, SIZE_KIND, CnfInstance, HoleProblem, VarRegistry
from .encoder import build_instance
from .geometry import Signotope, check_signotope

DEFAULT_TIMEOUT = 600.0
DEFAULT_WORKERS = 4
# detail prefix of a SAT report whose model does not decode (malformed output)
MODEL_DECODING_FAILED = "model decoding failed"
# the judgements of a report, by severity; the exit codes of the command line
PASS, FAIL, ERROR = 0, 1, 2

Verdict = Literal["SAT", "UNSAT", "UNKNOWN"]


class SolverError(RuntimeError):
    """Infrastructure failure: missing binary, bad config, unusable output."""


class ToolNotFound(SolverError):
    """No tool of a kind is named anywhere, and none is on PATH."""


@dataclass(frozen=True)
class SolverConfig:
    path: str
    args: tuple[str, ...] = ("{cnf}",)
    proof_args: tuple[str, ...] = ()
    name: str = ""

    def identity(self) -> str:
        return self.name or os.path.basename(self.path)

    def require_proof(self) -> None:
        """Raise unless this solver can be asked for a certificate."""
        if not self.proof_args:
            raise SolverError(f"solver {self.identity()} has no proof argument template")

    def argv(self, cnf: str, proof: str | None = None) -> list[str]:
        parts = [self.path]
        if proof is not None:
            self.require_proof()
            parts += [a.format(cnf=cnf, proof=proof) for a in self.proof_args]
        parts += [a.format(cnf=cnf, proof=proof or "") for a in self.args]
        return parts


@dataclass(frozen=True)
class CheckerConfig:
    path: str
    args: tuple[str, ...] = ("{cnf}", "{proof}")
    name: str = ""

    def identity(self) -> str:
        return self.name or os.path.basename(self.path)

    def argv(self, cnf: str, proof: str) -> list[str]:
        return [self.path] + [a.format(cnf=cnf, proof=proof) for a in self.args]


KNOWN_SOLVERS: dict[str, dict] = {
    "varisat": dict(
        args=("{cnf}",),
        proof_args=("--proof", "{proof}", "--proof-format", "drat"),
    ),
    "splr": dict(
        args=("-q", "-C", "-r", "-", "{cnf}"),
        proof_args=("-c", "-p", "{proof}"),
    ),
    "picosat": dict(
        args=("{cnf}",),
        proof_args=("-R", "{proof}"),
    ),
}

KNOWN_CHECKERS: dict[str, dict] = {
    # operational deletion semantics for drat-trim compatibility: solvers
    # routinely emit unit deletions that strict checking rejects
    "rate": dict(args=("--skip-unit-deletions", "{cnf}", "{proof}")),
    "drat-trim": dict(args=("{cnf}", "{proof}")),
    "gratgen": dict(args=("{cnf}", "{proof}")),
}


def load_config() -> dict:
    """JSON config object, or {} when no config file exists."""
    p = Path(os.environ.get("HOLESAT_CONFIG") or "holesat.json")
    if not p.is_file():
        return {}
    try:
        with open(p) as f:
            config = json.load(f)
    except json.JSONDecodeError as exc:
        raise SolverError(f"config file {p} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise SolverError(f"config file {p} must hold a JSON object")
    return config


def _resolve_tool(spec, known: dict[str, dict], cls, kind: str):
    """A config object from a name, a path, or a mapping."""
    if isinstance(spec, cls):
        return spec
    if isinstance(spec, Mapping):
        known_keys = [f.name for f in dataclasses.fields(cls)]
        unknown = [key for key in spec if key not in known_keys]
        if unknown or "path" not in spec:
            problem = f"unknown key {unknown[0]!r}" if unknown else "no 'path' key"
            raise SolverError(
                f"{kind} entry has {problem}; expected {', '.join(known_keys)}"
            )
        for key, value in spec.items():
            many = key.endswith("args")  # args and proof_args
            if many:
                ok = isinstance(value, (list, tuple)) and all(
                    isinstance(a, str) for a in value
                )
                want = "a list of strings"
            else:
                ok = isinstance(value, str) and (value or key != "path")
                want = "a non-empty string" if key == "path" else "a string"
            if not ok:
                raise SolverError(f"{kind} entry {key!r} must be {want}, got {value!r}")
        return cls(**{k: tuple(v) if k.endswith("args") else v for k, v in spec.items()})
    if not isinstance(spec, str) or not spec:
        raise SolverError(f"cannot interpret {kind} spec {spec!r}")
    base = os.path.basename(spec)
    path = spec if os.path.sep in spec else shutil.which(spec)
    if path is None:
        raise SolverError(f"{kind} binary {spec!r} not found on PATH")
    if not os.path.isfile(path):
        raise SolverError(f"{kind} binary {path!r} does not exist")
    preset = known.get(base, {})
    return cls(path=path, name=base, **preset)


def _discover(spec, kind: str, known: dict[str, dict], cls, what: str):
    """A tool from explicit spec, environment, config file, or PATH scan."""
    env = f"HOLESAT_{kind.upper()}"
    if spec is None:
        spec = os.environ.get(env) or None
    if spec is None:
        spec = load_config().get(kind)
    if spec is not None:
        return _resolve_tool(spec, known, cls, kind)
    for name in known:
        path = shutil.which(name)
        if path:
            return cls(path=path, name=name, **known[name])
    raise ToolNotFound(
        f"no {what} found: set {env}, add a '{kind}' entry to holesat.json, "
        "or install one of " + ", ".join(known)
    )


def discover_solver(spec=None) -> SolverConfig:
    """Solver from explicit spec, environment, config file, or PATH scan."""
    return _discover(spec, "solver", KNOWN_SOLVERS, SolverConfig, "SAT solver")


def discover_checker(spec=None) -> CheckerConfig:
    """Proof checker from explicit spec, environment, config, or PATH."""
    return _discover(spec, "checker", KNOWN_CHECKERS, CheckerConfig, "proof checker")


def resolve_tools(solver=None, checker=None, want_proof=False, checked=False):
    """(solver, checker or None) for a solve: the one rule for which tools prove it.

    A solver config comes resolved with its checker (None: none). A proof needs the
    solver's proof template and a checker: a named one, or any one when ``checked``,
    must resolve; else one :func:`discover_checker` finds, or None (UNSAT ``skipped``).
    """
    find = checker is not None or checked or not isinstance(solver, SolverConfig)
    solver = discover_solver(solver)
    if want_proof:
        solver.require_proof()
        try:
            return solver, discover_checker(checker) if find else None
        except ToolNotFound:
            if checked:
                raise
    return solver, None


def _setting(key: str, default, cast):
    """``HOLESAT_<KEY>``, else the config number (null means unset), else ``default``."""
    var = f"HOLESAT_{key.upper()}"
    env = os.environ.get(var)
    if env:
        try:
            return cast(env)
        except ValueError:
            raise SolverError(f"cannot read {var}={env!r} as {cast.__name__}") from None
    value = load_config().get(key)
    if value is None:
        value = default
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SolverError(f"config {key!r} must be a number, got {value!r}")
    return cast(value)


def default_timeout() -> float:
    return _setting("timeout", DEFAULT_TIMEOUT, float)


def resolve_timeout(timeout: float | None = None) -> float:
    """``timeout``, else :func:`default_timeout`; a finite number of seconds > 0."""
    limit = default_timeout() if timeout is None else timeout
    if not 0 < limit < math.inf:  # also rejects NaN
        raise SolverError(f"timeout must be a finite number of seconds > 0, got {limit!r}")
    return limit


def default_workers() -> int:
    return _setting("workers", DEFAULT_WORKERS, int)


def resolve_workers(workers: int | None = None) -> int:
    """``workers``, else :func:`default_workers`; at least 1."""
    count = default_workers() if workers is None else workers
    if count < 1:
        raise SolverError(f"workers must be at least 1, got {count!r}")
    return count


@dataclass
class SolveReport:
    verdict: Verdict
    model: dict[int, bool] | None = None
    certificate_path: str | None = None
    wall_time: float = 0.0
    solver: str = ""
    verification: Literal["passed", "failed", "skipped", "not-run"] = "skipped"
    detail: str = ""
    instance: str = ""

    def to_text(self) -> str:
        lines = [
            f"instance: {self.instance}" if self.instance else None,
            f"verdict: {self.verdict}",
            f"solver: {self.solver}",
            f"wall-time: {self.wall_time:.3f}",
            f"verification: {self.verification}",
            f"certificate: {self.certificate_path}"
            if self.certificate_path
            else None,
            f"detail: {self.detail}" if self.detail else None,
        ]
        return "\n".join(l for l in lines if l is not None) + "\n"

    def judge(self, expect: str | None = None) -> int:
        """ERROR with no verdict or a model that does not decode (malformed output),
        else PASS if verification did not fail and the verdict is ``expect`` (any,
        if None), else FAIL."""
        if self.verdict == "UNKNOWN" or self.detail.startswith(MODEL_DECODING_FAILED):
            return ERROR
        ok = self.verification != "failed" and expect in (None, self.verdict)
        return PASS if ok else FAIL

    def write_summary(self, path) -> None:
        data = {
            "instance": self.instance,
            "verdict": self.verdict,
            "solver": self.solver,
            "wall_time": self.wall_time,
            "verification": self.verification,
            "certificate_path": self.certificate_path,
            "model_size": len(self.model) if self.model else 0,
            "detail": self.detail,
        }
        with open(path, "w") as f:
            json.dump(data, f, indent=2)
            f.write("\n")


def parse_solver_output(text: str):
    """(verdict or None, model literals) from solver stdout.

    Tolerates trailing decorations on the status line (splr appends the
    file name) and models split across multiple ``v`` lines.
    """
    verdict: Verdict | None = None
    lits: list[int] = []
    for line in text.splitlines():
        if line.startswith("s ") or line == "s":
            tokens = line.split()
            if len(tokens) < 2:
                continue
            word = tokens[1].rstrip(":").upper()
            if word == "SATISFIABLE":
                verdict = "SAT"
            elif word == "UNSATISFIABLE":
                verdict = "UNSAT"
            elif word in ("UNKNOWN", "INDETERMINATE"):
                verdict = "UNKNOWN"
        elif line.startswith("v ") or line == "v":
            for tok in line.split()[1:]:
                try:
                    lit = int(tok)
                except ValueError:
                    continue
                if lit != 0:
                    lits.append(lit)
    return verdict, lits


def _run(argv: list[str], timeout: float | None):
    """(finished process or None on timeout, time limit, seconds) of one child.

    Every solver and checker process starts here, its time limit from
    :func:`resolve_timeout`.
    """
    limit = resolve_timeout(timeout)
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, errors="replace", timeout=limit)
    except subprocess.TimeoutExpired:
        proc = None
    except OSError as exc:
        raise SolverError(f"failed to launch {argv[0]}: {exc}") from exc
    return proc, limit, time.monotonic() - start


def _tail(proc) -> str:
    """The last three lines a child printed, stdout then stderr."""
    return " | ".join((proc.stdout + proc.stderr).strip().splitlines()[-3:])


def run_solver(
    cnf_path,
    config: SolverConfig,
    timeout: float | None = None,
    proof_path=None,
) -> SolveReport:
    """One solver child process over an on-disk DIMACS file.

    Timeouts yield verdict UNKNOWN with a ``timeout`` detail; crashes and
    unparsable output are likewise UNKNOWN but carry distinct details. A
    SAT model that gives a variable both signs is malformed: no model, and
    a failed verification.
    """
    argv = config.argv(str(cnf_path), str(proof_path) if proof_path else None)
    proc, limit, wall = _run(argv, timeout)
    report = SolveReport(verdict="UNKNOWN", wall_time=wall, solver=config.identity())
    if proc is None:
        report.detail = f"timeout after {limit:.0f}s"
        return report
    verdict, lits = parse_solver_output(proc.stdout)
    if verdict is None:
        kind = (
            "unparsable solver output"
            if proc.returncode in (0, 10, 20)
            else f"solver crash (exit {proc.returncode})"
        )
        report.detail = f"{kind}: {_tail(proc)}"
        return report
    report.verdict = verdict
    if verdict == "SAT":
        report.model = model = {abs(l): l > 0 for l in lits}
        if both := sorted({abs(l) for l in lits if model[abs(l)] != (l > 0)}):
            report.model, report.verification = None, "failed"
            report.detail = f"{MODEL_DECODING_FAILED}: variables given both signs: {both[:5]}"
    if proof_path and verdict == "UNSAT":
        report.certificate_path = str(proof_path)
    return report


def normalize_certificate(path) -> str:
    """Certificate usable by a DRAT checker; strips a leading % comment.

    Some solvers prepend a comment line (e.g. ``%RUPD32 ...``) that
    checkers reject; the cleaned copy is written next to the original.
    """
    p = Path(path)
    cleaned = p.with_suffix(p.suffix + ".clean")
    with open(p, "rb") as f:
        if f.read(1) != b"%":
            return str(p)
        f.readline()
        with open(cleaned, "wb") as out:
            shutil.copyfileobj(f, out)
    return str(cleaned)


def run_proof_check(
    cnf_path,
    certificate_path,
    checker: CheckerConfig,
    timeout: float | None = None,
) -> tuple[bool, str]:
    """(passed, detail) from the configured proof checker.

    Passes only on exit code 0 together with an ``s VERIFIED`` line.
    """
    argv = checker.argv(str(cnf_path), normalize_certificate(certificate_path))
    proc, limit, _ = _run(argv, timeout)
    if proc is None:
        return False, f"checker timeout after {limit:.0f}s"
    # success must be stated, not inferred from silence: drat-trim, rate
    # and gratgen all print this line when the proof checks
    out = proc.stdout + proc.stderr
    if proc.returncode == 0 and any(line.strip() == "s VERIFIED" for line in out.splitlines()):
        return True, ""
    return False, f"checker {checker.identity()} exit {proc.returncode}: {_tail(proc)}"


def decode_model(model: Mapping[int, bool], registry: VarRegistry) -> Signotope:
    """Signotope on ``registry.problem.n`` points from the orientation variables,
    ``registry.ids["O"]``, of a satisfying assignment.

    With explicit per-permutation variables, all six values of a triple
    must be consistent (the alternating clauses guarantee it; a mismatch
    means the model or registry is corrupt).
    """
    signs: dict[tuple[int, int, int], int] = {}
    for (a, b, c), ident in registry.ids["O"].items():
        if ident not in model:
            raise ValueError(f"model does not cover orientation variable {('O', a, b, c)}")
        key = tuple(sorted((a, b, c)))
        sign = 1 if model[ident] else -1
        # an odd permutation of the sorted triple (odd inversion count) flips it
        resolved = -sign if ((a > b) + (a > c) + (b > c)) % 2 else sign
        if key in signs and signs[key] != resolved:
            raise ValueError(f"inconsistent orientation variables for triple {key}")
        signs[key] = resolved
    return Signotope(n=registry.problem.n, signs=signs)


@dataclass
class VerifyResult:
    passed: bool
    counterexample: tuple | None = None
    description: str = ""


def verify_model(sig: Signotope, problem: HoleProblem) -> VerifyResult:
    """Semantic check of a decoded model against the problem.

    Recomputes the forbidden structure from triple orientations alone
    (axioms, then holes via triple emptiness, disjointness via separating
    pairs); returns the violating tuple on failure.
    """
    bad = check_signotope(sig)
    if bad:
        return VerifyResult(False, tuple(bad[:3]), "signotope axioms violated")
    if sig.n != problem.n:
        return VerifyResult(
            False, (sig.n, problem.n), "signotope size mismatch"
        )
    if sig.unsorted_triple() is not None:
        return VerifyResult(False, None, "not sorted around first point")
    if problem.mode in DISJOINT_FLAVOR:
        mode = DISJOINT_FLAVOR[problem.mode]
        found = abstract.find_disjoint_tuple(sig, problem.sizes, mode)
        if found is not None:
            return VerifyResult(
                False,
                tuple(found),
                f"{mode} holes of sizes {problem.sizes} present",
            )
        return VerifyResult(True)
    k, kind, threshold = problem.sizes[0], SIZE_KIND[problem.mode], problem.threshold
    found = abstract.enumerate_from_table(sig, k, kind)
    if len(found) < (threshold or 1):
        return VerifyResult(True)
    if threshold:
        return VerifyResult(
            False, (len(found),), f"{len(found)} {k}-{kind}s >= threshold {threshold}"
        )
    return VerifyResult(False, found[0], f"{k}-{kind} present")


def solve_instance(
    instance: CnfInstance,
    solver: SolverConfig | None = None,
    checker: CheckerConfig | None = None,
    timeout: float | None = None,
    workdir=None,
    want_proof: bool = False,
) -> SolveReport:
    """Write, solve, and verify one instance end to end.

    SAT models are decoded and checked semantically (verification field
    ``passed``/``failed``; a model that does not decode fails). The tools come
    from :func:`resolve_tools`, which looks nothing up for a solver config. Without
    ``workdir`` the files go to a temporary directory that is removed
    before returning, and the report names no certificate.
    """
    if workdir is None:
        # files live only as long as the call; the certificate goes with them
        with tempfile.TemporaryDirectory(prefix="holesat-") as own:
            report = solve_instance(instance, solver, checker, timeout, own, want_proof)
        report.certificate_path = None
        return report
    solver, checker = resolve_tools(solver, checker, want_proof)
    base = Path(workdir)
    base.mkdir(parents=True, exist_ok=True)
    key = instance.problem.key()
    cnf = base / f"{key}.cnf"
    instance.write_dimacs(cnf)
    instance.write_registry(base / f"{key}.reg")
    proof = base / f"{key}.drat" if want_proof else None
    report = run_solver(cnf, solver, timeout=timeout, proof_path=proof)
    report.instance = key
    if report.verdict == "SAT" and report.model is not None:
        try:
            sig = decode_model(report.model, instance.registry)
        except ValueError as exc:
            report.verification = "failed"
            report.detail = f"{MODEL_DECODING_FAILED}: {exc}"
            return report
        result = verify_model(sig, instance.problem)
        report.verification = "passed" if result.passed else "failed"
        if not result.passed:
            report.detail = (
                f"model verification failed: {result.description}"
                f" {result.counterexample}"
            )
    elif report.verdict == "UNSAT" and checker is not None:
        ok, detail = run_proof_check(cnf, proof, checker, timeout=timeout)
        report.verification = "passed" if ok else "failed"
        if not ok:
            report.detail = detail
    return report


def run_batch(
    problems: Sequence[HoleProblem],
    solver: SolverConfig | str | None = None,
    checker: CheckerConfig | str | None = None,
    timeout: float | None = None,
    workers: int | None = None,
    workdir=None,
    want_proof: bool = False,
) -> dict[str, SolveReport]:
    """Concurrent solves, merged by problem key, with the tools, timeout and worker
    count resolved once before any instance is built; a solve that raises gives
    its key alone an UNKNOWN, ``not-run`` report that carries the error."""
    from concurrent.futures import ThreadPoolExecutor  # loaded only when a batch runs
    solver, checker = resolve_tools(solver, checker, want_proof)
    timeout, workers = resolve_timeout(timeout), resolve_workers(workers)
    instances = [build_instance(p) for p in problems]
    reports: dict[str, SolveReport] = {}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {
            instance.problem.key(): pool.submit(
                solve_instance, instance, solver, checker, timeout, workdir, want_proof
            )
            for instance in instances
        }
        for key, fut in futures.items():
            try:
                reports[key] = fut.result()
            except (SolverError, OSError) as exc:
                reports[key] = SolveReport(
                    verdict="UNKNOWN", solver=solver.identity(), verification="not-run",
                    detail=str(exc), instance=key,
                )
    return reports
