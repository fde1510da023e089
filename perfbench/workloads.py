"""The benchmark's workloads and the loop that times them.

Each workload has ``setup()`` (off the clock, repeated so its median can
be reported), ``unit(tracer)`` (one timed unit of work, opening a root
"op" span around the timed part only, so output checks stay outside it)
and ``finish()`` (checks made once per run). All calls into holesat go
through module attributes, so the wrappers of :mod:`tracing` see them.

* :class:`SatReplay` runs ``holesat solve`` in-process on the SAT steps of
  the paper's two headline recipes, with a replay standing in for the SAT
  solver.
* :class:`Anneal` runs the witness annealer where no witness exists, so
  every restart spends its whole budget.

The workload seed changes no input; see each class for why.
"""

from __future__ import annotations

import hashlib
import io
import shlex
import shutil
import stat
import statistics
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from holesat import cli, encoder, geometry, holes, search
from holesat.constructions import witness
from holesat.encoder import HoleProblem
from holesat.geometry import PointSet

REPLAY = Path(__file__).resolve().with_name("replay.py")


@dataclass
class Unit:
    """One timed unit of work and the outcome of its checks."""

    ops: float  # operations performed (passes or proposals)
    seconds: float  # time those operations took
    latencies: list[float]  # per-operation latency samples, in seconds
    checked: int  # checked operations
    failed: int  # checked operations whose outputs were wrong


@dataclass
class Measurement:
    setup_seconds: list[float]
    units: list[Unit]
    checked: int
    failed: int
    record: dict

    @property
    def ops(self) -> float:
        return sum(u.ops for u in self.units)

    @property
    def seconds(self) -> float:
        return sum(u.seconds for u in self.units)

    @property
    def latencies(self) -> list[float]:
        return [x for u in self.units for x in u.latencies]


def measure(workload, units: int, setups: int, tracer) -> Measurement:
    """Set up ``setups`` times, then run ``units`` timed units of work."""
    setup_seconds = []
    for _ in range(setups):
        with tracer.root("setup") as root:
            root.weight = 1
            t0 = perf_counter()
            workload.setup()
            setup_seconds.append(perf_counter() - t0)
    done = [workload.unit(tracer) for _ in range(units)]
    checked, failed, record = workload.finish()
    return Measurement(
        setup_seconds,
        done,
        checked + sum(u.checked for u in done),
        failed + sum(u.failed for u in done),
        record,
    )


def units_for(workload, seconds: float) -> int:
    """Units of work that take about ``seconds`` at the workload's nominal pace.

    The count depends on ``seconds`` alone, so two commits measured with the
    same ``seconds`` do the same work. A workload's units repeat identical
    work, so the median over units shrugs off a unit the machine slowed.
    """
    return max(1, round(seconds / workload.UNIT_SECONDS))


def tail(samples: list[float]) -> tuple[int, float]:
    """(p, value): the highest whole percentile with ten samples beyond it.

    Nearest-rank percentile. Below eleven samples no percentile has ten
    beyond it, and the median stands in: the maximum of a few samples on a
    shared machine measures the machine.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return 50, statistics.median(xs)
    p = (100 * (n - 10)) // n
    rank = -(-p * n // 100)  # ceil(p/100 * n)
    return p, xs[rank - 1]


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# -- sat-replay ---------------------------------------------------------------


@dataclass(frozen=True)
class SatInstance:
    """A SAT step of a recipe, with the bundled witness that satisfies it."""

    label: str
    witness: str
    n: int
    mode: str
    hints: bool = False

    @property
    def problem(self) -> HoleProblem:
        return HoleProblem(n=self.n, mode=self.mode, sizes=(5, 5), hints=self.hints)

    @property
    def flags(self) -> list[str]:
        flags = ["--n", str(self.n), "--mode", self.mode, "--sizes", "5,5"]
        return flags + ["--hints"] if self.hints else flags

    @property
    def flavor(self) -> str:
        return "disjoint" if self.mode == "two-disjoint-holes" else "interior-disjoint"

    def points(self) -> PointSet:
        s = witness(self.witness)
        return s if len(s) == self.n else PointSet(s.points[: self.n])


HEADLINE = (
    SatInstance("h55-full", "fig2-n16", 16, "two-disjoint-holes", hints=True),
    SatInstance("interior-55", "fig6-n14", 14, "two-interior-disjoint-holes"),
)
# Any 9 points lack two disjoint 5-holes, so a prefix of a witness will do.
SMALL = (SatInstance("small-55", "fig2-n16", 9, "two-disjoint-holes"),)


def model_text(model: dict[int, bool]) -> str:
    lits = " ".join(str(v if model[v] else -v) for v in sorted(model))
    return f"s SATISFIABLE\nv {lits} 0\n"


@contextmanager
def _capturing_builds(built: list):
    real = cli.build_instance

    def build(problem):
        built.append(real(problem))
        return built[-1]

    cli.build_instance = build
    try:
        yield
    finally:
        cli.build_instance = real


class SatReplay:
    """One unit = one ``holesat solve --expect sat`` per instance."""

    UNIT_SECONDS = 5.5

    def __init__(self, seed: int, work: Path, instances=HEADLINE):
        # The instances are fixed by the paper's figures; the seed is unused.
        self.work = work
        self.instances = instances
        self.fingerprints: dict[str, dict] = {}

    def setup(self) -> None:
        models = self.work / "models"
        models.mkdir(exist_ok=True)
        self.models = {}
        for spec in self.instances:
            sig = geometry.chirotope(geometry.canonicalize(spec.points()))
            model = encoder.assignment_from_chirotope(sig, spec.problem)
            (models / f"{spec.problem.key()}.model").write_text(model_text(model))
            self.models[spec.label] = model
        launcher = self.work / "replay-solver"
        launcher.write_text(
            "#!/bin/sh\nexec "
            + " ".join(shlex.quote(str(a)) for a in (sys.executable, REPLAY, models))
            + ' "$@"\n'
        )
        launcher.chmod(launcher.stat().st_mode | stat.S_IXUSR)
        self.launcher = launcher

    def unit(self, tracer) -> Unit:
        pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=self.work))
        try:
            elapsed, failed = 0.0, 0
            for spec in self.instances:
                workdir = pass_dir / spec.label
                argv = ["solve", *spec.flags, "--solver", str(self.launcher),
                        "--workdir", str(workdir), "--expect", "sat"]
                out = io.StringIO()
                built: list = []
                with _capturing_builds(built), redirect_stdout(out), redirect_stderr(out):
                    with tracer.root("op") as op:
                        op.weight = 1 / len(self.instances)
                        t0 = perf_counter()
                        code = cli.main(argv)
                        elapsed += perf_counter() - t0
                ok = code == 0 and "verification: passed" in out.getvalue()
                ok = self._check_encoding(spec, workdir, built) and ok
                del built
                failed += not ok
            return Unit(1, elapsed, [elapsed], 1, int(failed > 0))
        finally:
            shutil.rmtree(pass_dir)

    def _check_encoding(self, spec: SatInstance, workdir: Path, built: list) -> bool:
        """Same bytes as the first pass; on the first pass, the model fits."""
        key = spec.problem.key()
        cnf, reg = workdir / f"{key}.cnf", workdir / f"{key}.reg"
        if not (cnf.is_file() and reg.is_file() and len(built) == 1):
            return False
        digests = {"cnf_sha256": _sha256(cnf), "registry_sha256": _sha256(reg)}
        first = self.fingerprints.get(spec.label)
        if first is not None:
            return all(first[k] == v for k, v in digests.items())
        inst = built[0]
        self.fingerprints[spec.label] = {
            "instance": key,
            **digests,
            "cnf_bytes": cnf.stat().st_size,
            "clauses": inst.num_clauses,
            "variables": inst.num_vars,
            "groups": dict(inst.groups),
        }
        return encoder.violated_clauses(inst, self.models[spec.label], limit=1) == []

    def finish(self) -> tuple[int, int, dict]:
        # Reference from coordinates, independent of the encoder under test.
        failed = sum(
            holes.find_disjoint_tuple(spec.points(), (5, 5), spec.flavor) is not None
            for spec in self.instances
        )
        record = {
            "fingerprints": self.fingerprints,
            "cnf_clauses": sum(f["clauses"] for f in self.fingerprints.values()),
            "sat_verdict_note": "solver replaced by replay",
        }
        return len(self.instances), failed, record


# -- anneal-h45-n12 -----------------------------------------------------------

ANNEAL_N = 12
ANNEAL_OBJECTIVE = search.SearchObjective("two-disjoint-holes", (4, 5))
ANNEAL_SEEDS = [0, 1]
WARMUP_SEED = 1000


class Anneal:
    """One unit = restarts at seeds ``ANNEAL_SEEDS`` of ``budget`` proposals each.

    h(4,5)=12, so no restart succeeds and each spends its whole budget.
    Every unit runs the same restarts, so units are repeats of identical
    work; the workload seed is not used. A restart's cost per proposal
    scales with the number of holes in the configurations its walk visits
    and varies up to twofold with its seed; seeded restarts gave an
    ``ops_per_s`` spread of 0.40 over five seeds.
    """

    UNIT_SECONDS = 6.5

    def __init__(self, seed: int, work: Path, budget: int = 100, warmup_budget: int = 25):
        self.budget = budget
        self.warmup_budget = warmup_budget

    def setup(self) -> None:
        # A short restart at another seed, so the interpreter's specialised
        # code paths are warm before the clock starts.
        search.search_witness(
            ANNEAL_N, ANNEAL_OBJECTIVE, seeds=[WARMUP_SEED],
            budget=self.warmup_budget, workers=1,
        )

    def unit(self, tracer) -> Unit:
        latencies: list[float] = []
        real = search.objective_count

        def timed_count(*args):
            t0 = perf_counter()
            count = real(*args)
            latencies.append(perf_counter() - t0)
            return count

        search.objective_count = timed_count
        proposals = self.budget * len(ANNEAL_SEEDS)
        try:
            with tracer.root("op") as op:
                op.weight = proposals
                t0 = perf_counter()
                found = search.search_witness(
                    ANNEAL_N, ANNEAL_OBJECTIVE, seeds=ANNEAL_SEEDS, budget=self.budget, workers=1
                )
                elapsed = perf_counter() - t0
        finally:
            search.objective_count = real
        return Unit(proposals, elapsed, latencies, 1, int(found is not None))

    def finish(self) -> tuple[int, int, dict]:
        return 0, 0, {"restart_seeds": ANNEAL_SEEDS, "budget_per_restart": self.budget}


WORKLOADS = {"sat-replay": SatReplay, "anneal-h45-n12": Anneal}


END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_tail_ms": "ms",
}


def end_to_end(m: Measurement, peak_rss_mb: float) -> tuple[dict[str, float], dict]:
    """End-to-end metric values, plus the sample counts and median behind them."""
    lat = m.latencies
    p, tail_value = tail(lat)
    metrics = {
        "setup_s": statistics.median(m.setup_seconds),
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": statistics.median(u.ops / u.seconds for u in m.units),
        "op_tail_ms": tail_value * 1000,
    }
    detail = {
        "setups": len(m.setup_seconds),
        "units": len(m.units),
        "ops": m.ops,
        "unit_seconds": [u.seconds for u in m.units],
        "latency_samples": len(lat),
        "op_median_ms": statistics.median(lat) * 1000,
        "tail_percentile": p,
    }
    return metrics, detail
