"""Named end-to-end pipelines with expected verdicts.

Each recipe is a list of (problem, expected verdict) steps; running one
encodes every instance, dispatches the solves to the harness's worker
pool, verifies models/certificates, and compares verdicts against the
expectation. A recipe passes iff every step does.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encoder import HoleProblem, build_instance
from .solver import (
    CheckerConfig,
    SolveReport,
    SolverConfig,
    run_batch,
)


@dataclass(frozen=True)
class RecipeStep:
    label: str
    problem: HoleProblem
    expect: str  # "SAT" or "UNSAT"


@dataclass
class StepReport:
    step: RecipeStep
    report: SolveReport
    passed: bool
    note: str = ""


@dataclass
class RecipeResult:
    name: str
    steps: list[StepReport]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.steps)

    def to_text(self) -> str:
        lines = [f"recipe {self.name}"]
        for s in self.steps:
            status = "pass" if s.passed else "FAIL"
            extra = f" ({s.note})" if s.note else ""
            lines.append(
                f"  {status}: {s.step.label} -> {s.report.verdict} "
                f"[expected {s.step.expect}, {s.report.wall_time:.1f}s, "
                f"verification {s.report.verification}]{extra}"
            )
        done = sum(1 for s in self.steps if s.passed)
        verdict = "pass" if self.passed else "FAIL"
        lines.append(f"result: {verdict} ({done}/{len(self.steps)} steps)")
        return "\n".join(lines)


# h(k1,k2) values with both sizes <= 5, excluding the long (5,5) target.
SMALL_TABLE = (
    ((2, 2), 4),
    ((2, 3), 5),
    ((2, 4), 6),
    ((2, 5), 10),
    ((3, 3), 6),
    ((3, 4), 7),
    ((3, 5), 10),
    ((4, 4), 9),
    ((4, 5), 12),
)


def _pair(mode: str, sizes: tuple[int, ...], value: int, **kwargs) -> list[RecipeStep]:
    tag = "/".join(map(str, sizes))
    return [
        RecipeStep(
            f"{mode} ({tag}) n={value - 1}",
            HoleProblem(n=value - 1, mode=mode, sizes=sizes, **kwargs),
            "SAT",
        ),
        RecipeStep(
            f"{mode} ({tag}) n={value}",
            HoleProblem(n=value, mode=mode, sizes=sizes, **kwargs),
            "UNSAT",
        ),
    ]


# name -> step builder, in the order the CLI lists them
_RECIPES = {
    "h55-small-table": lambda: [
        step
        for sizes, value in SMALL_TABLE
        for step in _pair("two-disjoint-holes", sizes, value)
    ],
    "h55-full": lambda: _pair("two-disjoint-holes", (5, 5), 17, hints=True),
    "g6": lambda: _pair("forbid-gon", (6,), 17),
    "interior-55": lambda: _pair("two-interior-disjoint-holes", (5, 5), 15),
    # every 16-point set has at least 11 5-holes, and 11 are attainable
    "count-16": lambda: [
        RecipeStep(
            f"count-holes (5) n=16 t={t}",
            HoleProblem(n=16, mode="count-holes", sizes=(5,), threshold=t),
            expect,
        )
        for t, expect in ((12, "SAT"), (11, "UNSAT"))
    ],
}
RECIPE_NAMES = tuple(_RECIPES)


def recipe_steps(name: str) -> list[RecipeStep]:
    if name not in _RECIPES:
        raise ValueError(
            f"unknown recipe {name!r}; available: {', '.join(RECIPE_NAMES)}"
        )
    return _RECIPES[name]()


def run_recipe(
    name: str,
    solver: SolverConfig | None = None,
    checker: CheckerConfig | None = None,
    timeout: float | None = None,
    workers: int | None = None,
    workdir=None,
    want_proof: bool = True,
) -> RecipeResult:
    steps = recipe_steps(name)
    instances = [build_instance(s.problem) for s in steps]
    reports = run_batch(
        instances,
        solver=solver,
        checker=checker,
        timeout=timeout,
        workers=workers,
        workdir=workdir,
        want_proof=want_proof,
    )
    out: list[StepReport] = []
    for step in steps:
        report = reports[step.problem.key()]
        ok = report.verdict == step.expect and report.verification != "failed"
        note = "" if ok else report.detail
        out.append(StepReport(step, report, ok, note))
    return RecipeResult(name, out)
