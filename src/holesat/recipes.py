"""Named end-to-end pipelines with expected verdicts.

Each recipe is a list of (problem, expected verdict) steps; running one
encodes every instance, dispatches the solves to the harness's worker
pool and verifies models/certificates. Each report is judged against its
step's expectation by :meth:`~holesat.solver.SolveReport.judge`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encoder import HoleProblem
from .solver import SolveReport, run_batch


@dataclass(frozen=True)
class RecipeStep:
    problem: HoleProblem
    expect: str  # "SAT" or "UNSAT"

    @property
    def label(self) -> str:
        p = self.problem
        label = f"{p.mode} ({'/'.join(map(str, p.sizes))}) n={p.n}"
        return f"{label} t={p.threshold}" if p.threshold else label


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
    return [
        RecipeStep(HoleProblem(n=n, mode=mode, sizes=sizes, **kwargs), expect)
        for n, expect in ((value - 1, "SAT"), (value, "UNSAT"))
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
        RecipeStep(HoleProblem(n=16, mode="count-holes", sizes=(5,), threshold=t), expect)
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
    name: str, *, want_proof: bool = True, **settings
) -> list[tuple[RecipeStep, SolveReport]]:
    """(step, report) pairs, in step order: the steps' problems through one
    :func:`~holesat.solver.run_batch`, which takes ``settings`` as keywords."""
    steps = recipe_steps(name)
    reports = run_batch([s.problem for s in steps], want_proof=want_proof, **settings)
    return [(step, reports[step.problem.key()]) for step in steps]
