"""Simulated annealing over integer point sets to find lower-bound witnesses.

A :class:`SearchObjective` counts forbidden structures (k-holes, k-gons,
tuples of pairwise disjoint holes); a point set with objective zero is a
witness for the corresponding lower bound. The annealer perturbs one point
at a time with a geometrically cooling step size, rejects any move that
breaks general position, and is fully deterministic for a given seed.
Returned witnesses are re-verified from scratch with exact arithmetic
before being handed back.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import random
import signal
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from dataclasses import dataclass

from .encoder import DISJOINT_FLAVOR, DISJOINT_MODES
from .geometry import Point, PointSet
from .holes import (
    count_tuples,
    disjoint_tuples,
    enumerate_gons,
    enumerate_holes,
    hulls_disjoint,
    hulls_interior_disjoint,
)

log = logging.getLogger("holesat.search")

DEFAULT_BOX = 10**6
# proposals per cooling step, and the start temperature per initial count
EPOCH = 250
T_FACTOR = 0.5
# failed draws for one point before the box counts as too small
MAX_DRAWS = 1000

OBJECTIVE_MODES = DISJOINT_MODES + ("forbid-hole", "forbid-gon")
# a pool worker's stop event (see search_witness); None in the calling process
_stop = None


@dataclass(frozen=True)
class SearchObjective:
    """What to drive to zero: the count of forbidden structures.

    For the disjoint modes ``sizes`` may list any number of holes (pairs,
    triples, ...); for forbid-hole/forbid-gon it is a single (k,).
    """

    mode: str
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if self.mode not in OBJECTIVE_MODES:
            raise ValueError(f"unknown objective mode {self.mode!r}")
        if self.mode in ("forbid-hole", "forbid-gon"):
            if len(self.sizes) != 1:
                raise ValueError(f"{self.mode} takes a single size")
        elif len(self.sizes) < 2:
            raise ValueError(f"{self.mode} needs at least two sizes")
        minimum = 2 if self.mode == "two-disjoint-holes" else 3
        if any(k < minimum for k in self.sizes):
            raise ValueError(f"sizes {self.sizes} below minimum {minimum}")

    def describe(self) -> str:
        if self.mode == "forbid-hole":
            return f"{self.sizes[0]}-holes"
        if self.mode == "forbid-gon":
            return f"{self.sizes[0]}-gons"
        tag = "/".join(map(str, self.sizes))
        return f"{DISJOINT_FLAVOR[self.mode]} {tag}-hole tuples"


def count_gons(s: PointSet, k: int) -> int:
    """Number of k-gons in the point set."""
    return len(enumerate_gons(s, k))


def objective_count(s: PointSet, obj: SearchObjective) -> int:
    """Exact number of forbidden structures in the point set."""
    if obj.mode == "forbid-hole":
        return len(enumerate_holes(s, obj.sizes[0]))
    if obj.mode == "forbid-gon":
        return count_gons(s, obj.sizes[0])
    return count_tuples(disjoint_tuples(
        s, obj.sizes, DISJOINT_FLAVOR[obj.mode],
        enumerate_holes, hulls_disjoint, hulls_interior_disjoint,
    ))


def _random_general_position(
    n: int, rng: random.Random, box: int
) -> list[Point]:
    span = min(box, 4 * n * n)
    points: list[Point] = []
    while len(points) < n:
        for _ in range(MAX_DRAWS):
            points.append(Point(rng.randint(-span, span), rng.randint(-span, span)))
            try:
                PointSet(points)
                break
            except ValueError:  # a duplicate or a collinear triple
                points.pop()
        else:
            raise ValueError(
                f"box {box} too small for n={n} points in general position: "
                f"{MAX_DRAWS} draws failed to place point {len(points) + 1}"
            )
    return points


def local_search(
    n: int,
    obj: SearchObjective,
    seed: int = 0,
    budget: int = 20000,
    box: int = DEFAULT_BOX,
) -> PointSet | None:
    """Anneal an n-point set until the objective hits zero, or give up.

    ``budget`` bounds the number of proposed moves. The temperature starts
    at ``T_FACTOR`` times the initial objective; temperature and step size
    decay geometrically per epoch, scaled so the cooldown spans the whole
    budget. Moves breaking general position are rejected outright.
    Deterministic for fixed arguments.
    """
    if n < max(obj.sizes):
        raise ValueError(f"n={n} below structure size {max(obj.sizes)}")
    rng = random.Random(seed)
    span = min(box, 4 * n * n)
    points = _random_general_position(n, rng, box)
    current = objective_count(PointSet(points), obj)
    if current == 0:
        return _reverify(points, obj)
    best = current
    best_points = list(points)
    last_improvement = 0
    start_temp = temperature = max(1.0, T_FACTOR * current)
    start_step = step = max(4, span // 2)
    epochs = max(1, budget // EPOCH)
    t_decay = (0.05 / temperature) ** (1.0 / epochs)
    step_decay = (2.0 / step) ** (1.0 / epochs)
    for proposal in range(budget):
        if _stop is not None and _stop.is_set():
            return None
        if proposal and proposal % EPOCH == 0:
            temperature = max(0.05, temperature * t_decay)
            step = max(2, int(step * step_decay))
            log.info(
                "seed=%d epoch=%d T=%.2f step=%d current=%d best=%d",
                seed, proposal // EPOCH, temperature, step, current, best,
            )
        if proposal - last_improvement >= 8 * EPOCH:
            # stagnant: back to the best configuration seen, reheat
            points = list(best_points)
            current = best
            temperature = max(temperature, start_temp / 2)
            step = max(step, start_step // 2)
            last_improvement = proposal
        idx = rng.randrange(n)
        old = points[idx]
        if rng.random() < 0.1:
            nx = rng.randint(-span, span)
            ny = rng.randint(-span, span)
        else:
            nx = max(-box, min(box, old.x + rng.randint(-step, step)))
            ny = max(-box, min(box, old.y + rng.randint(-step, step)))
        if (nx, ny) == (old.x, old.y):
            continue
        points[idx] = Point(nx, ny)
        try:
            moved = PointSet(points)
        except ValueError:  # the move broke general position
            points[idx] = old
            continue
        value = objective_count(moved, obj)
        delta = value - current
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            current = value
            if value < best:
                best = value
                best_points = list(points)
                last_improvement = proposal
            if current == 0:
                return _reverify(points, obj)
        else:
            points[idx] = old
    return None


def _reverify(points: list[Point], obj: SearchObjective) -> PointSet:
    # fresh construction re-checks general position; recount from scratch
    witness = PointSet([(p.x, p.y) for p in points])
    count = objective_count(witness, obj)
    if count != 0:
        raise AssertionError(f"witness re-verification failed: {count} left")
    return witness


def _search_job(args) -> tuple[int, list[tuple[int, int]] | None]:
    n, obj, seed, budget, box = args
    found = local_search(n, obj, seed=seed, budget=budget, box=box)
    return seed, None if found is None else [(p.x, p.y) for p in found.points]


def _init_worker(stop) -> None:
    global _stop
    _stop = stop
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C: the parent stops the pool


def search_witness(
    n: int,
    obj: SearchObjective,
    seeds=range(8),
    budget: int = 20000,
    box: int = DEFAULT_BOX,
    workers: int = 4,
) -> tuple[PointSet, int] | None:
    """Parallel restarts over the given seeds; first success wins.

    Returns (witness, winning seed) or None if every restart exhausts its
    budget.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0 proposals, got {budget}")
    if box < 1:
        raise ValueError(f"box must be >= 1, got {box}")
    jobs = [(n, obj, seed, budget, box) for seed in seeds]
    pool = None
    if workers > 1 and len(jobs) > 1:
        ctx = multiprocessing.get_context("spawn")  # a fork of a threaded caller can deadlock
        stop = ctx.Event()  # losers stop at their next proposal; a dead worker breaks the pool
        pool = ProcessPoolExecutor(min(workers, len(jobs)), ctx, _init_worker, (stop,))
    try:
        todo = as_completed([pool.submit(_search_job, job) for job in jobs]) if pool else jobs
        for seed, coords in map(Future.result if pool else _search_job, todo):
            if coords is not None:
                return PointSet(coords), seed
        return None
    finally:
        if pool is not None:
            stop.set()
            pool.shutdown(cancel_futures=True)
