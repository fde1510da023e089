"""Shared fixtures: deterministic random point sets and signotopes, the coordinate
hole and gon oracles, solver availability."""

from __future__ import annotations

import itertools
import os
import random

import pytest

from holesat.geometry import Point, PointSet, Signotope, orient
from holesat.solver import SolverError, discover_checker, discover_solver


def _available(discover) -> bool:
    try:
        discover()
        return True
    except SolverError:
        return False


HAVE_SOLVER = _available(discover_solver)
HAVE_CHECKER = _available(discover_checker)

requires_solver = pytest.mark.skipif(not HAVE_SOLVER, reason="no SAT solver found")
requires_checker = pytest.mark.skipif(not HAVE_CHECKER, reason="no proof checker found")

RUN_LONG = os.environ.get("HOLESAT_RUN_LONG") == "1"

# each mode's least size and how many sizes encode takes (search: two or more in
# the disjoint modes); the most encode takes is 6 in every mode
MODE_SIZES = {
    "two-disjoint-holes": (2, 2),
    "two-interior-disjoint-holes": (3, 2),
    "forbid-hole": (3, 1),
    "forbid-gon": (4, 1),
    "count-holes": (3, 1),
}


def pytest_collection_modifyitems(config, items):
    if RUN_LONG:
        return
    skip = pytest.mark.skip(reason="hour-scale target; set HOLESAT_RUN_LONG=1")
    for item in items:
        if "long" in item.keywords:
            item.add_marker(skip)


def random_point_set(n: int, rng: random.Random, span: int = 1000) -> PointSet:
    """Uniform integer points in general position, deterministically seeded."""
    points: list[Point] = []
    while len(points) < n:
        cand = Point(rng.randint(-span, span), rng.randint(-span, span))
        if any(cand == p for p in points):
            continue
        if any(
            orient(points[i], points[j], cand) == 0
            for i in range(len(points))
            for j in range(i + 1, len(points))
        ):
            continue
        points.append(cand)
    return PointSet(points)


# the coordinate references for holes and gons: orient of the points
# themselves, none of the tables the code under test reads

def oracle_in_triangle(s: PointSet, i: int, tri) -> bool:
    a, b, c = (s.points[t] for t in tri)
    p = s.points[i]
    signs = {orient(a, b, p), orient(b, c, p), orient(c, a, p)}
    return 0 not in signs and len(signs) == 1


def monotone_chain(pts: list[Point]) -> list[Point]:
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts
    def half(seq):
        out: list[Point] = []
        for p in seq:
            while len(out) >= 2 and orient(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out
    lower, upper = half(pts), half(reversed(pts))
    return lower[:-1] + upper[:-1]


def oracle_is_gon(s: PointSet, xs) -> bool:
    pts = [s.points[i] for i in xs]
    return len(monotone_chain(pts)) == len(pts)


def oracle_is_hole(s: PointSet, xs) -> bool:
    if not oracle_is_gon(s, xs):
        return False
    hull = monotone_chain([s.points[i] for i in xs])
    outside = [s.points[i] for i in range(len(s)) if i not in set(xs)]
    m = len(hull)
    for p in outside:
        if all(orient(hull[j], hull[(j + 1) % m], p) > 0 for j in range(m)):
            return False
    return True


def random_signotope(n: int, rng: random.Random) -> Signotope:
    """A random simple pseudoline arrangement as a signotope.

    Starting from the identity permutation, swap a random adjacent pair
    that is still in increasing order until the permutation is reversed:
    a random reduced word of the reverse permutation (Felsner & Weil,
    "Sweeps, arrangements and signotopes", DAM 2001). Triple a < b < c is
    +1 iff pair (a, b) crosses before pair (b, c). From n = 9 on, such
    signotopes need not be the chirotope of any point set.
    """
    perm = list(range(n))
    crossed: dict[tuple[int, int], int] = {}
    while True:
        ascents = [i for i in range(n - 1) if perm[i] < perm[i + 1]]
        if not ascents:
            break
        i = rng.choice(ascents)
        crossed[perm[i], perm[i + 1]] = len(crossed)
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    signs = {
        (a, b, c): 1 if crossed[a, b] < crossed[b, c] else -1
        for a, b, c in itertools.combinations(range(n), 3)
    }
    return Signotope(n=n, signs=signs)
