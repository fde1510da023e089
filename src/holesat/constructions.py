"""Structured point-set generators and bundled witness configurations.

The generators build float approximations of the ideal configuration, round
to integers, and then *verify* the defining structure with exact arithmetic,
retrying at a larger radius if rounding destroyed it. The witnesses are
fixed coordinate lists shipped with the package, each certifying a lower
bound that the test suite re-verifies from scratch.
"""

from __future__ import annotations

import itertools
import math

from .geometry import GeneralPositionError, PointSet
from .holes import in_triangle

DEFAULT_RADIUS = 10**6
_MAX_ATTEMPTS = 8


def generate_double_circle(n: int, radius: int = DEFAULT_RADIUS) -> PointSet:
    """n/2 regular-polygon vertices plus n/2 points just inside the edge midpoints.

    The defining structure: each inner point w_k blocks its edge, i.e. lies
    strictly inside triangle (v_k, v_{k+1}, z) for every other point z. In
    particular no hole with 4 or more vertices can use two consecutive
    extremal points. Verified exactly after rounding; the radius is doubled
    on failure.
    """
    if n < 6 or n % 2:
        raise ValueError("double circle needs even n >= 6")
    m = n // 2
    pull = 1.0 / (4 * m * m)  # small next to the edge sagitta ~ pi^2/(2 m^2)

    def place(r: int) -> list[tuple[int, int]]:
        outer = [_ring_point(r, 2 * math.pi * k / m) for k in range(m)]
        return outer + [
            (round((ax + bx) / 2 * (1 - pull)), round((ay + by) / 2 * (1 - pull)))
            for (ax, ay), (bx, by) in zip(outer, outer[1:] + outer[:1])
        ]

    return _rounded("double circle", n, radius, place, lambda s: _double_circle_valid(s, m))


def _double_circle_valid(s: PointSet, m: int) -> bool:
    for k in range(m):
        a, b, w = k, (k + 1) % m, m + k
        for z in range(len(s)):
            if z in (a, b, w):
                continue
            if not in_triangle(s, w, a, b, z):
                return False
    return True


def generate_two_ring(n: int, radius: int = DEFAULT_RADIUS) -> PointSet:
    """Regular n/2-gon plus a slightly shrunk copy of its vertices.

    For even n/2 the inner ring is rotated slightly (otherwise opposite
    vertices and their copies would be collinear through the center). The
    defining structure: every triangle of three extremal points contains an
    inner point, so no three extremal points form a 3-hole. Verified
    exactly after rounding.
    """
    if n < 10 or n % 2:
        raise ValueError("two-ring needs even n >= 10")
    m = n // 2
    shrink = 1.0 / 100
    # the twist must not rotate any inner point out of the thinnest blocked
    # triangle; shrink/(m*tan(2pi/m)) leaves margin for every even m <= 40
    twist = shrink / (4 * m * math.tan(2 * math.pi / m)) if m % 2 == 0 else 0.0

    def place(r: int) -> list[tuple[int, int]]:
        outer = [_ring_point(r, 2 * math.pi * k / m) for k in range(m)]
        return outer + [
            _ring_point(r * (1 - shrink), 2 * math.pi * k / m + twist) for k in range(m)
        ]

    return _rounded("two-ring", n, radius, place, lambda s: _two_ring_valid(s, m))


def _rounded(name: str, n: int, radius: int, place, valid) -> PointSet:
    """The first placement in general position that passes ``valid``, doubling the radius."""
    if radius < 1:
        raise ValueError(f"{name} needs a radius of at least 1, got {radius}")
    for attempt in range(_MAX_ATTEMPTS):
        try:
            s = PointSet(place(radius << attempt))
        except GeneralPositionError:
            continue
        if valid(s):
            return s
    raise ValueError(f"{name} rounding failed for n={n} from radius {radius}")


def _ring_point(r: float, angle: float) -> tuple[int, int]:
    return (round(r * math.cos(angle)), round(r * math.sin(angle)))


def _two_ring_valid(s: PointSet, m: int) -> bool:
    inner = range(m, 2 * m)
    for a, b, c in itertools.combinations(range(m), 3):
        if not any(in_triangle(s, i, a, b, c) for i in inner):
            return False
    return True


# Witness configurations, exportable via the CLI `construct` subcommand.
# Each is a fixed point set whose structural property the test suite
# re-verifies with exact arithmetic:
#   fig2-n16: 16 points with at least one 5-hole but no two disjoint 5-holes;
#   fig4-n21: 21 points with no three pairwise disjoint 5-holes;
#   fig6-n14: 14 points with no two interior-disjoint 5-holes.
WITNESS_COORDS: dict[str, tuple[tuple[int, int], ...]] = {
    "fig2-n16": (
        (0, 0), (0, 270), (280, 0), (280, 270),
        (18, 127), (18, 143), (262, 127), (262, 143),
        (68, 117), (68, 153), (212, 117), (212, 153),
        (118, 85), (118, 185), (162, 85), (162, 185),
    ),
    "fig4-n21": (
        (0, 161014), (437034, 595949), (326347, 343801), (284425, 294548),
        (368806, 311583), (359850, 306967), (303825, 276373), (295136, 271265),
        (384946, 285229), (410465, 282863), (385025, 275150), (280383, 244110),
        (288858, 238662), (432159, 221931), (383508, 211334), (343366, 205440),
        (352134, 200469), (273710, 191231), (383027, 201270), (337326, 179552),
        (595182, 0),
    ),
    "fig6-n14": (
        (142, 0), (0, 100), (29, 105), (65, 73), (63, 81), (49, 111), (88, 58),
        (80, 79), (98, 58), (107, 65), (105, 72), (134, 35), (131, 54), (128, 142),
    ),
}


def witness(name: str) -> PointSet:
    """One of the bundled witness point sets, by id."""
    try:
        coords = WITNESS_COORDS[name]
    except KeyError:
        raise ValueError(
            f"unknown witness {name!r}; available: {', '.join(sorted(WITNESS_COORDS))}"
        ) from None
    return PointSet(coords)
