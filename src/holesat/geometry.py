"""Exact planar geometry primitives: orientations, point sets, chirotopes.

Everything here is computed with arbitrary-precision integers; no floating
point enters any predicate, and a point set is oriented on integer
homogeneous coordinates, so `fractions.Fraction` coordinates (as projective
normalization makes) cost no Fraction arithmetic. Both orientation maps, a
:class:`PointSet` and a :class:`Signotope`, fill the same tables on
construction, through one routine: the bitmasks ``left[a][b]`` (the indices
strictly left of a->b) and the 3-hole rows ``hole_ext``, read off ``left``
by :func:`open_triangle`, the one open-triangle test. One ``chi`` reads
``left`` for both; hole and gon lists and counts are kept lazily, in
``memo``, which ``PointSet.moved`` shares while the order type holds.

Conventions used throughout the package:

* point indices are 0-based;
* ``orient(p, q, r)`` is the sign of the homogeneous 3x3 determinant,
  +1 iff ``r`` lies strictly left of the directed line ``p -> q``;
* a *canonical* point set has strictly increasing x-coordinates, point 0
  extremal, and points ``1..n-1`` in counterclockwise angular order around
  point 0 (equivalently: every triple ``(0, a, b)`` with ``a < b`` is
  positively oriented).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

Coord = Union[int, Fraction]

POSITIVE = 1
NEGATIVE = -1
ZERO = 0


class GeneralPositionError(ValueError):
    """A point set with a repeated point or three collinear points."""


class Point(NamedTuple):
    """A planar point with exact (integer or rational) coordinates."""

    x: Coord
    y: Coord


def _sign(value: Coord) -> int:
    if value > 0:
        return POSITIVE
    if value < 0:
        return NEGATIVE
    return ZERO


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of det [[1,1,1],[px,qx,rx],[py,qy,ry]].

    +1 iff r is strictly left of the directed line p->q, -1 iff strictly
    right, 0 iff the three points are collinear.
    """
    return _sign((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x))


def _orient_lifted(p: tuple, q: tuple, r: tuple) -> int:
    """:func:`orient` of lifted points: a homogeneous determinant, its columns scaled by w > 0."""
    (pw, px, py), (qw, qx, qy), (rw, rx, ry) = p, q, r
    return _sign(pw * (qx * ry - rx * qy) - qw * (px * ry - rx * py) + rw * (px * qy - qx * py))


def open_triangle(left, a: int, b: int, c: int) -> int:
    """Bitmask of the points strictly inside triangle (a, b, c), either orientation:
    the AND of the three half-planes that hold the opposite vertex."""
    if not left[a][b] >> c & 1:
        a, b = b, a  # (b, a, c) is ccw
    return left[a][b] & left[b][c] & left[c][a]


def _x_increasing(points: Sequence[Point]) -> bool:
    return all(p.x < q.x for p, q in zip(points, points[1:]))


def _check_coord(value: Coord) -> Coord:
    # floats silently poison exactness; reject them at the boundary.
    if isinstance(value, float):
        raise TypeError(f"coordinates must be int or Fraction, got float {value!r}")
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"coordinates must be int or Fraction, got {type(value).__name__}")
    return value


class OrientationTable:
    """The orientation table shared by point sets and signotopes.

    Subclasses set ``n`` and call :meth:`_fill`, which sets ``left``,
    ``hole_ext`` and an empty ``memo``. ``left[a][b]`` is the bitmask of
    the indices c with (a, b, c) positively oriented, i.e. strictly left of
    the directed line a->b; ``hole_ext[a][b]``, for a < b, is the bitmask
    of the c > b whose triangle (a, b, c) is empty, the one 3-hole table
    (:func:`holesat.holes.enumerate_holes` lists the 3-holes from it).
    ``memo`` keeps hole and gon lists and counts, all fixed by the order type.
    """

    __slots__ = ()
    n: int
    left: tuple[tuple[int, ...], ...]
    hole_ext: tuple[tuple[int, ...], ...]
    memo: dict

    def _fill(self, ccw: Iterable[tuple[int, int, int]], left=None) -> None:
        """Set the tables from counterclockwise triples, added to ``left`` if given."""
        n = self.n
        left = left or [[0] * n for _ in range(n)]
        for a, b, c in ccw:
            # each point of a ccw triple is left of the edge opposite it
            left[a][b] |= 1 << c
            left[b][c] |= 1 << a
            left[c][a] |= 1 << b
        ext = [[0] * n for _ in range(n)]
        for a, b, c in itertools.combinations(range(n), 3):
            if not open_triangle(left, a, b, c):
                ext[a][b] |= 1 << c
        object.__setattr__(self, "left", tuple(map(tuple, left)))
        object.__setattr__(self, "hole_ext", tuple(map(tuple, ext)))
        object.__setattr__(self, "memo", {})

    def chi(self, a: int, b: int, c: int) -> int:
        """Orientation of the indexed triple, read from the table."""
        if a == b or a == c or b == c:
            raise ValueError(f"indices must be distinct, got {(a, b, c)}")
        if not 0 <= c < self.n:
            raise IndexError(f"index {c} out of range for n={self.n}")
        return POSITIVE if self.left[a][b] >> c & 1 else NEGATIVE

    def unsorted_triple(self) -> tuple[int, int, int] | None:
        """The first (0, a, b), a < b, not positive; None iff 1..n-1 run ccw around 0."""
        pairs = itertools.combinations(range(1, self.n), 2)
        return next(((0, a, b) for a, b in pairs if self.chi(0, a, b) != POSITIVE), None)


class PointSet(OrientationTable):
    """An ordered list of points in general position (no three collinear).

    General position is checked on construction, over all triples, before
    the tables of :class:`OrientationTable` are filled, on integer
    homogeneous coordinates (:func:`_orient_lifted`) whether the coordinates
    are ints or Fractions. :meth:`moved` replaces one point, orients only the
    triples through it, and keeps ``memo`` when ``left`` comes out unchanged.
    """

    __slots__ = ("points", "n", "left", "hole_ext", "memo")

    def __init__(self, points: Iterable[Sequence[Coord]]):
        pts = tuple(Point(_check_coord(p[0]), _check_coord(p[1])) for p in points)
        self._place(pts, itertools.combinations(range(len(pts)), 3))

    def moved(self, i: int, point: Sequence[Coord]) -> PointSet:
        """This set with point i replaced, raising what a fresh construction
        would; only the triples through i are oriented."""
        n, i = self.n, range(self.n)[i]  # IndexError out of range, like points[i]
        p = Point(_check_coord(point[0]), _check_coord(point[1]))
        keep = ~(1 << i)  # the table without the triples through i
        left = [[m & keep for m in row] for row in self.left]
        for row in left:
            row[i] = 0
        left[i] = [0] * n
        new = PointSet.__new__(PointSet)
        through = (t for t in itertools.combinations(range(n), 3) if i in t)
        new._place(self.points[:i] + (p,) + self.points[i + 1:], through, left)
        if new.left == self.left:  # the same order type, so every memo entry holds
            new.memo = self.memo
        return new

    def _place(self, pts: tuple[Point, ...], triples, left=None) -> None:
        # orient the given sorted triples of pts, then fill the tables
        if len(set(pts)) != len(pts):
            raise GeneralPositionError("duplicate points")
        self.points = pts
        # a plain slot, not a property: hot predicates read it per call
        self.n = len(pts)
        # integer homogeneous coordinates (w, x*w, y*w), w > 0 the lcm of p's denominators
        lifts = ((math.lcm(p.x.denominator, p.y.denominator), p) for p in pts)
        ccw, at = [], [(w, int(p.x * w), int(p.y * w)) for w, p in lifts]
        for t in triples:
            a, b, c = t
            if (sign := _orient_lifted(at[a], at[b], at[c])) == ZERO:
                raise GeneralPositionError(f"points {t} are collinear")
            ccw.append(t if sign == POSITIVE else (b, a, c))
        self._fill(ccw, left)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PointSet) and self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"PointSet({list(self.points)!r})"

    def is_canonical(self) -> bool:
        return _x_increasing(self.points) and self.unsorted_triple() is None


@dataclass(frozen=True)
class Signotope(OrientationTable):
    """A total orientation map on sorted index triples of ``0..n-1``.

    ``signs`` maps every sorted triple to +1 or -1; construction fills the
    tables ``left`` and ``hole_ext`` from it, and :meth:`chi` reads every
    argument order from ``left``. Whether the map satisfies the monotone
    sign-change axioms is checked separately by :func:`check_signotope`.
    """

    n: int
    signs: dict[tuple[int, int, int], int]

    def __post_init__(self) -> None:
        expected = {t for t in itertools.combinations(range(self.n), 3)}
        if set(self.signs) != expected:
            raise ValueError("signs must cover exactly the sorted triples of 0..n-1")
        if any(s not in (POSITIVE, NEGATIVE) for s in self.signs.values()):
            raise ValueError("signs must be +1 or -1")
        self._fill(t if sign == POSITIVE else (t[1], t[0], t[2]) for t, sign in self.signs.items())

    def triples(self) -> Iterator[tuple[int, int, int]]:
        return itertools.combinations(range(self.n), 3)


def chirotope(s: PointSet) -> Signotope:
    """Orientation map of an x-sorted point set.

    Requires strictly increasing x-coordinates (canonical sets qualify): the
    monotone sign-change axioms checked by :func:`check_signotope` only hold
    relative to that labeling.
    """
    if not _x_increasing(s.points):
        raise ValueError("chirotope requires strictly increasing x-coordinates")
    return Signotope(s.n, {t: s.chi(*t) for t in itertools.combinations(range(s.n), 3)})


def check_signotope(sig: Signotope) -> list[tuple[int, int, int, int]]:
    """All 4-tuples whose orientation sequence changes sign more than once.

    For every a<b<c<d the sequence chi_abc, chi_abd, chi_acd, chi_bcd must
    change sign at most once; returns the violating 4-tuples (empty list iff
    the axioms hold).
    """
    bad = []
    signs = sig.signs
    for a, b, c, d in itertools.combinations(range(sig.n), 4):
        seq = (signs[a, b, c], signs[a, b, d], signs[a, c, d], signs[b, c, d])
        changes = sum(seq[i] != seq[i + 1] for i in range(3))
        if changes > 1:
            bad.append((a, b, c, d))
    return bad


def canonical_order(s: PointSet) -> list[int]:
    """Relabeling that makes ``s`` canonical: output position i -> input index.

    Point 0 of the new order is the lexicographically smallest point; the rest
    are sorted counterclockwise around it using ``s.chi`` as comparator (no
    trigonometry). The result always satisfies the angular invariant; whether
    x-coordinates also increase decides if a projective step is needed.
    """
    pts = s.points
    first = min(range(len(pts)), key=lambda i: pts[i])
    rest = [i for i in range(len(pts)) if i != first]

    def around(i: int, j: int) -> int:
        # i before j iff j lies strictly left of the ray first->i.
        return -s.chi(first, i, j)

    rest.sort(key=functools.cmp_to_key(around))
    return [first] + rest


def canonicalize(s: PointSet) -> PointSet:
    """Relabel (and projectively transform if needed) into canonical form.

    The output has the same order type as the input: its chirotope equals the
    input chirotope up to the applied relabeling. Coordinates stay integral
    when relabeling alone suffices; otherwise they become Fractions via
    :func:`project_normalize`.
    """
    if len(s) <= 2:
        return _canonicalize_small(s)
    order = canonical_order(s)
    relabeled = PointSet(s.points[i] for i in order)
    result = relabeled if _x_increasing(relabeled.points) else project_normalize(relabeled)
    if not result.is_canonical():
        raise AssertionError("canonicalize produced a non-canonical labeling")
    _assert_same_order_type(s, result, order)
    return result


def _canonicalize_small(s: PointSet) -> PointSet:
    # n <= 2 has no triples: any labeling works; fix increasing x, shearing
    # away a vertical tie (shear keeps orientations, vacuously here).
    pts = sorted(s.points)
    if len(pts) == 2 and pts[0].x == pts[1].x:
        pts = sorted(Point(p.x + p.y, p.y) for p in pts)
    return PointSet(pts)


def _assert_same_order_type(
    original: PointSet, result: PointSet, order: Sequence[int]
) -> None:
    position = {src: dst for dst, src in enumerate(order)}
    for a, b, c in itertools.combinations(range(len(original)), 3):
        if original.chi(a, b, c) != result.chi(position[a], position[b], position[c]):
            raise AssertionError(
                f"order type not preserved on triple {(a, b, c)}"
            )


def project_normalize(s: PointSet) -> PointSet:
    """Projective transform making x-coordinates strictly increase.

    Precondition: point 0 is extremal and points 1..n-1 are sorted
    counterclockwise around it (all triples (0,a,b), a<b, positive). The
    output is a rational-coordinate set of identical order type — chirotope
    equality is asserted internally, triple for triple — with strictly
    increasing x and point 0 still first.

    With point 0 at the origin, u = point 1 and w = point n-1, the vector
    v = (w.y - u.y, u.x - w.x) has v.q = u x q + q x w > 0 for every other
    point q. Each q maps to (Y/X, 1/X) with X = v.q and Y = v x q. The frame
    (X, Y) has determinant |v|^2 > 0, and the map permutes the rows of the
    orientation determinant cyclically and scales its columns by 1/X > 0, so
    every orientation is kept, and Y/X increases in counterclockwise order.
    Point 0 comes back at (x0, h) left of every other point, where
    orient((x0, h), a, b) = h(b.x - a.x) + (a.x - x0)b.y - a.y(b.x - x0)
    for a left of b. The middle term is positive, and the first outweighs
    the last once h > max y * (max x - x0) / (least gap between x's).
    """
    n = len(s)
    if n < 3:
        return _canonicalize_small(s)
    pts = s.points
    if (bad := s.unsorted_triple()) is not None:
        raise ValueError(
            "project_normalize requires points 1..n-1 sorted counterclockwise "
            "around point 0 (triple (%d,%d,%d) is not positive)" % bad
        )

    o = pts[0]
    vx, vy = pts[-1].y - pts[1].y, pts[1].x - pts[-1].x
    rest = []
    for p in pts[1:]:
        qx, qy = p.x - o.x, p.y - o.y
        dot = vx * qx + vy * qy
        rest.append(Point(Fraction(vx * qy - vy * qx, dot), Fraction(1, dot)))
    xs = [p.x for p in rest]
    x0 = math.floor(xs[0]) - 1
    gap = min(b - a for a, b in zip(xs, xs[1:]))
    h = max(p.y for p in rest) * (xs[-1] - x0) // gap + 1
    result = PointSet([Point(Fraction(x0), Fraction(h))] + rest)
    _assert_same_order_type(s, result, range(n))
    if not _x_increasing(result.points):
        raise AssertionError("project_normalize left x-coordinates not increasing")
    return result


def read_points(path: str) -> PointSet:
    """Read the point-set file format: one ``x y`` integer pair per line.

    Lines starting with ``#`` are comments; blank lines are ignored; a point is required.
    """
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                x, y = map(int, line.split())
            except ValueError as exc:  # not two fields, or not integers
                raise ValueError(f"{path}:{lineno}: expected two integers, got {line!r}") from exc
            points.append((x, y))
    if not points:
        raise ValueError(f"{path}: no points (only blank or '#' lines)")
    return PointSet(points)


def write_points(path: str, s: PointSet, header: str | None = None) -> None:
    """Write a point set in the same format (integer coordinates only)."""
    for p in s.points:
        if not isinstance(p.x, int) or not isinstance(p.y, int):
            raise ValueError("point-set files hold integer coordinates only")
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for p in s.points:
            fh.write(f"{p.x} {p.y}\n")
