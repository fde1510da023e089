"""Exact orientation predicate, chirotopes, canonical form, point-file I/O."""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holesat import geometry
from holesat.constructions import witness
from holesat.geometry import (
    NEGATIVE,
    POSITIVE,
    GeneralPositionError,
    Point,
    PointSet,
    Signotope,
    canonical_order,
    canonicalize,
    check_signotope,
    chirotope,
    orient,
    project_normalize,
    read_points,
    write_points,
)
from holesat.holes import enumerate_holes

from conftest import random_point_set

coords = st.integers(min_value=-10**6, max_value=10**6)
points = st.builds(Point, coords, coords)


def test_orient_known_values():
    a, b, c = Point(0, 0), Point(2, 0), Point(1, 1)
    assert orient(a, b, c) == POSITIVE
    assert orient(a, c, b) == NEGATIVE
    assert orient(a, b, Point(4, 0)) == 0


@given(points, points, points)
def test_orient_cyclic_and_antisymmetric(p, q, r):
    assert orient(p, q, r) == orient(q, r, p) == orient(r, p, q)
    assert orient(p, q, r) == -orient(q, p, r)


@given(points, points, points, coords, coords)
def test_orient_translation_invariant(p, q, r, dx, dy):
    shift = lambda t: Point(t.x + dx, t.y + dy)
    assert orient(p, q, r) == orient(shift(p), shift(q), shift(r))


def test_pointset_rejects_degeneracies():
    with pytest.raises(GeneralPositionError, match="duplicate"):
        PointSet([(0, 0), (1, 1), (0, 0)])
    with pytest.raises(GeneralPositionError, match="collinear"):
        PointSet([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(TypeError):
        PointSet([(0.5, 1), (2, 3), (4, 0)])
    with pytest.raises(TypeError, match="int or Fraction, got str"):
        PointSet([("0", 1), (2, 3), (4, 0)])


def _tables(build):
    try:
        s = build()
    except (GeneralPositionError, TypeError) as exc:
        return type(exc), str(exc)
    return s.points, s.left, s.hole_ext


@given(st.integers(0, 10**6), st.integers(min_value=6, max_value=12))
@settings(max_examples=40, deadline=None)
def test_moved_set_equals_a_fresh_construction(seed, n):
    # a chain of moves on a small grid, so that duplicate and collinear
    # moves come up; each must give the tables, or the error, of a fresh set
    rng = random.Random(seed)
    s = random_point_set(n, rng, span=9)
    raised = set()
    for _ in range(25):
        i = rng.randrange(n)
        a, b = rng.sample([p for j, p in enumerate(s.points) if j != i], 2)
        point = rng.choice([
            (rng.randint(-9, 9), rng.randint(-9, 9)),
            a,
            (2 * b.x - a.x, 2 * b.y - a.y),
            (rng.randint(-9, 9), rng.randint(-9, 9) + 0.5),
        ])
        pts = list(s.points)
        pts[i] = point
        got = _tables(lambda: s.moved(i, point))
        assert got == _tables(lambda: PointSet(pts))
        if got[0] in (TypeError, GeneralPositionError):
            raised.add(got[0])
        else:
            s = s.moved(i, point)
    assert raised == {TypeError, GeneralPositionError}
    with pytest.raises(IndexError):
        s.moved(n, (0, 0))
    assert s.moved(-1, s.points[-1]).left == s.left


# negative numerators, and denominators that share factors, so that lifts meet
# lcms below the product and Fractions that reduce on construction
fractions = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 6, 9, 12, -8]))
mixed = st.one_of(st.integers(-40, 40), fractions)


@given(st.sampled_from([fractions, mixed]).flatmap(
    lambda c: st.lists(st.tuples(c, c), min_size=3, max_size=7)))
@settings(max_examples=300, deadline=None)
def test_rational_sets_are_oriented_exactly(pts):
    # the reference: orient on the Fraction points, Fraction arithmetic throughout
    points = [Point(*p) for p in pts]
    degenerate = len(set(points)) < len(points) or any(
        orient(*t) == 0 for t in itertools.combinations(points, 3))
    try:
        s = PointSet(pts)
    except GeneralPositionError:
        assert degenerate
        return
    assert not degenerate
    for t in itertools.permutations(range(len(pts)), 3):
        assert s.chi(*t) == orient(*(points[i] for i in t))


def test_rational_degeneracies_raise():
    third = Fraction(1, 3)
    with pytest.raises(GeneralPositionError, match="collinear"):
        PointSet([(0, 0), (third, third), (2 * third, 2 * third)])
    with pytest.raises(GeneralPositionError, match="collinear"):  # int and Fraction mixed
        PointSet([(1, Fraction(1, 2)), (Fraction(-3, 2), Fraction(-3, 4)), (5, 0), (2, 1)])
    with pytest.raises(GeneralPositionError, match="duplicate"):
        PointSet([(Fraction(1, 2), 0), (3, 1), (Fraction(2, 4), 0)])
    with pytest.raises(GeneralPositionError, match="duplicate"):
        PointSet([(Fraction(4, 2), 7), (3, 1), (2, Fraction(-14, -2))])


@given(st.integers(0, 10**6), st.integers(min_value=4, max_value=9))
@settings(max_examples=30, deadline=None)
def test_moved_rational_set_equals_a_fresh_construction(seed, n):
    # moves onto rational points, onto a midpoint of two others (collinear),
    # onto an equal-valued copy of another point, or onto a float
    rng = random.Random(seed)
    d, e = rng.choice([2, 3, 6]), rng.choice([1, 4, 6])  # an affine map keeps general position
    s = PointSet([(Fraction(p.x, d), Fraction(p.y, e)) for p in random_point_set(n, rng, span=30)])
    raised = set()
    for step in range(20):
        i = rng.randrange(n)
        a, b = rng.sample([p for j, p in enumerate(s.points) if j != i], 2)
        point = [
            (Fraction(rng.randint(-90, 90), rng.choice([2, 3, 4])), rng.randint(-30, 30)),
            (Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2)),
            (Fraction(2 * a.x, 2), Fraction(-4 * a.y, -4)),
            (0.5, a.y),
        ][step % 4]
        pts = list(s.points)
        pts[i] = point
        got = _tables(lambda: s.moved(i, point))
        assert got == _tables(lambda: PointSet(pts))
        if got[0] in (TypeError, GeneralPositionError):
            raised.add(got[0])
        else:
            s = s.moved(i, point)
    assert raised == {TypeError, GeneralPositionError}


def _order_type(points):
    # the reference: orient of the points themselves, no table
    return [orient(*(points[i] for i in t)) for t in itertools.combinations(range(len(points)), 3)]


@pytest.mark.parametrize("scale", [1, Fraction(1, 3)], ids=["int", "Fraction"])
def test_moved_shares_memo_exactly_when_the_order_type_is_kept(scale):
    # point 3 sits inside triangle 0, 1, 2: a step that stays inside keeps
    # every orientation, a step across edge 1-2 flips (1, 2, 3) alone
    s = PointSet([(x * scale, y * scale) for x, y in [(0, 0), (10, 0), (0, 10), (3, 3)]])
    enumerate_holes(s, 3)  # something in the memo to share
    kept = s.moved(3, (2 * scale, 4 * scale))
    flipped = s.moved(3, (6 * scale, 6 * scale))
    assert _order_type(kept.points) == _order_type(s.points)
    flips = [u != v for u, v in zip(_order_type(s.points), _order_type(flipped.points))]
    assert sum(flips) == 1
    assert kept.memo is s.memo
    assert flipped.memo is not s.memo and flipped.memo == {}
    # a walk of small steps, each judged against a fresh construction
    rng = random.Random(7)
    s = PointSet([(p.x * scale, p.y * scale) for p in random_point_set(8, rng, span=20)])
    shared = []
    for _ in range(150):
        i = rng.randrange(s.n)
        old = s.points[i]
        point = (old.x + rng.randint(-2, 2) * scale, old.y + rng.randint(-2, 2) * scale)
        pts = list(s.points)
        pts[i] = point
        try:
            fresh = PointSet(pts)
        except GeneralPositionError:
            continue
        new = s.moved(i, point)
        same = _order_type(fresh.points) == _order_type(s.points)
        assert (new.memo is s.memo) == same == (fresh.left == s.left)
        shared.append(same)
        s = new
    assert any(shared) and not all(shared)


@given(st.integers(0, 10**6))
@settings(max_examples=25)
def test_chi_matches_orient_under_permutation(seed):
    rng = random.Random(seed)
    s = random_point_set(5, rng)
    a, b, c = sorted(rng.sample(range(5), 3))
    base = orient(s[a], s[b], s[c])
    for p in itertools.permutations((a, b, c)):
        assert s.chi(*p) == orient(s[p[0]], s[p[1]], s[p[2]])
    assert s.chi(a, b, c) == base


@pytest.mark.parametrize("seed", range(4))
def test_orientation_table_matches_orient(seed):
    s = random_point_set(9, random.Random(seed))
    c = canonicalize(s)
    # canonicalizing a random set takes the projective step to rationals
    assert any(isinstance(p.x, Fraction) for p in c.points)
    for ps in (s, c):
        for a, b, cc in itertools.permutations(range(9), 3):
            assert ps.chi(a, b, cc) == orient(ps[a], ps[b], ps[cc])
        for bad in ((0, 0, 1), (2, 1, 2), (3, 4, 4)):
            with pytest.raises(ValueError, match="distinct"):
                ps.chi(*bad)


@given(st.integers(0, 10**6), st.integers(min_value=4, max_value=9))
@settings(max_examples=40, deadline=None)
def test_chirotope_of_canonical_set_satisfies_axioms(seed, n):
    s = canonicalize(random_point_set(n, random.Random(seed)))
    sig = chirotope(s)
    assert check_signotope(sig) == []
    for a, b, c in sig.triples():
        assert sig.chi(a, b, c) == s.chi(a, b, c)
        assert sig.chi(b, a, c) == -sig.chi(a, b, c)


@pytest.mark.parametrize("seed", range(4))
def test_signotope_table_matches_signs(seed):
    n = 5 + 2 * seed
    s = canonicalize(random_point_set(n, random.Random(300 + seed)))
    sig = chirotope(s)
    assert sig.left == s.left
    for t in itertools.permutations(range(n), 3):
        key = tuple(sorted(t))
        inversions = sum(t[i] > t[j] for i, j in ((0, 1), (0, 2), (1, 2)))
        assert sig.chi(*t) == sig.signs[key] * (-1) ** inversions
    for bad in ((0, 0, 1), (2, 1, 2), (3, 4, 4)):
        with pytest.raises(ValueError, match="distinct"):
            sig.chi(*bad)
    with pytest.raises(IndexError):
        sig.chi(0, 1, n)


def test_chirotope_requires_sorted_x():
    s = PointSet([(3, 0), (0, 1), (1, 5)])
    with pytest.raises(ValueError, match="increasing x"):
        chirotope(s)


def test_check_signotope_flags_double_change():
    signs = {(0, 1, 2): 1, (0, 1, 3): -1, (0, 2, 3): 1, (1, 2, 3): 1}
    assert check_signotope(Signotope(4, signs)) == [(0, 1, 2, 3)]


def test_signotope_validation():
    with pytest.raises(ValueError, match="sorted triples"):
        Signotope(4, {(0, 1, 2): 1})
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        Signotope(3, {(0, 1, 2): 0})


@given(st.integers(0, 10**6), st.integers(min_value=1, max_value=9))
@settings(max_examples=60, deadline=None)
def test_canonicalize_yields_canonical_same_order_type(seed, n):
    s = random_point_set(n, random.Random(seed))
    c = canonicalize(s)
    assert len(c) == len(s)
    assert c.is_canonical() or n <= 2
    if n >= 3:
        # index i of the canonical set corresponds to canonical_order(s)[i]
        order = canonical_order(s)
        for a, b, cc in itertools.combinations(range(n), 3):
            assert c.chi(a, b, cc) == s.chi(order[a], order[b], order[cc])


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_canonical_order_sorts_angularly(seed):
    s = random_point_set(7, random.Random(seed))
    order = canonical_order(s)
    first = order[0]
    assert s.points[first] == min(s.points)
    for i, j in itertools.combinations(order[1:], 2):
        assert orient(s.points[first], s.points[i], s.points[j]) == POSITIVE


def test_project_normalize_sorts_x_preserving_orientations():
    # angularly sorted around the lex-min first point, but not x-sorted
    s = PointSet([(0, 0), (5, -1), (6, 3), (2, 4), (1, 7)])
    assert all(orient(s[0], s[a], s[b]) == POSITIVE
               for a, b in itertools.combinations(range(1, 5), 2))
    t = project_normalize(s)
    assert all(t[i].x < t[i + 1].x for i in range(len(t) - 1))
    for tri in itertools.combinations(range(5), 3):
        assert t.chi(*tri) == s.chi(*tri)


def test_project_normalize_rejects_unsorted_points():
    # (1, 7) comes after (5, -1) counterclockwise around the origin
    s = PointSet([(0, 0), (1, 7), (5, -1), (6, 3)])
    with pytest.raises(ValueError, match=r"triple \(0,1,2\) is not positive"):
        project_normalize(s)


def _sorted_around(points, first: int) -> PointSet:
    """``points[first]`` at index 0, the rest counterclockwise around it."""
    apex = Point(*points[first])
    rest = [Point(*p) for i, p in enumerate(points) if i != first]
    rest.sort(key=functools.cmp_to_key(lambda p, q: -orient(apex, p, q)))
    return PointSet([apex] + rest)


def _topmost(seed: int) -> PointSet:
    pts = random_point_set(6 + seed, random.Random(500 + seed)).points
    return _sorted_around(pts, max(range(len(pts)), key=lambda i: (pts[i].y, -pts[i].x)))


@pytest.mark.parametrize("s", [
    *(_topmost(seed) for seed in range(4)),
    # canonical_order puts (0, 270), straight above the apex (0, 0), last
    _sorted_around(witness("fig2-n16").points, 0),
    # the other points span a cone of nearly 180 degrees around the apex
    _sorted_around([(0, 0), (1000, 1), (50, 3), (3, 5), (-40, 7), (-1000, 2)], 0),
], ids=["top-0", "top-1", "top-2", "top-3", "vertical", "near-180"])
def test_project_normalize_general_precondition(s):
    n = len(s)
    assert all(s.chi(0, a, b) == POSITIVE for a, b in itertools.combinations(range(1, n), 2))
    t = project_normalize(s)
    assert all(t[i].x < t[i + 1].x for i in range(n - 1))
    for tri in itertools.combinations(range(n), 3):
        assert t.chi(*tri) == s.chi(*tri)


def test_canonicalize_tiny_sets():
    assert canonicalize(PointSet([])).points == ()
    assert canonicalize(PointSet([(3, 4)])).points == (Point(3, 4),)
    two = canonicalize(PointSet([(2, 5), (2, 1)]))
    assert two[0].x < two[1].x


# sha256 of the canonical points of the paper's witnesses, taken when sets
# with Fraction coordinates were oriented by Fraction arithmetic
@pytest.mark.parametrize("name, digest", [
    ("fig2-n16", "ef47472025c4d0931d378492c177c97f8b6b826cd254303b93d86a8073c6a440"),
    ("fig6-n14", "5bd1278331b28d2647ab05b1202a5963939425aaa72bf5120dbeb32b071ad953"),
])
def test_witness_canonical_points_pinned(name, digest):
    text = " ".join(f"{p.x} {p.y}" for p in canonicalize(witness(name)).points)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


CHECKS_UNDER_O = """
import sys
from holesat import geometry
from holesat.constructions import witness
assert False  # stripped: the run has asserts off
s = witness("fig2-n16")
around = geometry.PointSet(s.points[i] for i in geometry.canonical_order(s))
geometry.PointSet.is_canonical = lambda self: False
try:
    geometry.canonicalize(s)
except AssertionError as exc:
    print("canonicalize:", exc)
geometry._x_increasing = lambda points: False
try:
    geometry.project_normalize(around)
except AssertionError as exc:
    print("project_normalize:", exc)
"""


def test_canonical_form_checks_hold_under_optimize():
    # python -O strips assert statements; the checks on a result must still raise
    src = Path(geometry.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-O", "-c", CHECKS_UNDER_O], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "canonicalize: canonicalize produced a non-canonical labeling",
        "project_normalize: project_normalize left x-coordinates not increasing",
    ]


def test_point_file_roundtrip(tmp_path):
    s = PointSet([(0, 0), (10, 2), (-3, 7)])
    path = tmp_path / "pts.txt"
    write_points(path, s, header="three points\nsecond line")
    text = path.read_text()
    assert text.startswith("# three points\n# second line\n")
    assert read_points(path).points == s.points


def test_read_points_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n3\n")
    with pytest.raises(ValueError, match="expected two integers"):
        read_points(path)


def test_read_points_rejects_a_file_without_points(tmp_path):
    path = tmp_path / "blank.txt"
    path.write_text("# header\n\n   \n")
    with pytest.raises(ValueError, match="no points"):
        read_points(path)


def test_write_points_requires_integers(tmp_path):
    s = PointSet([(Fraction(1, 2), 0), (2, 3), (4, 1)])
    with pytest.raises(ValueError, match="integer"):
        write_points(tmp_path / "frac.txt", s)
