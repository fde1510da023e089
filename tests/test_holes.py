"""Hole/gon analysis against brute-force oracles built from first principles."""

from __future__ import annotations

import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holesat import abstract
from holesat.geometry import Point, PointSet, canonicalize, chirotope, orient
from holesat.holes import (
    count_tuples,
    disjoint_tuples,
    enumerate_gons,
    enumerate_holes,
    find_disjoint_tuple,
    first_tuple,
    hulls_disjoint,
    hulls_interior_disjoint,
    in_triangle,
    is_gon,
)

from conftest import (
    monotone_chain,
    oracle_in_triangle,
    oracle_is_gon,
    oracle_is_hole,
    random_point_set,
    random_signotope,
)


# --- independent oracles -------------------------------------------------

def _on_segment(a: Point, b: Point, p: Point) -> bool:
    return (
        orient(a, b, p) == 0
        and min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def _segments_touch(a: Point, b: Point, c: Point, d: Point) -> bool:
    d1, d2 = orient(a, b, c), orient(a, b, d)
    d3, d4 = orient(c, d, a), orient(c, d, b)
    if d1 != d2 and d3 != d4 and 0 not in (d1, d2, d3, d4):
        return True
    return any(_on_segment(*seg) for seg in ((a, b, c), (a, b, d), (c, d, a), (c, d, b)))


def _hull_loop(s: PointSet, xs) -> list[Point]:
    return monotone_chain([s.points[i] for i in xs])


def _point_in_closed_hull(hull: list[Point], p: Point) -> bool:
    m = len(hull)
    if m == 1:
        return p == hull[0]
    if m == 2:
        return _on_segment(hull[0], hull[1], p)
    return all(orient(hull[j], hull[(j + 1) % m], p) >= 0 for j in range(m))


def oracle_hulls_disjoint(s: PointSet, x1, x2) -> bool:
    h1, h2 = _hull_loop(s, x1), _hull_loop(s, x2)
    if any(_point_in_closed_hull(h2, p) for p in h1):
        return False
    if any(_point_in_closed_hull(h1, p) for p in h2):
        return False
    def edges(h):
        if len(h) == 1:
            return []
        if len(h) == 2:
            return [(h[0], h[1])]
        return [(h[j], h[(j + 1) % len(h)]) for j in range(len(h))]
    for a, b in edges(h1):
        for c, d in edges(h2):
            if _segments_touch(a, b, c, d):
                return False
    return True


def oracle_interior_disjoint(s: PointSet, x1, x2) -> bool:
    h1, h2 = _hull_loop(s, x1), _hull_loop(s, x2)

    def strictly_inside(hull, p):
        m = len(hull)
        return all(orient(hull[j], hull[(j + 1) % m], p) > 0 for j in range(m))

    if any(strictly_inside(h2, p) for p in h1):
        return False
    if any(strictly_inside(h1, p) for p in h2):
        return False
    m1, m2 = len(h1), len(h2)
    for j in range(m1):
        a, b = h1[j], h1[(j + 1) % m1]
        for k in range(m2):
            c, d = h2[k], h2[(k + 1) % m2]
            d1, d2 = orient(a, b, c), orient(a, b, d)
            d3, d4 = orient(c, d, a), orient(c, d, b)
            if d1 != d2 and d3 != d4 and 0 not in (d1, d2, d3, d4):
                return False
    return True


# --- tests ---------------------------------------------------------------

@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_in_triangle_matches_sign_oracle(seed):
    s = random_point_set(7, random.Random(seed))
    for tri in itertools.combinations(range(7), 3):
        for i in range(7):
            if i in tri:
                continue
            assert in_triangle(s, i, *tri) == oracle_in_triangle(s, i, tri)


@given(st.integers(0, 10**6), st.integers(min_value=3, max_value=6))
@settings(max_examples=40, deadline=None)
def test_is_gon_matches_hull_oracle(seed, k):
    s = random_point_set(8, random.Random(seed))
    for xs in itertools.combinations(range(8), k):
        assert is_gon(s, xs) == oracle_is_gon(s, xs)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_enumerate_holes_agrees_with_direct_check(seed):
    s = random_point_set(9, random.Random(seed))
    for k in (2, 3, 4, 5):
        expected = {
            xs for xs in itertools.combinations(range(9), k)
            if k == 2 or oracle_is_hole(s, xs)
        }
        got = set(enumerate_holes(s, k))
        assert got == expected


@given(
    st.integers(0, 10**6), st.integers(min_value=6, max_value=12), st.booleans(),
    st.permutations(["n", "n+1", 2, 3, 4, 5, 6]),
)
@settings(max_examples=30, deadline=None)
def test_one_walk_enumeration_matches_brute_force_in_any_order(seed, n, signotope, order):
    # one walk fills every size up to the largest asked; smaller sizes
    # asked later, or again, must still equal a per-size brute force
    rng = random.Random(seed)
    table = random_signotope(n, rng) if signotope else random_point_set(n, rng)
    hole = abstract.is_hole if signotope else oracle_is_hole
    for k in [{"n": n, "n+1": n + 1}.get(k, k) for k in order] * 2:
        got = enumerate_holes(table, k)
        assert got == [x for x in itertools.combinations(range(n), k) if hole(table, x)]
        got.append(None)  # the caller's list is its own
    for k in range(3, 7):
        got = enumerate_gons(table, k)
        assert got == [x for x in itertools.combinations(range(n), k) if is_gon(table, x)]


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_three_hole_table_is_exact(seed):
    s = random_point_set(8, random.Random(seed))
    ext = s.hole_ext
    for a, b, c in itertools.combinations(range(8), 3):
        assert (ext[a][b] >> c & 1 == 1) == oracle_is_hole(s, (a, b, c))


@given(st.integers(0, 10**6), st.sampled_from([(2, 2), (2, 4), (3, 3), (3, 4), (4, 4)]))
@settings(max_examples=40, deadline=None)
def test_hulls_disjoint_matches_brute_oracle(seed, sizes):
    rng = random.Random(seed)
    s = random_point_set(sizes[0] + sizes[1] + 2, rng)
    idx = list(range(len(s)))
    x1 = tuple(sorted(rng.sample(idx, sizes[0])))
    x2 = tuple(sorted(rng.sample([i for i in idx if i not in x1], sizes[1])))
    assert hulls_disjoint(s, x1, x2) == oracle_hulls_disjoint(s, x1, x2)


@given(st.integers(0, 10**6), st.sampled_from([(3, 3), (3, 4), (4, 4)]))
@settings(max_examples=40, deadline=None)
def test_interior_disjoint_matches_crossing_oracle(seed, sizes):
    rng = random.Random(seed)
    s = random_point_set(sizes[0] + sizes[1] + 1, rng)
    idx = list(range(len(s)))
    x1 = tuple(sorted(rng.sample(idx, sizes[0])))
    pool = [i for i in idx if i not in x1] + list(x1)
    x2 = tuple(sorted(set(rng.sample(pool, sizes[1]))))
    if len(x2) < 3 or len(set(x1) & set(x2)) > 2:
        return
    assert hulls_interior_disjoint(s, x1, x2) == oracle_interior_disjoint(s, x1, x2)
    if hulls_disjoint(s, x1, x2):
        assert hulls_interior_disjoint(s, x1, x2)


def test_shared_vertices_allowed_only_interior():
    # two triangles sharing an edge: interior-disjoint but not disjoint
    s = PointSet([(0, 0), (4, 1), (2, 3), (2, -3)])
    assert hulls_interior_disjoint(s, (0, 1, 2), (0, 1, 3))
    assert not hulls_disjoint(s, (0, 1, 2), (0, 1, 3))
    # three shared vertices is impossible for interior-disjoint hulls
    s5 = PointSet([(0, 0), (4, 1), (2, 3), (2, -3), (9, 9)])
    assert not hulls_interior_disjoint(s5, (0, 1, 2), (0, 1, 4))


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_find_disjoint_tuple_matches_brute_force(seed):
    s = random_point_set(8, random.Random(seed))
    for sizes, mode in (((3, 3), "disjoint"), ((3, 3), "interior-disjoint")):
        compatible = hulls_disjoint if mode == "disjoint" else hulls_interior_disjoint
        brute = any(
            oracle_is_hole(s, x1) and oracle_is_hole(s, x2) and compatible(s, x1, x2)
            for x1 in itertools.combinations(range(8), 3)
            for x2 in itertools.combinations(range(8), 3)
            if x1 < x2
        )
        found = find_disjoint_tuple(s, sizes, mode)
        assert (found is not None) == brute
        if found is not None:
            h1, h2 = found
            assert oracle_is_hole(s, h1) and oracle_is_hole(s, h2)
            assert compatible(s, h1, h2)


def test_two_hole_pair_semantics():
    # 2-holes are plain pairs: 4 points always split into two disjoint pairs
    square = PointSet([(0, 0), (10, 0), (10, 10), (0, 11)])
    found = find_disjoint_tuple(square, (2, 2), "disjoint")
    assert found is not None
    tri = PointSet([(0, 0), (10, 0), (5, 8)])
    assert find_disjoint_tuple(tri, (2, 2), "disjoint") is None


# --- tuple search: vertex pre-filter and table bitmasks --------------------

def _brute_tuples(by_size, sizes, decide):
    """Compatible position tuples in search order, every pair decided."""
    neighbours = {}
    slot_pairs = itertools.combinations(range(len(sizes)), 2)
    for ka, kb in {(sizes[i], sizes[j]) for i, j in slot_pairs}:
        # equal sizes take increasing positions, so only later holes matter
        neighbours[ka, kb] = [
            {
                v for v, hv in enumerate(by_size[kb])
                if (ka != kb or v > u) and decide(hu, hv)
            }
            for u, hu in enumerate(by_size[ka])
        ]

    def extend(prefix):
        pos = len(prefix)
        if pos == len(sizes):
            yield prefix
            return
        candidates = set(range(len(by_size[sizes[pos]])))
        for i, u in enumerate(prefix):
            candidates &= neighbours[sizes[i], sizes[pos]][u]
        for v in sorted(candidates):
            yield from extend(prefix + [v])

    return extend([])


@pytest.mark.parametrize("n", range(7, 13))
def test_prefiltered_tuple_search_matches_unfiltered_pairs(n):
    # the search skips vertex-sharing pairs in disjoint mode; a brute force
    # that asks the decider about every pair must agree, on both oracles
    s = canonicalize(random_point_set(n, random.Random(100 + n)))
    sig = chirotope(s)
    oracles = (
        (s, enumerate_holes, hulls_disjoint, hulls_interior_disjoint),
        (sig, abstract.enumerate_holes, abstract.holes_disjoint,
         abstract.holes_interior_disjoint),
    )
    for sizes in ((4, 5), (5, 5), (2, 5), (3, 3, 3)):
        for mode in ("disjoint", "interior-disjoint"):
            if mode == "interior-disjoint" and min(sizes) < 3:
                continue
            for target, enum, disjoint, interior in oracles:
                decider = disjoint if mode == "disjoint" else interior
                asked = []

                def recording(target, xa, xb, decider=decider):
                    asked.append((xa, xb))
                    return decider(target, xa, xb)

                by_size = {k: enum(target, k) for k in set(sizes)}
                brute = list(_brute_tuples(
                    by_size, sizes, lambda xa, xb: decider(target, xa, xb)
                ))
                assert count_tuples(disjoint_tuples(
                    target, sizes, mode, enum, recording, recording
                )) == len(brute)
                first = first_tuple(disjoint_tuples(
                    target, sizes, mode, enum, recording, recording
                ))
                expected = (
                    [by_size[k][u] for k, u in zip(sizes, brute[0])] if brute else None
                )
                assert first == expected, (sizes, mode)
                if mode == "disjoint":
                    assert not any(set(xa) & set(xb) for xa, xb in asked)
    # the bitmask decider against hull intersection from coordinates,
    # vertex-sharing pairs included
    four, five = enumerate_holes(s, 4), enumerate_holes(s, 5)
    for h4 in four[:: max(1, len(four) // 12)]:
        for h5 in five:
            assert hulls_disjoint(s, h4, h5) == oracle_hulls_disjoint(s, h4, h5)


@pytest.mark.parametrize("n", (8, 10))
def test_non_monotone_sizes_match_brute_force(n):
    # a later slot pair may need the rows of a larger size against a
    # smaller one, which the search decides directly
    s = canonicalize(random_point_set(n, random.Random(300 + n)))
    sig = chirotope(s)
    oracles = (
        (s, enumerate_holes, hulls_disjoint, hulls_interior_disjoint),
        (sig, abstract.enumerate_holes, abstract.holes_disjoint,
         abstract.holes_interior_disjoint),
    )
    for sizes in ((5, 4), (4, 5, 4), (4, 3, 4)):
        for mode in ("disjoint", "interior-disjoint"):
            for target, enum, disjoint, interior in oracles:
                decider = disjoint if mode == "disjoint" else interior
                by_size = {k: enum(target, k) for k in set(sizes)}
                brute = list(_brute_tuples(
                    by_size, sizes, lambda xa, xb: decider(target, xa, xb)
                ))
                search = (target, sizes, mode, enum, disjoint, interior)
                assert count_tuples(disjoint_tuples(*search)) == len(brute)
                assert first_tuple(disjoint_tuples(*search)) == (
                    [by_size[k][u] for k, u in zip(sizes, brute[0])] if brute else None
                )


def test_enumeration_and_tuple_search_leave_no_cyclic_garbage():
    # a recursive closure is a reference cycle: each call would leave its
    # tables for the cyclic collector, whose pauses land in later calls
    s = random_point_set(12, random.Random(5))
    gc.collect()
    gc.disable()
    try:
        enumerate_holes(s, 5)
        find_disjoint_tuple(s, (4, 5))
        count_tuples(disjoint_tuples(
            s, (4, 5), "disjoint", enumerate_holes, hulls_disjoint, hulls_interior_disjoint
        ))
        assert gc.collect() == 0
    finally:
        gc.enable()
