"""Orientation-only hole analysis must agree with the geometric one.

Every predicate here consumes only a Signotope; on chirotopes of actual
point sets it must reproduce the coordinate-based results exactly.
"""

from __future__ import annotations

import ast
import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holesat import abstract
from holesat import holes as geo
from holesat.geometry import canonicalize, check_signotope, chirotope

from conftest import oracle_is_hole, random_point_set, random_signotope


def _canonical(seed: int, n: int):
    s = canonicalize(random_point_set(n, random.Random(seed)))
    return s, chirotope(s)


@given(st.integers(0, 10**6), st.integers(min_value=4, max_value=8))
@settings(max_examples=40, deadline=None)
def test_in_triangle_matches_geometry(seed, n):
    s, sig = _canonical(seed, n)
    for tri in itertools.combinations(range(n), 3):
        for i in range(n):
            if i in tri:
                continue
            assert abstract.in_triangle(sig, i, *tri) == geo.in_triangle(s, i, *tri)


@given(st.integers(0, 10**6), st.integers(min_value=4, max_value=8))
@settings(max_examples=30, deadline=None)
def test_gons_and_holes_match_geometry(seed, n):
    s, sig = _canonical(seed, n)
    for k in range(3, min(n, 6) + 1):
        for xs in itertools.combinations(range(n), k):
            assert abstract.is_gon(sig, xs) == geo.is_gon(s, xs)
            assert abstract.is_hole(sig, xs) == oracle_is_hole(s, xs)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_tables_and_enumeration_match_geometry(seed):
    n = 9
    s, sig = _canonical(seed, n)
    assert sig.hole_ext == s.hole_ext
    for k in (2, 3, 4, 5):
        assert abstract.enumerate_holes(sig, k) == geo.enumerate_holes(s, k)
    gons4 = {xs for xs in itertools.combinations(range(n), 4) if geo.is_gon(s, xs)}
    assert abstract.enumerate_gons(sig, 4) == sorted(gons4)
    assert abstract.enumerate_gons(sig, 5) == [
        xs for xs in itertools.combinations(range(n), 5) if geo.is_gon(s, xs)
    ]


@pytest.mark.parametrize("n", range(9, 13))
def test_shared_table_on_random_signotopes(n):
    # signotopes from random pseudoline arrangements, not from point sets
    rng = random.Random(n)
    for _ in range(8):
        sig = random_signotope(n, rng)
        assert check_signotope(sig) == []
        empty = set()
        for a, b, c in itertools.combinations(range(n), 3):
            inside = [
                i for i in range(n)
                if i not in (a, b, c) and abstract.in_triangle(sig, i, a, b, c)
            ]
            # the precondition abstract.is_hole relies on
            assert all(a < i < c for i in inside)
            if not inside:
                empty.add((a, b, c))
        assert set(abstract.enumerate_holes(sig, 3)) == empty
        for k in (4, 5):
            assert abstract.enumerate_holes(sig, k) == [
                xs for xs in itertools.combinations(range(n), k)
                if abstract.is_hole(sig, xs)
            ]


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_containment_needs_label_between_endpoints(seed):
    # under the sign-change axioms a point inside triangle {a,b,c} always
    # carries a label strictly between a and c
    n = 8
    _, sig = _canonical(seed, n)
    for a, b, c in itertools.combinations(range(n), 3):
        for i in range(n):
            if i in (a, b, c) or a < i < c:
                continue
            assert not abstract.in_triangle(sig, i, a, b, c)


@given(st.integers(0, 10**6), st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]))
@settings(max_examples=30, deadline=None)
def test_disjointness_predicates_match_geometry(seed, sizes):
    n = sum(sizes) + 2
    s, sig = _canonical(seed, n)
    k1, k2 = sizes
    for x1 in itertools.combinations(range(n), k1):
        if not oracle_is_hole(s, x1) and k1 > 2:
            continue
        for x2 in itertools.combinations(range(n), k2):
            if set(x1) & set(x2):
                continue
            assert abstract.holes_disjoint(sig, x1, x2) == geo.hulls_disjoint(s, x1, x2)
            assert abstract.holes_disjoint(sig, x2, x1) == abstract.holes_disjoint(
                sig, x1, x2
            )


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_interior_disjointness_matches_geometry(seed):
    n = 8
    s, sig = _canonical(seed, n)
    for x1 in itertools.combinations(range(n), 3):
        for x2 in itertools.combinations(range(n), 3):
            if len(set(x1) & set(x2)) > 2 or x2 <= x1:
                continue
            assert abstract.holes_interior_disjoint(sig, x1, x2) == geo.hulls_interior_disjoint(s, x1, x2)


@given(st.integers(0, 10**6))
@settings(max_examples=12, deadline=None)
def test_interior_disjointness_matches_geometry_above_3_holes(seed):
    # pairs of 3-, 4- and 5-holes sharing at most 2 vertices, (3, 3) left to the test above
    n = 9
    s, sig = _canonical(seed, n)
    holes = [h for k in (3, 4, 5) for h in geo.enumerate_holes(s, k)]
    for x1, x2 in itertools.combinations(holes, 2):
        if len(x1) + len(x2) > 6 and len(set(x1) & set(x2)) <= 2:
            assert abstract.holes_interior_disjoint(sig, x1, x2) == geo.hulls_interior_disjoint(s, x1, x2)


@given(st.integers(0, 10**6), st.sampled_from(["disjoint", "interior-disjoint"]))
@settings(max_examples=20, deadline=None)
def test_find_disjoint_tuple_matches_geometry(seed, mode):
    n = 8
    s, sig = _canonical(seed, n)
    got = abstract.find_disjoint_tuple(sig, (3, 3), mode)
    want = geo.find_disjoint_tuple(s, (3, 3), mode)
    assert (got is None) == (want is None)
    if got is not None:
        h1, h2 = got
        assert abstract.is_hole(sig, h1) and abstract.is_hole(sig, h2)
        check = (
            abstract.holes_disjoint if mode == "disjoint"
            else abstract.holes_interior_disjoint
        )
        assert check(sig, h1, h2)


def test_disjointness_deciders_stay_independent():
    # the orientation oracle must decide disjointness with its own code,
    # never with the coordinate oracle's hull geometry
    banned = {
        "hulls_disjoint",
        "hulls_interior_disjoint",
        "_separates",
        "_proper_cross",
        "hull_order",
        "strictly_inside_hull",
    }
    tree = ast.parse(Path(abstract.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {alias.name for alias in node.names}
            # the module itself would expose every name
            assert not {"holes", "holesat.holes"} & names
            if getattr(node, "module", None) in ("holes", "holesat.holes"):
                imported |= names
    assert imported, "expected the shared predicates to come from holes"
    assert not imported & (banned | {"*"})


# (predicate, reads the signotope, takes two sets, members too few for it
# besides none, its size error for both)
_PREDICATES = [
    (geo.is_gon, False, False, [0, 1], "a gon needs"),
    (geo.hulls_disjoint, False, True, [], "nonempty"),
    (geo.hulls_interior_disjoint, False, True, [0, 1], "at least 3 points each"),
    (abstract.is_hole, True, False, [0], "a hole needs"),
    (abstract.holes_disjoint, True, True, [], "nonempty"),
    (abstract.holes_interior_disjoint, True, True, [0, 1], "at least 3 points each"),
]


@pytest.mark.parametrize(
    "predicate, on_sig, pair, too_few, size_error", _PREDICATES,
    ids=[f"{p[0].__module__.rsplit('.', 1)[1]}.{p[0].__name__}" for p in _PREDICATES],
)
def test_bad_members_raise_the_same_errors_everywhere(
    predicate, on_sig, pair, too_few, size_error
):
    n = 8
    s, sig = _canonical(3, n)
    table = sig if on_sig else s
    other = (5, 6, 7)
    # a two-set decider sees the members under test in either slot
    calls = [
        lambda x: predicate(table, x, other), lambda x: predicate(table, other, x)
    ] if pair else [lambda x: predicate(table, x)]
    for run in calls:
        with pytest.raises(ValueError, match="duplicate"):
            run([0, 2, 2, 3])
        for bad in (n, -1):
            with pytest.raises(IndexError, match="out of range"):
                run([0, 2, bad])
        for few in ([], too_few):
            with pytest.raises(ValueError, match=size_error):
                run(few)


@pytest.mark.parametrize("sizes, mode, error", [
    ((), "disjoint", "two-disjoint-holes takes two or more sizes, got ()"),
    ((2, 5), "interior-disjoint", "two-interior-disjoint-holes takes no size below 3, got (2, 5)"),
    ((3, 3), "overlapping", "unknown mode 'overlapping'"),
    # one size is no tuple
    ((5,), "disjoint", "two-disjoint-holes takes two or more sizes, got (5,)"),
    ((5,), "interior-disjoint", "two-interior-disjoint-holes takes two or more sizes, got (5,)"),
], ids=[
    "disjoint-no-sizes", "interior-disjoint-2,5", "overlapping-3,3", "disjoint-5",
    "interior-disjoint-5",
])
@pytest.mark.parametrize("on_sig", [False, True], ids=["PointSet", "Signotope"])
def test_tuple_search_rejects_bad_sizes_and_modes(on_sig, sizes, mode, error):
    s, sig = _canonical(3, 8)
    find = abstract.find_disjoint_tuple if on_sig else geo.find_disjoint_tuple
    with pytest.raises(ValueError, match=re.escape(error)):
        find(sig if on_sig else s, sizes, mode)


@pytest.mark.parametrize("on_sig", [False, True], ids=["PointSet", "Signotope"])
def test_in_triangle_rejects_bad_indices(on_sig):
    # in_triangle reads its three left rows unchecked, so it checks indices first
    n = 8
    s, sig = _canonical(3, n)
    table = sig if on_sig else s
    for repeated in ((1, 1, 2, 3), (2, 1, 2, 3), (3, 1, 2, 3), (4, 1, 1, 3), (4, 2, 3, 2)):
        with pytest.raises(ValueError, match="duplicate"):
            abstract.in_triangle(table, *repeated)
    for bad in (n, -1):
        with pytest.raises(IndexError, match="out of range"):
            abstract.in_triangle(table, bad, 1, 2, 3)
        with pytest.raises(IndexError, match="out of range"):
            abstract.in_triangle(table, 4, 1, 2, bad)
    # so does the enumeration with its kind, before it builds or keeps any table
    with pytest.raises(ValueError, match="unknown kind 'holes'"):
        (abstract if on_sig else geo).enumerate_from_table(table, 4, "holes")
    assert table.memo == {}


@given(st.integers(0, 10**6), st.integers(min_value=6, max_value=11))
@settings(max_examples=30, deadline=None)
def test_member_order_does_not_matter(seed, n):
    s, sig = _canonical(seed, n)
    rng = random.Random(seed)

    def orders(x):
        shuffled = list(x)
        rng.shuffle(shuffled)
        return [sorted(x), sorted(x, reverse=True), shuffled]

    holes = [h for k in (3, 4, 5) for h in geo.enumerate_holes(s, k)]
    subsets = [rng.sample(range(n), rng.randint(3, 6)) for _ in range(10)]
    for x in subsets + rng.sample(holes, min(10, len(holes))):
        for name, got in (
            ("is_gon", [geo.is_gon(s, xs) for xs in orders(x)]),
            ("is_gon(sig)", [abstract.is_gon(sig, xs) for xs in orders(x)]),
            ("abstract.is_hole", [abstract.is_hole(sig, xs) for xs in orders(x)]),
        ):
            assert got.count(got[0]) == len(got), (name, x, got)
    deciders = (
        lambda a, b: geo.hulls_disjoint(s, a, b),
        lambda a, b: geo.hulls_interior_disjoint(s, a, b),
        lambda a, b: abstract.holes_disjoint(sig, a, b),
        lambda a, b: abstract.holes_interior_disjoint(sig, a, b),
    )
    for _ in range(20):
        x1, x2 = rng.sample(holes + subsets, 2)
        for decide in deciders:
            got = [decide(a, b) for a, b in zip(orders(x1), orders(x2))]
            assert got.count(got[0]) == len(got), (x1, x2, got)
