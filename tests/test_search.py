"""Annealing witness search: objectives, counting, determinism, restarts."""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import multiprocessing
import random
import re
import signal
import threading

import pytest

from holesat import search
from holesat.constructions import generate_double_circle, witness
from holesat.geometry import GeneralPositionError, PointSet
from holesat.holes import (
    enumerate_gons,
    enumerate_holes,
    hulls_disjoint,
    hulls_interior_disjoint,
    is_gon,
)
from holesat.search import (
    OBJECTIVE_MODES,
    SearchObjective,
    local_search,
    objective_count,
    search_witness,
)

from conftest import MODE_SIZES, random_point_set


# --- objective validation -------------------------------------------------

def test_objective_validation():
    SearchObjective("forbid-hole", (5,))
    SearchObjective("two-disjoint-holes", (2, 4, 4))
    with pytest.raises(ValueError, match="unknown objective mode"):
        SearchObjective("no-such-mode", (5,))
    for mode, sizes, error in [
        ("forbid-gon", (5, 5), "forbid-gon takes one size, got (5, 5)"),
        ("two-disjoint-holes", (5,), "two-disjoint-holes takes two or more sizes, got (5,)"),
        ("forbid-hole", (2,), "forbid-hole takes no size below 3, got (2,)"),
        ("two-interior-disjoint-holes", (2, 4),
         "two-interior-disjoint-holes takes no size below 3, got (2, 4)"),
        # every 3-subset is a 3-gon
        ("forbid-gon", (3,), "forbid-gon takes no size below 4, got (3,)"),
    ]:
        with pytest.raises(ValueError, match=re.escape(error)):
            SearchObjective(mode, sizes)


@pytest.mark.parametrize("mode", OBJECTIVE_MODES)
def test_objective_least_size_is_the_encoders(mode):
    least, arity = MODE_SIZES[mode]
    assert SearchObjective(mode, (least,) * arity).sizes == (least,) * arity
    bad = (least,) * (arity - 1) + (least - 1,)
    error = f"{mode} takes no size below {least}, got {bad}"
    with pytest.raises(ValueError, match=re.escape(error) + "$"):
        SearchObjective(mode, bad)


def test_objective_describe():
    assert SearchObjective("forbid-gon", (6,)).describe() == "6-gons"
    assert "5/5" in SearchObjective("two-disjoint-holes", (5, 5)).describe()
    assert "interior-disjoint" in SearchObjective(
        "two-interior-disjoint-holes", (3, 3)
    ).describe()


# --- counting -------------------------------------------------------------

@pytest.mark.parametrize("k", [3, 4, 5])
def test_count_gons_matches_brute_force(k):
    s = random_point_set(8, random.Random(17))
    brute = sum(
        1 for xs in itertools.combinations(range(8), k) if is_gon(s, xs)
    )
    assert len(enumerate_gons(s, k)) == brute


def test_objective_counts_on_convex_pentagon():
    s = witness_pentagon()
    assert objective_count(s, SearchObjective("forbid-hole", (5,))) == 1
    assert objective_count(s, SearchObjective("forbid-gon", (4,))) == 5
    # five points cannot host two vertex-disjoint triangles
    assert objective_count(s, SearchObjective("two-disjoint-holes", (3, 3))) == 0


def witness_pentagon() -> PointSet:
    return PointSet([(0, 0), (100, 10), (130, 110), (50, 190), (-40, 100)])


def _brute_pair_count(s: PointSet, sizes, predicate) -> int:
    a = enumerate_holes(s, sizes[0])
    b = enumerate_holes(s, sizes[1])
    if sizes[0] == sizes[1]:
        return sum(
            1
            for i in range(len(a))
            for j in range(i + 1, len(a))
            if predicate(s, a[i], a[j])
        )
    return sum(
        1 for hu in a for hv in b if predicate(s, hu, hv)
    )


@pytest.mark.parametrize("sizes", [(3, 3), (3, 4), (4, 4)])
def test_disjoint_pair_count_matches_brute_force(sizes):
    for seed in range(6):
        s = random_point_set(9, random.Random(seed))
        assert objective_count(
            s, SearchObjective("two-disjoint-holes", sizes)
        ) == _brute_pair_count(s, sizes, hulls_disjoint)
        assert objective_count(
            s, SearchObjective("two-interior-disjoint-holes", sizes)
        ) == _brute_pair_count(s, sizes, hulls_interior_disjoint)
        if sizes == (3, 3):
            # unordered triples, mixed with a second size class
            tri = enumerate_holes(s, 3)
            brute = sum(
                1
                for i in range(len(tri))
                for j in range(i + 1, len(tri))
                for k in range(j + 1, len(tri))
                if hulls_disjoint(s, tri[i], tri[j])
                and hulls_disjoint(s, tri[i], tri[k])
                and hulls_disjoint(s, tri[j], tri[k])
            )
            assert objective_count(
                s, SearchObjective("two-disjoint-holes", (3, 3, 3))
            ) == brute


def test_bundled_witnesses_reach_zero():
    assert objective_count(
        witness("fig2-n16"), SearchObjective("two-disjoint-holes", (5, 5))
    ) == 0
    assert objective_count(
        witness("fig6-n14"),
        SearchObjective("two-interior-disjoint-holes", (5, 5)),
    ) == 0
    assert objective_count(
        witness("fig4-n21"), SearchObjective("two-disjoint-holes", (5, 5, 5))
    ) == 0


def test_double_circle_blocks_square_pair_extension():
    # 10 points: disjoint 4-hole pairs exist, but none leaves room for a
    # further 2-hole disjoint from both
    s = generate_double_circle(10)
    assert objective_count(s, SearchObjective("two-disjoint-holes", (4, 4))) == 10
    assert objective_count(s, SearchObjective("two-disjoint-holes", (2, 4, 4))) == 0


# --- annealing ------------------------------------------------------------

def test_local_search_rejects_undersized_n():
    with pytest.raises(ValueError, match="below structure size"):
        local_search(4, SearchObjective("forbid-hole", (5,)))


def test_local_search_is_deterministic():
    obj = SearchObjective("forbid-hole", (5,))
    a = local_search(7, obj, seed=3, budget=400)
    b = local_search(7, obj, seed=3, budget=400)
    assert (a is None) == (b is None)
    if a is not None:
        assert [(p.x, p.y) for p in a.points] == [(p.x, p.y) for p in b.points]


# sha256 of the comma-joined objective values of a whole restart, the
# witness re-count included: a change to any count or to the walk shows
@pytest.mark.parametrize("n, obj, seed, budget, digest, found", [
    (12, SearchObjective("two-disjoint-holes", (4, 5)), 0, 100,
     "09687d4d8cae54ce0f10ea51a7d033824f3a7b71af1754e10719c58187906cb3", False),
    (12, SearchObjective("two-disjoint-holes", (4, 5)), 1, 100,
     "7286d8f0f8e13e62be81a7bf4f1c801975d267cfe39ecb92e8a6c02f77fe4d5c", False),
    (8, SearchObjective("forbid-gon", (5,)), 0, 20000,
     "a2cdbbb967884da17b6aca10275e8ab124ca3a6d02ff2cfe13e37671ee0ed649", True),
    # 2,000 proposals without a gain send the walk back to its best set, reheated
    (10, SearchObjective("forbid-hole", (5,)), 0, 4000,
     "b67b6289b679cb89e23e37f2af793c2b2a509abc3e55edb917c9692c4aa0980f", False),
], ids=["h45-seed0", "h45-seed1", "gon5-n8", "hole5-n10-reheat"])
def test_local_search_trajectory_is_pinned(monkeypatch, n, obj, seed, budget, digest, found):
    values = []
    real = search.objective_count

    def recorded(s, o):
        values.append(real(s, o))
        return values[-1]

    monkeypatch.setattr(search, "objective_count", recorded)
    result = local_search(n, obj, seed=seed, budget=budget)
    assert (result is not None) == found
    assert hashlib.sha256(",".join(map(str, values)).encode()).hexdigest() == digest


@pytest.mark.parametrize("mode", OBJECTIVE_MODES)
def test_count_read_from_a_shared_memo_is_a_fresh_count(mode):
    # a walk of small steps: some keep the order type and read the count
    # from the memo they share, the rest count afresh; every count must be
    # that of a fresh set, and the counts must change along the walk
    least, arity = MODE_SIZES[mode]
    obj = SearchObjective(mode, (least + 1,) * arity)
    rng = random.Random(3)
    s = random_point_set(9, rng, span=20)
    counts, shared = [objective_count(s, obj)], []
    for _ in range(120):
        i = rng.randrange(s.n)
        old = s.points[i]
        try:
            new = s.moved(i, (old.x + rng.randint(-3, 3), old.y + rng.randint(-3, 3)))
        except GeneralPositionError:
            continue
        shared.append(new.memo is s.memo)
        counts.append(objective_count(new, obj))
        assert counts[-1] == objective_count(PointSet(new.points), obj)
        s = new
    assert any(shared) and not all(shared)
    assert len(set(counts)) > 1


def test_reverify_recounts_instead_of_reading_the_memo():
    obj = SearchObjective("forbid-hole", (4,))
    s = random_point_set(8, random.Random(0))
    assert objective_count(s, obj) > 0
    s.memo[obj] = 0  # a wrong count, as a stale memo would hold
    assert objective_count(s, obj) == 0
    with pytest.raises(AssertionError, match="re-verification failed"):
        search._reverify(s, obj)


def test_local_search_rebuilds_a_start_set_that_already_scores_zero(monkeypatch):
    # 3 points hold no two disjoint 2-holes, so the first random set is a witness
    obj = SearchObjective("two-disjoint-holes", (2, 2))
    checked = []
    reverify = search._reverify
    monkeypatch.setattr(search, "_reverify", lambda s, o: checked.append(s) or reverify(s, o))
    found = local_search(3, obj, seed=0, budget=0)
    assert len(checked) == 1 and checked[0].memo[obj] == 0
    assert found == checked[0] and found is not checked[0]
    assert found.memo is not checked[0].memo and found.memo[obj] == 0
    assert objective_count(PointSet(found.points), obj) == 0


def test_local_search_finds_gon_free_set():
    obj = SearchObjective("forbid-gon", (5,))
    found = local_search(8, obj, seed=0, budget=20000)
    assert found is not None
    assert len(found) == 8
    assert len(enumerate_gons(found, 5)) == 0


def test_local_search_finds_interior_disjoint_free_set():
    obj = SearchObjective("two-interior-disjoint-holes", (4, 4))
    found = local_search(6, obj, seed=0, budget=20000)
    assert found is not None
    assert objective_count(found, obj) == 0


def test_search_witness_sequential_reports_seed():
    obj = SearchObjective("forbid-gon", (5,))
    hit = search_witness(8, obj, seeds=[5, 6], budget=20000, workers=1)
    assert hit is not None
    found, seed = hit
    assert seed in (5, 6)
    assert objective_count(found, obj) == 0


def test_search_witness_gives_up_on_impossible_target():
    # every general-position set of 5 points contains an empty triangle
    obj = SearchObjective("forbid-hole", (3,))
    assert search_witness(5, obj, seeds=[0], budget=200, workers=1) is None


def test_search_witness_pool_raises_when_box_too_small():
    # every restart fails at once; the error must surface, not hang the pool
    obj = SearchObjective("forbid-gon", (5,))
    with pytest.raises(ValueError, match="box 1 too small for n=8"):
        search_witness(8, obj, seeds=range(4), box=1, workers=2)


@contextlib.contextmanager
def _deadline(seconds: int):
    # a hung pool fails the test instead of stalling the run
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_pooled_success_matches_serial_run_and_leaves_no_workers():
    # four workers: more processes than a 2-core host has cores
    obj = SearchObjective("forbid-gon", (5,))
    with _deadline(120):
        hit = search_witness(8, obj, seeds=range(8), budget=20000, workers=4)
    assert multiprocessing.active_children() == []
    assert hit is not None
    found, seed = hit
    serial = local_search(8, obj, seed=seed, budget=20000)
    assert [(p.x, p.y) for p in found.points] == [(p.x, p.y) for p in serial.points]


def test_pooled_error_leaves_no_workers():
    obj = SearchObjective("forbid-gon", (5,))
    with _deadline(120), pytest.raises(ValueError, match="box 1 too small"):
        search_witness(8, obj, seeds=range(4), box=1, workers=4)
    assert multiprocessing.active_children() == []


def test_local_search_returns_at_a_set_stop_event(monkeypatch):
    # the restart that would find a witness gives up once another has won
    obj = SearchObjective("forbid-gon", (5,))
    assert local_search(8, obj, seed=0, budget=20000) is not None
    stop = threading.Event()
    stop.set()
    monkeypatch.setattr(search, "_stop", stop)
    assert local_search(8, obj, seed=0, budget=20000) is None
