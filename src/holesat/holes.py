"""Detection and enumeration of k-gons, k-holes, and disjoint hole tuples.

Predicates read ``s.n`` and the tables that point sets and signotopes alike
fill on construction: the bitmasks ``s.left`` (gon, triangle and
disjointness deciders; triangles by :func:`open_triangle`) or the 3-hole
rows ``s.hole_ext`` (hole enumeration: one walk per set serves every size,
kept in ``s.memo``, which a moved set of the same order type shares).
Nothing here assumes a canonical labeling; the tests' references orient the
points themselves. A *k-gon* is a subset in convex position, a *k-hole* a
k-gon whose hull holds no other point; in general position every 2-subset is
a (degenerate) hole. Holes and gons are sorted index tuples; predicates take
members in any order, which :func:`_members` checks and masks.

The orientation-only predicates, the hole and gon enumerations and the
tuple search (:func:`disjoint_tuples`, read by :func:`first_tuple` and
:func:`count_tuples`) serve :mod:`holesat.abstract` too, with its own
disjointness deciders. ``MODE_RULES`` gives per mode what its sizes count
("hole" or "gon"), the disjointness of two holes (None: none), its least
size and how many sizes it takes, which :func:`check_sizes` enforces.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Literal, Sequence

from .geometry import PointSet, open_triangle

DisjointMode = Literal["disjoint", "interior-disjoint"]
MODE_RULES = {
    "two-disjoint-holes": ("hole", "disjoint", 2, 2),
    "two-interior-disjoint-holes": ("hole", "interior-disjoint", 3, 2),
    "forbid-hole": ("hole", None, 3, 1),
    "forbid-gon": ("gon", None, 4, 1),
    "count-holes": ("hole", None, 3, 1),
}
MODES = tuple(MODE_RULES)
SIZE_KIND = {mode: kind for mode, (kind, *_) in MODE_RULES.items()}
DISJOINT_FLAVOR = {mode: flavor for mode, (_, flavor, *_) in MODE_RULES.items() if flavor}
DISJOINT_MODES = tuple(DISJOINT_FLAVOR)


def check_sizes(mode: str, sizes: Sequence[int]) -> None:
    """Raise ValueError unless ``mode`` takes ``sizes``, as ``MODE_RULES`` says."""
    _, _, least, arity = MODE_RULES[mode]
    count = "one size" if arity == 1 else "two or more sizes"
    if len(sizes) < arity or (arity == 1 and len(sizes) > 1):
        raise ValueError(f"{mode} takes {count}, got {tuple(sizes)}")
    if min(sizes) < least:
        raise ValueError(f"{mode} takes no size below {least}, got {tuple(sizes)}")


def _members(s: PointSet, x: Iterable[int]) -> tuple[tuple[int, ...], int]:
    """The members of x in the order given and their bitmask; bad indices raise."""
    xs = tuple(x)
    mask, n = 0, s.n
    for i in xs:
        if not 0 <= i < n:
            raise IndexError(f"index {i} out of range in {xs}")
        mask |= 1 << i
    if mask.bit_count() != len(xs):
        raise ValueError(f"duplicate indices in {xs}")
    return xs, mask


def in_triangle(s: PointSet, i: int, a: int, b: int, c: int) -> bool:
    """True iff point (label) i lies strictly inside triangle (a, b, c): on the
    side of each edge that holds the opposite vertex (:func:`open_triangle`)."""
    _members(s, (i, a, b, c))  # ValueError on a repeated index, IndexError out of range
    return open_triangle(s.left, a, b, c) >> i & 1 == 1


def is_gon(s: PointSet, x: Iterable[int]) -> bool:
    """True iff the subset is in convex position: no member inside its hull."""
    xs, mask = _members(s, x)
    if len(xs) < 3:
        raise ValueError("a gon needs at least 3 points")
    return not _hull_interior(s.left, xs) & mask


def enumerate_from_table(s: PointSet, k: int, kind: str) -> list[tuple[int, ...]]:
    """All k-holes (kind "hole") or k-gons (kind "gon"), lexicographically.

    Every 2-subset is a hole and every 3-subset a gon. Above that, a subset
    is a hole iff every 3-subset is a 3-hole, and a gon iff every 4-subset
    is a 4-gon, so one table decides all larger sizes: ``s.hole_ext``, or
    rows built from :func:`is_gon`. One walk finds every size up to k and
    keeps them in ``s.memo``, so a smaller size asked later costs a copy.
    Sizes above n have none; sizes below the least and other kinds are errors.
    """
    if kind not in SIZE_KIND.values():
        raise ValueError(f"unknown kind {kind!r}")
    least = 2 if kind == "hole" else 3
    if k < least:
        raise ValueError(f"{kind} size {k} is below {least}")
    if k > s.n:
        return []
    found = s.memo.get(kind, ())
    if len(found) <= k:
        # ext[u][j]: bitmask of the points c such that u + (j, c) is in the
        # table, u a point (holes) or a pair of points (gons)
        if kind == "hole":
            ext = s.hole_ext
        else:
            ext = {u: [0] * s.n for u in itertools.combinations(range(s.n), 2)}
            for a, b, c, d in itertools.combinations(range(s.n), 4):
                if is_gon(s, (a, b, c, d)):
                    ext[a, b][c] |= 1 << d
        found = s.memo[kind] = [[] for _ in range(k + 1)]
        _grow(found, ext, kind == "gon", (), (1 << s.n) - 1)
    return list(found[k])


def _grow(found, ext, pairs: bool, xs: tuple[int, ...], candidates: int) -> None:
    # depth-first in lexicographic order, so each found[m] comes out sorted;
    # candidates are the points c after xs[-1] for which every subset of
    # xs + (c,) of the table's size that contains c is in the table. Not a
    # closure: a recursive closure is a reference cycle, which leaves every
    # call's tables to the cyclic GC.
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        j = low.bit_length() - 1
        ys = xs + (j,)
        found[len(ys)].append(ys)
        if len(ys) < len(found) - 1:
            nxt = candidates
            for u in itertools.combinations(xs, 2) if pairs else xs:
                nxt &= ext[u][j]
            if nxt:
                _grow(found, ext, pairs, ys, nxt)


def enumerate_holes(s: PointSet, k: int) -> list[tuple[int, ...]]:
    """All k-holes in lexicographic index order; see :func:`enumerate_from_table`."""
    return enumerate_from_table(s, k, "hole")


def enumerate_gons(s: PointSet, k: int) -> list[tuple[int, ...]]:
    """All k-gons in lexicographic index order; see :func:`enumerate_from_table`."""
    return enumerate_from_table(s, k, "gon")


def hulls_disjoint(s: PointSet, x1: Iterable[int], x2: Iterable[int]) -> bool:
    """True iff conv(x1) and conv(x2) are disjoint.

    Decided by the existence of a separating pair: points a in x1, b in x2
    such that every other point of x1 is strictly left of line a->b and
    every other point of x2 strictly right. Disjoint hulls have two inner
    common tangents; directed from x1's vertex to x2's, one has x1 on its
    left and the other on its right, so one side is enough.
    """
    a1, m1 = _members(s, x1)
    a2, m2 = _members(s, x2)
    if not a1 or not a2:
        raise ValueError("subsets must be nonempty")
    if m1 & m2:
        return False
    left = s.left
    for a in a1:
        row = left[a]
        for b in a2:
            # general position: every point off the line is left or right
            if not (m2 & row[b] or m1 & left[b][a]):
                return True
    return False


def hulls_interior_disjoint(s: PointSet, x1: Iterable[int], x2: Iterable[int]) -> bool:
    """True iff the open interiors of conv(x1) and conv(x2) are disjoint.

    Shared vertices (up to two) and shared edges are allowed. Decided by
    exact open-polygon intersection: three or more shared vertices, a member
    of one set strictly inside the other hull, or a proper crossing of hull
    edges all witness overlapping interiors; under general position nothing
    else can. Each subset needs 3 points, the least interior hole size.
    """
    a1, m1 = _members(s, x1)
    a2, m2 = _members(s, x2)
    if len(a1) < 3 or len(a2) < 3:
        raise ValueError("interior-disjointness needs at least 3 points each")
    if (m1 & m2).bit_count() >= 3:
        return False
    left = s.left
    if m1 & _hull_interior(left, a2) or m2 & _hull_interior(left, a1):
        return False
    edges2 = _hull_edges(left, a2, m2)
    for p, q in _hull_edges(left, a1, m1):
        row = left[p][q]
        for u, v in edges2:
            # a proper crossing: four distinct endpoints, each edge's
            # endpoints on opposite sides of the other edge's line
            if (
                p != u and p != v and q != u and q != v
                and (row >> u ^ row >> v) & 1
                and (left[u][v] >> p ^ left[u][v] >> q) & 1
            ):
                return False
    return True


def _hull_interior(left, xs: Sequence[int]) -> int:
    """Bitmask of the points strictly inside conv(xs).

    Under general position that is the union of the open triangles of xs,
    each an :func:`open_triangle` mask.
    """
    inside = 0
    for a, b, c in itertools.combinations(xs, 3):
        inside |= open_triangle(left, a, b, c)
    return inside


def _hull_edges(left, xs: Sequence[int], members: int) -> list[tuple[int, int]]:
    """Counterclockwise hull edges u->v of xs: every other member strictly left."""
    return [
        (u, v)
        for u in xs
        for v in xs
        if u != v and members & ~left[u][v] == 1 << u | 1 << v
    ]


def find_disjoint_tuple(
    s: PointSet,
    sizes: Sequence[int],
    mode: DisjointMode = "disjoint",
) -> list[tuple[int, ...]] | None:
    """Pairwise (interior-)disjoint holes of the requested sizes, or None.

    The search is exhaustive, so None proves absence (a lower-bound witness).
    """
    return first_tuple(disjoint_tuples(
        s, sizes, mode, enumerate_holes, hulls_disjoint, hulls_interior_disjoint
    ))


def first_tuple(tuples) -> list[tuple[int, ...]] | None:
    """The first tuple a :func:`disjoint_tuples` search finds, or None."""
    for chosen, last, holes in tuples:
        return chosen + [holes[(last & -last).bit_length() - 1]]
    return None


def count_tuples(tuples) -> int:
    """Number of tuples a :func:`disjoint_tuples` search finds."""
    return sum(last.bit_count() for _, last, _ in tuples)


def disjoint_tuples(
    s, sizes: Sequence[int], mode: DisjointMode,
    enumerate_holes, disjoint, interior_disjoint,
) -> Iterator[tuple[list[tuple[int, ...]], int, list[tuple[int, ...]]]]:
    """Depth-first search for pairwise compatible holes, stopped one slot early.

    The oracle's own hole enumeration and disjointness deciders are
    arguments; :func:`check_sizes` checks the sizes for the flavor's mode
    (two or more). Each size class is enumerated once, largest first,
    so one walk finds them all, and compatibility is decided once per
    ordered size pair of two slots, as bitmask rows (:func:`_compat_rows`).
    Yields, in search order, the holes chosen for all slots but the last
    (a list reused between yields), the nonzero bitmask of the last slot's
    candidates, and that slot's hole list. Equal-size slots take
    increasing positions, so each set of holes is found once.
    """
    decide = {"disjoint": disjoint, "interior-disjoint": interior_disjoint}.get(mode)
    if decide is None:
        raise ValueError(f"unknown mode {mode!r}")
    check_sizes(next(m for m, flavor in DISJOINT_FLAVOR.items() if flavor == mode), sizes)
    by_size = {k: enumerate_holes(s, k) for k in sorted(set(sizes), reverse=True)}
    classes = [by_size[k] for k in sizes]
    if not all(classes):
        return
    table = {
        (a, b): _compat_rows(s, by_size[a], by_size[b], mode == "disjoint", decide)
        for a, b in set(itertools.combinations(sizes, 2))
    }
    # rows[i][j - i - 1]: the rows from slot i's class to slot j's
    rows = [[table[a, b] for b in sizes[i + 1:]] for i, a in enumerate(sizes)]
    yield from _tuple_dfs(classes, rows, [], 0, [(1 << len(c)) - 1 for c in classes])


def _compat_rows(s, ci, cj, prefilter: bool, decide) -> list[int]:
    """``rows[u]``: bitmask over ``cj`` of the holes compatible with ``ci[u]``.

    When ``ci is cj``, only the holes after u count. With ``prefilter``
    (disjoint mode), a vertex-sharing pair never reaches the decider.
    """
    # touching[p]: the holes of cj with vertex p; apart[p]: all others
    touching = [0] * s.n
    if prefilter:
        for v, hv in enumerate(cj):
            for p in hv:
                touching[p] |= 1 << v
    apart = [~t for t in touching]
    everything = (1 << len(cj)) - 1
    out = []
    for u, hu in enumerate(ci):
        candidates = everything & -(2 << u) if ci is cj else everything
        for p in hu:
            candidates &= apart[p]
        row = 0
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            if decide(s, hu, cj[low.bit_length() - 1]):
                row |= low
        out.append(row)
    return out


def _tuple_dfs(classes, rows, chosen: list, pos: int, candidates: list[int]):
    # the search of disjoint_tuples from slot pos on; a module function,
    # not a closure, for the reason given at _grow. An equal-size row
    # holds only later holes, which keeps equal-size slots increasing.
    mask = candidates[pos]
    while mask:
        low = mask & -mask
        u = low.bit_length() - 1
        mask ^= low
        nxt = list(candidates)
        for j, row in enumerate(rows[pos], pos + 1):
            nxt[j] &= row[u]
            if not nxt[j]:
                break
        else:
            chosen.append(classes[pos][u])
            if pos + 2 < len(classes):
                yield from _tuple_dfs(classes, rows, chosen, pos + 1, nxt)
            else:  # the last slot's candidates, without one more generator level
                yield chosen, nxt[-1], classes[-1]
            chosen.pop()
