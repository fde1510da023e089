"""Gon, hole, and disjointness semantics evaluated on a Signotope alone.

Every decision is made from triple orientations, so the predicates apply
to satisfying assignments of the CNF encodings even when no realizing point
set is known. A :class:`Signotope` carries the same orientation table as a
point set, 3-hole rows ``sig.hole_ext`` included, so the predicates that
only read orientations (``in_triangle``, ``is_gon``, hole and gon
enumeration, 4-gons included, the tuple search) are shared with
:mod:`holesat.holes` and re-exported here. The deciders here read
``sig.left`` one orientation at a time: ``is_hole`` checks the definition
directly, and disjointness is decided through separator pairs instead of
polygon intersection, which keeps the two modules independent oracles: of
the coordinate side's own code only the member check ``_members`` is
imported, no hull or disjointness code. Members come in any order; only
:func:`is_hole` sorts them, for its label-range test. The test suite
cross-checks the two on signotopes derived from point sets and at random.

Precondition throughout: ``sig`` satisfies the signotope axioms
(``check_signotope(sig) == []``). Under the axioms a label contained in a
triangle lies strictly between the triangle's least and greatest label
(any other position forces two sign changes in some 4-tuple), which
:func:`is_hole` exploits.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .geometry import Signotope
# orientation-only predicates shared with the coordinate oracle; the
# enumerations are re-exported for callers of this module
from .holes import (
    DisjointMode,
    _members,
    disjoint_tuples,
    enumerate_from_table,
    enumerate_gons,
    enumerate_holes,
    first_tuple,
    in_triangle,
    is_gon,
)


def is_hole(sig: Signotope, x: Iterable[int]) -> bool:
    """True iff x is a gon and no other label lies inside a triangle of x.

    Direct definition (convex position plus triangle emptiness over all
    members); :func:`enumerate_holes` takes the shared triple-table path
    instead, and the two are cross-checked in the test suite.
    """
    xs, mask = _members(sig, x)
    if len(xs) < 2:
        raise ValueError("a hole needs at least 2 points")
    if len(xs) == 2:
        return True
    if len(xs) > 3 and not is_gon(sig, xs):
        return False
    # the label-range test below needs a < b < c
    for a, b, c in itertools.combinations(sorted(xs), 3):
        for i in range(a + 1, c):
            if not mask >> i & 1 and in_triangle(sig, i, a, b, c):
                return False
    return True


def _separated(sig: Signotope, pairs, x1: Sequence[int], x2: Sequence[int]) -> bool:
    """True iff for some (a, b) in pairs the labels of x1 other than a and b
    lie strictly on one side of a->b and those of x2 strictly on the other."""
    signed = [(x, 1) for x in x1] + [(y, -1) for y in x2]
    for a, b in pairs:
        row = sig.left[a][b]  # bit x set iff (a, b, x) is positive
        side = 0  # taken from the first label tested
        for x, s in signed:
            if x == a or x == b:
                continue
            c = s if row >> x & 1 else -s
            if not side:
                side = c
            elif c != side:
                break
        else:
            return True
    return False


def holes_disjoint(sig: Signotope, x1: Iterable[int], x2: Iterable[int]) -> bool:
    """True iff a separating pair a in x1, b in x2 exists.

    Every other label of x1 must be strictly on one side of the oriented
    line a->b and every other label of x2 strictly on the other. For
    realizable signotopes this matches disjointness of the convex hulls
    (a separating line can be rotated onto an inner common tangent).
    """
    a1, m1 = _members(sig, x1)
    a2, m2 = _members(sig, x2)
    if not a1 or not a2:
        raise ValueError("subsets must be nonempty")
    return not m1 & m2 and _separated(sig, itertools.product(a1, a2), a1, a2)


def holes_interior_disjoint(
    sig: Signotope, x1: Iterable[int], x2: Iterable[int]
) -> bool:
    """True iff a weakly separating pair exists.

    The pair (a, b) is drawn from the union of the two label sets and only
    labels outside {a, b} are side-tested, so the separator may run through
    a shared vertex or along a shared edge. For realizable signotopes this
    matches disjointness of the open polygon interiors: a line separating
    the interiors can be rotated until it passes through two of the points.
    """
    a1, m1 = _members(sig, x1)
    a2, m2 = _members(sig, x2)
    if len(a1) < 3 or len(a2) < 3:
        raise ValueError("interior-disjointness needs at least 3 points each")
    if (m1 & m2).bit_count() >= 3:
        return False
    union = [i for i in range(sig.n) if (m1 | m2) >> i & 1]
    return _separated(sig, itertools.combinations(union, 2), a1, a2)


def find_disjoint_tuple(
    sig: Signotope,
    sizes: Sequence[int],
    mode: DisjointMode = "disjoint",
) -> list[tuple[int, ...]] | None:
    """Pairwise (interior-)disjoint holes of the requested sizes, or None.

    Same exhaustive search as the coordinate-based version, driven by the
    orientation-only predicates of this module.
    """
    return first_tuple(disjoint_tuples(
        sig, sizes, mode, enumerate_holes, holes_disjoint, holes_interior_disjoint
    ))
