"""Generators and bundled witness sets keep their defining structure exactly."""

from __future__ import annotations

import itertools

import pytest

from holesat.constructions import (
    WITNESS_COORDS,
    generate_double_circle,
    generate_two_ring,
    witness,
)
from holesat.holes import enumerate_holes, in_triangle

from conftest import monotone_chain, oracle_is_hole


@pytest.mark.parametrize("n", [6, 8, 10, 12, 16])
def test_double_circle_blocks_every_edge(n):
    s = generate_double_circle(n)
    m = n // 2
    assert len(s) == n
    assert set(monotone_chain(s.points)) == set(s.points[:m])
    for k in range(m):
        w = m + k
        for z in range(n):
            if z in (k, (k + 1) % m, w):
                continue
            assert in_triangle(s, w, k, (k + 1) % m, z)


def test_double_circle_deterministic_and_validating():
    assert generate_double_circle(10).points == generate_double_circle(10).points
    for bad in (4, 7):
        with pytest.raises(ValueError):
            generate_double_circle(bad)


@pytest.mark.parametrize("n", [10, 12, 14, 18])
def test_two_ring_extremal_triples_are_blocked(n):
    s = generate_two_ring(n)
    m = n // 2
    assert len(s) == n
    assert set(monotone_chain(s.points)) == set(s.points[:m])
    for tri in itertools.combinations(range(m), 3):
        assert not oracle_is_hole(s, tri)


def test_two_ring_validates_input():
    for bad in (8, 11):
        with pytest.raises(ValueError):
            generate_two_ring(bad)


def test_witness_catalog():
    assert set(WITNESS_COORDS) == {"fig2-n16", "fig4-n21", "fig6-n14"}
    assert len(witness("fig2-n16")) == 16
    assert len(witness("fig4-n21")) == 21
    assert len(witness("fig6-n14")) == 14
    with pytest.raises(ValueError, match="available"):
        witness("fig9-n99")


def test_witnesses_have_plenty_of_five_holes():
    # the interesting property is what they avoid (checked in the acceptance
    # suite); here just confirm they are not degenerate
    for name in ("fig2-n16", "fig6-n14"):
        assert len(enumerate_holes(witness(name), 5)) > 0
