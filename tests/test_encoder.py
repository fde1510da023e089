"""Variable/clause bookkeeping against closed-form counts, plus semantics.

The clause-family sizes all have exact combinatorial formulas; every
instance built here is checked against them. Semantic checks drive a
chirotope-derived assignment through the clauses and compare against the
geometric truth.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holesat.encoder import (
    DISJOINT_MODES,
    CnfInstance,
    HoleProblem,
    VarRegistry,
    assignment_from_chirotope,
    build_instance,
    emit_hints,
    load_registry,
    violated_clauses,
)
from holesat.geometry import NEGATIVE, POSITIVE, canonicalize, chirotope, orient
from holesat.holes import (
    enumerate_gons,
    enumerate_holes,
    find_disjoint_tuple,
    hull_order,
    is_gon,
    strictly_inside_hull,
    three_hole_table,
)

from conftest import random_point_set

C = math.comb


# --- problem validation ---------------------------------------------------

def test_problem_validation():
    with pytest.raises(ValueError, match="unknown mode"):
        HoleProblem(n=8, mode="find-holes", sizes=(5,))
    with pytest.raises(ValueError, match="size"):
        HoleProblem(n=8, mode="forbid-hole", sizes=(7,))
    with pytest.raises(ValueError, match="size"):
        HoleProblem(n=8, mode="forbid-gon", sizes=(3,))
    with pytest.raises(ValueError, match="two"):
        HoleProblem(n=8, mode="two-disjoint-holes", sizes=(5,))
    with pytest.raises(ValueError, match="threshold"):
        HoleProblem(n=8, mode="forbid-hole", sizes=(5,), threshold=1)
    with pytest.raises(ValueError, match="threshold"):
        HoleProblem(n=8, mode="count-holes", sizes=(5,), threshold=0)
    with pytest.raises(ValueError, match="hints"):
        HoleProblem(n=10, mode="two-disjoint-holes", sizes=(4, 5), hints=True)
    with pytest.raises(ValueError, match="relaxed"):
        HoleProblem(n=10, mode="forbid-hole", sizes=(5,), relaxed_lr=True)
    with pytest.raises(ValueError, match="n="):
        HoleProblem(n=4, mode="forbid-hole", sizes=(5,))


def test_problem_key_is_descriptive():
    p = HoleProblem(
        n=17, mode="two-disjoint-holes", sizes=(5, 5), orient_vars="explicit", hints=True
    )
    assert p.key() == "two-disjoint-holes-k5-5-n17-explicit-hints"
    q = HoleProblem(n=10, mode="count-holes", sizes=(5,), threshold=2)
    assert "count-holes" in q.key() and "t2" in q.key()


# --- variable counts ------------------------------------------------------

def expected_var_counts(p: HoleProblem) -> dict[str, int]:
    n = p.n
    out = {"O": (6 if p.orient_vars == "explicit" else 1) * C(n, 3)}
    if n >= 4:
        out["E"] = 2 * C(n, 4)
        out["G4"] = C(n, 4)
    if p.mode != "forbid-gon":
        if n >= 4:
            out["I"] = 2 * C(n, 4)
        out["H3"] = C(n, 3)
    for k in p.hole_sizes:
        out[f"H{k}"] = C(n, k)
    if p.mode in DISJOINT_MODES:
        for k in sorted(set(p.sizes)):
            out[f"L{k}"] = n * (n - 1)
            out[f"R{k}"] = n * (n - 1)
    if p.mode == "count-holes" and p.threshold >= 2:
        out["C"] = (C(n, p.sizes[0]) - 1) * (p.threshold - 1)
    return {k: v for k, v in out.items() if v}


PROBLEMS = [
    HoleProblem(n=8, mode="forbid-hole", sizes=(5,)),
    HoleProblem(n=8, mode="forbid-hole", sizes=(4,)),
    HoleProblem(n=7, mode="forbid-hole", sizes=(3,)),
    HoleProblem(n=8, mode="forbid-hole", sizes=(6,), orient_vars="explicit"),
    HoleProblem(n=8, mode="forbid-gon", sizes=(5,)),
    HoleProblem(n=7, mode="forbid-gon", sizes=(4,)),
    HoleProblem(n=8, mode="two-disjoint-holes", sizes=(3, 3)),
    HoleProblem(n=8, mode="two-disjoint-holes", sizes=(2, 4)),
    HoleProblem(n=9, mode="two-disjoint-holes", sizes=(4, 5)),
    HoleProblem(n=10, mode="two-disjoint-holes", sizes=(5, 5), hints=True),
    HoleProblem(n=10, mode="two-disjoint-holes", sizes=(5, 5), relaxed_lr=True),
    HoleProblem(n=8, mode="two-interior-disjoint-holes", sizes=(3, 4)),
    HoleProblem(n=8, mode="count-holes", sizes=(5,), threshold=1),
    HoleProblem(n=8, mode="count-holes", sizes=(4,), threshold=3),
    HoleProblem(n=8, mode="forbid-hole", sizes=(5,), directional_defs=True),
    HoleProblem(n=8, mode="forbid-hole", sizes=(5,), simplified_h5=True),
]


@pytest.mark.parametrize("p", PROBLEMS, ids=lambda p: p.key())
def test_registry_family_counts(p):
    reg = VarRegistry(p)
    assert reg.family_counts == expected_var_counts(p)
    assert len(reg) == sum(reg.family_counts.values())


# --- clause counts --------------------------------------------------------

def expected_group_counts(p: HoleProblem) -> dict[str, int]:
    n = p.n
    directional = p.directional_defs and not p.hints
    out: dict[str, int] = {}
    if p.orient_vars == "explicit":
        out["alternating"] = 10 * C(n, 3)
    out["signotope"] = 8 * C(n, 4)
    out["sorted-around-first"] = C(n - 1, 2)
    out["bounding-segments"] = 8 * C(n, 4)
    if p.mode == "forbid-gon":
        out["gons-and-containments"] = (1 if directional else 3) * C(n, 4)
    else:
        out["gons-and-containments"] = (5 if directional else 9) * C(n, 4)
        if directional:
            out["three-holes"] = C(n, 3)
        else:
            out["three-holes"] = sum(
                c - a - 1 for a, b, c in itertools.combinations(range(n), 3)
            )
    for k in p.hole_sizes:
        if p.mode == "forbid-gon":
            per = 1 if directional else C(k, 4) + 1
            out[f"{k}-gons"] = per * C(n, k)
        else:
            conj = C(k, 3)
            if k == 5 and not p.simplified_h5:
                conj += C(k, 4)
            per = 1 if directional else conj + 1
            out[f"{k}-holes"] = per * C(n, k)
    if p.mode in DISJOINT_MODES:
        pairs = n * (n - 1)
        defs = 0
        for k in sorted(set(p.sizes)):
            if p.mode == "two-interior-disjoint-holes":
                per = C(n, k)
            elif p.relaxed_lr:
                per = C(n - 1, k)
            else:
                per = C(n - 2, k - 1)
            defs += 2 * pairs * per
        cross = pairs * (2 if p.sizes[0] != p.sizes[1] else 1)
        out["disjointness"] = defs + cross
        if p.hints:
            out["hints"] = max(0, n - 9) + (42 if n == 17 else 0)
    elif p.mode in ("forbid-hole", "forbid-gon"):
        out["forbid"] = C(n, p.sizes[0])
    else:
        m = C(n, p.sizes[0])
        r = p.threshold - 1
        out["cardinality"] = m if r == 0 else r + 1 + (m - 2) * (2 * r + 1)
    return out


@pytest.mark.parametrize("p", PROBLEMS, ids=lambda p: p.key())
def test_group_clause_counts(p):
    inst = build_instance(p)
    assert dict(inst.groups) == expected_group_counts(p)
    assert inst.num_clauses == sum(c for _, c in inst.groups)
    top = inst.num_vars
    for clause in inst.clauses:
        assert clause and all(0 < abs(lit) <= top for lit in clause)


def test_hint_clause_shapes():
    p = HoleProblem(n=11, mode="two-disjoint-holes", sizes=(5, 5), hints=True)
    reg = VarRegistry(p)
    [(label, clauses)] = emit_hints(p, reg)
    assert label == "hints"
    windows = [cl for cl in clauses if len(cl) > 1]
    assert len(windows) == 2 and all(len(cl) == C(10, 5) for cl in windows)
    assert all(lit > 0 for cl in windows for lit in cl)

    p17 = HoleProblem(n=17, mode="two-disjoint-holes", sizes=(5, 5), hints=True)
    reg17 = VarRegistry(p17)
    [(_, clauses17)] = emit_hints(p17, reg17)
    units = [cl for cl in clauses17 if len(cl) == 1]
    assert len(units) == 2 * C(7, 5)
    assert len(clauses17) == 8 + 42


def test_side_definition_count_per_pair():
    # strict schema at n=17, size 5: each side variable ranges over
    # C(15,4) = 1365 candidate subsets through its anchor
    p = HoleProblem(n=17, mode="two-disjoint-holes", sizes=(5, 5))
    assert C(p.n - 2, 4) == 1365


# --- output files ---------------------------------------------------------

def test_dimacs_deterministic_and_well_formed(tmp_path):
    p = HoleProblem(n=8, mode="two-disjoint-holes", sizes=(3, 4))
    a, b = tmp_path / "a.cnf", tmp_path / "b.cnf"
    build_instance(p).write_dimacs(a)
    build_instance(p).write_dimacs(b)
    assert a.read_bytes() == b.read_bytes()

    lines = a.read_text().splitlines()
    header = [l for l in lines if l.startswith("p cnf ")]
    assert len(header) == 1
    nv, nc = map(int, header[0].split()[2:])
    inst = build_instance(p)
    assert (nv, nc) == (inst.num_vars, inst.num_clauses)
    body = [l for l in lines if l and not l.startswith(("c", "p"))]
    assert len(body) == nc
    assert all(l.split()[-1] == "0" for l in body)
    assert any(p.key() in l for l in lines if l.startswith("c"))


def test_registry_roundtrip(tmp_path):
    p = HoleProblem(n=7, mode="count-holes", sizes=(4,), threshold=2)
    inst = build_instance(p)
    path = tmp_path / "inst.vars"
    inst.write_registry(path)
    loaded = load_registry(path)
    assert len(loaded) == inst.num_vars
    for var, tag in inst.registry.items():
        name, *rest = tag
        assert loaded[var] == (name, *rest)


def test_empty_clause_rejected():
    p = HoleProblem(n=6, mode="forbid-hole", sizes=(5,))
    inst = CnfInstance(p, VarRegistry(p))
    with pytest.raises(ValueError, match="empty clause"):
        inst.add_group("broken", [()])


# --- semantics ------------------------------------------------------------

def _semantic_case(seed: int, p: HoleProblem):
    s = canonicalize(random_point_set(p.n, random.Random(seed)))
    sig = chirotope(s)
    inst = build_instance(p)
    assignment = assignment_from_chirotope(sig, p)
    bad = violated_clauses(inst, assignment, limit=10**9)
    labels = {label for label, _ in bad}
    if p.mode == "forbid-hole":
        present = bool(enumerate_holes(s, p.sizes[0]))
        semantic = {"forbid"}
    elif p.mode == "forbid-gon":
        k = p.sizes[0]
        present = any(is_gon(s, xs) for xs in itertools.combinations(range(p.n), k))
        semantic = {"forbid"}
    elif p.mode == "two-disjoint-holes":
        present = find_disjoint_tuple(s, p.sizes, "disjoint") is not None
        semantic = {"disjointness"}
    elif p.mode == "two-interior-disjoint-holes":
        present = find_disjoint_tuple(s, p.sizes, "interior-disjoint") is not None
        semantic = {"disjointness"}
    else:
        present = len(enumerate_holes(s, p.sizes[0])) >= p.threshold
        semantic = {"cardinality"}
    assert labels == (semantic if present else set()), (
        f"structure {'present' if present else 'absent'} but violations in {labels}"
    )


SEMANTIC_PROBLEMS = [
    HoleProblem(n=7, mode="forbid-hole", sizes=(5,)),
    HoleProblem(n=7, mode="forbid-hole", sizes=(5,), orient_vars="explicit"),
    HoleProblem(n=7, mode="forbid-hole", sizes=(5,), simplified_h5=True),
    HoleProblem(n=7, mode="forbid-gon", sizes=(5,)),
    HoleProblem(n=7, mode="forbid-gon", sizes=(4,)),
    HoleProblem(n=7, mode="two-disjoint-holes", sizes=(3, 3)),
    HoleProblem(n=7, mode="two-disjoint-holes", sizes=(2, 4)),
    HoleProblem(n=7, mode="two-disjoint-holes", sizes=(2, 2)),
    HoleProblem(n=7, mode="two-interior-disjoint-holes", sizes=(3, 3)),
    HoleProblem(n=7, mode="count-holes", sizes=(4,), threshold=2),
    HoleProblem(n=7, mode="count-holes", sizes=(3,), threshold=4),
]


@pytest.mark.parametrize("p", SEMANTIC_PROBLEMS, ids=lambda p: p.key())
@given(seed=st.integers(0, 10**6))
@settings(max_examples=12, deadline=None)
def test_chirotope_assignment_matches_geometry(p, seed):
    _semantic_case(seed, p)


@given(st.integers(0, 10**6))
@settings(max_examples=8, deadline=None)
def test_hints_and_relaxed_lr_stay_satisfied(seed):
    # implied clauses: the chirotope assignment of any real point set
    # satisfies hints and the relaxed side definitions identically
    for p in (
        HoleProblem(n=10, mode="two-disjoint-holes", sizes=(5, 5), hints=True),
        HoleProblem(n=10, mode="two-disjoint-holes", sizes=(5, 5), relaxed_lr=True),
    ):
        s = canonicalize(random_point_set(p.n, random.Random(seed)))
        sig = chirotope(s)
        inst = build_instance(p)
        assignment = assignment_from_chirotope(sig, p)
        bad = violated_clauses(inst, assignment, limit=10**9)
        labels = {label for label, _ in bad}
        present = find_disjoint_tuple(s, (5, 5), "disjoint") is not None
        assert labels == ({"disjointness"} if present else set())


# --- the assignment's auxiliaries against coordinates ----------------------

def _coordinate_side(s, holes_k, fam, a, b, schema):
    """L/R(k, a, b) by brute force over the coordinate k-holes."""
    sign = POSITIVE if fam == "L" else NEGATIVE
    anchor, other = (a, b) if fam == "L" else (b, a)
    skip = {a, b} if schema == "interior" else {anchor}
    for x in holes_k:
        if schema != "interior" and other in x:
            continue
        if schema == "default" and anchor not in x:
            continue
        if all(orient(s[a], s[b], s[c]) == sign for c in x if c not in skip):
            return True
    return False


AUXILIARY_PROBLEMS = [
    dict(mode="two-disjoint-holes", sizes=(3, 5)),
    dict(mode="two-disjoint-holes", sizes=(2, 4), relaxed_lr=True),
    dict(mode="two-disjoint-holes", sizes=(4, 4), orient_vars="explicit"),
    dict(mode="two-interior-disjoint-holes", sizes=(3, 4)),
    dict(mode="forbid-gon", sizes=(5,)),
    dict(mode="count-holes", sizes=(4,), threshold=3),
]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize(
    "flags", AUXILIARY_PROBLEMS, ids=lambda f: "-".join(map(str, f.values()))
)
def test_assignment_auxiliaries_match_coordinates(flags, seed):
    n = 6 + seed
    p = HoleProblem(n=n, **flags)
    s = canonicalize(random_point_set(n, random.Random(700 + seed)))
    val = assignment_from_chirotope(chirotope(s), p)
    enumerate_family = enumerate_gons if p.mode == "forbid-gon" else enumerate_holes
    found = {k: {h.indices for h in enumerate_family(s, k)} for k in set(p.sizes)}
    three = three_hole_table(s)
    schema = (
        "interior" if p.mode == "two-interior-disjoint-holes"
        else "relaxed" if p.relaxed_lr else "default"
    )
    seen = set()
    for ident, tag in VarRegistry(p).items():
        kind, args = tag[0], tag[1:]
        seen.add(kind)
        if kind == "O":
            expected = orient(*(s[i] for i in args)) == POSITIVE
        elif kind == "E":
            q, r, t, u = (s[i] for i in args)
            expected = orient(q, r, t) == orient(q, r, u)
        elif kind == "G4":
            expected = is_gon(s, args)
        elif kind == "I":
            i, a, b, c = args
            expected = strictly_inside_hull(s, hull_order(s, (a, b, c)), i)
        elif kind == "H3":
            expected = args in three
        elif kind == "H":
            expected = args[1:] in found[args[0]]
        elif kind in ("L", "R"):
            k, a, b = args
            expected = _coordinate_side(s, found[k], kind, a, b, schema)
        else:  # C i j: at least j holes among the first i k-subsets
            i, j = args
            first = itertools.islice(itertools.combinations(range(n), p.sizes[0]), i)
            expected = sum(x in found[p.sizes[0]] for x in first) >= j
        assert val[ident] == expected, (tag, val[ident])
    kinds = {"O", "E", "G4", "H"}
    kinds |= {"I", "H3"} if p.mode != "forbid-gon" else set()
    kinds |= {"L", "R"} if p.mode in DISJOINT_MODES else set()
    kinds |= {"C"} if p.mode == "count-holes" else set()
    assert kinds <= seen
