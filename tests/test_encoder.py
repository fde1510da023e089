"""Variable/clause bookkeeping against closed-form counts, plus semantics.

The clause-family sizes all have exact combinatorial formulas; every
instance built here is checked against them. Semantic checks drive a
chirotope-derived assignment through the clauses and compare against the
geometric truth.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import math
import os
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holesat.encoder import (
    DISJOINT_MODES,
    CnfInstance,
    HoleProblem,
    VarRegistry,
    as_dimacs,
    assignment_from_chirotope,
    build_instance,
    emit_disjointness,
    emit_hints,
    load_registry,
    violated_clauses,
)
from holesat.geometry import (
    NEGATIVE, POSITIVE, Point, PointSet, canonicalize, chirotope, orient,
)
from holesat.holes import (
    enumerate_gons,
    enumerate_holes,
    find_disjoint_tuple,
    hull_order,
    is_gon,
    strictly_inside_hull,
)

from conftest import random_point_set

C = math.comb


def parsed(pieces) -> list[tuple[int, ...]]:
    """The clauses of an emitter's DIMACS text pieces."""
    return [tuple(map(int, line.split()[:-1])) for p in pieces for line in p.splitlines()]


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


def test_hints_exclude_directional_defs():
    # a hint asserts that some H5 holds, which says nothing unless H5 -> hole
    # is kept, and directional definitions drop that direction
    with pytest.raises(ValueError, match="hints"):
        HoleProblem(
            n=11, mode="two-disjoint-holes", sizes=(5, 5), hints=True, directional_defs=True
        )


@pytest.mark.parametrize("n", [5, 9])
def test_hints_need_a_ten_point_window(n):
    # below n=10 no window clause exists, so the flag would only rename the key
    with pytest.raises(ValueError, match="hints need n >= 10"):
        HoleProblem(n=n, mode="two-disjoint-holes", sizes=(5, 5), hints=True)
    assert HoleProblem(n=10, mode="two-disjoint-holes", sizes=(5, 5), hints=True).hints


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
    [(label, pieces)] = emit_hints(p, reg)
    assert label == "hints"
    clauses = parsed(pieces)
    windows = [cl for cl in clauses if len(cl) > 1]
    assert len(windows) == 2 and all(len(cl) == C(10, 5) for cl in windows)
    assert all(lit > 0 for cl in windows for lit in cl)

    p17 = HoleProblem(n=17, mode="two-disjoint-holes", sizes=(5, 5), hints=True)
    reg17 = VarRegistry(p17)
    [(_, pieces17)] = emit_hints(p17, reg17)
    clauses17 = parsed(pieces17)
    units = [cl for cl in clauses17 if len(cl) == 1]
    assert len(units) == 2 * C(7, 5)
    assert len(clauses17) == 8 + 42


def test_side_definition_count_per_pair():
    # strict schema at n=17, size 5: each side variable heads one clause per
    # candidate subset through its anchor, C(15,4) = 1365 of them
    p = HoleProblem(n=17, mode="two-disjoint-holes", sizes=(5, 5))
    reg = VarRegistry(p)
    [(_, pieces)] = emit_disjointness(p, reg)
    head = f"{reg.var('L', 5, 3, 11)} "
    lines = [line for piece in pieces for line in piece.splitlines()]
    assert sum(line.startswith(head) for line in lines) == 1365


SCHEMA_PROBLEMS = [
    HoleProblem(n=9, mode="two-disjoint-holes", sizes=(4, 5)),
    HoleProblem(n=10, mode="two-disjoint-holes", sizes=(2, 3)),
    HoleProblem(n=10, mode="two-disjoint-holes", sizes=(3, 3), relaxed_lr=True),
    HoleProblem(n=9, mode="two-interior-disjoint-holes", sizes=(3, 5)),
]


@pytest.mark.parametrize("p", SCHEMA_PROBLEMS, ids=lambda p: p.key())
def test_side_schema_clause_counts(p):
    # every L/R variable heads exactly one clause per subset of its schema;
    # the remaining clauses are the L(ka) and R(kb) exclusions per ordered pair
    n = p.n
    if p.mode == "two-interior-disjoint-holes":
        per_side = lambda k: C(n, k)
    elif p.relaxed_lr:
        per_side = lambda k: C(n - 1, k)
    else:
        per_side = lambda k: C(n - 2, k - 1)
    reg = VarRegistry(p)
    [(_, pieces)] = emit_disjointness(p, reg)
    clauses = parsed(pieces)
    first = collections.Counter(cl[0] for cl in clauses)
    for k in sorted(set(p.sizes)):
        for fam in ("L", "R"):
            for a, b in itertools.permutations(range(n), 2):
                assert first[reg.var(fam, k, a, b)] == per_side(k), (fam, k, a, b)
    pairings = sorted({tuple(p.sizes), tuple(reversed(p.sizes))})
    exclusions = [cl for cl in clauses if cl[0] < 0]
    assert exclusions == [
        (-reg.var("L", ka, a, b), -reg.var("R", kb, a, b))
        for ka, kb in pairings
        for a, b in itertools.permutations(range(n), 2)
    ]
    assert len(exclusions) == n * (n - 1) * len(pairings)


@pytest.mark.parametrize(
    "p", SCHEMA_PROBLEMS + [HoleProblem(n=10, mode="two-interior-disjoint-holes", sizes=(5, 5))],
    ids=lambda p: p.key(),
)
def test_left_and_right_sides_share_their_bodies(p):
    # R(k,b,a) is anchored at a as L(k,a,b) is, and right of b->a is left of
    # a->b: both stand for the same k-holes of the schema, clause for clause
    reg = VarRegistry(p)
    [(_, pieces)] = emit_disjointness(p, reg)
    bodies = collections.defaultdict(list)
    for cl in parsed(pieces):
        if cl[0] > 0:
            bodies[cl[0]].append(cl[1:])
    for k in sorted(set(p.sizes)):
        for a, b in itertools.permutations(range(p.n), 2):
            left = bodies[reg.var("L", k, a, b)]
            assert left and left == bodies[reg.var("R", k, b, a)], (k, a, b)


# --- the orientation-literal table ------------------------------------------

@pytest.mark.parametrize("orient_vars", ["compact", "explicit"])
def test_olit_reads_table(orient_vars):
    n = 7
    reg = VarRegistry(HoleProblem(n=n, mode="forbid-hole", sizes=(4,), orient_vars=orient_vars))
    for a, b, c in itertools.permutations(range(n), 3):
        if orient_vars == "explicit":
            expected = reg.var("O", a, b, c)
        else:
            t = tuple(sorted((a, b, c)))
            inversions = sum(x > y for x, y in itertools.combinations((a, b, c), 2))
            expected = (-1) ** inversions * reg.var("O", *t)
        assert reg.olit(a, b, c) == expected
    for a, b, c in itertools.product(range(n), repeat=3):
        if len({a, b, c}) < 3:
            with pytest.raises(ValueError):
                reg.olit(a, b, c)
    with pytest.raises(ValueError):  # never a wrapped-around row
        reg.olit(-1, 0, 1)


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


# Digests of write_dimacs / write_registry output, fixed when the encoder
# built each clause through per-call literal lookups; emission may change
# how it builds clauses, never what it writes.
PINNED = [
    (dict(n=9, mode="forbid-hole", sizes=(5,)),
     "c7417ec3bb1744293a8d5fdeeab1d0ec0b54f66ae1db9b3497162b5aa842a485",
     "716b091bd10a8d62a526b37a6335c42f47c42362b48a0c24f9b82ad9f94a91f6"),
    (dict(n=8, mode="forbid-hole", sizes=(4,), orient_vars="explicit"),
     "4fc597dc2a4aa0b096f241443a3b12fef97033b8c76e007f96623b128f5f7a72",
     "217ed3f04f744c8e6f29a304c89dfed0e0f047ac9f67a1f97cc2deaa5a78c996"),
    (dict(n=9, mode="forbid-hole", sizes=(5,), simplified_h5=True),
     "f7778f93147a6c67d5f6bd7c1b1a9a4d714eb05dd4425ad0bb5e0a2c4650e775",
     "d7db7a490057fa60f2e2c5e51979032560b7d1abcddff0a907e79556979acc10"),
    (dict(n=9, mode="forbid-hole", sizes=(5,), directional_defs=True),
     "dd627b770943bc4e557e83af05a7751102154ac49a64da55574dec342673851f",
     "3cf82fb9bbdc9226b735b05fc94abb429f984b32c86aa321ee03acbcef5d6277"),
    (dict(n=9, mode="forbid-gon", sizes=(5,)),
     "02dcdff52ddd788407392e4b25144578964d580521873c3cad8ab3bc7f6a356c",
     "55b8f3904cecc055d4e374e8ea95a63b9265ca639adddb3771419b06c6e2455d"),
    (dict(n=8, mode="forbid-gon", sizes=(4,), directional_defs=True),
     "6b3de8ead585a8bc4ab3e593a437ba47830ee618d77aab5621ec45fff910ade3",
     "79a2c237354795773e1b8ad5bdedc02f2e88bb867f7f386c8988bdb8308f6f63"),
    (dict(n=11, mode="two-disjoint-holes", sizes=(5, 5), hints=True),
     "f2cc37f3e43f0088626eb58a05fe41946308a214f04ca1d7141735a4d8f34236",
     "1dbab3e12f7bc39b4671abe20fb56c519aaac8c17fdc69fc8df2fc843b02eaf6"),
    (dict(n=10, mode="two-disjoint-holes", sizes=(4, 5), relaxed_lr=True),
     "abd3bc0369c19fb4d099a05b13a530ee488c2c869c7d14274a649d6fafcd3659",
     "f3b5524742edabaf8d384d7275dd3d13aedf8ad796502d999b3c99cc0dd80f8e"),
    (dict(n=9, mode="two-disjoint-holes", sizes=(2, 5)),
     "a598faafa62071e7c4b6c0cb31c8161bd1d46e913503ae27ab334cc015fd2fd2",
     "67e851c11bbfa951599e795c62412e4289204d4ab2381b07bf0041515a7d2116"),
    (dict(n=9, mode="two-disjoint-holes", sizes=(3, 4), orient_vars="explicit"),
     "f06ba44e81816e58f0061cb7038f52a710a375071b2a9ffeab91ac7e48ce1892",
     "8ea7684d36bbdd52f5ef4594588d1a506f6b2c05575cdd19dcd9bee56d4f2463"),
    (dict(n=10, mode="two-interior-disjoint-holes", sizes=(3, 5), directional_defs=True),
     "fb4978c8af51e35cb04a01f6882a31da8b021a3f331180ab6e8bd108f046d721",
     "7ff27db8d70a9107bc7e8fb79ae430f618e82ea29dbcf7389e7cefc7b858527c"),
    (dict(n=8, mode="two-interior-disjoint-holes", sizes=(3, 3), orient_vars="explicit"),
     "d3804c969400adfa75be7b94876b8980c306a479a61e5d6813eb6311f39f589e",
     "67b768f03e061fc60ffed6c15de318f1eb25447adc7335c37c80bd8b606f397e"),
    (dict(n=9, mode="count-holes", sizes=(4,), threshold=3),
     "393791dde35cfef9f0bce4e98b3c63328646a8dcf861af76855a3eee87b3b7bf",
     "a65dc57353d8e2c3d28831af6da0384fb65f713d9489a1488d500b864c8dd1f9"),
    (dict(n=8, mode="count-holes", sizes=(3,), threshold=1),
     "1aa8ae4ebd51cb13c0c5c1787fe2dd2a3c92d8617c411a0b667b24454eec0bc4",
     "a40e2e58ffb2ed8865992dbbdcad4dc35ababb16bd7fc7e53f97724d210c0cd8"),
    (dict(n=9, mode="forbid-gon", sizes=(6,)),
     "9ac68b9587e076c9900edec08fafbb7f012cfdd8755e0a14aec6e1ebfa1eb9a7",
     "1f8a108c7bfda3d1b07bfbf2a51ee6c3ed2bcd9c752637132747e0909806b7ed"),
    (dict(n=9, mode="forbid-hole", sizes=(6,)),
     "06434f227cde2183d3777a955607b89190286510f8aef4284195a9f346a17c86",
     "b6197705e317944ade7f0659f91b63447e1329f7878cb83d2907c388fd80ec18"),
    (dict(n=10, mode="two-interior-disjoint-holes", sizes=(4, 5)),
     "6c8c927832b9ee62a9442fe14176a4e84a4eef928ecdb6557bd9223cb56b2a38",
     "7953d11f446cbcabf17908651c907c03ce1058f7ecd47acb1f01b8dd5a92dcf8"),
]


@pytest.mark.parametrize(
    "flags, cnf_digest, vars_digest", PINNED,
    ids=[HoleProblem(**flags).key() for flags, _, _ in PINNED],
)
def test_output_bytes_pinned(tmp_path, flags, cnf_digest, vars_digest):
    inst = build_instance(HoleProblem(**flags))
    inst.write_dimacs(tmp_path / "a.cnf")
    inst.write_registry(tmp_path / "a.vars")
    digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert (digest("a.cnf"), digest("a.vars")) == (cnf_digest, vars_digest)


def test_n17_hints_pinned():
    # the end exclusions only exist at n=17; a registry there is cheap
    p = HoleProblem(n=17, mode="two-disjoint-holes", sizes=(5, 5), hints=True)
    [(_, pieces)] = emit_hints(p, VarRegistry(p))
    text = "".join(pieces)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "192876697e6021362dff27a19f12394992454c6e53dfef29240884fe2cfa1596"
    )


def test_headline_instance_pinned(tmp_path):
    # the n=17 (5,5) instance the paper's size comparison uses, whole
    p = HoleProblem(
        n=17, mode="two-disjoint-holes", sizes=(5, 5), orient_vars="explicit", hints=True
    )
    inst = build_instance(p)
    inst.write_dimacs(tmp_path / "a.cnf")
    inst.write_registry(tmp_path / "a.vars")
    digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert (tmp_path / "a.cnf").stat().st_size == 29_960_859
    assert (digest("a.cnf"), digest("a.vars")) == (
        "491914287f4add4a7d4bd7c82dc6680848d3a846fb4e0398ef01e282104cf104",
        "281464ff99ffded0be9f8a01f9b1e13f39ffbbf6609df8dc9aec1ceb2349bfdb",
    )


def test_interior_benchmark_instance_pinned(tmp_path):
    # the interior (5,5) n=14 instance of the sat-replay benchmark, whole
    inst = build_instance(HoleProblem(n=14, mode="two-interior-disjoint-holes", sizes=(5, 5)))
    inst.write_dimacs(tmp_path / "a.cnf")
    inst.write_registry(tmp_path / "a.vars")
    digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert (tmp_path / "a.cnf").stat().st_size == 23_602_614
    assert (digest("a.cnf"), digest("a.vars")) == (
        "91da1a603a8a8e75394ec4e81e412bf5382bbd75f52f6509dbd146a879518efc",
        "e4da68be60cd577968b721d648218aaebb89de737fbf879501d67d39c5861365",
    )


def test_h55_full_benchmark_instance_pinned(tmp_path):
    # the disjoint (5,5) n=16 instance with hints of the sat-replay benchmark, whole
    p = HoleProblem(n=16, mode="two-disjoint-holes", sizes=(5, 5), hints=True)
    inst = build_instance(p)
    inst.write_dimacs(tmp_path / "a.cnf")
    inst.write_registry(tmp_path / "a.vars")
    digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert (tmp_path / "a.cnf").stat().st_size == 17_647_955
    assert (digest("a.cnf"), digest("a.vars")) == (
        "7768d0c6a2fd8a7a8d9f4b670d8088900d1eac91c0604a314de1cde875d3a8d0",
        "523e9f48b146f2dcacade8ca9d1ca40858ee51356899d6827f4363d6b5d9233a",
    )


def test_empty_emitted_clause_rejected_before_writing(tmp_path):
    p = HoleProblem(n=6, mode="forbid-hole", sizes=(5,))
    broken = as_dimacs(lambda p, reg: [("broken", [(1,), ()])])
    inst = CnfInstance(p, VarRegistry(p), [broken])
    with pytest.raises(ValueError, match="empty clause in group broken"):
        inst.write_dimacs(tmp_path / "a.cnf")
    assert not (tmp_path / "a.cnf").exists()


# --- clauses on demand ------------------------------------------------------

def test_emission_memory_tracks_cnf_size(tmp_path):
    # build, write and check stream the clauses: the peak is the CNF text
    # and a chunk, not every clause tuple at once
    p = HoleProblem(n=12, mode="two-disjoint-holes", sizes=(5, 5))
    s = canonicalize(random_point_set(p.n, random.Random(3)))
    assignment = assignment_from_chirotope(chirotope(s), p)
    tracemalloc.start()
    try:
        inst = build_instance(p)
        inst.write_dimacs(tmp_path / "a.cnf")
        violated_clauses(inst, assignment, limit=10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * (tmp_path / "a.cnf").stat().st_size


# a stand-in emitter of about 20 MB in 41.6 KB pieces; its one literal has
# 100 digits, so a reader that parses lines has 200,000 of them to read
BIG = 10**99


def _big_group(problem, reg):
    return [("big", (f"{BIG} 0\n" * 400 for _ in range(500)))]


def _stand_in(*emitters) -> CnfInstance:
    p = HoleProblem(n=6, mode="forbid-hole", sizes=(5,))
    return CnfInstance(p, VarRegistry(p), emitters)


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_reader_holds_the_whole_body(tmp_path):
    inst = _stand_in(_big_group)
    assert _traced_peak(lambda: inst.write_dimacs(tmp_path / "a.cnf")) < 4_000_000
    assert (tmp_path / "a.cnf").stat().st_size > 20_000_000
    assert inst.groups == [("big", 200_000)]
    violated = []
    assert _traced_peak(lambda: violated.extend(violated_clauses(inst, {BIG: True}))) < 4_000_000
    assert violated == []


def test_lines_come_before_a_later_emitter_runs():
    def failing(problem, reg):
        raise ValueError("second emitter ran")

    lines = _stand_in(lambda problem, reg: [("one", ["1 0\n"])], failing)._lines()
    assert next(lines) == ("one", "1 0")
    with pytest.raises(ValueError, match="second emitter ran"):
        next(lines)


def test_groups_after_a_write_run_no_emitter(tmp_path):
    calls = []

    def counted(problem, reg):
        calls.append(problem)
        return [("one", ["1 0\n", "-1 0\n"])]

    inst = _stand_in(counted)
    inst.write_dimacs(tmp_path / "a.cnf")
    assert (inst.groups, inst.num_clauses, len(calls)) == ([("one", 2)], 2, 1)


def test_a_write_leaves_only_the_cnf(tmp_path):
    (tmp_path / "ok").mkdir()
    _stand_in(_big_group).write_dimacs(tmp_path / "ok" / "a.cnf")
    assert os.listdir(tmp_path / "ok") == ["a.cnf"]
    # the first group is spooled when the second fails
    broken = as_dimacs(lambda p, reg: [("broken", [(1,), ()])])
    (tmp_path / "failed").mkdir()
    with pytest.raises(ValueError, match="empty clause in group broken"):
        _stand_in(_big_group, broken).write_dimacs(tmp_path / "failed" / "a.cnf")
    assert os.listdir(tmp_path / "failed") == []


@pytest.mark.parametrize("p", PROBLEMS, ids=lambda p: p.key())
def test_counted_groups_and_clauses_match_the_write(tmp_path, p):
    counted = build_instance(p)
    groups, total = counted.groups, counted.num_clauses
    written = build_instance(p)
    written.write_dimacs(tmp_path / "a.cnf")
    assert (written.groups, written.num_clauses) == (groups, total)
    body = [
        line for line in (tmp_path / "a.cnf").read_text().splitlines()
        if not line.startswith(("c", "p"))
    ]
    assert body == [" ".join(map(str, cl)) + " 0" for cl in counted.clauses]


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


@pytest.mark.parametrize("threshold", [2, 3])
def test_count_holes_with_one_subset_emits_no_counter(threshold):
    # k = n: one 5-subset, and at most t - 1 >= 1 of one variable always holds
    p = HoleProblem(n=5, mode="count-holes", sizes=(5,), threshold=threshold)
    inst = build_instance(p)
    assert dict(inst.groups)["cardinality"] == 0
    pentagon = [(0, 0), (100, 10), (130, 110), (50, 190), (-40, 100)]
    s = canonicalize(PointSet([Point(x, y) for x, y in pentagon]))
    assert violated_clauses(inst, assignment_from_chirotope(chirotope(s), p)) == []


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
    found = {k: set(enumerate_family(s, k)) for k in set(p.sizes)}
    three = s.three_holes
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
