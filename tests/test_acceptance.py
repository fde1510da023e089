"""Acceptance gate: one test and one printed pass/fail line per criterion.

Every headline number is checked end to end: instance sizes, SAT/UNSAT
verdict pairs around the known thresholds, certificate checking, witness
verification without a solver, annealing oracles, the model-verification
property sweep, and encoding-variant equivalence. Hour-scale targets sit
behind the ``long`` marker (HOLESAT_RUN_LONG=1).
"""

from __future__ import annotations

import itertools
import os
import random
import time

import pytest

from holesat.constructions import generate_double_circle, generate_two_ring, witness
from holesat.encoder import (
    DISJOINT_MODES,
    HoleProblem,
    assignment_from_chirotope,
    build_instance,
)
from holesat.geometry import canonicalize, chirotope
from holesat.holes import enumerate_gons, enumerate_holes, find_disjoint_tuple
from holesat.search import SearchObjective, local_search, objective_count
from holesat.solver import discover_checker, solve_instance

from conftest import oracle_is_hole, random_point_set, requires_checker, requires_solver


def _report(num: int, ok: bool, desc: str, note: str = "") -> None:
    tail = f" ({note})" if note else ""
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}{tail}")
    assert ok, f"criterion {num}: {desc}{tail}"


def _pair(mode, sizes, value, timeout=600.0, proof=False, **kwargs):
    """Verdicts (below threshold, at threshold) for one table entry."""
    out = []
    for n in (value - 1, value):
        p = HoleProblem(n=n, mode=mode, sizes=sizes, **kwargs)
        out.append(
            solve_instance(
                build_instance(p), timeout=timeout,
                want_proof=proof and n == value,
            )
        )
    return out


def test_criterion_01_instance_size_reproduction():
    t0 = time.time()
    p = HoleProblem(
        n=17, mode="two-disjoint-holes", sizes=(5, 5),
        orient_vars="explicit", hints=True,
    )
    inst = build_instance(p)
    gap = (inst.num_clauses - 825689) / 825689
    elapsed = time.time() - t0
    ok = inst.num_vars == 23392 and abs(gap) <= 0.15 and elapsed < 60
    _report(
        1, ok, "n=17 disjoint-(5,5) instance size",
        f"{inst.num_vars} vars, {inst.num_clauses} clauses, "
        f"gap {gap:+.1%}, built in {elapsed:.1f}s",
    )


@requires_solver
@requires_checker
@pytest.mark.solver
def test_criterion_02_five_hole_threshold():
    t0 = time.time()
    sat, unsat = _pair("forbid-hole", (5,), 10, timeout=60.0, proof=True)
    elapsed = time.time() - t0
    ok = (
        sat.verdict == "SAT" and sat.verification == "passed"
        and unsat.verdict == "UNSAT" and unsat.verification == "passed"
    )
    _report(
        2, ok, "5-hole threshold at n=10 with checked certificate",
        f"n=9 {sat.verdict}/{sat.verification}, "
        f"n=10 {unsat.verdict}/{unsat.verification}, {elapsed:.1f}s",
    )


@requires_solver
@pytest.mark.solver
def test_criterion_03_disjoint_table_small_entries():
    table = (
        ((3, 3), 6), ((2, 4), 6), ((3, 4), 7), ((4, 4), 9),
        ((2, 5), 10), ((3, 5), 10), ((4, 5), 12),
    )
    t0 = time.time()
    notes, ok = [], True
    for sizes, value in table:
        sat, unsat = _pair("two-disjoint-holes", sizes, value)
        good = (
            sat.verdict == "SAT" and sat.verification == "passed"
            and unsat.verdict == "UNSAT"
        )
        ok = ok and good
        notes.append(f"{sizes}={value}:{'ok' if good else 'BAD'}")
    _report(
        3, ok, "seven disjoint-hole table entries",
        ", ".join(notes) + f", {time.time()-t0:.1f}s",
    )


@requires_solver
@pytest.mark.solver
def test_criterion_04_interior_disjoint_table_small_entries():
    table = (((3, 3), 4), ((3, 4), 5), ((4, 4), 7), ((3, 5), 10), ((4, 5), 10))
    t0 = time.time()
    notes, ok = [], True
    for sizes, value in table:
        sat, unsat = _pair("two-interior-disjoint-holes", sizes, value)
        good = (
            sat.verdict == "SAT" and sat.verification == "passed"
            and unsat.verdict == "UNSAT"
        )
        ok = ok and good
        notes.append(f"{sizes}={value}:{'ok' if good else 'BAD'}")
    _report(
        4, ok, "five interior-disjoint table entries",
        ", ".join(notes) + f", {time.time()-t0:.1f}s",
    )


def test_criterion_05_witness_verification():
    t0 = time.time()
    fig2 = witness("fig2-n16")
    fig4 = witness("fig4-n21")
    fig6 = witness("fig6-n14")
    dc = generate_double_circle(10)
    tr = generate_two_ring(18)
    checks = {
        "fig2 has 5-hole": len(enumerate_holes(fig2, 5)) >= 1,
        "fig2 no disjoint (5,5)":
            find_disjoint_tuple(fig2, (5, 5), "disjoint") is None,
        "fig4 no disjoint (5,5,5)":
            objective_count(fig4, SearchObjective("two-disjoint-holes", (5, 5, 5))) == 0,
        "fig6 no interior (5,5)":
            find_disjoint_tuple(fig6, (5, 5), "interior-disjoint") is None,
        "double-circle-10 disjoint (4,4)":
            find_disjoint_tuple(dc, (4, 4), "disjoint") is not None,
        "double-circle-10 no (2,4,4)":
            objective_count(dc, SearchObjective("two-disjoint-holes", (2, 4, 4))) == 0,
        "two-ring-18 outer triples blocked": not any(
            oracle_is_hole(tr, t) for t in itertools.combinations(range(9), 3)
        ),
        "two-ring-18 5-holes lean inner": all(
            sum(1 for i in h if i >= 9) >= 3
            for h in enumerate_holes(tr, 5)
        ),
    }
    elapsed = time.time() - t0
    failed = [name for name, good in checks.items() if not good]
    _report(
        5, not failed and elapsed < 300, "witness verification without a solver",
        f"{len(checks)} checks, {elapsed:.1f}s"
        + (f"; failed: {failed}" if failed else ""),
    )


@requires_solver
@pytest.mark.solver
def test_criterion_06_five_gon_threshold_with_search_oracle():
    t0 = time.time()
    # independent oracle first: anneal an 8-point set with no 5-gon
    oracle = local_search(8, SearchObjective("forbid-gon", (5,)), seed=0, budget=20000)
    oracle_ok = oracle is not None and len(enumerate_gons(oracle, 5)) == 0
    sat, unsat = _pair("forbid-gon", (5,), 9)
    elapsed = time.time() - t0
    ok = (
        oracle_ok
        and sat.verdict == "SAT" and sat.verification == "passed"
        and unsat.verdict == "UNSAT"
    )
    _report(
        6, ok and elapsed < 300, "5-gon threshold at n=9",
        f"annealed witness first, n=8 {sat.verdict}, n=9 {unsat.verdict}, "
        f"{elapsed:.1f}s",
    )


@requires_solver
@pytest.mark.solver
def test_criterion_07_counting_mode_threshold_one():
    t0 = time.time()
    p = HoleProblem(n=10, mode="count-holes", sizes=(5,), threshold=1)
    rep = solve_instance(build_instance(p), timeout=60.0)
    elapsed = time.time() - t0
    _report(
        7, rep.verdict == "UNSAT" and elapsed < 60,
        "fewer than one 5-hole is impossible at n=10",
        f"{rep.verdict}, {elapsed:.1f}s",
    )


def test_criterion_08_model_verification_property_suite():
    t0 = time.time()
    cases = [
        ("two-disjoint-holes", (5, 5), 0),
        ("two-interior-disjoint-holes", (4, 4), 0),
        ("forbid-hole", (5,), 0),
        ("forbid-gon", (5,), 0),
        ("count-holes", (5,), 2),
    ]
    instances: dict[tuple, object] = {}

    def spans(inst):
        out, lo = [], 0
        for label, count in inst.groups:
            out.append((label, lo, lo + count))
            lo += count
        return out

    checked = 0
    for i in range(1000):
        n = 6 + i % 7
        mode, sizes, threshold = cases[i % len(cases)]
        hints = mode == "two-disjoint-holes" and n >= 10
        key = (n, mode, sizes, threshold, hints)
        if key not in instances:
            p = HoleProblem(n=n, mode=mode, sizes=sizes, threshold=threshold, hints=hints)
            instances[key] = (p, build_instance(p), None)
        p, inst, cached_spans = instances[key]
        if cached_spans is None:
            cached_spans = spans(inst)
            instances[key] = (p, inst, cached_spans)

        s = canonicalize(random_point_set(n, random.Random(1000 + i)))
        sig = chirotope(s)
        val = assignment_from_chirotope(sig, p)
        violated = set()
        for label, lo, hi in cached_spans:
            if label in violated:
                continue
            for clause in inst.clauses[lo:hi]:
                if not any(val[abs(l)] == (l > 0) for l in clause):
                    violated.add(label)
                    break
        if mode in DISJOINT_MODES:
            flavor = "disjoint" if mode == "two-disjoint-holes" else "interior-disjoint"
            present = find_disjoint_tuple(s, sizes, flavor) is not None
            semantic = "disjointness"
        elif mode == "forbid-hole":
            present = bool(enumerate_holes(s, sizes[0]))
            semantic = "forbid"
        elif mode == "forbid-gon":
            present = len(enumerate_gons(s, sizes[0])) > 0
            semantic = "forbid"
        else:
            present = len(enumerate_holes(s, sizes[0])) >= threshold
            semantic = "cardinality"
        assert violated <= {semantic}, (
            f"set {i} (n={n}, {mode}): unexpected violations {violated}"
        )
        assert (semantic in violated) == present, (
            f"set {i} (n={n}, {mode}): clauses and geometry disagree"
        )
        checked += 1
    elapsed = time.time() - t0
    _report(
        8, checked == 1000 and elapsed < 900,
        "chirotope assignment matches geometry on 1000 random sets",
        f"n in 6..12, five problem kinds, {elapsed:.1f}s",
    )


@requires_solver
@requires_checker
@pytest.mark.solver
@pytest.mark.long
def test_criterion_09_long_running_headline_targets():
    timeout = float(os.environ.get("HOLESAT_TIMEOUT", 6 * 3600))
    checker = discover_checker()
    t0 = time.time()
    notes, ok = [], True

    targets = [
        ("disjoint (5,5) n=17", HoleProblem(
            n=17, mode="two-disjoint-holes", sizes=(5, 5), hints=True), True),
        ("interior (5,5) n=15", HoleProblem(
            n=15, mode="two-interior-disjoint-holes", sizes=(5, 5)), True),
        ("6-gon n=17", HoleProblem(n=17, mode="forbid-gon", sizes=(6,)), False),
        ("count<11 n=16", HoleProblem(
            n=16, mode="count-holes", sizes=(5,), threshold=11), False),
    ]
    for label, problem, want_proof in targets:
        rep = solve_instance(
            build_instance(problem),
            checker=checker if want_proof else None,
            timeout=timeout,
            want_proof=want_proof,
        )
        good = rep.verdict == "UNSAT" and (
            rep.verification == "passed" if want_proof else True
        )
        ok = ok and good
        notes.append(f"{label}: {rep.verdict}/{rep.verification} {rep.wall_time:.0f}s")
    _report(
        9, ok, "hour-scale headline targets",
        "; ".join(notes) + f"; total {(time.time()-t0)/3600:.2f}h",
    )


@requires_solver
@pytest.mark.solver
def test_criterion_10_relaxation_equivalence():
    t0 = time.time()
    ok = True
    notes = []
    for n in range(9, 13):
        verdicts = set()
        for relaxed in (False, True):
            for hints in (False, True):
                p = HoleProblem(
                    n=n, mode="two-disjoint-holes", sizes=(5, 5),
                    relaxed_lr=relaxed, hints=hints,
                )
                verdicts.add(solve_instance(build_instance(p)).verdict)
        good = len(verdicts) == 1 and "UNKNOWN" not in verdicts
        ok = ok and good
        notes.append(f"n={n}:{verdicts.pop() if good else sorted(verdicts)}")
    elapsed = time.time() - t0
    _report(
        10, ok and elapsed < 1200,
        "verdicts unchanged by relaxed side variables and hint clauses",
        ", ".join(notes) + f", {elapsed:.1f}s",
    )
