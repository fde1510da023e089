"""Command-line entry point.

Subcommands: ``encode`` (problem flags -> DIMACS + variable registry),
``solve`` (encode, run solver, verify model / check certificate),
``verify-witness`` (point file + property flags, no solver needed),
``count-holes``, ``construct`` (generators and bundled witness sets),
``search`` (annealing witness search), ``recipe`` (named pipelines with
expected verdicts).

Exit codes: 0 = pass, 1 = a claimed property failed (wrong verdict,
failed verification, missing witness), 2 = infrastructure trouble
(missing binaries, timeouts, unreadable files, bad flags).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import shutil
import sys
import tempfile
from concurrent.futures import BrokenExecutor
from pathlib import Path

from . import __version__
from .constructions import WITNESS_COORDS, generate_double_circle, generate_two_ring, witness
from .encoder import MODES, HoleProblem, build_instance
from .geometry import read_points, write_points
from .holes import enumerate_gons, enumerate_holes, find_disjoint_tuple
from .recipes import RECIPE_NAMES, passed, run_recipe
from .search import OBJECTIVE_MODES, SearchObjective, search_witness
from .solver import (
    MODEL_DECODING_FAILED,
    SolverError,
    default_workers,
    discover_checker,
    discover_solver,
    find_checker,
    resolve_timeout,
    solve_instance,
)

PASS, FAIL, ERROR = 0, 1, 2


def _sizes_arg(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not sizes:
        raise argparse.ArgumentTypeError("empty size list")
    return sizes


def _seeds_arg(text: str) -> list[int]:
    seeds: list[int] = []
    try:
        for part in text.split(","):
            if "-" in part:
                lo, hi = map(int, part.split("-", 1))
                if lo > hi:
                    raise ValueError
                seeds.extend(range(lo, hi + 1))
            else:
                seeds.append(int(part))
        if len(set(seeds)) < len(seeds):
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected seeds like '0-7' or '1,5,9', got {text!r}")
    if not seeds:
        raise argparse.ArgumentTypeError("empty seed list")
    return seeds


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    """The flags that build a HoleProblem: size, mode and encoding variant."""
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("--mode", choices=MODES, required=True)
    _add_size_flags(p)
    p.add_argument("--threshold", type=int, default=0, help="count-holes threshold")
    p.add_argument(
        "--orient-vars",
        choices=("compact", "explicit"),
        default="compact",
        help="one orientation variable per sorted triple, or six per triple "
        "(one per permutation) chained by equivalences",
    )
    p.add_argument("--hints", action="store_true", help="add implied window clauses")
    p.add_argument("--relaxed-lr", action="store_true", help="wider side-variable scope")
    p.add_argument(
        "--simplified-h5", action="store_true", help="define 5-holes from triangles only"
    )
    p.add_argument(
        "--directional-defs",
        action="store_true",
        help="keep only the implication direction each definition needs",
    )


def _add_size_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sizes", type=_sizes_arg, help="hole sizes, e.g. 5,5")
    p.add_argument("--k", type=int, help="shorthand for --sizes K")


def _sizes_from_args(args) -> tuple[int, ...]:
    if args.sizes and args.k is not None:
        raise ValueError("pass --sizes or --k, not both")
    sizes = args.sizes or ((args.k,) if args.k is not None else None)
    if sizes is None:
        raise ValueError("one of --sizes or --k is required")
    return sizes


def _problem_from_args(args) -> HoleProblem:
    """Every problem field from the flag of the same name; sizes from --sizes or --k."""
    fields = [f.name for f in dataclasses.fields(HoleProblem) if f.name != "sizes"]
    return HoleProblem(sizes=_sizes_from_args(args), **{f: getattr(args, f) for f in fields})


def _infrastructure_trouble(report) -> bool:
    """No verdict, or a SAT model that does not decode: malformed output."""
    return report.verdict == "UNKNOWN" or report.detail.startswith(MODEL_DECODING_FAILED)


def _exit_code(judged) -> int:
    """ERROR on any infrastructure trouble, else FAIL unless every pair passed."""
    if any(_infrastructure_trouble(report) for report, _ in judged):
        return ERROR
    return PASS if all(passed(report, expect) for report, expect in judged) else FAIL


def cmd_encode(args) -> int:
    problem = _problem_from_args(args)
    inst = build_instance(problem)
    out = Path(args.output or f"{problem.key()}.cnf")
    inst.write_dimacs(out)
    reg = Path(args.registry) if args.registry else out.with_suffix(".vars")
    inst.write_registry(reg)
    print(f"wrote {out} ({inst.num_vars} variables, {inst.num_clauses} clauses)")
    print(f"wrote {reg}")
    if args.stats:
        for family, count in inst.registry.family_counts.items():
            print(f"  vars {family}: {count}")
        for label, count in inst.groups:
            print(f"  clauses {label}: {count}")
    return PASS


def cmd_solve(args) -> int:
    problem = _problem_from_args(args)
    solver = discover_solver(args.solver)
    # naming a checker asks for a checked proof, as --check does, and a
    # named checker must resolve; with a bare --proof any checker will do
    wanted = args.check or args.checker
    want_proof = bool(args.proof or wanted)
    if want_proof:
        solver.require_proof()
    find = discover_checker if wanted else find_checker
    checker = find(args.checker) if want_proof else None
    timeout = resolve_timeout(args.timeout)
    inst = build_instance(problem)
    # a temporary directory unless --workdir names one to keep
    with tempfile.TemporaryDirectory(prefix="holesat-") as own_dir:
        report = solve_instance(
            inst, solver, checker, timeout=timeout,
            workdir=args.workdir or own_dir, want_proof=want_proof,
        )
        if args.proof and report.certificate_path:
            shutil.copyfile(report.certificate_path, args.proof)
            report.certificate_path = args.proof
        elif not args.workdir:
            report.certificate_path = None
    print(report.to_text())
    if args.summary:
        report.write_summary(args.summary)
    expect = args.expect.upper() if args.expect else None
    code = _exit_code([(report, expect)])
    if code == ERROR:
        print(f"error: {report.detail}", file=sys.stderr)
    elif code == FAIL and report.verification != "failed":
        print(f"expected {expect}, got {report.verdict}", file=sys.stderr)
    return code


def _claims(args, stem: str) -> list:
    """(wanted, value) for each --STEM flag, then for each --no-STEM flag."""
    dest = stem.replace("-", "_")
    return [(want, x) for want, name in ((True, dest), (False, "no_" + dest))
            for x in getattr(args, name) or []]


def cmd_verify_witness(args) -> int:
    try:
        s = read_points(args.file)
    except ValueError as exc:
        message = str(exc)
        if "collinear" in message or "duplicate" in message:
            print(f"fail: general position ({message})")
            print("result: fail")
            return FAIL
        raise
    checks: list[tuple[str, bool, str]] = []
    for stem, structures in (("hole", enumerate_holes), ("gon", enumerate_gons)):
        for want, k in _claims(args, stem):
            c = len(structures(s, k))
            desc = f"contains a {k}-{stem}" if want else f"no {k}-{stem}"
            checks.append((desc, bool(c) == want, f"count={c}"))
    for mode in ("disjoint", "interior-disjoint"):
        for want, sizes in _claims(args, f"{mode}-holes"):
            found = find_disjoint_tuple(s, sizes, mode)
            note = ("" if want else "witness ") + " ".join(map(str, found)) if found else "none"
            desc = f"{'contains' if want else 'no'} {mode} {'/'.join(map(str, sizes))} holes"
            checks.append((desc, (found is not None) == want, note))
    if args.canonical:
        checks.append(("canonical form", s.is_canonical(), ""))
    if not checks:
        checks.append((f"general position ({len(s)} points)", True, ""))
    for desc, ok, note in checks:
        suffix = f" ({note})" if note else ""
        print(f"{'pass' if ok else 'fail'}: {desc}{suffix}")
    passed = all(ok for _, ok, _ in checks)
    print(f"result: {'pass' if passed else 'fail'}")
    return PASS if passed else FAIL


def cmd_count_holes(args) -> int:
    s = read_points(args.file)
    print(len(enumerate_holes(s, args.k)))
    return PASS


def cmd_construct(args) -> int:
    if args.name in ("double-circle", "two-ring"):
        if args.n is None:
            raise ValueError(f"{args.name} needs --n")
        maker = generate_double_circle if args.name == "double-circle" else generate_two_ring
        s = maker(args.n, radius=args.radius)
    else:
        if args.n is not None:
            raise ValueError(f"{args.name} has a fixed size; drop --n")
        s = witness(args.name)
    if args.output:
        write_points(args.output, s, header=f"{args.name} n={len(s)}")
        print(f"wrote {args.output} ({len(s)} points)")
    else:
        for p in s.points:
            print(f"{p.x} {p.y}")
    return PASS


def cmd_search(args) -> int:
    obj = SearchObjective(args.mode, _sizes_from_args(args))
    workers = args.workers if args.workers is not None else default_workers()
    result = search_witness(
        args.n, obj, seeds=args.seeds, budget=args.budget, box=args.box, workers=workers
    )
    if result is None:
        print(
            f"no witness: n={args.n}, {obj.describe()}, "
            f"{len(args.seeds)} restarts x {args.budget} proposals"
        )
        return FAIL
    w, seed = result
    print(f"witness found: n={args.n} with zero {obj.describe()} (seed {seed})")
    if args.output:
        write_points(args.output, w, header=f"search n={args.n} {obj.describe()} seed={seed}")
        print(f"wrote {args.output}")
    else:
        for p in w.points:
            print(f"{p.x} {p.y}")
    return PASS


def cmd_recipe(args) -> int:
    results = run_recipe(
        args.name,
        solver=discover_solver(args.solver),
        checker=discover_checker(args.checker) if args.checker else None,
        timeout=args.timeout,
        workers=args.workers,
        workdir=args.workdir,
        want_proof=not args.no_proof,
    )
    rows = []
    for step, report in results:
        ok = passed(report, step.expect)
        rows.append(dict(
            label=step.label, expect=step.expect, verdict=report.verdict,
            verification=report.verification, wall_time=report.wall_time,
            passed=ok, detail="" if ok else report.detail,
        ))
    print(f"recipe {args.name}")
    for r in rows:
        detail = f" ({r['detail']})" if r["detail"] else ""
        print(
            f"  {'pass' if r['passed'] else 'FAIL'}: {r['label']} -> {r['verdict']} "
            f"[expected {r['expect']}, {r['wall_time']:.1f}s, "
            f"verification {r['verification']}]{detail}"
        )
    code = _exit_code([(report, step.expect) for step, report in results])
    done = sum(r["passed"] for r in rows)
    print(f"result: {'pass' if code == PASS else 'FAIL'} ({done}/{len(rows)} steps)")
    if args.report:
        payload = {"recipe": args.name, "passed": code == PASS, "steps": rows}
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.report}")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holesat",
        description="k-gon/k-hole questions on point sets as SAT instances",
    )
    parser.add_argument("--version", action="version", version=f"holesat {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress at INFO")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="build a DIMACS CNF instance")
    _add_problem_flags(p)
    p.add_argument("-o", "--output", help="CNF path (default <instance-key>.cnf)")
    p.add_argument("--registry", help="variable-registry path (default <output>.vars)")
    p.add_argument("--stats", action="store_true", help="print per-family/group counts")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("solve", help="encode, solve, and verify one instance")
    _add_problem_flags(p)
    p.add_argument("--solver", help="solver preset name or binary path")
    p.add_argument("--checker", help="proof-checker preset name or binary path")
    p.add_argument("--timeout", type=float, help="seconds per solver call")
    p.add_argument("--proof", help="keep the UNSAT certificate at this path")
    p.add_argument("--check", action="store_true", help="run the proof checker on UNSAT")
    p.add_argument("--expect", choices=("sat", "unsat"), help="fail unless this verdict")
    p.add_argument("--workdir", help="keep CNF/model/proof files here")
    p.add_argument("--summary", help="write a JSON report here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "verify-witness", help="check structural properties of a point file (no solver)"
    )
    p.add_argument("file", help="point file: one 'x y' pair per line")
    # --STEM claims at least one such structure, --no-STEM claims none
    for stem in ("hole", "gon", "disjoint-holes", "interior-disjoint-holes"):
        kind, metavar = (int, "K") if stem in ("hole", "gon") else (_sizes_arg, "SIZES")
        for flag in (f"--{stem}", f"--no-{stem}"):
            p.add_argument(flag, type=kind, action="append", metavar=metavar)
    p.add_argument("--canonical", action="store_true", help="require canonical form")
    p.set_defaults(func=cmd_verify_witness)

    p = sub.add_parser("count-holes", help="count k-holes in a point file")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_count_holes)

    p = sub.add_parser("construct", help="generate or emit a known point set")
    p.add_argument("name", choices=("double-circle", "two-ring") + tuple(sorted(WITNESS_COORDS)))
    p.add_argument("--n", type=int, help="size for the generators")
    p.add_argument("--radius", type=int, default=10**6, help="outer radius for the generators")
    p.add_argument("-o", "--output", help="write a point file instead of stdout")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("search", help="anneal for a witness with zero forbidden structures")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=OBJECTIVE_MODES, required=True)
    _add_size_flags(p)
    p.add_argument("--seeds", type=_seeds_arg, default=list(range(8)), metavar="SPEC",
                   help="restart seeds, e.g. '0-7' or '3,5'")
    p.add_argument("--budget", type=int, default=20000, help="proposals per restart")
    p.add_argument("--box", type=int, default=10**6, help="coordinate bound")
    p.add_argument("--workers", type=int, help="parallel restarts")
    p.add_argument("-o", "--output", help="write the witness point file here")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("recipe", help="run a named pipeline with expected verdicts")
    p.add_argument("name", choices=RECIPE_NAMES)
    p.add_argument("--solver", help="solver preset name or binary path")
    p.add_argument("--checker", help="proof-checker preset name or binary path")
    p.add_argument("--timeout", type=float)
    p.add_argument("--workers", type=int)
    p.add_argument("--workdir", help="keep per-instance files here")
    p.add_argument("--no-proof", action="store_true", help="skip certificates entirely")
    p.add_argument("--report", help="write a JSON step report here")
    p.set_defaults(func=cmd_recipe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (SolverError, OSError, ValueError, BrokenExecutor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
