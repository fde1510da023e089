"""CNF encodings of k-hole avoidance problems over abstract point sets.

A :class:`HoleProblem` fixes the point count, the structure to forbid, and
encoding flags; :func:`build_instance` compiles it into a
:class:`CnfInstance` with deterministic variable numbering (two builds of
the same problem are byte-identical).

Variables, by registry tag:

==============  ========================================================
``O a b c``     triple (a,b,c) is positively oriented
``E a b c d``   segment ab bounds conv{a,b,c,d} (c,d on the same side)
``G4 a b c d``  {a,b,c,d} is a 4-gon
``I i a b c``   point i lies inside triangle {a,b,c} (a < i < c)
``H3 a b c``    {a,b,c} is a 3-hole
``H k x...``    the k indices x form a k-hole (a k-gon in forbid-gon mode)
``L k a b``     a k-hole left of the directed line a->b exists
``R k a b``     a k-hole right of the directed line a->b exists
``C i j``       sequential-counter register (count-holes mode)
==============  ========================================================

Point indices are 0-based throughout; the model is a canonically labeled
set (x-sorted, sorted around point 0), so all triples (0,a,b) with a < b
are asserted positive. With ``orient_vars="explicit"`` all six O variables
per triple exist and are chained by equality clauses; the default
``"compact"`` mode keeps one variable per sorted triple and resolves other
orderings to possibly negated literals. Either way the registry holds one
table of O literals by ordered triple, ``lit[a][b][c]``, and clause
emission reads it (and per-pair rows of it) instead of resolving each
literal per clause. Clauses exist only as DIMACS text: each emitter returns
(label, pieces of whole ``... 0`` lines), read by the writer and the checks.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from operator import add
from typing import Iterator, Literal, Sequence, get_args

from .abstract import enumerate_gons, enumerate_holes, in_triangle, is_gon

Mode = Literal[
    "two-disjoint-holes",
    "two-interior-disjoint-holes",
    "forbid-hole",
    "forbid-gon",
    "count-holes",
]

MODES: tuple[str, ...] = get_args(Mode)
# the kind of pairwise disjointness each disjoint-hole mode asks for
DISJOINT_FLAVOR = {
    "two-disjoint-holes": "disjoint",
    "two-interior-disjoint-holes": "interior-disjoint",
}
DISJOINT_MODES = tuple(DISJOINT_FLAVOR)
Groups = list[tuple[str, list[tuple[int, ...]]]]  # (label, clauses) per group

@dataclass(frozen=True)
class HoleProblem:
    """An avoidance problem to be compiled to CNF.

    ``sizes`` holds (k1, k2) for the two disjoint-hole modes and a single
    (k,) otherwise; ``threshold`` is the count-holes bound t (UNSAT proves
    every set has at least t k-holes).
    """

    n: int
    mode: Mode
    sizes: tuple[int, ...]
    threshold: int = 0
    orient_vars: Literal["compact", "explicit"] = "compact"
    hints: bool = False
    relaxed_lr: bool = False
    simplified_h5: bool = False
    directional_defs: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.orient_vars not in ("compact", "explicit"):
            raise ValueError(f"unknown orient_vars {self.orient_vars!r}")
        lo, hi, arity = {
            "two-disjoint-holes": (2, 6, 2),
            "two-interior-disjoint-holes": (3, 6, 2),
            "forbid-hole": (3, 6, 1),
            "forbid-gon": (4, 6, 1),
            "count-holes": (3, 6, 1),
        }[self.mode]
        if len(self.sizes) != arity:
            raise ValueError(f"{self.mode} takes {arity} size(s), got {self.sizes}")
        if any(not lo <= k <= hi for k in self.sizes):
            raise ValueError(f"sizes {self.sizes} outside [{lo},{hi}] for {self.mode}")
        if self.mode == "count-holes":
            if self.threshold < 1:
                raise ValueError("count-holes needs threshold >= 1")
        elif self.threshold:
            raise ValueError("threshold only applies to count-holes")
        if self.n < max(self.sizes) or self.n < 3:
            raise ValueError(f"n={self.n} too small for sizes {self.sizes}")
        if self.hints and (self.mode, self.sizes) != ("two-disjoint-holes", (5, 5)):
            raise ValueError("hints are only valid for two-disjoint-holes (5,5)")
        if self.hints and self.n < 10:
            raise ValueError("hints need n >= 10 (one clause per 10-point window)")
        if self.relaxed_lr and self.mode != "two-disjoint-holes":
            raise ValueError("relaxed_lr only applies to two-disjoint-holes")
        if self.hints and self.directional_defs:
            raise ValueError("hints need both directions of the hole definitions")

    def key(self) -> str:
        """Stable identifier, used for file names and instance comments."""
        parts = [self.mode, "k" + "-".join(map(str, self.sizes)), f"n{self.n}"]
        if self.mode == "count-holes":
            parts.append(f"t{self.threshold}")
        parts.append(self.orient_vars)
        for flag, name in (
            (self.hints, "hints"),
            (self.relaxed_lr, "relaxedlr"),
            (self.simplified_h5, "simplh5"),
            (self.directional_defs, "dirdefs"),
        ):
            if flag:
                parts.append(name)
        return "-".join(parts)

    @property
    def hole_sizes(self) -> tuple[int, ...]:
        """Distinct hole sizes needing an H-variable family (k >= 4)."""
        low = 5 if self.mode == "forbid-gon" else 4
        return tuple(k for k in sorted(set(self.sizes)) if k >= low)


class VarRegistry:
    """Deterministic bijection between variable tags and DIMACS ids.

    ``lit[a][b][c]`` is the signed O literal asserting that (a, b, c) is
    positively oriented, for every ordered triple of distinct indices, and
    0 where indices repeat.
    """

    def __init__(self, problem: HoleProblem):
        self.problem = problem
        self._ids: dict[tuple, int] = {}
        self._tags: list[tuple] = []
        self.family_counts: dict[str, int] = {}
        n = problem.n
        triples = list(itertools.combinations(range(n), 3))
        quads = list(itertools.combinations(range(n), 4))
        explicit = problem.orient_vars == "explicit"
        lit = [[[0] * n for _ in range(n)] for _ in range(n)]
        for a, b, c in triples:
            if explicit:  # the cyclic (positive) images first, then the transpositions
                for p, q, r in ((a, b, c), (b, c, a), (c, a, b), (b, a, c), (a, c, b), (c, b, a)):
                    lit[p][q][r] = self._add(("O", p, q, r), "O")
            else:
                v = self._add(("O", a, b, c), "O")
                lit[a][b][c] = lit[b][c][a] = lit[c][a][b] = v
                lit[b][a][c] = lit[a][c][b] = lit[c][b][a] = -v
        self.lit: list[list[list[int]]] = lit
        for a, b, c, d in quads:
            self._add(("E", a, b, c, d), "E")
            self._add(("E", c, d, a, b), "E")
        for q in quads:
            self._add(("G4", *q), "G4")
        if problem.mode != "forbid-gon":
            for a, b, c, d in quads:
                self._add(("I", b, a, c, d), "I")
                self._add(("I", c, a, b, d), "I")
            for t in triples:
                self._add(("H3", *t), "H3")
        for k in problem.hole_sizes:
            for x in itertools.combinations(range(n), k):
                self._add(("H", k, *x), f"H{k}")
        if problem.mode in DISJOINT_MODES:
            for k in sorted(set(problem.sizes)):
                for fam, (a, b) in itertools.product("LR", itertools.permutations(range(n), 2)):
                    self._add((fam, k, a, b), f"{fam}{k}")
        if problem.mode == "count-holes" and problem.threshold >= 2:
            for i in range(1, math.comb(n, problem.sizes[0])):
                for j in range(1, problem.threshold):
                    self._add(("C", i, j), "C")

    def _add(self, tag: tuple, family: str) -> int:
        self._ids[tag] = ident = len(self._tags) + 1
        self._tags.append(tag)
        self.family_counts[family] = self.family_counts.get(family, 0) + 1
        return ident

    def __len__(self) -> int:
        return len(self._tags)

    def var(self, *tag) -> int:
        return self._ids[tag]

    def olit(self, a: int, b: int, c: int) -> int:
        """Signed literal asserting that (a,b,c) is positively oriented, from ``lit``."""
        lit = self.lit[a][b][c] if min(a, b, c) >= 0 else 0
        if not lit:
            raise ValueError(f"indices must be distinct and >= 0, got {(a, b, c)}")
        return lit

    def hole_lit(self, k: int, x: Sequence[int]) -> int:
        """Variable standing for 'x is a k-hole' (a k-gon in forbid-gon mode), k >= 3."""
        if k == 3:
            return self._ids[("H3", *x)]
        if k == 4 and self.problem.mode == "forbid-gon":
            return self._ids[("G4", *x)]
        return self._ids[("H", k, *x)]

    def items(self) -> Iterator[tuple[int, tuple]]:
        return enumerate(self._tags, start=1)


class CnfInstance:
    """A compiled problem: the registry and the emitters of its clause groups.

    Each consumer runs the emitters afresh and reads their DIMACS pieces as they
    come, never the whole text; ``groups`` is recorded by the first full pass.
    """

    def __init__(self, problem: HoleProblem, registry: VarRegistry, emitters):
        self.problem, self.registry = problem, registry
        self._emitters = list(emitters)  # emit(problem, registry) -> [(label, pieces)]
        self._groups = self._clauses = None

    @property
    def num_vars(self) -> int:
        return len(self.registry)

    @property
    def groups(self) -> list[tuple[str, int]]:
        if self._groups is None:
            for _ in self._pieces():
                pass
        return self._groups

    @property
    def num_clauses(self) -> int:
        return sum(count for _, count in self.groups)

    @property
    def clauses(self) -> list[tuple[int, ...]]:
        """Every clause in one list, parsed on first read, for readers that index it."""
        if self._clauses is None:
            self._clauses = [_parse(line) for _, line in self._lines()]
        return self._clauses

    def _pieces(self) -> Iterator[tuple[str, str]]:
        """(label, DIMACS piece) from each emitter, run afresh; a full pass records ``groups``."""
        groups = []
        for emit in self._emitters:
            for label, pieces in emit(self.problem, self.registry):
                count = 0
                for piece in pieces:
                    count += piece.count("\n")
                    yield label, piece
                groups.append((label, count))
        self._groups = groups

    def _lines(self) -> Iterator[tuple[str, str]]:
        """(label, clause line) per clause: the lines the writer writes."""
        return ((label, line) for label, piece in self._pieces() for line in piece.splitlines())

    def write_dimacs(self, path) -> None:
        """Spool the body into an unnamed file beside ``path``, then write the header,
        which needs the counts, and copy the body in; a failing emitter writes nothing."""
        with tempfile.TemporaryFile("w+", dir=os.path.dirname(os.path.abspath(path))) as body:
            body.writelines(piece for _, piece in self._pieces())
            body.seek(0)
            with open(path, "w") as f:
                f.write(f"c holesat instance {self.problem.key()}\n")
                switches = dataclasses.asdict(self.problem).items()
                f.write("c " + " ".join(_header_switch(*kv) for kv in switches) + "\n")
                fams = " ".join(f"{k}={v}" for k, v in self.registry.family_counts.items())
                f.write(f"c vars {fams} total={self.num_vars}\n")
                for label, count in self._groups:
                    f.write(f"c group {label} {count}\n")
                f.write(f"p cnf {self.num_vars} {self.num_clauses}\n")
                shutil.copyfileobj(body, f)

    def write_registry(self, path) -> None:
        with open(path, "w") as f:
            f.write(f"# holesat registry {self.problem.key()}\n")
            for i, tag in self.registry.items():
                f.write(f"{i} {' '.join(map(str, tag))}\n")


def load_registry(path) -> dict[int, tuple]:
    """Sidecar registry file back into an id -> tag mapping."""
    with open(path) as f:
        rows = (line.split() for line in f)
        return {int(r[0]): (r[1], *map(int, r[2:])) for r in rows if r and r[0][0] != "#"}


def _header_switch(name: str, value) -> str:
    """A problem field as the DIMACS header spells it: dashes, bools 0/1, sizes a,b."""
    if isinstance(value, tuple):
        value = ",".join(map(str, value))
    return f"{name.replace('_', '-')}={int(value) if isinstance(value, bool) else value}"


def _parse(line: str) -> tuple[int, ...]:
    """The clause of one DIMACS line."""
    return tuple(map(int, line.split()[:-1]))


def as_dimacs(emit):
    """An emitter of clause tuples, made to return each group as one DIMACS text
    piece, its lines from one ``%d`` format per length; an empty clause raises."""

    @functools.wraps(emit)
    def text(problem: HoleProblem, reg: VarRegistry) -> Iterator[tuple[str, list[str]]]:
        for label, clauses in emit(problem, reg):
            if not all(clauses):
                raise ValueError(f"empty clause in group {label}")
            fmt = ["%d " * m + "0\n" for m in range(max(map(len, clauses), default=0) + 1)]
            yield label, ["".join([fmt[len(cl)] % cl for cl in clauses])]

    return text


def _and_def(a: int, conj: Sequence[int], directional: str = "both") -> list[tuple[int, ...]]:
    """CNF for a = AND(conj); ``directional`` keeps one implication only.

    ``"fwd"`` keeps a -> AND(conj) (the binary clauses), ``"bwd"`` keeps
    AND(conj) -> a (the long clause), ``"both"`` keeps the biconditional.
    """
    out: list[tuple[int, ...]] = []
    if directional in ("both", "fwd"):
        out.extend((-a, lit) for lit in conj)
    if directional in ("both", "bwd"):
        out.append((a, *(-lit for lit in conj)))
    return out


@as_dimacs
def emit_orientation_axioms(problem: HoleProblem, reg: VarRegistry) -> Groups:
    """Families (1)-(3): alternation, signotope axioms, sortedness units."""
    n = problem.n
    lit = reg.lit
    groups: Groups = []  # the alternating axioms, in explicit mode
    if problem.orient_vars == "explicit":
        # lit holds each ordered triple's own variable: cyclic images are
        # equal, and a transposition differs
        alt: list[tuple[int, ...]] = []
        for a, b, c in itertools.combinations(range(n), 3):
            p0, p1, p2 = lit[a][b][c], lit[b][c][a], lit[c][a][b]
            q0, q1, q2 = lit[b][a][c], lit[a][c][b], lit[c][b][a]
            for u, v in ((p0, p1), (p1, p2), (q0, q1), (q1, q2)):
                alt += [(-u, v), (u, -v)]
            alt += [(p0, q0), (-p0, -q0)]
        groups.append(("alternating", alt))
    # at most one sign change along (abc, abd, acd, bcd) per sorted 4-tuple
    sig: list[tuple[int, ...]] = []
    for a, b, c, d in itertools.combinations(range(n), 4):
        s = (lit[a][b][c], lit[a][b][d], lit[a][c][d], lit[b][c][d])
        for i, j, k in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
            sig.append((s[i], -s[j], s[k]))
            sig.append((-s[i], s[j], -s[k]))
    units = [(reg.olit(0, a, b),) for a, b in itertools.combinations(range(1, n), 2)]
    return groups + [("signotope", sig), ("sorted-around-first", units)]


@as_dimacs
def emit_hole_definitions(problem: HoleProblem, reg: VarRegistry) -> Groups:
    """Families (4)-(7): E, G4/I, H3, and the per-size hole variables."""
    n = problem.n
    gon_mode = problem.mode == "forbid-gon"
    # directional definitions keep the implication each use of a variable needs
    fwd, bwd = ("fwd", "bwd") if problem.directional_defs else ("both", "both")

    bounding: list[tuple[int, ...]] = []
    gons: list[tuple[int, ...]] = []
    for a, b, c, d in itertools.combinations(range(n), 4):
        e1, e2 = reg.var("E", a, b, c, d), reg.var("E", c, d, a, b)
        for e, p, q, r, s in ((e1, a, b, c, d), (e2, c, d, a, b)):
            u, v = reg.lit[p][q][r], reg.lit[p][q][s]
            bounding += [(-e, u, -v), (-e, -u, v), (e, u, v), (e, -u, -v)]
        gons += _and_def(reg.var("G4", a, b, c, d), (e1, e2), bwd)
        if not gon_mode:
            gons += _and_def(reg.var("I", b, a, c, d), (-e1, e2), fwd)
            gons += _and_def(reg.var("I", c, a, b, d), (e1, -e2), fwd)
    groups: Groups = [("bounding-segments", bounding), ("gons-and-containments", gons)]

    if not gon_mode:
        three: list[tuple[int, ...]] = []
        for a, b, c in itertools.combinations(range(n), 3):
            conj = [-reg.var("I", i, a, b, c) for i in range(a + 1, c) if i != b]
            three += _and_def(reg.hole_lit(3, (a, b, c)), conj, bwd)
        groups.append(("three-holes", three))

    # a k-subset is a k-gon iff each 4-subset is a 4-gon, a k-hole iff each
    # 3-subset is a 3-hole
    base = 4 if gon_mode else 3
    for k in problem.hole_sizes:
        holes: list[tuple[int, ...]] = []
        for x in itertools.combinations(range(n), k):
            conj = [reg.hole_lit(base, t) for t in itertools.combinations(x, base)]
            if k == 5 and not gon_mode and not problem.simplified_h5:
                conj = [reg.var("G4", *q) for q in itertools.combinations(x, 4)] + conj
            holes += _and_def(reg.hole_lit(k, x), conj, bwd)
        groups.append((f"{k}-gons" if gon_mode else f"{k}-holes", holes))
    return groups


def emit_disjointness(problem: HoleProblem, reg: VarRegistry) -> list[tuple[str, Iterator[str]]]:
    """Family (8): side-existence variables and their mutual exclusion.

    The largest group, so it is written straight as text, one piece per
    side variable, made afresh by each call; no Python code runs per clause.

    L(k, a, b) (R(k, a, b)) is implied by each k-hole x of the mode's schema
    with its labels, bar the skipped ones, strictly left (right) of a->b:
    default = subsets through the anchor (a for L, b for R) avoiding the
    other endpoint, ``relaxed_lr`` = subsets avoiding the other endpoint,
    both skipping the anchor; interior = every subset, skipping a and b.
    """
    n = problem.n
    interior = problem.mode == "two-interior-disjoint-holes"
    through = not (interior or problem.relaxed_lr)  # the default schema
    pairs = list(itertools.permutations(range(n), 2))

    def pieces() -> Iterator[str]:
        for k in sorted(set(problem.sizes)):
            subsets = list(itertools.combinations(range(n), k))
            holes = ["" if k == 2 else "%d " % -reg.hole_lit(k, x) for x in subsets]
            # per anchor, the hole strings of its schema's subsets (by default the anchor
            # and m = k - 1 of the n - 1 others), and which of them miss the i-th other
            m, others = k - through, range(n - through)
            if not interior:
                pools = [[h for x, h in zip(subsets, holes) if p in x] if through else holes
                         for p in range(n)]
                misses = [bytes(i not in y for y in itertools.combinations(others, m))
                          for i in others]
            for a, b in pairs:
                # body rows, "c is not left (right) of a->b" as "%d " strings, are ""
                # at a and b, the labels the schema skips: joined entries are the body
                row_r = ["%d " % l if l else "" for l in reg.lit[a][b]]
                row_l = ["%d " % -l if l else "" for l in reg.lit[a][b]]
                for fam, row, anchor, other in (("L", row_l, a, b), ("R", row_r, b, a)):
                    if interior:
                        hole, free = holes, row
                    else:  # bodies come in the order of the subsets that miss other
                        i = other - (through and other > anchor)
                        hole = itertools.compress(pools[anchor], misses[i])
                        free = [s for s in row if s] if through else row[:other] + row[other + 1:]
                    clauses = list(map(add, hole, map("".join, itertools.combinations(free, m))))
                    side = "%d " % reg.var(fam, k, a, b)
                    yield side + ("0\n" + side).join(clauses) + "0\n" if clauses else ""
        for ka, kb in sorted({problem.sizes, problem.sizes[::-1]}):
            yield "".join([f"-{reg.var('L', ka, a, b)} -{reg.var('R', kb, a, b)} 0\n"
                           for a, b in pairs])

    return [("disjointness", pieces())]


@as_dimacs
def emit_hints(problem: HoleProblem, reg: VarRegistry) -> Groups:
    """Family (9): 10-point-window facts, plus end exclusions at n=17.

    Every 10 consecutive indices contain a 5-hole (sound because a hole of
    a consecutive window is automatically empty with respect to the whole
    set). At n=17 a 5-hole within the first 7 (last 7) indices would pair
    with the 5-hole guaranteed in the remaining 10 to form a disjoint pair,
    so those are excluded outright.
    """
    n = problem.n
    clauses = [  # one per window of 10 consecutive indices
        tuple(reg.hole_lit(5, x) for x in itertools.combinations(range(i, i + 10), 5))
        for i in range(n - 9)
    ]
    if n == 17:
        for block in (range(0, 7), range(10, 17)):
            for x in itertools.combinations(block, 5):
                clauses.append((-reg.hole_lit(5, x),))
    return [("hints", clauses)]


@as_dimacs
def emit_cardinality(problem: HoleProblem, reg: VarRegistry) -> Groups:
    """Count mode: at most threshold-1 of the hole variables are true."""
    k = problem.sizes[0]
    xs = [reg.hole_lit(k, x) for x in itertools.combinations(range(problem.n), k)]
    r = problem.threshold - 1
    if r == 0:
        return [("cardinality", [(-x,) for x in xs])]
    m = len(xs)
    if m == 1:
        # one k-subset (k = n): at most r >= 1 of one variable always holds
        return [("cardinality", [])]
    # sequential counter: C(i,j) means at least j of the first i inputs hold
    s = lambda i, j: reg.var("C", i, j)
    clauses = [(-xs[0], s(1, 1))] + [(-s(1, j),) for j in range(2, r + 1)]
    for i in range(2, m):
        clauses.append((-xs[i - 1], s(i, 1)))
        clauses.append((-s(i - 1, 1), s(i, 1)))
        for j in range(2, r + 1):
            clauses.append((-xs[i - 1], -s(i - 1, j - 1), s(i, j)))
            clauses.append((-s(i - 1, j), s(i, j)))
        clauses.append((-xs[i - 1], -s(i - 1, r)))
    clauses.append((-xs[m - 1], -s(m - 1, r)))
    return [("cardinality", clauses)]


@as_dimacs
def emit_forbid(problem: HoleProblem, reg: VarRegistry) -> Groups:
    """Unit clauses negating every hole (gon) variable of the target size."""
    k = problem.sizes[0]
    units = [(-reg.hole_lit(k, x),) for x in itertools.combinations(range(problem.n), k)]
    return [("forbid", units)]


def build_instance(problem: HoleProblem) -> CnfInstance:
    """Compile the problem into its registry and emitters; deterministic."""
    emitters = [emit_orientation_axioms, emit_hole_definitions]
    if problem.mode in DISJOINT_MODES:
        emitters.append(emit_disjointness)
        if problem.hints:
            emitters.append(emit_hints)
    elif problem.mode in ("forbid-hole", "forbid-gon"):
        emitters.append(emit_forbid)
    else:
        emitters.append(emit_cardinality)
    return CnfInstance(problem, VarRegistry(problem), emitters)


def assignment_from_chirotope(sig, problem: HoleProblem) -> dict[int, bool]:
    """Full variable assignment induced by a canonical signotope.

    Every variable gets the meaning the module docstring gives its tag,
    evaluated on the signotope by the orientation-only predicates of
    :mod:`holesat.abstract`, never by the clause generators: the result is
    an independent reference for the clauses. L/R(k, a, b) holds iff some
    k-hole of the mode's subset schema lies strictly on that side of a->b,
    apart from the labels the schema skips: the default schema takes the
    holes through the side's anchor (a for L, b for R) and not through the
    other endpoint, ``relaxed_lr`` any hole avoiding the other endpoint,
    and interior-disjoint mode any hole, skipping both endpoints. The result
    satisfies the orientation and definition groups outright, and the
    disjointness group exactly when the signotope has no forbidden pair.
    Used by tests and by the benchmark's replayed models.
    """
    if sig.n != problem.n:
        raise ValueError(f"signotope has n={sig.n}, problem n={problem.n}")
    n, left, chi = problem.n, sig.left, sig.chi
    reg = VarRegistry(problem)
    gon_mode = problem.mode == "forbid-gon"
    # the k-subsets the H, L/R and C families count (gons in forbid-gon mode)
    family = enumerate_gons if gon_mode else enumerate_holes
    holes = {k: set(family(sig, k)) for k in set(problem.sizes)}
    masks = {k: [sum(1 << i for i in x) for x in xs] for k, xs in holes.items()}
    interior = problem.mode == "two-interior-disjoint-holes"
    through_anchor = not (interior or problem.relaxed_lr)

    def side(k: int, fam: str, a: int, b: int) -> bool:
        anchor, other = (a, b) if fam == "L" else (b, a)
        allowed = left[anchor][other] | 1 << anchor
        if interior:
            allowed |= 1 << other
        need = 1 << anchor if through_anchor else 0
        return any(h & need == need and not h & ~allowed for h in masks[k])

    if problem.mode == "count-holes":
        k = problem.sizes[0]
        # running[i]: holes among the first i k-subsets, lexicographically
        running = list(itertools.accumulate(
            (x in holes[k] for x in itertools.combinations(range(n), k)), initial=0
        ))
    val: dict[int, bool] = {}
    for ident, tag in reg.items():
        kind = tag[0]
        if kind == "O":
            val[ident] = chi(*tag[1:]) > 0
        elif kind == "E":
            _, p, q, r, s = tag
            val[ident] = chi(p, q, r) == chi(p, q, s)
        elif kind == "G4":
            val[ident] = is_gon(sig, tag[1:])
        elif kind == "I":
            val[ident] = in_triangle(sig, *tag[1:])
        elif kind == "H3":
            val[ident] = tag[1:] in sig.three_holes
        elif kind == "H":
            val[ident] = tag[2:] in holes[tag[1]]
        elif kind in ("L", "R"):
            val[ident] = side(tag[1], kind, tag[2], tag[3])
        else:  # C i j: at least j of the first i hole variables hold
            val[ident] = running[tag[1]] >= tag[2]
    return val


def violated_clauses(
    inst: CnfInstance, assignment: dict[int, bool], limit: int = 10
) -> list[tuple[str, tuple[int, ...]]]:
    """Up to ``limit`` (group label, clause) pairs the assignment falsifies, read
    from the written lines: no token of such a line is a literal made true."""
    true = {str(v if value else -v) for v, value in assignment.items()}
    out = []
    for label, line in inst._lines():
        if true.isdisjoint(line.split()):
            out.append((label, _parse(line)))
            if len(out) >= limit:
                return out
    return out
