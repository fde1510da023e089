"""CNF encodings of k-hole avoidance problems over abstract point sets.

A :class:`HoleProblem` fixes the point count, a mode of ``MODE_RULES`` and
sizes that ``check_sizes`` (both from :mod:`holesat.holes`) and the
encoder's limits (two at most, none above ``MAX_SIZE``) allow, and flags.
:func:`build_instance` compiles it; two builds of it are byte-identical.

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
literal per clause. Clauses exist only as DIMACS text, joined from ``"%d "``
strings of their literals, never from clause tuples: each emitter returns
(label, pieces of whole ``... 0`` lines), read by the writer and the checks.
Every line opens with a literal, so no emitter can write an empty clause.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from operator import add, neg
from typing import Iterable, Iterator, Literal, Sequence

from .abstract import enumerate_from_table, in_triangle, is_gon
from .holes import DISJOINT_FLAVOR, DISJOINT_MODES, MODE_RULES, MODES, SIZE_KIND, check_sizes

MAX_SIZE = 6  # the largest size the encoder takes, in every mode
Text = list[tuple[str, Iterable[str]]]  # (label, DIMACS pieces) per group
PIECE = 256  # subsets per text piece of the orientation, definition and forbid groups

@dataclass(frozen=True)
class HoleProblem:
    """An avoidance problem to be compiled to CNF.

    ``sizes`` holds (k1, k2) for the two disjoint-hole modes and a single
    (k,) otherwise; ``threshold`` is the count-holes bound t (UNSAT proves
    every set has at least t k-holes).
    """

    n: int
    mode: str
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
        check_sizes(self.mode, self.sizes)
        if len(self.sizes) > 2:  # the disjoint modes: exactly two
            raise ValueError(f"the encoder takes two sizes in {self.mode}, got {self.sizes}")
        if max(self.sizes) > MAX_SIZE:
            raise ValueError(f"the encoder takes no size above {MAX_SIZE}, got {self.sizes}")
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
        if self.threshold:
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
        low = 5 if SIZE_KIND[self.mode] == "gon" else 4
        return tuple(k for k in sorted(set(self.sizes)) if k >= low)


class VarRegistry:
    """Deterministic bijection between variable tags and DIMACS ids.

    ``ids[name][tail]`` is the id of the tag ``(name, *tail)``; :meth:`items`
    reads the tags in id order from the ``(name, tails)`` blocks of :meth:`_add`.
    ``lit[a][b][c]`` is the signed O literal asserting that (a, b, c) is
    positively oriented, for every ordered triple of distinct indices, and 0
    where indices repeat.
    """

    def __init__(self, problem: HoleProblem):
        self.problem = problem
        self.ids: dict[str, dict[tuple, int]] = {}
        self._blocks: list[tuple[str, list[tuple]]] = []
        self._count = 0
        self.family_counts: dict[str, int] = {}
        n = problem.n
        triples = list(itertools.combinations(range(n), 3))
        quads = list(itertools.combinations(range(n), 4))
        lit = [[[0] * n for _ in range(n)] for _ in range(n)]
        if problem.orient_vars == "explicit":  # cyclic (positive) images, then transpositions
            perms = [t for a, b, c in triples
                     for t in ((a, b, c), (b, c, a), (c, a, b), (b, a, c), (a, c, b), (c, b, a))]
            for (p, q, r), v in zip(perms, self._add("O", perms)):
                lit[p][q][r] = v
        else:
            for (a, b, c), v in zip(triples, self._add("O", triples)):
                lit[a][b][c] = lit[b][c][a] = lit[c][a][b] = v
                lit[b][a][c] = lit[a][c][b] = lit[c][b][a] = -v
        self.lit: list[list[list[int]]] = lit
        self._add("E", [t for a, b, c, d in quads for t in ((a, b, c, d), (c, d, a, b))])
        self._add("G4", quads)
        if SIZE_KIND[problem.mode] == "hole":
            self._add("I", [t for a, b, c, d in quads for t in ((b, a, c, d), (c, a, b, d))])
            self._add("H3", triples)
        for k in problem.hole_sizes:
            self._add("H", [(k, *x) for x in itertools.combinations(range(n), k)], f"H{k}")
        if problem.mode in DISJOINT_MODES:
            for k, name in itertools.product(sorted(set(problem.sizes)), "LR"):
                pairs = itertools.permutations(range(n), 2)
                self._add(name, [(k, a, b) for a, b in pairs], f"{name}{k}")
        if problem.threshold >= 2:
            m = math.comb(n, problem.sizes[0])
            self._add("C", list(itertools.product(range(1, m), range(1, problem.threshold))))

    def _add(self, name: str, tails: list[tuple], family: str = "") -> range:
        """The ids of new tags (name, *tail), one per tail in order, counted as ``family``
        (by default ``name``)."""
        first = self._count + 1
        self.ids.setdefault(name, {}).update(zip(tails, itertools.count(first)))
        self._blocks.append((name, tails))
        self._count += len(tails)
        if tails:
            family = family or name
            self.family_counts[family] = self.family_counts.get(family, 0) + len(tails)
        return range(first, self._count + 1)

    def __len__(self) -> int:
        return self._count

    def var(self, *tag) -> int:
        return self.ids[tag[0]][tag[1:]]

    def olit(self, a: int, b: int, c: int) -> int:
        """Signed literal asserting that (a,b,c) is positively oriented, from ``lit``."""
        lit = self.lit[a][b][c] if min(a, b, c) >= 0 else 0
        if not lit:
            raise ValueError(f"indices must be distinct and >= 0, got {(a, b, c)}")
        return lit

    def hole_lit(self, k: int, x: Sequence[int]) -> int:
        """Variable standing for 'x is a k-hole' (a k-gon in forbid-gon mode), k >= 3."""
        if k == 3:
            return self.ids["H3"][tuple(x)]
        if k == 4 and SIZE_KIND[self.problem.mode] == "gon":
            return self.ids["G4"][tuple(x)]
        return self.ids["H"][(k, *x)]

    def items(self) -> Iterator[tuple[int, tuple]]:
        """(id, (name, *tail)) for every tag, in id order."""
        return enumerate(((name, *t) for name, tails in self._blocks for t in tails), start=1)


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
        which needs the counts, and copy the body in; a failing emitter writes nothing,
        and a spool that cannot be made raises an ``OSError`` naming ``path``."""
        try:
            spool = tempfile.TemporaryFile("w+", dir=os.path.dirname(os.path.abspath(path)))
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        with spool as body:
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


def _pieces(text_of, n: int, k: int) -> Iterator[str]:
    """``text_of(x)`` per k-subset x of range(n), joined PIECE subsets at a time, as read."""
    subsets = itertools.combinations(range(n), k)
    while chunk := list(itertools.islice(subsets, PIECE)):
        yield "".join(map(text_of, chunk))


def _template(clauses: str):
    """A writer of fixed-shape clauses, given as DIMACS over the variables 1..m: called
    with m literals, it returns those lines with the literals in place, by ``str.format``."""
    lines = [list(map(int, cl.split())) for cl in clauses.split(",")]
    m = max(abs(l) for cl in lines for l in cl)
    at = lambda l: "{%d}" % (abs(l) - 1 + m * (l < 0))  # the literals, then their negations
    fmt = "".join(" ".join(map(at, cl)) + " 0\n" for cl in lines)
    return lambda *lits: fmt.format(*lits, *map(neg, lits))


def _and_text(head: str, conj: list[str], negated: str, direction: str) -> str:
    """Lines of head = AND(conj) from ``"%d "`` strings, ``negated`` the conjuncts' negations
    joined; ``"fwd"`` keeps only the lines head -> lit, ``"bwd"`` only AND(conj) -> head."""
    fwd = "-" + head + ("0\n-" + head).join(conj) + "0\n" if conj and direction != "bwd" else ""
    return fwd + (head + negated + "0\n" if direction != "fwd" else "")


# over the permutations abc acb bac bca cab cba: abc = bca = cab, bac = acb = cba, abc != bac
ALTERNATING = _template("-1 4, 1 -4, -4 5, 4 -5, -3 2, 3 -2, -2 6, 2 -6, 1 3, -1 -3")
# at most one sign change along abc, abd, acd, bcd
SIGNOTOPE = _template("1 -2 3, -1 2 -3, 1 -2 4, -1 2 -4, 1 -3 4, -1 3 -4, 2 -3 4, -2 3 -4")
BOUNDING = _template("-1 2 -3, -1 -2 3, 1 2 3, 1 -2 -3")  # E <-> (pqr and pqs agree)


def emit_orientation_axioms(problem: HoleProblem, reg: VarRegistry) -> Text:
    """Families (1)-(3): alternation, signotope axioms, sortedness units; the first two
    as a template over the O literals of each subset's triples (``order(x, 3)``)."""
    n, lit = problem.n, reg.lit
    over = lambda fill, order: lambda x: fill(*[lit[a][b][c] for a, b, c in order(x, 3)])
    units = "".join("%d 0\n" % reg.olit(0, a, b) for a, b in itertools.combinations(range(1, n), 2))
    groups: Text = [("signotope", _pieces(over(SIGNOTOPE, itertools.combinations), n, 4)),
                    ("sorted-around-first", [units])]
    if problem.orient_vars == "explicit":  # lit holds each ordered triple's own variable
        groups.insert(0, ("alternating", _pieces(over(ALTERNATING, itertools.permutations), n, 3)))
    return groups


def emit_hole_definitions(problem: HoleProblem, reg: VarRegistry) -> Text:
    """Families (4)-(7): E, G4/I, H3, and the per-size hole variables, as text: each
    definition is two joins of "%d " strings, those of G4 and H3 made once per call."""
    n, lit, kind = problem.n, reg.lit, SIZE_KIND[problem.mode]
    gon_mode = kind == "gon"
    # directional definitions keep the implication each use of a variable needs
    fwd, bwd = ("fwd", "bwd") if problem.directional_defs else ("both", "both")
    E, I, H = (reg.ids.get(name, {}) for name in ("E", "I", "H"))
    member = {x: "%d " % v for name in ("G4", "H3") for x, v in reg.ids.get(name, {}).items()}

    def bounding(q):
        a, b, c, d = q
        return (BOUNDING(E[q], lit[a][b][c], lit[a][b][d])
                + BOUNDING(E[c, d, a, b], lit[c][d][a], lit[c][d][b]))

    def gons(q):
        a, b, c, d = q
        e1, e2 = "%d " % E[q], "%d " % E[c, d, a, b]
        n1, n2 = "-" + e1, "-" + e2
        text = _and_text(member[q], [e1, e2], n1 + n2, bwd)
        if not gon_mode:
            text += _and_text("%d " % I[b, a, c, d], [n1, e2], e1 + n2, fwd)
            text += _and_text("%d " % I[c, a, b, d], [e1, n2], n1 + e2, fwd)
        return text

    def three_hole(t):
        a, b, c = t
        inside = ["%d " % I[i, a, b, c] for i in range(a + 1, c) if i != b]
        return _and_text(member[t], ["-" + v for v in inside], "".join(inside), bwd)

    def hole(k, sizes, x):  # a k-hole (k-gon) is the AND of its members of these sizes
        conj = [member[t] for m in sizes for t in itertools.combinations(x, m)]
        # the members are variables, so a "-" before each one is its negation
        return _and_text("%d " % H[(k, *x)], conj, "-" + "-".join(conj), bwd)

    groups: Text = [("bounding-segments", _pieces(bounding, n, 4)),
                    ("gons-and-containments", _pieces(gons, n, 4))]
    if not gon_mode:
        groups.append(("three-holes", _pieces(three_hole, n, 3)))
    for k in problem.hole_sizes:  # 4-gons, or 3-holes and (unless simplified) 4-gons of a 5-hole
        sizes = (4,) if gon_mode else (4, 3) if k == 5 and not problem.simplified_h5 else (3,)
        groups.append((f"{k}-{kind}s", _pieces(functools.partial(hole, k, sizes), n, k)))
    return groups


def emit_disjointness(problem: HoleProblem, reg: VarRegistry) -> Text:
    """Family (8): side-existence variables and their mutual exclusion.

    The largest group, so it is written straight as text, one piece per
    side variable, made afresh by each call; no Python code runs per clause.

    L(k, a, b) (R(k, a, b)) is implied by each k-hole x of the mode's schema
    with its labels, bar the skipped ones, strictly left (right) of a->b:
    default = subsets through the anchor (a for L, b for R) avoiding the
    other endpoint, ``relaxed_lr`` = subsets avoiding the other endpoint,
    both skipping the anchor; interior = every subset, skipping a and b.

    In compact mode R(k, b, a) has L(k, a, b)'s body and L(k, b, a) R(k, a, b)'s,
    so pair a < b also joins each body for its twin into an unnamed temporary
    file, read back at (b, a); explicit mode's twins name other O variables.
    """
    n = problem.n
    interior = DISJOINT_FLAVOR[problem.mode] == "interior-disjoint"
    through = not (interior or problem.relaxed_lr)  # the default schema
    twins = problem.orient_vars == "compact"
    pairs = list(itertools.permutations(range(n), 2))

    def pieces() -> Iterator[str]:
        try:
            spilling = tempfile.TemporaryFile("w+") if twins else contextlib.nullcontext()
        except OSError as exc:  # name the directory, not the random file in it
            raise OSError(exc.errno, f"cannot make a temporary file: {exc.strerror}",
                          tempfile.gettempdir()) from None
        with spilling as spill:
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
                spilled = {}  # (anchor, other) -> (offset, length) of its block in the spill
                for (a, b), (fam, sign) in itertools.product(pairs, (("L", -1), ("R", 1))):
                    anchor, other = (a, b) if fam == "L" else (b, a)
                    if (anchor, other) in spilled:  # written at (b, a) for this side
                        offset, length = spilled[anchor, other]
                        spill.seek(offset)
                        yield spill.read(length)
                        continue
                    # the body row, "c is not left (right) of a->b" as "%d " strings, is ""
                    # at a and b, the labels the schema skips: joined entries are the body
                    row = ["%d " % (sign * l) if l else "" for l in reg.lit[a][b]]
                    if interior:
                        hole, free = holes, row
                    else:  # bodies come in the order of the subsets that miss other
                        i = other - (through and other > anchor)
                        hole = itertools.compress(pools[anchor], misses[i])
                        free = [s for s in row if s] if through else row[:other] + row[other + 1:]
                    clauses = list(map(add, hole, map("".join, itertools.combinations(free, m))))
                    block = lambda s: s + ("0\n" + s).join(clauses) + "0\n" if clauses else ""
                    if twins:  # the twin: the other side of b->a, with the same body
                        twin = block("%d " % reg.var("LR"[fam == "L"], k, b, a))
                        spilled[anchor, other] = spill.seek(0, 2), spill.write(twin)
                    yield block("%d " % reg.var(fam, k, a, b))
        for ka, kb in sorted({problem.sizes, problem.sizes[::-1]}):
            yield "".join([f"-{reg.var('L', ka, a, b)} -{reg.var('R', kb, a, b)} 0\n"
                           for a, b in pairs])

    return [("disjointness", pieces())]


def emit_hints(problem: HoleProblem, reg: VarRegistry) -> Text:
    """Family (9): 10-point-window facts, plus end exclusions at n=17.

    Every 10 consecutive indices contain a 5-hole (sound because a hole of
    a consecutive window is automatically empty with respect to the whole
    set). At n=17 a 5-hole within the first 7 (last 7) indices would pair
    with the 5-hole guaranteed in the remaining 10 to form a disjoint pair,
    so those are excluded outright.
    """
    n, H = problem.n, reg.ids["H"]
    windows = ["".join(["%d " % H[(5, *x)] for x in itertools.combinations(range(i, i + 10), 5)])
               + "0\n" for i in range(n - 9)]  # one per window of 10 consecutive indices
    ends = [] if n != 17 else ["-%d 0\n" % H[(5, *x)] for block in (range(0, 7), range(10, 17))
                               for x in itertools.combinations(block, 5)]
    return [("hints", ["".join(windows + ends)])]


def emit_cardinality(problem: HoleProblem, reg: VarRegistry) -> Text:
    """Count mode: at most threshold-1 of the hole variables are true; the sequential
    counter comes one piece per input, made as the writer reads it."""
    k, r = problem.sizes[0], problem.threshold - 1
    # every hole variable occurs negated: one "-%d " string per k-subset
    xs = ["-%d " % reg.hole_lit(k, x) for x in itertools.combinations(range(problem.n), k)]
    if r == 0:
        return [("cardinality", ["".join([x + "0\n" for x in xs])])]
    C = reg.ids["C"]

    def counter() -> Iterator[str]:  # C(i,j) means at least j of the first i inputs hold
        prev = ["%d " % C[1, j] for j in range(1, r + 1)]
        yield xs[0] + prev[0] + "0\n" + "".join(["-" + c + "0\n" for c in prev[1:]])
        # C(i-1,j) sets C(i,j), and so does input i with C(i-1,j-1); with C(i-1,r) it is refused
        for i, x in enumerate(xs[1:-1], start=2):
            cur = ["%d " % C[i, j] for j in range(1, r + 1)]
            yield (x + cur[0] + "0\n-" + prev[0] + cur[0] + "0\n"
                   + "".join([x + "-" + p + c + "0\n-" + q + c + "0\n"
                              for p, q, c in zip(prev, prev[1:], cur[1:])])
                   + x + "-" + prev[-1] + "0\n")
            prev = cur
        yield xs[-1] + "-" + prev[-1] + "0\n"

    # one k-subset (k = n): at most r >= 1 of one variable always holds
    return [("cardinality", counter() if len(xs) > 1 else [])]


def emit_forbid(problem: HoleProblem, reg: VarRegistry) -> Text:
    """Unit clauses negating every hole (gon) variable of the target size."""
    k = problem.sizes[0]
    return [("forbid", _pieces(lambda x: "-%d 0\n" % reg.hole_lit(k, x), problem.n, k))]


def build_instance(problem: HoleProblem) -> CnfInstance:
    """Compile the problem into its registry and emitters; deterministic."""
    emitters = [emit_orientation_axioms, emit_hole_definitions]
    if problem.mode in DISJOINT_MODES:
        emitters.append(emit_disjointness)
        if problem.hints:
            emitters.append(emit_hints)
    else:
        emitters.append(emit_cardinality if problem.threshold else emit_forbid)
    return CnfInstance(problem, VarRegistry(problem), emitters)


def assignment_from_chirotope(sig, problem: HoleProblem) -> dict[int, bool]:
    """Full variable assignment induced by a canonical signotope, in id order.

    Every variable gets the meaning the module docstring gives its tag, read
    family by family from ``reg.ids[name]`` off the signotope's tables and
    the orientation-only predicates of :mod:`holesat.abstract`, never from
    the clause generators: the result is an independent reference for the
    clauses. L/R(k, a, b) holds iff some k-hole of the mode's subset schema
    lies strictly on that side of a->b, apart from the labels the schema
    skips: the default schema takes the holes through the side's anchor (a
    for L, b for R) and not through the other endpoint, ``relaxed_lr`` any
    hole avoiding the other endpoint, and interior-disjoint mode any hole,
    skipping both endpoints. The result satisfies the orientation and
    definition groups outright, and the disjointness group exactly when the
    signotope has no forbidden pair. Used by tests and by the benchmark's
    replayed models.
    """
    if sig.n != problem.n:
        raise ValueError(f"signotope has n={sig.n}, problem n={problem.n}")
    n, left = problem.n, sig.left
    reg = VarRegistry(problem)
    # the k-subsets the H, L/R and C families count (gons in forbid-gon mode)
    holes = {k: set(enumerate_from_table(sig, k, SIZE_KIND[problem.mode]))
             for k in set(problem.sizes)}
    interior = DISJOINT_FLAVOR.get(problem.mode) == "interior-disjoint"
    through_anchor = not (interior or problem.relaxed_lr)
    # per size and anchor, the masks of the holes the schema may use there
    masks = {k: [sum(1 << i for i in x) for x in xs] for k, xs in holes.items()}
    pools = {k: [[m for m in ms if not through_anchor or m >> p & 1] for p in range(n)]
             for k, ms in masks.items()}

    def side(k: int, anchor: int, other: int) -> bool:
        outside = ~(left[anchor][other] | 1 << anchor | (1 << other if interior else 0))
        return any(not m & outside for m in pools[k][anchor])

    if problem.threshold:
        k = problem.sizes[0]
        # running[i]: holes among the first i k-subsets, lexicographically
        running = list(itertools.accumulate(
            (x in holes[k] for x in itertools.combinations(range(n), k)), initial=0
        ))
    holds = {
        "O": lambda a, b, c: left[a][b] >> c & 1 == 1,
        "E": lambda p, q, r, s: left[p][q] >> r & 1 == left[p][q] >> s & 1,
        "G4": lambda *x: is_gon(sig, x),
        "I": functools.partial(in_triangle, sig),
        "H3": lambda a, b, c: sig.hole_ext[a][b] >> c & 1 == 1,
        "H": lambda k, *x: x in holes[k],
        "L": side,
        "R": lambda k, a, b: side(k, b, a),
        "C": lambda i, j: running[i] >= j,  # at least j of the first i hole variables hold
    }
    val = dict.fromkeys(range(1, len(reg) + 1), False)  # in id order, which L and R interleave
    for name, tags in reg.ids.items():
        val.update((v, holds[name](*tail)) for tail, v in tags.items())
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
