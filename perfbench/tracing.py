"""Per-layer tracing of holesat, installed from outside the package.

:class:`Tracer` replaces module attributes with wrappers at run time and
puts the originals back on :meth:`Tracer.uninstall`; ``src/`` is never
edited. The targets include names other modules imported (``search``
holds its own ``enumerate_holes``, ``hulls_disjoint`` and ``PointSet``;
``cli`` its own ``build_instance`` and ``solve_instance``), module globals
looked up at call time (``solver.run_solver``) and the
``VarRegistry.olit`` method.

Each wrapped call records a span ``[name, start, end, parent, run_id,
root]``. The benchmark opens a root span around every set-up ("setup")
and every timed unit of work ("op"); ``run_id`` numbers those roots and
``root`` names the kind of the outermost one, so per-layer numbers can be
split into set-up and timed work. Hot predicates get counts instead of
spans. Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import json
import os
import resource
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from holesat import abstract, cli, encoder, search, solver

# (owner, attribute, kind, recorded name). One function reachable under
# several names is wrapped in each namespace that calls it.
TARGETS = (
    (cli, "main", "span", "cli.main"),
    (cli, "build_instance", "build", "encoder.build_instance"),
    (encoder.CnfInstance, "write_dimacs", "dimacs", "encoder.write_dimacs"),
    (encoder.CnfInstance, "write_registry", "span", "encoder.write_registry"),
    (encoder, "assignment_from_chirotope", "span", "encoder.assignment_from_chirotope"),
    (encoder.VarRegistry, "olit", "count", "encoder.olit"),
    (cli, "solve_instance", "span", "solver.solve_instance"),
    (solver, "run_solver", "span", "solver.run_solver"),
    (solver, "decode_model", "span", "solver.decode_model"),
    (solver, "verify_model", "span", "solver.verify_model"),
    (solver, "check_signotope", "span", "geometry.check_signotope"),
    (abstract, "find_disjoint_tuple", "span", "abstract.find_disjoint_tuple"),
    (search, "PointSet", "span", "geometry.pointset"),
    (search, "enumerate_holes", "span", "holes.enumerate_holes"),
    (search, "hulls_disjoint", "count", "holes.hulls_disjoint"),
    (search, "objective_count", "span", "search.objective_count"),
)

# Spans reported as seconds per timed operation, metric name = span + "_s".
OP_SPANS = (
    "encoder.build_instance",
    "encoder.write_dimacs",
    "encoder.write_registry",
    "solver.run_solver",
    "solver.decode_model",
    "solver.verify_model",
    "abstract.find_disjoint_tuple",
    "geometry.check_signotope",
    "geometry.pointset",
    "holes.enumerate_holes",
    "search.objective_count",
)

# Spans reported as seconds per set-up, metric name = span + "_setup_s".
SETUP_SPANS = ("encoder.assignment_from_chirotope",)

# Clause groups of the two headline SAT instances, in encoder order.
CLAUSE_GROUPS = (
    "signotope",
    "sorted-around-first",
    "bounding-segments",
    "gons-and-containments",
    "three-holes",
    "5-holes",
    "disjointness",
    "hints",
)

# Layers the benchmark cannot measure here; recorded by name, never as a number.
UNAVAILABLE_WITHOUT_BINARIES = ("solver.solve_s", "solver.proof_check_s")

# Every per-layer metric with its unit; ``s`` is seconds per timed operation,
# or per set-up for the ``_setup_s`` metrics.
LAYER_UNITS = {
    **{f"{name}_s": "s" for name in OP_SPANS},
    **{f"{name}_setup_s": "s" for name in SETUP_SPANS},
    "encoder.build_peak_rss_mb": "MB",
    "encoder.cnf_mb": "MB",
    "encoder.cnf_clauses": "count",
    "encoder.olit_calls": "count",
    **{f"encoder.clauses.{label}": "count" for label in CLAUSE_GROUPS},
    "holes.hulls_disjoint_calls": "count",
    "search.evaluated_share": "ratio",
    "cli.self_s": "s",
    "trace.overhead_share": "ratio",
}


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans and counts for the calls listed in :data:`TARGETS`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.build_rss_rise_mb = 0.0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._run_id = 0
        self._weights: dict[int, float] = {}

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        root = self.spans[self._stack[0]][0] if self._stack else name
        rec = [name, perf_counter(), 0.0, parent, self._run_id, root]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, kind: str):
        """Root span around one set-up or one timed unit of work.

        The caller sets ``weight`` on the yielded handle to the number of
        operations the unit performed; per-operation metrics divide by it.
        """
        self._run_id += 1
        rec = self._open(kind)
        handle = _Weight()
        try:
            yield handle
        finally:
            self._close(rec)
            self._weights[self._run_id] = handle.weight

    def _in_op(self) -> bool:
        return bool(self._stack) and self.spans[self._stack[0]][0] == "op"

    def _span(self, name: str, fn):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    def _build(self, name: str, fn):
        traced = self._span(name, fn)

        def build(*args, **kwargs):
            before = _max_rss_mb()
            inst = traced(*args, **kwargs)
            self.build_rss_rise_mb = max(self.build_rss_rise_mb, _max_rss_mb() - before)
            return inst

        return build

    def _dimacs(self, name: str, fn):
        traced = self._span(name, fn)

        def write_dimacs(inst, path, *args, **kwargs):
            traced(inst, path, *args, **kwargs)
            if self._in_op():
                self.counts["encoder.cnf_bytes"] += os.path.getsize(path)
                self.counts["encoder.cnf_clauses"] += inst.num_clauses
                for label, count in inst.groups:
                    self.counts[f"encoder.clauses.{label}"] += count

        return write_dimacs

    def _count(self, name: str, fn):
        counts, spans, stack = self.counts, self.spans, self._stack

        def counted(*args, **kwargs):
            if stack and spans[stack[0]][0] == "op":
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        makers = {"span": self._span, "build": self._build, "dimacs": self._dimacs,
                  "count": self._count}
        for owner, attr, kind, name in TARGETS:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, makers[kind](name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def _per_root(self, kind: str) -> tuple[int, float]:
        """(number of roots, summed weight) of the given kind."""
        ids = [rec[4] for rec in self.spans if rec[3] is None and rec[0] == kind]
        return len(ids), sum(self._weights.get(i, 0) for i in ids)

    def metrics(self, overhead_share: float) -> dict[str, float]:
        """Per-layer metrics over the timed operations and the set-ups."""
        _, ops = self._per_root("op")
        setups, _ = self._per_root("setup")
        ops = max(ops, 1)
        setups = max(setups, 1)
        total: Counter = Counter()
        calls: Counter = Counter()
        child_time: Counter = Counter()
        for rec in self.spans:
            name, start, end, parent, _, root = rec
            total[root, name] += end - start
            calls[root, name] += 1
            if parent is not None:
                child_time[parent] += end - start
        cli_self = sum(
            (rec[2] - rec[1]) - child_time[i]
            for i, rec in enumerate(self.spans)
            if rec[0] == "cli.main" and rec[5] == "op"
        )
        out: dict[str, float] = {}
        for name in OP_SPANS:
            out[f"{name}_s"] = total["op", name] / ops
        for name in SETUP_SPANS:
            out[f"{name}_setup_s"] = total["setup", name] / setups
        c = self.counts
        out["encoder.build_peak_rss_mb"] = self.build_rss_rise_mb
        out["encoder.cnf_mb"] = c["encoder.cnf_bytes"] / 1e6 / ops
        out["encoder.cnf_clauses"] = c["encoder.cnf_clauses"] / ops
        out["encoder.olit_calls"] = c["encoder.olit"] / ops
        for label in CLAUSE_GROUPS:
            out[f"encoder.clauses.{label}"] = c[f"encoder.clauses.{label}"] / ops
        out["holes.hulls_disjoint_calls"] = c["holes.hulls_disjoint"] / ops
        out["search.evaluated_share"] = calls["op", "search.objective_count"] / ops
        out["cli.self_s"] = cli_self / ops
        out["trace.overhead_share"] = overhead_share
        return out

    def check_tree(self) -> list[str]:
        """Problems with the span tree: dangling parents, unclosed spans."""
        problems = []
        for i, rec in enumerate(self.spans):
            parent = rec[3]
            if parent is not None and not 0 <= parent < i:
                problems.append(f"span {i} ({rec[0]}) has no parent {parent}")
            if rec[2] < rec[1]:
                problems.append(f"span {i} ({rec[0]}) was never closed")
        if self._stack:
            problems.append(f"{len(self._stack)} spans still open")
        return problems

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "run_id", "root")
        with open(path, "w") as f:
            json.dump(
                {
                    "spans": [dict(zip(keys, rec)) for rec in self.spans],
                    "counts": dict(self.counts),
                },
                f,
            )


class _Weight:
    weight = 0.0


class NullTracer:
    """Stand-in with the tracer's root interface for untraced runs."""

    @contextmanager
    def root(self, kind: str):
        yield _Weight()
