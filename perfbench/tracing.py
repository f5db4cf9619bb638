"""Spans around calls into voucherbounds' modules, installed from outside.

The library is not instrumented.  :class:`Tracing` replaces the functions a
caller resolves by name (``baseline`` imports ``build_partition``,
``reduced_cells`` and ``solve_lp`` by name, ``inference`` imports
``solve_lp``, ``parametric`` imports ``baseline._interval``) and wraps
``AdmmWorkspace.solve`` on the class.  Each wrapper records a span (name,
start, end, parent, op id) plus the counts its result carries, and the
originals are put back on exit.  Spans stay in memory until the run writes
them out.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from voucherbounds import baseline, inference, parametric, partition, solvers


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op_id: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one caller, so spans nest as a stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op_id: str | None = None

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op_id=self.op_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span


# ---------------------------------------------------------------------------
# what each layer's result says about the work done
# ---------------------------------------------------------------------------


def _closure_counts(result) -> dict:
    return {"points": sum(len(points) for points in result.values())}


def _partition_counts(result) -> dict:
    return {"cells": len(result.elements)}


def _reduce_counts(result) -> dict:
    return {"cells": len(result)}


def _baseline_constraint_counts(system) -> dict:
    nnz = sum(m.nnz for m in (system.a_ub, system.a_eq, system.a_data))
    return {"shape_rows": system.a_ub.shape[0], "nnz": nnz}


def _parametric_constraint_counts(system) -> dict:
    rows = sum(m.shape[0] for m in (system.a_data, system.a_eq, system.a_ub))
    return {"rows": rows}


def _lp_counts(solution) -> dict:
    return {"iterations": solution.iterations}


def _qp_counts(solution) -> dict:
    return {"iterations": solution.iterations, "infeasible": int(solution.status == solvers.INFEASIBLE)}


def _range_counts(result) -> dict:
    return {"range": result}


# (owner, attribute, span name, counter); the owner is the namespace the
# caller resolves the name in.
PATCHES = (
    (partition, "breakpoint_closure", "partition.closure", _closure_counts),
    (partition, "validate_overlap", "partition.validate", None),
    (partition, "build_partition", "partition.build", _partition_counts),
    (partition, "reduced_cells", "partition.reduce", _reduce_counts),
    (baseline, "build_partition", "partition.build", _partition_counts),
    (baseline, "reduced_cells", "partition.reduce", _reduce_counts),
    (baseline, "build_constraints", "baseline.constraints", _baseline_constraint_counts),
    (baseline, "build_objective", "baseline.objective", None),
    (baseline, "_interval", "baseline.interval", None),
    (baseline, "solve_lp", "solvers.lp", _lp_counts),
    (parametric, "build_constraints", "parametric.constraints", _parametric_constraint_counts),
    (parametric, "build_objective", "parametric.objective", None),
    (parametric, "_interval", "parametric.interval", None),
    (inference, "solve_lp", "solvers.lp", _lp_counts),
    (inference, "precompute_subsample_moments", "inference.moments", None),
    (inference, "_objective_range", "inference.range", _range_counts),
    (solvers.AdmmWorkspace, "solve", "solvers.qp", _qp_counts),
)


def _wrap(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.spans[index].counts["raised"] = type(exc).__name__
            raise
        finally:
            tracer.end(index)
        if counter is not None:
            tracer.spans[index].counts.update(counter(result))
        return result

    return traced


class Tracing:
    """Context manager: wrappers installed on enter, originals restored on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        try:
            for owner, attr, name, counter in PATCHES:
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, _wrap(self.tracer, name, original, counter))
        except BaseException:
            self._restore()
            raise
        return self.tracer

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass
# ---------------------------------------------------------------------------

# layer metric -> span names whose self time it sums
SELF_TIME_LAYERS = {
    "partition.closure_s": ("partition.closure",),
    "partition.validate_s": ("partition.validate",),
    "partition.build_s": ("partition.build",),
    "partition.reduce_s": ("partition.reduce",),
    "baseline.constraints_s": ("baseline.constraints",),
    "baseline.objective_s": ("baseline.objective",),
    "baseline.lp_setup_s": ("baseline.interval",),
    "parametric.constraints_s": ("parametric.constraints",),
    "parametric.objective_s": ("parametric.objective",),
    "parametric.lp_setup_s": ("parametric.interval",),
    "solvers.lp_s": ("solvers.lp",),
    "solvers.qp_s": ("solvers.qp",),
    "inference.moments_s": ("inference.moments",),
    "inference.ci_self_s": ("op.ci", "inference.range"),
    "inference.spec_self_s": ("op.spec",),
}

# span names the runner opens around each op, by op kind
OP_SPAN = {"bounds": "op.bounds", "ci": "op.ci", "spec": "op.spec", "partition": "op.partition"}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def _has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], ci_outcomes: list[dict], wall_s: float) -> dict:
    """Per-layer busy time, counts and failures for the spans of one pass.

    ``ci_outcomes`` are the confidence-interval outcomes of the pass, from
    which the grid-scan ratios are computed; ``wall_s`` is the traced pass
    time the self times are set against.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def total(name: str) -> float:
        return sum(own[i] for i in by_name.get(name, ()))

    def count(name: str, key: str | None = None, agg=sum):
        values = [1 if key is None else spans[i].counts.get(key, 0) for i in by_name.get(name, ())]
        return agg(values) if values else 0

    m: dict[str, float] = {}
    for metric, names in SELF_TIME_LAYERS.items():
        m[metric] = sum(total(n) for n in names)

    m["partition.closure_points"] = count("partition.closure", "points")
    m["partition.validate_calls"] = count("partition.validate")
    m["partition.cells"] = count("partition.reduce", "cells")
    m["partition.max_cells"] = count("partition.reduce", "cells", max)
    m["baseline.builds"] = count("baseline.constraints")
    m["baseline.shape_rows"] = count("baseline.constraints", "shape_rows")
    m["baseline.nnz"] = count("baseline.constraints", "nnz")
    m["parametric.rows"] = count("parametric.constraints", "rows")

    lp = by_name.get("solvers.lp", [])
    dense = [i for i in lp if _has_ancestor(spans, i, "parametric.interval")]
    for prefix, group in (("solvers.lp", lp), ("solvers.lp_parametric", dense)):
        m[f"{prefix}_calls"] = len(group)
        m[f"{prefix}_iters"] = sum(spans[i].counts.get("iterations", 0) for i in group)
        m[f"{prefix}_failed"] = sum("raised" in spans[i].counts for i in group)
    m["solvers.lp_parametric_s"] = sum(own[i] for i in dense)

    m["solvers.qp_calls"] = count("solvers.qp")
    m["solvers.qp_iters"] = count("solvers.qp", "iterations")
    m["solvers.qp_infeasible"] = count("solvers.qp", "infeasible")

    grid = shortcut = skipped = 0
    ranges = [spans[i].counts["range"] for i in by_name.get("inference.range", ())]
    for outcome, (feasible_lo, feasible_hi) in zip(ci_outcomes, ranges):
        est = outcome["estimate"]
        for theta in outcome["grid"]:
            if theta < feasible_lo - 1e-9 or theta > feasible_hi + 1e-9:
                skipped += 1
            elif est is not None and est[0] - 1e-9 <= theta <= est[1] + 1e-9:
                shortcut += 1
        grid += len(outcome["grid"])
    ci_qp = sum(
        1 for i in by_name.get("solvers.qp", ()) if spans[i].op_id is not None
        and spans[i].op_id.startswith("ci:")
    )
    solved = grid - shortcut - skipped
    m["inference.grid_points"] = grid
    m["inference.grid_shortcut_ratio"] = shortcut / grid if grid else 0.0
    m["inference.qp_per_solved_point"] = ci_qp / solved if solved else 0.0

    named = sum(m[k] for k in SELF_TIME_LAYERS)
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - named
    m["trace.coverage"] = named / wall_s if wall_s > 0 else 0.0
    return m


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".coverage", "_per_solved_point")):
        return "ratio"
    return "count"
