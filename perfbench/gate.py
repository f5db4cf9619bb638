"""Correctness gate: recorded reference outcomes plus seed-free invariants.

References were recorded by ``record.py`` from the library as first
committed with this benchmark; one JSON file per workload maps a reference
seed to the input fingerprint and each op's outcome.  The reference seed is
the workload's instance seed (see ``workloads.instance_seed``), except for
``inference``, whose seeds only reorder one sample.  A run without a recorded
entry fails the gate.
"""

from __future__ import annotations

import json
import math
import os

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

BOUND_RTOL = 1e-9
STATISTIC_RTOL = 1e-6
# acceptance criterion 4's allowance for quadrature error in the truth
CONTAINMENT_SLACK = 0.25


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload) -> dict | None:
    """The recorded entry for the workload's reference seed, or None."""
    path = reference_path(workload.name)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)["seeds"].get(str(workload.reference_seed))


def _close(got, ref, rtol: float) -> bool:
    if got is None or ref is None:
        return got is ref
    if math.isinf(got) or math.isinf(ref):
        return got == ref
    return abs(got - ref) <= rtol * max(1.0, abs(ref))


def compare(kind: str, got: dict, ref: dict) -> list[str]:
    """Differences between an op's outcome and its recorded reference."""
    if "raises" in got or "raises" in ref:
        if got.get("raises") != ref.get("raises"):
            return [f"outcome {got} differs from reference {ref}"]
        return []
    problems = []
    if kind == "bounds":
        if got["status"] != ref["status"]:
            return [f"status {got['status']} != {ref['status']}"]
        for key in ("lower", "upper"):
            if key in ref and not _close(got[key], ref[key], BOUND_RTOL):
                problems.append(f"{key} {got[key]!r} != {ref[key]!r}")
    elif kind == "ci":
        if got["accepted"] != ref["accepted"]:
            problems.append(f"accepted mask {got['accepted']} != {ref['accepted']}")
        if len(got["grid"]) != len(ref["grid"]) or not all(
            _close(a, b, BOUND_RTOL) for a, b in zip(got["grid"], ref["grid"])
        ):
            problems.append("theta grid differs")
    elif kind == "spec":
        if got["p_value"] != ref["p_value"]:
            problems.append(f"p-value {got['p_value']} != {ref['p_value']}")
        if not _close(got["statistic"], ref["statistic"], STATISTIC_RTOL):
            problems.append(f"statistic {got['statistic']!r} != {ref['statistic']!r}")
    elif kind == "partition":
        for key, value in ref.items():
            if got.get(key) != value:
                problems.append(f"{key} {got.get(key)!r} != {value!r}")
    return problems


def invariants(op, got: dict) -> list[str]:
    """Checks that hold on any seed, besides the recorded outcomes."""
    if "raises" in got:
        if got["raises"] in op.may_raise:
            return []
        return [f"raised {got['raises']}"]
    if op.kind == "bounds" and op.truth is not None:
        if got["status"] != "feasible":
            return [f"oracle shares rejected ({got['status']})"]
        slack = 1e-6 * (1 + abs(op.truth)) + CONTAINMENT_SLACK
        if not got["lower"] - slack <= op.truth <= got["upper"] + slack:
            return [f"truth {op.truth:.4f} outside [{got['lower']:.4f}, {got['upper']:.4f}]"]
    elif op.kind == "ci":
        est = got["estimate"]
        if est is None or got["lower"] is None:
            return ["empty interval or no estimate"]
        inside = [
            accepted == "1"
            for theta, accepted in zip(got["grid"], got["accepted"])
            if est[0] <= theta <= est[1]
        ]
        if not all(inside):
            return ["a grid point inside the estimated bounds was rejected"]
    elif op.kind == "spec":
        if not (0.0 <= got["p_value"] <= 1.0 and got["statistic"] >= 0.0):
            return [f"p-value {got['p_value']} or statistic {got['statistic']} out of range"]
    elif op.kind == "partition":
        if not (got["canonical_order"] and got["covers_partition"]):
            return ["reduced cells not in canonical order or missing partition cells"]
        if got["reduced_cells"] < got["cells"]:
            return ["fewer reduced cells than partition cells"]
    return []


class Gate:
    """Checks every op execution of a run and tallies the failures."""

    def __init__(self, workload, reference: dict | None):
        self.workload = workload
        self.reference = reference
        self.failures: list[dict] = []
        self.checked = 0
        if reference is None:
            problem = f"no reference recorded for seed {workload.reference_seed}"
            self.failures.append({"op": "*", "problems": [problem]})
        elif reference["fingerprint"] != _jsonable(workload.fingerprint):
            self.failures.append({"op": "*", "problems": ["input fingerprint differs from the reference"]})

    def check(self, op, got: dict) -> bool:
        self.checked += 1
        problems = invariants(op, got)
        if self.reference is not None:
            entry = self.reference["ops"].get(op.op_id)
            if entry is None:
                problems.append("no reference outcome recorded")
            else:
                problems += compare(op.kind, got, entry["outcome"])
        if problems:
            self.failures.append({"op": op.op_id, "problems": problems})
        return not problems

    @property
    def correct(self) -> bool:
        return not self.failures

    def known_defects(self) -> dict:
        if self.reference is None:
            return {}
        return {
            op_id: entry["known_defect"]
            for op_id, entry in self.reference["ops"].items()
            if "known_defect" in entry
        }


def _jsonable(value):
    return json.loads(json.dumps(value))
