"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest perfbench/tests -q

They check that the correctness gate catches a perturbed reference, that
the tracing wrappers leave every module as it was, and that layer self times
never add up to more than the traced pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from voucherbounds import (  # noqa: E402
    EnrollmentShares,
    InferenceConfig,
    ParametricSpec,
    ProgramConfig,
    WelfareTarget,
    baseline,
    confidence_interval,
    parametric,
    partition,
    specification_pvalue,
)
from voucherbounds.simulate import UtilityModel, simulate  # noqa: E402

DESK = ProgramConfig(voucher_schools=(("s1", 2000), ("s2", 6000)), tau_sq=4000, gov_cost=5000, admin_cost=200)
SHARES = EnrollmentShares.from_mapping(
    DESK,
    without={"g": 0.90, "n": 0.02, "s1": 0.05, "s2": 0.03},
    with_={"g": 0.30, "n": 0.01, "s1": 0.40, "s2": 0.29},
)


def smoke_workload() -> workloads.Workload:
    """Every op kind on the two-school desk program, small enough for a test."""
    model = UtilityModel("L1", school_effects=(0.8, -0.4), nonparticipating_effect=-1.2, price_coef_mean=4e-4)
    data, _ = simulate(model, 300, DESK, seed=3)
    cfg = InferenceConfig(n_subsamples=5, seed=3, grid_step=400.0)
    W = workloads
    ops = [
        W.Op("bounds:AB", "bounds", lambda: baseline.bounds(WelfareTarget("AB", tau=5000), SHARES, DESK),
             W.bound_outcome),
        W.Op("bounds:ABk", "bounds", lambda: baseline.bounds(WelfareTarget("ABk", kappa=2000), SHARES, DESK),
             W.bound_outcome),
        W.Op("bounds:AS1", "bounds",
             lambda: parametric.bounds(ParametricSpec("AS", 1), WelfareTarget("AS"), SHARES, DESK),
             W.bound_outcome),
        W.Op("ci:AB", "ci", lambda: confidence_interval(data, WelfareTarget("AB"), DESK, cfg), W.ci_outcome),
        W.Op("spec:O1", "spec", lambda: specification_pvalue(data, DESK, cfg, spec=ParametricSpec("O", 1)),
             W.spec_outcome),
        W.Op("partition", "partition",
             lambda: (lambda p: (p, partition.reduced_cells(p, 2000)))(partition.build_partition(DESK, 4000, 5000)),
             W.partition_outcome),
    ]
    return W.Workload("smoke", 0, {"program": "desk"}, ops, ops[0])


def record(workload) -> dict:
    ops = {}
    for op in workload.ops:
        result, failure = workloads.run_op(op)
        ops[op.op_id] = {"outcome": failure if failure is not None else op.outcome(result)}
    return json.loads(json.dumps({"fingerprint": workload.fingerprint, "ops": ops}))


@pytest.fixture(scope="module")
def smoke():
    workload = smoke_workload()
    return workload, record(workload)


def test_gate_accepts_its_own_reference(smoke):
    workload, reference = smoke
    bench = run.Run(workloads, workload, gate.Gate(workload, reference))
    bench.one_pass()
    assert bench.gate.correct, bench.gate.failures
    assert bench.gate.checked == len(workload.ops)


@pytest.mark.parametrize(
    "op_id, perturb",
    [
        ("bounds:AB", lambda o: o.update(lower=o["lower"] * (1 + 1e-7) + 1e-7)),
        ("bounds:AS1", lambda o: o.update(status="infeasible")),
        ("ci:AB", lambda o: o.update(accepted=o["accepted"][::-1] if o["accepted"][::-1] != o["accepted"]
                                      else "0" + o["accepted"][1:])),
        ("spec:O1", lambda o: o.update(p_value=o["p_value"] + 0.005)),
        ("spec:O1", lambda o: o.update(statistic=o["statistic"] * 1.001 + 1e-3)),
        ("partition", lambda o: o.update(digest="0" * 64)),
        ("partition", lambda o: o.update(reduced_cells=o["reduced_cells"] + 1)),
    ],
)
def test_gate_catches_a_perturbed_reference(smoke, op_id, perturb):
    workload, reference = smoke
    bad = json.loads(json.dumps(reference))
    perturb(bad["ops"][op_id]["outcome"])
    bench = run.Run(workloads, workload, gate.Gate(workload, bad))
    bench.one_pass()
    assert [f["op"] for f in bench.gate.failures] == [op_id]
    assert bench.failed == 1 and not bench.raised


def test_a_raising_op_counts_as_failed_even_when_expected():
    probe = workloads.Op("probe", "bounds", _raise, workloads.bound_outcome, may_raise=("ValueError",))
    workload = workloads.Workload("probe", 0, {}, [probe], probe)
    bench = run.Run(workloads, workload, gate.Gate(workload, record(workload)))
    bench.one_pass()
    assert bench.gate.correct and bench.failed == 1 and bench.raised == ["probe: ValueError"]


def _raise():
    raise ValueError("no bound")


def test_a_seed_without_a_reference_fails_the_gate(smoke):
    workload, _ = smoke
    bench = run.Run(workloads, workload, gate.Gate(workload, None))
    bench.one_pass()
    assert not bench.gate.correct


@pytest.mark.parametrize("name", ["sweep", "partition-dense"])
def test_every_seed_folds_onto_a_recorded_reference(name):
    with open(gate.reference_path(name)) as fh:
        recorded = set(json.load(fh)["seeds"])
    seeds = [*range(-3, 200), 401, 6790, 10**9 + 7]
    assert {str(workloads.instance_seed(name, seed)) for seed in seeds} <= recorded
    assert workloads.instance_seed(name, workloads.DEFAULT_SEEDS[name]) == workloads.DEFAULT_SEEDS[name]


def test_gate_catches_changed_inputs(smoke):
    workload, reference = smoke
    bad = dict(reference, fingerprint={"program": "other"})
    assert not gate.Gate(workload, bad).correct


def test_invariants_flag_a_bound_missing_the_truth():
    op = workloads.Op("x", "bounds", lambda: None, workloads.bound_outcome, truth=100.0)
    assert gate.invariants(op, {"status": "feasible", "lower": 0.0, "upper": 99.0})
    assert not gate.invariants(op, {"status": "feasible", "lower": 0.0, "upper": 99.9})
    assert gate.invariants(op, {"raises": "NumericalFailure"})
    probe = workloads.Op("y", "bounds", lambda: None, workloads.bound_outcome, may_raise=("NumericalFailure",))
    assert not gate.invariants(probe, {"raises": "NumericalFailure"})


def _namespaces():
    return {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in tracing.PATCHES}


def test_wrappers_leave_every_module_as_it_was(smoke):
    workload, reference = smoke
    before = _namespaces()
    tracer = tracing.Tracer()
    with tracing.Tracing(tracer):
        during = _namespaces()
        assert all(during[key] is not before[key] for key in before)
        run.Run(workloads, workload, gate.Gate(workload, reference)).one_pass(tracer, [])
    assert _namespaces() == before
    assert all(_namespaces()[key] is before[key] for key in before)
    assert {s.name for s in tracer.spans} >= {
        "partition.closure", "partition.validate", "partition.build", "partition.reduce",
        "baseline.constraints", "baseline.objective", "solvers.lp", "solvers.qp",
        "parametric.constraints", "parametric.objective", "inference.moments",
    }


def test_wrappers_are_restored_after_an_error():
    before = _namespaces()
    with pytest.raises(RuntimeError):
        with tracing.Tracing(tracing.Tracer()):
            raise RuntimeError("boom")
    assert all(_namespaces()[key] is before[key] for key in before)


def test_layer_self_times_fit_in_the_traced_wall(smoke):
    workload, reference = smoke
    bench = run.Run(workloads, workload, gate.Gate(workload, reference))
    tracer = tracing.Tracer()
    ci_outcomes: list[dict] = []
    with tracing.Tracing(tracer):
        wall = bench.one_pass(tracer, ci_outcomes)
    assert bench.gate.correct, bench.gate.failures
    m = tracing.layer_metrics(tracer.spans, ci_outcomes, wall)
    layers = [m[key] for key in tracing.SELF_TIME_LAYERS]
    assert all(value >= -1e-9 for value in layers)
    assert sum(layers) <= wall + 1e-9
    assert m["trace.unattributed_s"] >= -1e-9
    # two bounds plus the confidence interval's own system
    assert m["baseline.builds"] == 3 and m["solvers.lp_calls"] >= 6
    assert m["solvers.lp_parametric_calls"] == 2
    assert m["inference.grid_points"] == len(ci_outcomes[0]["grid"])
    assert m["solvers.qp_calls"] > 0 and m["partition.validate_calls"] > 0


def test_self_times_subtract_direct_children_only():
    spans = [
        tracing.Span("op", 0.0, 10.0),
        tracing.Span("a", 1.0, 5.0, parent=0),
        tracing.Span("b", 2.0, 3.0, parent=1),
        tracing.Span("c", 6.0, 7.0, parent=0),
    ]
    assert tracing.self_times(spans) == [5.0, 3.0, 1.0, 1.0]


def test_benchmark_file_lists_every_printed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    workload = smoke_workload()
    tracer = tracing.Tracer()
    with tracing.Tracing(tracer):
        wall = run.Run(workloads, workload, gate.Gate(workload, record(workload))).one_pass(tracer, [])
    printed = set(tracing.layer_metrics(tracer.spans, [], wall)) | {"trace.plain_wall_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == printed
    assert all(m["unit"] == tracing.metric_unit(m["name"]) for m in spec["per_layer"])


def test_command_fails_on_a_reference_mismatch(tmp_path):
    """End to end: a perturbed reference file makes the command exit nonzero."""
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    path = tmp_path / "perfbench" / "reference" / "partition-dense.json"
    data = json.loads(path.read_text())
    entry = data["seeds"][str(workloads.DEFAULT_SEEDS["partition-dense"])]
    entry["ops"]["partition:build+reduce:0"]["outcome"]["cells"] += 1
    path.write_text(json.dumps(data))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "partition-dense", "--seconds", "0.1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 1, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1 and result["attempted"] == 3


def test_command_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0 and done.stdout == ""
