#!/usr/bin/env python3
"""The voucherbounds benchmark: one workload, timed, checked and reported.

    python3 perfbench/run.py --workload sweep --seed 401 --seconds 32 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Load is a closed loop: one process, one caller, each op sent
after the previous one returns.  ``--trace 0`` times plain passes over the
workload's op list and prints the end-to-end metrics; ``--trace 1`` runs
plain and traced passes and prints the per-layer metrics, with the tracing
overhead.  Every op's outcome goes through the correctness gate; the last
line of standard output is one JSON object, and the exit code is 1 when any
op failed the gate.
"""

import time

_START = time.perf_counter()  # set-up time counts from here, before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is measured in this process and in this many fresh ones; the
# median is reported
SETUP_PROBES = 8
P90_MIN_SAMPLES = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "inference", "partition-dense"))
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=32.0, help="measuring time budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(name: str, seed):
    """Import the library, draw inputs, build them and run the warm-up op.

    Returns the benchmark modules, the workload and the set-up time, which
    counts import, the public constructors and the warm-up op but not the
    benchmark's own input drawing and oracle work.  ``seed=None`` picks the
    workload's default seed.
    """
    import voucherbounds  # noqa: F401  (timed: the import is part of set-up)

    imported = time.perf_counter() - _START
    import gate
    import workloads

    if seed is None:
        seed = workloads.DEFAULT_SEEDS[name]
    seed = workloads.instance_seed(name, seed)
    draw, build = workloads.WORKLOADS[name]
    raw = draw(seed)
    begin = time.perf_counter()
    workload = build(seed, raw)
    workloads.run_op(workload.warmup)
    return workloads, gate, workload, imported + time.perf_counter() - begin


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter on the same workload and seed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True, cwd=ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Run:
    """Executes passes over the op list and keeps latencies and outcomes."""

    def __init__(self, workloads, workload, gate):
        self.workloads = workloads
        self.workload = workload
        self.gate = gate
        self.latencies: list[float] = []
        self.raised: list[str] = []
        self.attempted = 0
        # ops that raised or failed the gate
        self.failed = 0

    def one_pass(self, tracer=None, ci_outcomes=None) -> float:
        """Run every op once; returns the summed op latency (the pass wall)."""
        if tracer is not None:
            from tracing import OP_SPAN
        wall = 0.0
        for op in self.workload.ops:
            if tracer is None:
                begin = time.perf_counter()
                result, failure = self.workloads.run_op(op)
                latency = time.perf_counter() - begin
            else:
                # the op span's own interval is the latency, so layer self
                # times add up to at most the traced pass
                tracer.op_id = op.op_id
                index = tracer.begin(OP_SPAN[op.kind])
                result, failure = self.workloads.run_op(op)
                latency = tracer.end(index).duration
                tracer.op_id = None
            wall += latency
            self.latencies.append(latency)
            self.attempted += 1
            outcome = failure if failure is not None else op.outcome(result)
            if failure is not None:
                self.raised.append(f"{op.op_id}: {failure['raises']}")
            if ci_outcomes is not None and op.kind == "ci" and failure is None:
                ci_outcomes.append(outcome)
            if not self.gate.check(op, outcome) or failure is not None:
                self.failed += 1
        return wall


def measure_plain(run: Run, seconds: float) -> list[float]:
    """Passes until another one would overrun ``seconds``; at least one."""
    walls = []
    begin = time.perf_counter()
    while True:
        walls.append(run.one_pass())
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(walls) > seconds:
            return walls


def measure_traced(run: Run, seconds: float):
    """Alternate plain and traced passes; returns plain walls, traced walls,
    per-pass layer metrics and the spans of every traced pass."""
    import tracing

    plain, traced, layers, spans = [], [], [], []
    begin = time.perf_counter()
    while True:
        plain.append(run.one_pass())
        tracer = tracing.Tracer()
        ci_outcomes: list[dict] = []
        with tracing.Tracing(tracer):
            wall = run.one_pass(tracer, ci_outcomes)
        traced.append(wall)
        layers.append(tracing.layer_metrics(tracer.spans, ci_outcomes, wall))
        spans.append(tracer.spans)
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(plain) + statistics.median(traced) > seconds:
            return plain, traced, layers, spans


def provenance(seed, instance_seed: int) -> dict:
    import numpy
    import scipy

    try:
        from scipy.optimize._highspy import _core

        highs = f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}.{_core.HIGHS_VERSION_PATCH}"
    except (ImportError, AttributeError):
        highs = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": highs,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "instance_seed": instance_seed,
        "commit": git_commit(),
        "machine": platform.machine(),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    env = dict(os.environ, GIT_DIR=os.path.join(ROOT, ".git"))  # no search above the checkout
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def write_spans(name: str, seed: int, passes) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{name}-{seed}.jsonl")
    with open(path, "w") as fh:
        for number, spans in enumerate(passes):
            for s in spans:
                fh.write(json.dumps({
                    "pass": number, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op_id, "counts": s.counts,
                }) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "voucherbounds")):
        print(f"no voucherbounds sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    workloads, gate_mod, workload, setup_main = set_up(args.workload, args.seed)
    seed = workload.seed
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_main}))
        return 0

    reference = gate_mod.load_reference(workload)
    gate = gate_mod.Gate(workload, reference)
    run = Run(workloads, workload, gate)

    report = {
        "workload": args.workload,
        "provenance": provenance(seed if args.seed is None else args.seed, seed),
        "load": "closed loop, one process, one caller",
        "inputs": {**workload.fingerprint, **workload.extra},
        "ops_per_pass": len(workload.ops),
    }
    if args.trace:
        import tracing

        plain, traced, layers, spans = measure_traced(run, args.seconds)
        values = {key: statistics.median(p[key] for p in layers) for key in layers[0]}
        values["trace.plain_wall_s"] = statistics.median(plain)
        values["trace.overhead_s"] = statistics.median(traced) - values["trace.plain_wall_s"]
        metrics = {k: {"value": v, "unit": tracing.metric_unit(k)} for k, v in values.items()}
        report["samples"] = {key: len(traced) for key in metrics}
        report["samples"]["trace.plain_wall_s"] = len(plain)
        report["spans_file"] = os.path.relpath(write_spans(args.workload, seed, spans), ROOT)
    else:
        setup_samples = [setup_main] + [probe_setup(args.workload, seed) for _ in range(SETUP_PROBES)]
        walls = measure_plain(run, args.seconds)
        wall = statistics.median(walls)
        lat_ms = [1000.0 * x for x in run.latencies]
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall,
            "ops_per_s": len(workload.ops) / wall,
            "op_p50_ms": statistics.median(lat_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        samples = {
            "setup_s": len(setup_samples),
            "wall_s": len(walls),
            "ops_per_s": len(walls),
            "op_p50_ms": len(lat_ms),
            "peak_rss_mb": 1,
        }
        extra = {}
        if len(lat_ms) >= P90_MIN_SAMPLES:
            extra["op_p90_ms"] = {"value": statistics.quantiles(lat_ms, n=10)[-1], "unit": "ms", "n": len(lat_ms)}
        extra["failed_ops"] = {
            "value": run.failed / run.attempted, "unit": "ratio", "n": run.attempted,
        }
        report["samples"] = samples
        report["extra_metrics"] = extra
        report["setup_samples_s"] = setup_samples
        report["pass_walls_s"] = walls

    failed = len(gate.failures)
    report["raised"] = sorted(set(run.raised))
    report["known_defects"] = gate.known_defects()
    report["gate_failures"] = gate.failures[:20]
    print_table(metrics, report)
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": gate.correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if gate.correct else 1


def print_table(metrics: dict, report: dict) -> None:
    samples = report.get("samples", {})
    print(f"# {report['workload']} seed={report['provenance']['instance_seed']}")
    for key, entry in metrics.items():
        n = samples.get(key)
        suffix = f"  (n={n})" if n is not None else ""
        print(f"{key:32s} {entry['value']:>16.6g} {entry['unit']}{suffix}")
    for key, entry in report.get("extra_metrics", {}).items():
        print(f"{key:32s} {entry['value']:>16.6g} {entry['unit']}  (n={entry['n']})")


if __name__ == "__main__":
    sys.exit(main())
