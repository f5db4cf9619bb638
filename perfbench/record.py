#!/usr/bin/env python3
"""Record reference outcomes for the correctness gate.

    python3 perfbench/record.py --workload sweep --seeds 401 0 1 2

Runs every op of the workload once per seed and merges the outcomes into
``perfbench/reference/<workload>.json``.  Record only from a commit whose
outputs are trusted: the gate treats these outcomes as ground truth.
A specification test whose statistic is numerically zero but whose p-value
is below one is marked as a known defect, so that fixing it later is a
one-entry change here.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

ZERO_STATISTIC = 1e-9
ZERO_STATISTIC_DEFECT = (
    "statistic is numerically zero but p < 1: most subsample statistics snap to exactly 0 "
    "under ZERO_RESIDUAL_TOL while the full-sample one does not"
)


def record_seed(workloads, name: str, seed: int) -> dict:
    draw, build = workloads.WORKLOADS[name]
    workload = build(seed, draw(seed))
    ops = {}
    for op in workload.ops:
        result, failure = workloads.run_op(op)
        outcome = failure if failure is not None else op.outcome(result)
        entry = {"outcome": outcome}
        if (
            op.kind == "spec"
            and failure is None
            and outcome["statistic"] <= ZERO_STATISTIC
            and outcome["p_value"] < 1.0
        ):
            entry["known_defect"] = ZERO_STATISTIC_DEFECT
        ops[op.op_id] = entry
    return workload.reference_seed, {"fingerprint": workload.fingerprint, "ops": ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "inference", "partition-dense"))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # as run.py does
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import gate
    import workloads

    path = gate.reference_path(args.workload)
    data = {"workload": args.workload, "seeds": {}}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    for seed in args.seeds:
        reference_seed, entry = record_seed(workloads, args.workload, seed)
        data["seeds"][str(reference_seed)] = json.loads(json.dumps(entry))
        data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=False)
            fh.write("\n")
        print(f"recorded {args.workload} seed {seed} as {reference_seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
