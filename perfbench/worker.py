"""One fresh benchmark process: a set-up probe or one study.

    python3 perfbench/worker.py setup --workload W --out DIR
    python3 perfbench/worker.py study --workload W --seed N --trace 0|1 --out DIR

``setup`` prints ``ready`` once cnflow is imported and the workload's
spatial operators are assembled, and exits.  ``study`` runs the workload's
study once, traced with ``--trace 1``, and prints one JSON object as its
last line: the study's wall time, its outputs or its solver error, and for a
traced study the per-layer metrics.
"""

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "study"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    if args.mode == "setup":
        workloads.setup(ROOT, args.workload, args.out)
        print("ready", flush=True)
        return 0

    from cnflow.fem2d import SolverError

    prepared = workloads.prepare(ROOT, args.workload, args.seed, args.out)
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        spans.install(tracer)
    result = {"outputs": None, "error": None, "metrics": None}
    start = time.perf_counter()
    try:
        result["outputs"] = workloads.study(args.workload, prepared, args.out)
    except SolverError as exc:
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["run_s"] = time.perf_counter() - start
    if tracer:
        tracer.write(os.path.join(args.out, "spans.json"))
        result["metrics"] = spans.layer_metrics(tracer.spans, spans.span_cost())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
