"""Compare the change medians of two committed BENCH files.

    python3 scripts/bench_diff.py BENCH_12.json BENCH_13.json

For every workload and end-to-end metric that ``BENCHMARK.json`` names, it
prints the change median of each file and the relative difference of the
second from the first.  It exits 2 when a file cannot be read or lacks one
of those workloads or metrics, naming the first it lacks, and 0 otherwise.
Standard library only.
"""

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def change_medians(path, workloads, metrics):
    """``{(workload, metric): change median}`` of one BENCH file; raises
    ``ValueError`` naming the first workload or metric it lacks."""
    with open(path) as fh:
        end_to_end = json.load(fh).get("end_to_end", {})
    medians = {}
    for workload in workloads:
        if workload not in end_to_end:
            raise ValueError(f"no workload {workload!r}")
        for metric in metrics:
            change = end_to_end[workload].get("metrics", {}).get(metric, {}).get("change", {})
            if "median" not in change:
                raise ValueError(f"no change median of {metric!r} on {workload!r}")
            medians[workload, metric] = change["median"]
    return medians


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 scripts/bench_diff.py OLD.json NEW.json", file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        benchmark = json.load(fh)
    workloads = [w["name"] for w in benchmark["workloads"]]
    metrics = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    medians = []
    for path in argv:
        try:
            medians.append(change_medians(path, workloads, metrics))
        except (OSError, ValueError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return 2
    old, new = medians
    print(f"{'workload':<20} {'metric':<12} {argv[0]:>14} {argv[1]:>14} {'relative':>9}")
    for workload in workloads:
        for metric, unit in metrics.items():
            a, b = old[workload, metric], new[workload, metric]
            print(f"{workload:<20} {metric:<12} {a:>11.4g} {unit:<2} {b:>11.4g} {unit:<2} "
                  f"{(b - a) / a:>+9.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
