"""Compare the change medians of two committed BENCH files.

    python3 scripts/bench_diff.py BENCH_12.json BENCH_13.json

For every workload and end-to-end metric that ``BENCHMARK.json`` names, it
prints the change median of each file and the relative difference of the
second from the first.  Then, for every workload, it lists each per-layer
metric of unit ``count`` whose traced change value differs between the two
files as ``old -> new``; it lists nothing when no count moved.  It exits 2
when a file cannot be read or lacks one of those workloads or end-to-end
metrics, naming the first it lacks, and 0 otherwise.  Standard library only.
"""

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def change_medians(path, workloads, metrics):
    """``{(workload, metric): change median}`` of one BENCH file and its
    traced change values ``{"workload.metric": value}``; raises
    ``ValueError`` naming the first workload or metric it lacks."""
    with open(path) as fh:
        bench = json.load(fh)
    end_to_end = bench.get("end_to_end", {})
    traced = bench.get("trace", {}).get("change", {}).get("metrics", {})
    medians = {}
    for workload in workloads:
        if workload not in end_to_end:
            raise ValueError(f"no workload {workload!r}")
        for metric in metrics:
            change = end_to_end[workload].get("metrics", {}).get(metric, {}).get("change", {})
            if "median" not in change:
                raise ValueError(f"no change median of {metric!r} on {workload!r}")
            medians[workload, metric] = change["median"]
    # a traced entry is its value, or ``{"value": ..., "unit": ...}`` since BENCH_19
    return medians, {key: entry["value"] if isinstance(entry, dict) else entry
                     for key, entry in traced.items()}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 scripts/bench_diff.py OLD.json NEW.json", file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        benchmark = json.load(fh)
    workloads = [w["name"] for w in benchmark["workloads"]]
    metrics = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    counts = [m["name"] for m in benchmark["per_layer"] if m["unit"] == "count"]
    read = []
    for path in argv:
        try:
            read.append(change_medians(path, workloads, metrics))
        except (OSError, ValueError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return 2
    (old, old_traced), (new, new_traced) = read
    print(f"{'workload':<20} {'metric':<12} {argv[0]:>14} {argv[1]:>14} {'relative':>9}")
    for workload in workloads:
        for metric, unit in metrics.items():
            a, b = old[workload, metric], new[workload, metric]
            print(f"{workload:<20} {metric:<12} {a:>11.4g} {unit:<2} {b:>11.4g} {unit:<2} "
                  f"{(b - a) / a:>+9.1%}")
    moved = []
    for workload in workloads:
        for metric in counts:
            a, b = old_traced.get(f"{workload}.{metric}"), new_traced.get(f"{workload}.{metric}")
            if a != b:
                moved.append(f"{workload:<20} {metric:<36} {a} -> {b}")
    if moved:
        print(f"\n{'workload':<20} {'count moved':<36} old -> new", *moved, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
