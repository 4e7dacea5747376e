"""Read the paired runs of one committed BENCH file, or compare the change
medians of two.

    python3 scripts/bench_diff.py BENCH_25.json
    python3 scripts/bench_diff.py BENCH_12.json BENCH_13.json

Given one file, for every workload and end-to-end metric that
``BENCHMARK.json`` names, it prints the parent and change medians, the
distance between the parent's quartiles (IQR), the pairs the change won
out of those run (ties count for neither) and whether a gain is
``resolved``: the change won at least nine tenths of the pairs and its
median is better than the parent's by more than the parent's IQR.

Given two files, it prints the change median of each and the relative
difference of the second from the first.  Then, for every workload, it
lists each per-layer metric of unit ``count`` whose traced change value
differs between the two files as ``old -> new``; it lists nothing when no
count moved.

It exits 2 when a file cannot be read or lacks one of those workloads or
end-to-end metrics (or, given one file, their paired runs), naming the
first it lacks, and 0 otherwise.  Standard library only.
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


def paired_sides(path, workloads, metrics):
    """``{(workload, metric): (parent, change)}`` of one BENCH file, each side
    its ``{"median", "q1", "q3", "runs"}``; raises ``ValueError`` naming the
    first workload, metric or paired runs it lacks."""
    with open(path) as fh:
        end_to_end = json.load(fh).get("end_to_end", {})
    sides = {}
    for workload in workloads:
        if workload not in end_to_end:
            raise ValueError(f"no workload {workload!r}")
        for metric in metrics:
            entry = end_to_end[workload].get("metrics", {}).get(metric, {})
            pair = tuple(entry.get(side, {}) for side in ("parent", "change"))
            if any(not {"median", "q1", "q3", "runs"} <= set(side) for side in pair) \
                    or len(pair[0]["runs"]) != len(pair[1]["runs"]):
                raise ValueError(f"no paired runs of {metric!r} on {workload!r}")
            sides[workload, metric] = pair
    return sides


def report_pairs(path, workloads, metrics, better):
    """Print the one-file table of ``paired_sides(path, ...)``."""
    sides = paired_sides(path, workloads, metrics)
    print(f"{'workload':<20} {'metric':<12} {'parent':>14} {'change':>14} "
          f"{'parent IQR':>14} {'won':>7}  gain")
    for workload in workloads:
        for metric, unit in metrics.items():
            parent, change = sides[workload, metric]
            sign = 1.0 if better[metric] == "lower" else -1.0
            won = sum(sign * (p - c) > 0.0 for p, c in zip(parent["runs"], change["runs"]))
            pairs = len(parent["runs"])
            iqr = parent["q3"] - parent["q1"]
            gain = sign * (parent["median"] - change["median"])
            resolved = pairs > 0 and won >= 0.9 * pairs and gain > iqr
            print(f"{workload:<20} {metric:<12} {parent['median']:>11.4g} {unit:<2} "
                  f"{change['median']:>11.4g} {unit:<2} {iqr:>11.4g} {unit:<2} "
                  f"{f'{won}/{pairs}':>7}  {'resolved' if resolved else 'unresolved'}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print("usage: python3 scripts/bench_diff.py BENCH.json | OLD.json NEW.json",
              file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        benchmark = json.load(fh)
    workloads = [w["name"] for w in benchmark["workloads"]]
    metrics = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    if len(argv) == 1:
        try:
            report_pairs(argv[0], workloads, metrics,
                         {m["name"]: m["better"] for m in benchmark["end_to_end"]})
        except (OSError, ValueError) as exc:
            print(f"{argv[0]}: {exc}", file=sys.stderr)
            return 2
        return 0
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
