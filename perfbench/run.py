"""cnflow benchmark: one workload per call, checked, with its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload in turn
    python3 perfbench/run.py --workload W --seed 0 --record   # store outputs

Run it from the root of a cnflow checkout; it imports cnflow from ``src``.
Every study runs in a fresh single-threaded process (``threads = 1`` in the
config, BLAS/OpenMP pinned to one thread) in a closed loop: one client, one
study at a time.  With ``--trace 0`` it reports the end-to-end metrics:

* ``run_s``: median wall time of the study call over the repetitions that
  fit in ``--seconds`` (at least one);
* ``setup_s``: median time from starting a fresh interpreter to "ready"
  (cnflow imported; for a flow workload also the config parsed and the
  Taylor-Hood operators assembled) over several interpreters;
* ``peak_rss_mb``: the peak resident memory of one more study process and
  its children, run with the allocator pins of ``LAYOUT_ENV``.

With ``--trace 1`` it runs one traced study and reports the per-layer
metrics of ``spans.py``.  Every study's outputs are checked (``check.py``);
a study fails on a solver error, a crash or a failed check, and
``fail_rate`` is failed over attempted.  Every run prints the machine it ran
on to standard error.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_PROBES = 7
# A run must end within 180 s; study processes still running this long
# after the first one started are killed.
STUDY_TIMEOUT_S = 150.0
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# Pins for the one study per run whose peak RSS is reported.  With the
# default allocator the peak RSS of identical studies moved by up to 50%
# (2-vCPU Xeon virtual machine): glibc raises its mmap threshold as large
# arrays are freed and then keeps arrays of up to 32 MB in a heap whose
# fragmentation varies from run to run.  A fixed 1 MiB threshold returns
# every larger array (trajectories, LU factors) to the kernel when it is
# freed, so the peak counts live data up to a 3% wobble; without numpy's
# huge-page advice no array is rounded up to huge pages.  The pins also add
# page faults and slowed paired studies by a few per cent, so ``run_s`` and
# ``setup_s`` come from processes with the default allocator.
LAYOUT_ENV = {"MALLOC_MMAP_THRESHOLD_": "1048576", "NUMPY_MADVISE_HUGEPAGE": "0"}

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _env(pinned=False):
    env = dict(os.environ)
    env.update(THREAD_ENV)
    if pinned:
        env.update(LAYOUT_ENV)
    return env


def _reap(proc, deadline):
    """Wait for ``proc``, killing it at ``deadline``; (exit code, peak RSS in MB)."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
        time.sleep(0.02)


def setup_probe(workload):
    """Seconds from starting a fresh interpreter until it reports ready, or
    None if it failed."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, "setup", "--workload", workload,
         "--out", os.path.join(OUT, "setup")],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    proc.stdout.close()
    code, _ = _reap(proc, time.monotonic() + 60.0)
    if line.strip() != "ready" or code != 0:
        print(f"{workload}: set-up probe exited with code {code}", file=sys.stderr)
        return None
    return ready


def study_process(workload, seed, trace, deadline, pinned=False):
    """One study in a fresh process, with ``LAYOUT_ENV`` if ``pinned``; its
    result, or None if the process failed."""
    out = os.path.join(OUT, workload)
    os.makedirs(out, exist_ok=True)
    stdout_path = os.path.join(out, "worker.out")
    with open(stdout_path, "w") as fh:
        proc = subprocess.Popen(
            [sys.executable, WORKER, "study", "--workload", workload, "--seed", str(seed),
             "--trace", str(trace), "--out", out],
            cwd=ROOT, env=_env(pinned), stdout=fh)
        code, rss_mb = _reap(proc, deadline)
    with open(stdout_path) as fh:
        lines = fh.read().splitlines()
    if code != 0 or not lines:
        print(f"{workload}: study process exited with code {code}", file=sys.stderr)
        return None
    return dict(json.loads(lines[-1]), peak_rss_mb=rss_mb, pinned=pinned)


def run_studies(workload, seed, seconds, trace):
    """With ``trace`` one traced study.  Else untraced studies while the next
    is expected to end within ``seconds`` (at least one), then one more,
    pinned, for the peak RSS."""
    begin = time.monotonic()
    deadline = begin + STUDY_TIMEOUT_S
    if trace:
        return [study_process(workload, seed, 1, deadline)]
    studies = []
    while True:
        start = time.monotonic()
        studies.append(study_process(workload, seed, 0, deadline))
        now = time.monotonic()
        if studies[-1] is None or studies[-1]["error"]:
            return studies
        if now - begin + (now - start) > seconds:
            return studies + [study_process(workload, seed, 0, deadline, pinned=True)]


def run_workload(workload, seed, seconds, trace, expected):
    """Measure and check one workload; returns the result object.

    With ``expected`` None (recording) only solver errors, crashes and
    differences between repeated studies count as failures.
    """
    import check
    from spans import LAYER_METRICS

    setup = [] if trace else [setup_probe(workload) for _ in range(SETUP_PROBES)]
    studies = run_studies(workload, seed, seconds, trace)
    first = next((s["outputs"] for s in studies if s and not s["error"]), None)
    problems, failed = [], 0
    if None in setup:
        problems.append("set-up probe failed")
        setup = [t for t in setup if t is not None]
    for i, study in enumerate(studies):
        if study is None:
            found = ["study process failed"]
        elif study["error"]:
            found = [study["error"]]
        elif expected is None:
            found = []
        else:
            found = check.check_outputs(workload, study["outputs"], expected)
        if not found and study["outputs"] != first:
            found = ["outputs differ between studies of one seed"]
        problems += [f"study {i + 1}: {p}" for p in found]
        failed += bool(found)
    ok = [s for s in studies if s is not None]
    if trace and ok and expected is not None:
        mismatches = check.check_counts(workload, ok[0]["metrics"], expected)
        problems += [f"exact-count mismatch: {m}" for m in mismatches]
    for p in problems:
        print(f"{workload}: FAIL {p}", file=sys.stderr)

    if trace:
        values = ok[0]["metrics"] if ok else {}
        units = LAYER_METRICS
    else:
        timed = [s["run_s"] for s in ok if not s["pinned"]]
        rss = [s["peak_rss_mb"] for s in ok if s["pinned"]]
        values = {"run_s": statistics.median(timed) if timed else math.nan,
                  "setup_s": statistics.median(setup) if setup else math.nan,
                  "peak_rss_mb": rss[0] if rss else math.nan}
        units = END_TO_END
    metrics = {name: {"value": values.get(name, math.nan), "unit": unit}
               for name, unit in units}

    attempted = len(studies)
    print(f"{workload}  seed {seed}  trace {trace}  studies {attempted}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'fail_rate':36s} {failed / attempted:14.6g} fraction ({failed} of {attempted})")
    if not trace:
        for label, samples in (("run_s per study", timed),
                               ("setup_s per interpreter", setup)):
            print(f"  {label}: {', '.join(f'{v:.3f}' for v in samples)}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "outputs": first}


def machine():
    """The machine, interpreter and libraries the benchmark ran on."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"nproc": os.cpu_count(), "threads_env": THREAD_ENV, "layout_env": LAYOUT_ENV,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}
    with open("/proc/cpuinfo") as fh:
        cpuinfo = fh.read().splitlines()
    info["cpu"] = next((line.split(":", 1)[1].strip() for line in cpuinfo
                        if line.startswith("model name")), "unknown")
    info["hypervisor"] = any(line.startswith("flags") and " hypervisor" in line
                             for line in cpuinfo)
    with open("/proc/meminfo") as fh:
        info["ram_kb"] = int(fh.readline().split()[1])
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    indexes = os.listdir(cache_dir) if os.path.isdir(cache_dir) else []
    for index in sorted(i for i in indexes if i.startswith("index")):
        with open(os.path.join(cache_dir, index, "level")) as fh:
            level = fh.read().strip()
        with open(os.path.join(cache_dir, index, "type")) as fh:
            kind = fh.read().strip()
        with open(os.path.join(cache_dir, index, "size")) as fh:
            info[f"L{level}_{kind.lower()}"] = fh.read().strip()
    return info


def record(workload, result, expected):
    """Store the seed-independent outputs and exact counts of a traced run."""
    import check
    import workloads
    from spans import EXACT_COUNTS

    if not result["correct"]:
        raise SystemExit(f"{workload}: not recorded, a study failed")
    outputs = result["outputs"]
    entry = {"rates": outputs["rates"],
             "counts": {name: result["metrics"][name]["value"] for name in EXACT_COUNTS}}
    if workload in workloads.FLOW:
        entry["errors"] = outputs["errors"]
    expected[workload] = entry
    with open(check.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run traced and store this seed's outputs in expected.json")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cnflow", "__init__.py")):
        print(f"cnflow sources not found under {ROOT}; run from a cnflow checkout",
              file=sys.stderr)
        return 2

    import check
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    expected = check.load_expected()
    trace = 1 if args.record else args.trace
    print(f"machine: {json.dumps(machine())}", file=sys.stderr)

    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, trace,
                                     None if args.record else expected)
        if args.record:
            record(name, results[name], expected)

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": m for name, r in results.items()
                   for metric, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
