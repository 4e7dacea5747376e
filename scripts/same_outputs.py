"""Check that two source trees write byte-identical study outputs.

    python3 scripts/same_outputs.py OLD_TREE NEW_TREE

In each tree, with that tree's ``src`` first on ``PYTHONPATH``, it runs

- ``cnflow convergence`` on ``configs/stokes_manufactured.cfg``, and again
  with an implicit-Euler prefix (``n0=2 k_list=0.02,0.01,0.005
  refinement=4``), the one study that runs the Stokes Euler steps;
- ``cnflow convergence`` on ``configs/stokes_manufactured.cfg`` with
  ``k_list=0.02,0.01,0.005 refinement=4`` twice more: all three norms
  weighted (``n0=1 alpha=2``), and ``velocity_LinfV1`` alone, the one study
  whose trajectories store the velocity without the pressure;
- ``cnflow convergence`` on ``configs/stokes_manufactured.cfg`` with
  ``--threads 2 k_list=0.02,0.01,0.005 refinement=4``, whose coarse runs
  share the pool before the reference scores them;
- ``cnflow convergence`` on ``configs/case_ii_weighted.cfg`` and on
  ``configs/case_i.cfg``, each with ``k_list=0.02,0.01,0.005 refinement=4``;
- ``cnflow verify`` for every target at seeds 0 and 23.

It then compares, byte for byte, every ``convergence.csv``, every
``verify_*.csv`` and ``verify_*.txt`` and the ``newton_iterations`` lines of
every ``manifest.txt``, prints one line per file and exits 1 on any
difference, 0 otherwise.  A differing CSV's line also gives the number of
differing cells and the largest relative difference among the numeric ones,
which tells a last-digit change from a real one.  A convergence run must
exit 0; a verify run may exit 1 (a failed check, which its report records).
Any other exit code, or a tree without ``src/cnflow``, exits 2.  Standard
library only.
"""

import csv
import itertools
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REDUCED = ["--set", "k_list=0.02,0.01,0.005", "--set", "refinement=4"]
CONVERGENCE = {
    "stokes_manufactured": ["--config", "configs/stokes_manufactured.cfg"],
    "stokes_euler_prefix": ["--config", "configs/stokes_manufactured.cfg", "--set", "n0=2",
                            *REDUCED],
    "stokes_weighted_norms": ["--config", "configs/stokes_manufactured.cfg", "--set",
                              "norms=pressure_L2l2,pressure_Linfl2,velocity_LinfV1",
                              "--set", "n0=1", "--set", "alpha=2", *REDUCED],
    "stokes_velocity_only": ["--config", "configs/stokes_manufactured.cfg", "--set",
                             "norms=velocity_LinfV1", *REDUCED],
    "stokes_threads2": ["--config", "configs/stokes_manufactured.cfg", "--threads", "2",
                        *REDUCED],
    "case_ii_weighted": ["--config", "configs/case_ii_weighted.cfg", *REDUCED],
    "case_i": ["--config", "configs/case_i.cfg", *REDUCED],
}
TARGETS = ("temporal", "spectral-stability", "spectral-smoothing", "euler-rates")
SEEDS = (0, 23)


def run_studies(tree, out):
    """Write the outputs of every study of ``tree`` under ``out``; raises
    ``RuntimeError`` naming the first run that fails."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
    runs = [(["convergence", *args, "--out", str(out / name)], (0,))
            for name, args in CONVERGENCE.items()]
    runs += [(["verify", target, "--seed", str(seed), "--out", str(out / f"verify_seed{seed}")],
              (0, 1)) for seed in SEEDS for target in TARGETS]
    for args, codes in runs:
        result = subprocess.run([sys.executable, "-m", "cnflow.cli", *args], cwd=tree,
                                env=env, capture_output=True, text=True)
        if result.returncode not in codes:
            raise RuntimeError(f"{tree}: cnflow {' '.join(args)} exited "
                               f"{result.returncode}: {result.stderr.strip()}")


def compared_outputs(out):
    """``{name: bytes}`` of the compared outputs under ``out``."""
    found = {}
    for path in sorted(p for p in Path(out).rglob("*") if p.is_file()):
        name = path.relative_to(out).as_posix()
        if path.name == "convergence.csv" or path.name.startswith("verify_"):
            found[name] = path.read_bytes()
        elif path.name == "manifest.txt":
            found[f"{name} newton_iterations"] = b"".join(
                line for line in path.read_bytes().splitlines(keepends=True)
                if line.startswith(b"newton_iterations["))
    return found


def _finite(cell):
    """The cell as a finite float, else None (also for a missing cell)."""
    try:
        value = float(cell)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def csv_difference(a, b):
    """How two CSV texts differ: the number of differing cells (a cell on one
    side only counts) and the largest relative difference of the differing
    cells that are finite numbers on both sides."""
    rows = [list(csv.reader(text.decode().splitlines())) for text in (a, b)]
    cells, largest = 0, None
    for row_a, row_b in itertools.zip_longest(*rows, fillvalue=[]):
        for x, y in itertools.zip_longest(row_a, row_b):
            if x == y:
                continue
            cells += 1
            u, v = _finite(x), _finite(y)
            if u is not None and v is not None:
                rel = abs(u - v) / max(abs(u), abs(v)) if u != v else 0.0
                largest = rel if largest is None else max(largest, rel)
    spread = "none numeric" if largest is None else f"{largest:.3g}"
    return f"differing cells: {cells}, largest relative difference: {spread}"


def compare(old, new):
    """Print one line per compared output; 1 if any differs or is missing, else 0."""
    a, b = compared_outputs(old), compared_outputs(new)
    if not a:
        print(f"no outputs under {old}")
        return 1
    status = {name: "same" if a.get(name) == b.get(name) else
              "missing" if name not in a or name not in b else "DIFFERS"
              for name in sorted(a.keys() | b.keys())}
    for name, what in status.items():
        detail = (f" ({csv_difference(a[name], b[name])})"
                  if what == "DIFFERS" and name.endswith(".csv") else "")
        print(f"{what:<8} {name}{detail}")
    return 0 if set(status.values()) == {"same"} else 1


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    trees = [Path(tree).resolve() for tree in argv]
    if len(trees) != 2 or not all((tree / "src" / "cnflow").is_dir() for tree in trees):
        print("usage: python3 scripts/same_outputs.py OLD_TREE NEW_TREE", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp, side) for side in ("old", "new")]
        try:
            for tree, out in zip(trees, outs):
                run_studies(tree, out)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
        return compare(*outs)


if __name__ == "__main__":
    sys.exit(main())
