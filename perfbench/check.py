"""Output checks of the benchmark studies against the stored seed outputs.

``expected.json`` holds, per workload, the outputs of the recording seed
that do not depend on the seed: per-k errors and fitted rates of the flow
studies, the fitted rates of the deterministic verification targets, and the
exact work counts of a traced run.  The flow studies are deterministic, so
for them every stored value applies to every seed; the workload seed only
varies the random trials of the spectral stability targets, whose ratios are
checked against the PASS verdicts of the verification itself.
"""

import json
import math
import os

from spans import EXACT_COUNTS

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# Acceptance bounds on the fitted rates (acceptance criteria 6 and 8b).
RATE_FLOORS = {
    "nse_incompatible": {"pressure_L2l2": 1.7},
    "stokes_manufactured": {"pressure_Linfl2": 1.8, "velocity_LinfV1": 1.8},
}
# A fitted rate may move this far from the stored one.
RATE_TOL = 1e-6
# A per-k error may move this far (absolute) from the stored one: the
# Newton tolerance, within which the Navier-Stokes errors are defined.
ERROR_TOL = 1e-10


def load_expected(path=EXPECTED_PATH):
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_outputs(workload, outputs, expected):
    """Problems of one study's outputs; an empty list means it passed."""
    problems = []
    stored = expected[workload]
    for msg in outputs.get("failures", []):
        problems.append(f"solver failure {msg}")
    for norm, floor in RATE_FLOORS.get(workload, {}).items():
        rate = outputs["rates"].get(norm)
        if not _finite(rate) or rate < floor:
            problems.append(f"rate[{norm}] = {rate} below the acceptance bound {floor}")
    for key, value in stored["rates"].items():
        rate = outputs["rates"].get(key)
        if not _finite(rate):
            problems.append(f"rate[{key}] = {rate} is not finite")
        elif abs(rate - value) > RATE_TOL:
            problems.append(f"rate[{key}] = {rate!r} is {abs(rate - value):.3g} from "
                            f"the stored {value!r} (tolerance {RATE_TOL})")
    for norm, per_k in stored.get("errors", {}).items():
        for k, value in per_k.items():
            err = outputs["errors"].get(norm, {}).get(k)
            if not _finite(err):
                problems.append(f"error[{norm}, k={k}] = {err} is not finite")
            elif abs(err - value) > ERROR_TOL:
                problems.append(f"error[{norm}, k={k}] = {err!r} is {abs(err - value):.3g} "
                                f"from the stored {value!r} (tolerance {ERROR_TOL})")
    for key, ratio in outputs.get("ratios", {}).items():
        if not _finite(ratio):
            problems.append(f"ratio[{key}] = {ratio} is not finite")
    for line in outputs.get("lines", []):
        if not line.startswith("PASS"):
            problems.append(f"verification line not PASS: {line}")
    for target, code in outputs.get("codes", {}).items():
        if code != 0:
            problems.append(f"verify {target} exited with {code}")
    return problems


def check_counts(workload, metrics, expected):
    """Exact work counts of a traced study that differ from the stored ones."""
    stored = expected[workload]["counts"]
    return [f"count {name} = {metrics[name]} but the stored run counted {stored[name]}"
            for name in EXACT_COUNTS if metrics[name] != stored[name]]
