"""Self-test of the benchmark's output check and span arithmetic.

    python3 -m pytest -q perfbench
"""

import copy
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
from spans import EXACT_COUNTS, Tracer, _wrap_cached_property, layer_metrics  # noqa: E402

EXPECTED = check.load_expected()
FLOW = ("nse_incompatible", "stokes_manufactured")


def stored_outputs(workload):
    """Study outputs equal to the stored ones."""
    stored = EXPECTED[workload]
    return {"rates": dict(stored["rates"]), "errors": copy.deepcopy(stored.get("errors", {})),
            "failures": [], "lines": ["PASS stored"], "codes": {"stored": 0}}


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_stored_outputs_pass(workload):
    assert check.check_outputs(workload, stored_outputs(workload), EXPECTED) == []
    counts = dict(EXPECTED[workload]["counts"])
    assert check.check_counts(workload, counts, EXPECTED) == []


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_perturbed_stored_rate_is_flagged(workload):
    expected = copy.deepcopy(EXPECTED)
    key = sorted(expected[workload]["rates"])[0]
    expected[workload]["rates"][key] += 2 * check.RATE_TOL
    problems = check.check_outputs(workload, stored_outputs(workload), expected)
    assert len(problems) == 1 and f"rate[{key}]" in problems[0]
    expected[workload]["rates"][key] -= 1.5 * check.RATE_TOL
    assert check.check_outputs(workload, stored_outputs(workload), expected) == []


@pytest.mark.parametrize("workload", FLOW)
def test_perturbed_stored_error_is_flagged(workload):
    expected = copy.deepcopy(EXPECTED)
    norm = sorted(expected[workload]["errors"])[0]
    expected[workload]["errors"][norm]["0.01"] += 2 * check.ERROR_TOL
    problems = check.check_outputs(workload, stored_outputs(workload), expected)
    assert len(problems) == 1 and f"error[{norm}, k=0.01]" in problems[0]


@pytest.mark.parametrize("workload", FLOW)
def test_nan_or_inf_is_flagged(workload):
    outputs = stored_outputs(workload)
    norm = sorted(outputs["errors"])[0]
    outputs["errors"][norm]["0.005"] = math.nan
    outputs["rates"][norm] = math.inf
    problems = check.check_outputs(workload, outputs, EXPECTED)
    assert any("not finite" in p and "error" in p for p in problems)
    assert any("not finite" in p and "rate" in p for p in problems)


def test_rate_below_acceptance_bound_is_flagged():
    outputs = stored_outputs("nse_incompatible")
    outputs["rates"]["pressure_L2l2"] = 1.69
    problems = check.check_outputs("nse_incompatible", outputs, EXPECTED)
    assert any("below the acceptance bound 1.7" in p for p in problems)


def test_failed_verification_line_is_flagged():
    outputs = stored_outputs("spectral_verify")
    outputs["lines"].append("FAIL s=0: drift 1.2 < 1.1")
    outputs["ratios"] = {"spectral-stability:s=0,l=0,N=16": math.nan}
    problems = check.check_outputs("spectral_verify", outputs, EXPECTED)
    assert any("not PASS" in p for p in problems)
    assert any("ratio" in p and "not finite" in p for p in problems)


@pytest.mark.parametrize("name", EXACT_COUNTS)
def test_count_mismatch_is_flagged(name):
    counts = dict(EXPECTED["stokes_manufactured"]["counts"])
    counts[name] += 1
    problems = check.check_counts("stokes_manufactured", counts, EXPECTED)
    assert len(problems) == 1 and name in problems[0]


def test_self_time_and_phases():
    spans = [
        ["cli.study", 0.0, 10.0, -1, None],
        ["schemes.reference", 1.0, 6.0, 0, None],
        ["schemes.step", 1.0, 6.0, 1, {"steps": 4}],
        ["schemes.stationary", 1.0, 2.0, 2, None],
        ["fem2d.factor", 1.5, 1.75, 3, {"nnz": 10}],
        ["fem2d.factor", 2.0, 2.5, 2, {"nnz": 20}],
        ["fem2d.convection_apply", 3.0, 4.0, 2, None],
        ["schemes.step", 7.0, 9.0, 0, {"steps": 4}],
    ]
    m = layer_metrics(spans, 1e-6)
    assert m["cli.self_s"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert m["fem2d.factor.calls"] == 2 and m["fem2d.factor.s"] == pytest.approx(0.75)
    assert m["fem2d.lu_fill_nnz"] == 15
    assert m["schemes.factorizations"] == 1
    assert m["schemes.steps"] == 8
    assert m["schemes.newton_residuals_per_step"] == pytest.approx(1 / 8)
    assert m["schemes.reference.s"] == pytest.approx(5.0)
    assert m["schemes.coarse.s"] == pytest.approx(2.0)
    assert m["schemes.stationary.s"] == pytest.approx(1.0)
    assert m["schemes.ms_per_step"] == pytest.approx(1000.0 * (5.0 + 2.0 - 1.0) / 8)
    assert m["schemes.step.self_s"] == pytest.approx(5.0 - 1.0 - 0.5 - 1.0 + 2.0)
    assert m["trace_overhead_s"] == pytest.approx(8e-6)


def test_cached_property_records_misses_only():
    class Space:
        def __init__(self):
            self._cache = {}

        @property
        def mass(self):
            if "M" not in self._cache:
                self._cache["M"] = 1.0
            return self._cache["M"]

    tracer = Tracer()
    _wrap_cached_property(tracer, Space, "mass", "M", "fem2d.assembly")
    first, second = Space(), Space()
    values = [first.mass, first.mass, second.mass, first.mass]
    assert values == [1.0] * 4
    assert [span[0] for span in tracer.spans] == ["fem2d.assembly"] * 2
