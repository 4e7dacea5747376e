"""Acceptance suite: one test per criterion, one pass/fail line each, and one
check that the flow references keep no field.

The flow experiments run at desk scale (16 x 16 Taylor-Hood space on the
square) against shared uniform-mesh references; convergence orders, not
absolute error magnitudes, are asserted.  The incompatible-data study
uses a step-size ladder one/two halvings below the harness default so
that every fitted pair sits inside the regime where the startup layer is
temporally resolved (the degraded orders are invisible while the largest
steps straddle the layer); the weighted/averaged recovery criteria are
insensitive to that choice.  Each study runs the path of ``cnflow
convergence``: ``cnflow.cli.coarse_run`` solves its coarse runs first, then
one ``cnflow.cli.build_reference`` scores them in the norms its criterion
reads while it steps.
"""

import numpy as np
import pytest

from cnflow.cli import (
    DRIFT_LIMIT,
    EULER_K_LIST,
    build_reference,
    coarse_run,
    convergence_rows,
    rough_stationary_initial,
    smooth_ramp_forcing,
    smoothing_drift,
    stability_drift,
    temporal_operator_orders,
)
from cnflow.errors import ErrorSpec, fit_loglog
from cnflow.fem2d import build_space
from cnflow.schemes import ProblemSpec, ZeroForcing
from cnflow.spectral_stokes import (
    cn_step_spectral,
    default_spectrum,
    euler_smoothing_rate,
    evolve_cn,
    ie_step_spectral,
    vs_norm,
    SpectralField,
)
from cnflow.time_mesh import build_uniform_mesh

from oracles import assemble_oracle


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# --- criterion 1: temporal operator orders --------------------------------

def test_criterion_1_temporal_operator_orders():
    rates = temporal_operator_orders(T=2.0, n_list=(16, 32, 64))
    expected = {"interpolation": 2.0, "average_vs_midpoint": 2.0,
                "averaged_interpolant": 1.0}
    got = {name: rates[name].slope for name in expected}
    ok = all(abs(got[name] - expected[name]) <= 0.15 for name in expected)
    report(1, ok, ", ".join(f"{n}: {got[n]:.3f} (expect {expected[n]} +- 0.15)"
                            for n in expected))


# --- criterion 2: spectral amplification exactness -------------------------

def test_criterion_2_spectral_exactness():
    lam = default_spectrum(128)
    rng = np.random.default_rng(0)
    c0 = rng.standard_normal(128)
    zero = np.zeros(128)
    worst = 0.0
    for k in (1e-4, 1e-2, 0.5, 3.0, 50.0):
        cn = cn_step_spectral(SpectralField(lam, c0), k, SpectralField(lam, zero))
        expect_cn = c0 * (1 - 0.5 * lam * k) / (1 + 0.5 * lam * k)
        ie = ie_step_spectral(SpectralField(lam, c0), k, SpectralField(lam, zero))
        expect_ie = c0 / (1 + lam * k)
        # modes with lam k / 2 = 1 are annihilated exactly; measure those
        # against the input amplitude instead
        scale_cn = np.maximum(np.abs(expect_cn), np.abs(c0))
        scale_ie = np.maximum(np.abs(expect_ie), np.abs(c0))
        worst = max(worst,
                    np.max(np.abs(cn.coefficients - expect_cn) / scale_cn),
                    np.max(np.abs(ie.coefficients - expect_ie) / scale_ie))
    mesh = build_uniform_mesh(1.0, 16)
    states = [c0]
    evolve_cn(mesh, lam, c0, lambda n: zero, 0,
              lambda n, prev, new, f: states.append(new.copy()))
    monotone = True
    for s in range(-2, 5):
        norms = [vs_norm(SpectralField(lam, v), s) for v in states]
        monotone &= bool(np.all(np.diff(norms) <= 1e-13))
    ok = worst <= 1e-14 and monotone
    report(2, ok, f"amplification identity rel error {worst:.2e} <= 1e-14, "
                  f"unforced decay monotone for s in -2..4: {monotone}")


# --- criterion 3: discrete stability constant ------------------------------

def test_criterion_3_discrete_stability_drift():
    details = []
    ok = True
    for s in (0, 1, 2):
        drift, reports = stability_drift(s, n_values=(16, 32, 64), T=1.0,
                                         trials=50, seed=0)
        ok &= drift < DRIFT_LIMIT
        details.append(f"s={s}: drift {drift:.4f}")
    report(3, ok, ", ".join(details) + f" (limit {DRIFT_LIMIT})")


# --- criterion 4: smoothing stability ---------------------------------------

def test_criterion_4_smoothing_stability_drift():
    details = []
    ok = True
    for s, ell in ((1, 1), (1, 2), (2, 1)):
        drift, reports = smoothing_drift(s, ell, n0=0, n_values=(64, 128, 256),
                                         T=1.0, trials=50, seed=0)
        ok &= drift < DRIFT_LIMIT
        details.append(f"(s,l)=({s},{ell}): drift {drift:.4f}")
    report(4, ok, ", ".join(details) + f" (limit {DRIFT_LIMIT})")


# --- criterion 5: Euler smoothing rates -------------------------------------

def test_criterion_5_euler_smoothing_rates():
    cases = (((2, 4, 2), -1.0, 0.2), ((2, 3, 2), -0.5, 0.2),
             ((0, 2, 2), -1.0, 0.2), ((2, 2, 2), 0.0, 0.1))
    details = []
    ok = True
    for (r, s, s0), expected, tol in cases:
        fit = euler_smoothing_rate(r, s, s0, EULER_K_LIST)
        ok &= abs(fit.slope - expected) <= tol
        details.append(f"(r,s,s0)=({r},{s},{s0}): {fit.slope:.3f} "
                       f"(expect {expected} +- {tol})")
    report(5, ok, ", ".join(details))


# --- flow experiment fixtures ------------------------------------------------

ALTERNATING = (0.8, 1.2)
REFINEMENT = 8  # reference steps per smallest coarse step
# the norms (norm, alpha, window start) that criterion 8 reads of the runs with
# each Euler prefix n0; the reference scores these pairs alone, and the bundle
# keeps their errors alone
CRITERION_8_NORMS = {
    0: (ErrorSpec("pressure_L2l2"),),  # 8a
    1: (ErrorSpec("pressure_L2l2", 1.5, 1), ErrorSpec("pressure_Linfl2", 0.0, 1),
        ErrorSpec("pressure_L2l2", 0.0, 1)),  # 8b, 8d
    2: (ErrorSpec("pressure_Linfl2", 2.0, 2), ErrorSpec("pressure_Linfl2", 0.0, 2)),  # 8c, 8d
}


def study(spec, kind, k_list, norms):
    """The study path of ``cnflow convergence`` on ``spec``: ``coarse_run``
    solves every step of ``k_list`` for each Euler prefix ``n0`` of
    ``norms``, storing the fields that ``norms[n0]`` read, and one
    ``build_reference`` scores each prefix's runs in its norms as it steps.
    Returns the reference and the errors, one list over the steps per
    ``(n0, ErrorSpec)``; the runs are freed once scored."""
    runs = {n0: [coarse_run(spec, kind, k, ALTERNATING, n0, specs) for k in k_list]
            for n0, specs in norms.items()}
    reference, scored = build_reference(spec, kind, k_list, REFINEMENT,
                                        [(runs[n0], specs) for n0, specs in norms.items()])
    errors = {}
    for n0, specs in norms.items():
        for k, run in zip(k_list, runs[n0]):
            for es, row in zip(specs, convergence_rows(scored, k, run, specs)):
                errors.setdefault((n0, es), []).append(row[-1])
    return reference, errors


@pytest.fixture(scope="module")
def space16():
    return build_space((-1, 1, -1, 1), 16, 16)


@pytest.fixture(scope="module")
def incompatible_bundle(space16):
    """The steps of the incompatible-data study, the reference that scored
    its coarse runs, and the errors criteria 8a-8d read: one list over the
    steps per ``(n0, ErrorSpec)``.  The coarse runs store the pressure alone
    (criterion 8 reads no velocity)."""
    spec = ProblemSpec(space16, 0.01, ZeroForcing(), rough_stationary_initial(), 2.0)
    k_list = (0.005, 0.0025, 0.00125, 0.000625)
    reference, errors = study(spec, "nse", k_list, CRITERION_8_NORMS)
    return k_list, reference, errors


def pressure_rates(bundle, n0, alpha, norm, window_start):
    k_list, _, errors = bundle
    errs = errors[(n0, ErrorSpec(norm, alpha, window_start))]
    return fit_loglog(k_list, errs), errs


@pytest.fixture(scope="module")
def stokes_manufactured_study(space16):
    """Criterion 6: the reference, the steps and the midpoint pressure and
    velocity errors of the coarse Stokes runs."""
    spec = ProblemSpec(space16, 0.01, smooth_ramp_forcing(), None, 2.0)
    k_list = (0.02, 0.01, 0.005)
    norm_p, norm_v = ErrorSpec("pressure_Linfl2"), ErrorSpec("velocity_LinfV1")
    reference, errors = study(spec, "stokes", k_list, {0: (norm_p, norm_v)})
    return reference, k_list, errors[0, norm_p], errors[0, norm_v]


@pytest.fixture(scope="module")
def compatible_study(space16):
    """Criterion 7: the reference, the steps and the pressure errors of the
    coarse Navier-Stokes runs, which store the pressure alone, per norm."""
    spec = ProblemSpec(space16, 0.01, smooth_ramp_forcing(), None, 2.0)
    k_list = (0.02, 0.01, 0.005, 0.0025)
    norms = (ErrorSpec("pressure_L2l2"), ErrorSpec("pressure_Linfl2"))
    reference, errors = study(spec, "nse", k_list, {0: norms})
    return reference, k_list, {es.norm: errors[0, es] for es in norms}


# --- criterion 6: Stokes manufactured ---------------------------------------

def test_criterion_6_stokes_manufactured(stokes_manufactured_study):
    _, k_list, errs_p, errs_v = stokes_manufactured_study
    rate_p = fit_loglog(k_list, errs_p).slope
    rate_v = fit_loglog(k_list, errs_v).slope
    ok = rate_p >= 1.8 and rate_v >= 1.8
    report(6, ok, f"midpoint pressure Linf-l2 rate {rate_p:.3f} >= 1.8, "
                  f"velocity Linf-V1 rate {rate_v:.3f} >= 1.8")


# --- criterion 7: compatible-data flow study --------------------------------

def test_criterion_7_compatible_second_order(compatible_study):
    _, k_list, errs = compatible_study
    rates = {norm: fit_loglog(k_list, e).slope for norm, e in errs.items()}
    ok = all(rate >= 1.8 for rate in rates.values())
    report(7, ok, ", ".join(f"{n}: {r:.3f} >= 1.8" for n, r in rates.items()))


# --- criterion 8: incompatible-data flow study -------------------------------

def test_criterion_8a_unweighted_degradation(incompatible_bundle):
    fit_all, errs = pressure_rates(incompatible_bundle, 0, 0.0, "pressure_L2l2", 0)
    # fit over the three smallest steps: the largest one straddles the
    # startup layer, where the loss is not yet visible
    k_list = incompatible_bundle[0]
    fit = fit_loglog(k_list[1:], errs[1:])
    ok = fit.slope <= 1.4
    report("8a", ok, f"unweighted L2-l2 rate {fit.slope:.3f} <= 1.4 "
                     f"(all-step fit {fit_all.slope:.3f}, "
                     f"pairwise {[round(float(p), 2) for p in fit_all.pairwise]})")


def test_criterion_8b_weighted_l2_recovery(incompatible_bundle):
    fit, errs = pressure_rates(incompatible_bundle, 1, 1.5, "pressure_L2l2", 1)
    ok = fit.slope >= 1.7
    report("8b", ok, f"one Euler step, tau^(3/2)-weighted L2-l2 rate "
                     f"{fit.slope:.3f} >= 1.7")


def test_criterion_8c_weighted_linf_recovery(incompatible_bundle):
    fit, errs = pressure_rates(incompatible_bundle, 2, 2.0, "pressure_Linfl2", 2)
    ok = fit.slope >= 1.7
    report("8c", ok, f"two Euler steps, tau^2-weighted Linf-l2 rate "
                     f"{fit.slope:.3f} >= 1.7")


def test_criterion_8d_unweighted_prefix_loss(incompatible_bundle):
    fit1, _ = pressure_rates(incompatible_bundle, 1, 0.0, "pressure_Linfl2", 1)
    fit2, _ = pressure_rates(incompatible_bundle, 2, 0.0, "pressure_Linfl2", 2)
    fit1_l2, _ = pressure_rates(incompatible_bundle, 1, 0.0, "pressure_L2l2", 1)
    ok = fit1.slope <= 1.4 and fit2.slope <= 1.4
    report("8d", ok, f"unweighted Linf-l2 rates with Euler prefixes: "
                     f"n0=1: {fit1.slope:.3f}, n0=2: {fit2.slope:.3f} "
                     f"(both <= 1.4; unweighted L2-l2 at n0=1: {fit1_l2.slope:.3f})")


def test_flow_references_keep_no_field(incompatible_bundle, stokes_manufactured_study,
                                       compatible_study):
    # each reference scored its runs while it stepped; a stored field would
    # hold up to 59 MB (the 25,600-step pressure of criterion 8)
    for reference in (incompatible_bundle[1], stokes_manufactured_study[0],
                      compatible_study[0]):
        assert reference.velocity is None and reference.pressure is None


# --- criterion 9: oracle equivalence -----------------------------------------

def test_criterion_9_oracle_equivalence(two_element_space):
    space = two_element_space
    rng = np.random.default_rng(33)
    w = rng.standard_normal(space.num_velocity)
    oracle = assemble_oracle(space, w)
    assembled = {
        "mass": space.mass,
        "stiffness": space.stiffness,
        "divergence": space.divergence,
        "pressure_mass": space.pressure_mass,
        "convection": space.convection(w),
        "gradient": space.convection_gradient(w),
    }
    worst = max(np.max(np.abs(np.asarray(mat.todense()) - oracle[name]))
                for name, mat in assembled.items())

    ks = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
    fit = fit_loglog(ks, 0.37 * ks ** 1.625)
    slope_err = abs(fit.slope - 1.625)
    ok = worst < 1e-10 and slope_err < 1e-10
    report(9, ok, f"element matrices vs independent quadrature: max dev "
                  f"{worst:.2e} < 1e-10; synthetic slope error {slope_err:.2e} < 1e-10")
