import gc
import weakref
from dataclasses import replace
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from cnflow.errors import (
    _NODE_BLOCK,
    NORMS,
    ConvergenceRecord,
    ErrorSpec,
    StreamedReference,
    fit_loglog,
    midpoint_reconstruction,
    pressure_error,
    velocity_error,
)
from cnflow.schemes import (
    ProblemSpec,
    SeparableForcing,
    Trajectory,
    reference_solve,
    stokes_cn_solve,
)
from cnflow.temporal_ops import GridFunctionCG1, GridFunctionDG0
from cnflow.time_mesh import TimeMesh, build_alternating_mesh, build_uniform_mesh


@cache
def euclidean_space(n):
    """A space of ``n`` coefficients whose weighted norms are Euclidean: its
    pressure mass and stiffness are the identity, and ``x @ (I @ x)`` equals
    ``np.dot(x, x)`` bit for bit.  One object per ``n``, so trajectories of
    one width share it."""
    identity = sparse.identity(n, format="csr")
    return SimpleNamespace(pressure_mass=identity, stiffness=identity)


def synthetic_traj(mesh, pressures, velocities=None, space=None):
    """A trajectory on ``space``, by default the Euclidean space as wide as
    the pressure."""
    if space is None:
        space = euclidean_space(pressures.shape[1])
    if velocities is None:
        velocities = np.zeros((mesh.num_intervals + 1, pressures.shape[1]))
    return Trajectory(mesh, GridFunctionCG1(mesh, velocities),
                      GridFunctionDG0(mesh, pressures),
                      ["CN"] * mesh.num_intervals, space)


def replay(ref, runs, specs):
    """A ``StreamedReference`` on the mesh and space of the trajectory ``ref``
    that scored ``runs`` in ``specs`` while it observed the intervals of
    ``ref`` in order, as a reference solve hands them over."""
    streamed = StreamedReference(ref.mesh, ref.space, runs, specs)
    for n in range(ref.mesh.num_intervals):
        streamed.observe(None if ref.velocity is None else ref.velocity.values[n + 1],
                         None if ref.pressure is None else ref.pressure.values[n])
    return streamed


def score(traj, ref, spec):
    """The error of ``traj`` in ``spec`` against the trajectory ``ref``,
    replayed through a ``StreamedReference``."""
    error = pressure_error if NORMS[spec.norm][0] == "pressure" else velocity_error
    return error(traj, replay(ref, [traj], [spec]), spec)


def record_fit(ks, errs, norm="pressure_L2l2"):
    """``ConvergenceRecord.fit`` over one row per ``(k, error)`` pair."""
    rec = ConvergenceRecord()
    for k, e in zip(ks, errs):
        rec.add(k, 0, 0.0, norm, e)
    return rec.fit(norm)


def test_fit_rate_exact_slopes():
    fit = record_fit([0.1, 0.01], [1e-2, 1e-4])
    assert fit.slope == pytest.approx(2.0, abs=1e-10)
    ks = np.array([0.2, 0.1, 0.05, 0.025])
    fit3 = record_fit(ks, 3.7 * ks ** 1.75)
    assert fit3.slope == pytest.approx(1.75, abs=1e-10)
    assert np.allclose(fit3.pairwise, 1.75, atol=1e-10)


def test_fit_rate_flat_errors():
    fit = record_fit([0.1, 0.05, 0.025], [3.0, 3.0, 3.0])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_reported_case_data():
    # weighted rows reported for the incompatible-data experiment
    ks = [0.02, 0.01, 0.005, 0.0025]
    errs = [1.86e-5, 5.07e-6, 1.44e-6, 4.06e-7]
    fit = record_fit(ks, errs)
    assert fit.slope == pytest.approx(1.84, abs=0.01)
    # row order does not reach the fit: rows in any order give the same bits
    shuffled = record_fit(ks[::-1][1:] + ks[-1:], errs[::-1][1:] + errs[-1:])
    assert shuffled.slope == fit.slope == fit_loglog(ks, errs).slope
    assert np.array_equal(shuffled.pairwise, fit.pairwise)


def test_fit_rate_rejects_bad_rows():
    with pytest.raises(ValueError):
        record_fit([0.1], [1.0])
    with pytest.raises(ValueError):
        record_fit([0.1, 0.05], [1.0, 0.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            record_fit([0.1, 0.05, 0.025], [1e-2, bad, 1e-4])
    rec = ConvergenceRecord()
    rec.add(0.1, 0, 0.0, "pressure_L2l2", 1e-3)
    rec.add(0.05, 0, 0.0, "pressure_L2l2", 2.5e-4)
    rec.add(0.05, 0, 0.0, "pressure_Linfl2", 1e-3)
    assert rec.fit("pressure_L2l2").slope == pytest.approx(2.0, abs=1e-10)
    with pytest.raises(ValueError):
        rec.fit("pressure_Linfl2")  # one row


def test_record_csv_layout():
    rec = ConvergenceRecord()
    rec.add(0.1, 1, 1.5, "pressure_L2l2", 1e-2)
    rec.add(0.05, 1, 1.5, "pressure_L2l2", 2.5e-3)
    text = rec.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "k,n0,alpha,norm,error,rate_pairwise"
    assert lines[1].startswith("0.1,1,1.5,pressure_L2l2,0.01,")
    assert lines[1].endswith(",")  # no pairwise rate on the first row
    assert lines[2].split(",")[-1] == repr(2.0)


def test_error_spec_validation():
    with pytest.raises(ValueError):
        ErrorSpec("bogus")
    for alpha in (-1.0, np.nan, np.inf):  # a NaN or infinite weight makes nan or 0.0
        with pytest.raises(ValueError):
            ErrorSpec("pressure_L2l2", alpha=alpha)


def test_identical_trajectories_zero_error():
    fine = build_uniform_mesh(1.0, 64)
    rng = np.random.default_rng(0)
    p = rng.standard_normal((64, 5))
    traj = synthetic_traj(fine, p)
    assert score(traj, traj, ErrorSpec("pressure_L2l2")) == 0.0
    assert score(traj, traj, ErrorSpec("pressure_Linfl2")) == 0.0


def test_pressure_error_synthetic_offset():
    # coarse pressure constant k on each interval vs zero reference
    fine = build_uniform_mesh(1.0, 64)
    coarse = build_uniform_mesh(1.0, 8)
    k = coarse.k_max
    traj = synthetic_traj(coarse, np.full((8, 3), k))
    ref = synthetic_traj(fine, np.zeros((64, 3)))
    spec = ErrorSpec("pressure_Linfl2")
    assert score(traj, ref, spec) == pytest.approx(np.sqrt(3) * k, rel=1e-12)
    spec2 = ErrorSpec("pressure_L2l2")
    assert score(traj, ref, spec2) == pytest.approx(np.sqrt(3) * k, rel=1e-12)


def test_midpoint_reconstruction_identity_at_anchors():
    mesh = build_alternating_mesh(1.0, 0.13, [0.8, 1.2])
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((mesh.num_intervals, 2))
    f = GridFunctionDG0(mesh, vals)
    got = midpoint_reconstruction(f, mesh.midpoints)
    assert np.allclose(got, vals, rtol=0, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1))
def test_midpoint_reconstruction_identity_on_random_meshes(steps, seed):
    # read at its own midpoints, a trajectory is reconstructed bit for bit
    mesh = TimeMesh(np.concatenate([[0.0], np.cumsum(steps)]))
    vals = np.random.default_rng(seed).standard_normal((mesh.num_intervals, 3))
    got = midpoint_reconstruction(GridFunctionDG0(mesh, vals), mesh.midpoints)
    assert np.array_equal(got, vals)


def test_midpoint_reconstruction_linear_exact():
    # anchors of a linear-in-time pressure reproduce the line everywhere,
    # including the extension zones beyond the outermost anchors
    mesh = build_uniform_mesh(1.0, 5)
    vals = (3.0 * mesh.midpoints - 1.0).reshape(-1, 1)
    f = GridFunctionDG0(mesh, vals)
    ts = np.array([0.02, 0.1, 0.33, 0.77, 0.98])
    assert np.allclose(midpoint_reconstruction(f, ts).ravel(), 3.0 * ts - 1.0,
                       rtol=1e-13)


def test_window_excludes_prefix():
    # values on the first coarse interval must not affect windowed errors
    fine = build_uniform_mesh(1.0, 64)
    coarse = build_uniform_mesh(1.0, 8)
    p1 = np.zeros((8, 2))
    p2 = np.zeros((8, 2))
    p2[0] = 77.0
    ref = synthetic_traj(fine, np.zeros((64, 2)))
    for norm in ("pressure_L2l2", "pressure_Linfl2"):
        spec = ErrorSpec(norm, alpha=1.5, window_start=1)
        e1 = score(synthetic_traj(coarse, p1), ref, spec)
        e2 = score(synthetic_traj(coarse, p2), ref, spec)
        # interpolation can leak only into samples below the second anchor,
        # which carry zero or first-interval weight; with the tau weight on
        # interval 1 equal to zero the windowed error cannot see p2[0]
        # except through the anchor segment between midpoints 1 and 2
        mask = fine.midpoints > coarse.nodes[1]
        weights = np.minimum(coarse.nodes[np.atleast_1d(
            coarse.interval_of(fine.midpoints[mask])) - 1], 1.0)
        assert e1 == 0.0
        # the leaked contribution is weighted by tau(I^2) = t_1
        assert e2 <= 77.0 * weights.max() + 1e-12


def test_zero_weight_intervals_contribute_nothing():
    fine = build_uniform_mesh(2.0, 32)
    coarse = build_uniform_mesh(2.0, 4)
    p = np.zeros((4, 1))
    p[0] = 5.0  # tau on I^1 is zero
    ref = synthetic_traj(fine, np.zeros((32, 1)))
    traj = synthetic_traj(coarse, p)
    spec = ErrorSpec("pressure_L2l2", alpha=2.0, window_start=0)
    # anchor interpolation reaches into I^2 where tau = t_1 = 0.5
    base = score(traj, ref, spec)
    spec_w1 = ErrorSpec("pressure_L2l2", alpha=2.0, window_start=1)
    windowed = score(traj, ref, spec_w1)
    assert windowed <= base


def test_norm_axioms_on_random_fields():
    fine = build_uniform_mesh(1.0, 48)
    coarse = build_uniform_mesh(1.0, 6)
    rng = np.random.default_rng(8)
    ref = synthetic_traj(fine, np.zeros((48, 4)))
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal((6, 4))
    for norm in ("pressure_L2l2", "pressure_Linfl2"):
        spec = ErrorSpec(norm)

        def err(vals):
            return score(synthetic_traj(coarse, vals), ref, spec)

        assert err(2.5 * a) == pytest.approx(2.5 * err(a), rel=1e-12)
        assert err(a + b) <= err(a) + err(b) + 1e-12 * (err(a) + err(b))


def test_pressure_error_scaling_linearity():
    fine = build_uniform_mesh(1.0, 32)
    coarse = build_uniform_mesh(1.0, 4)
    rng = np.random.default_rng(12)
    base = rng.standard_normal((4, 3))
    ref = synthetic_traj(fine, np.zeros((32, 3)))
    spec = ErrorSpec("pressure_L2l2")
    e1 = score(synthetic_traj(coarse, 1e-3 * base), ref, spec)
    e2 = score(synthetic_traj(coarse, 1e-6 * base), ref, spec)
    assert e1 / e2 == pytest.approx(1e3, rel=1e-9)


def test_empty_window_rejected():
    fine = build_uniform_mesh(1.0, 8)
    coarse = build_uniform_mesh(1.0, 2)
    ref = synthetic_traj(fine, np.zeros((8, 1)))
    traj = synthetic_traj(coarse, np.zeros((2, 1)))
    with pytest.raises(ValueError):
        score(traj, ref, ErrorSpec("pressure_L2l2", window_start=2))


def test_error_functions_reject_a_norm_of_the_other_field():
    fine = build_uniform_mesh(1.0, 16)
    ref = synthetic_traj(fine, np.zeros((16, 1)))
    traj = synthetic_traj(build_uniform_mesh(1.0, 4), np.ones((4, 1)))
    specs = [ErrorSpec("pressure_L2l2"), ErrorSpec("velocity_LinfV1")]
    streamed = replay(ref, [traj], specs)
    with pytest.raises(ValueError, match="velocity_LinfV1 is not a pressure norm"):
        pressure_error(traj, streamed, specs[1])
    with pytest.raises(ValueError, match="pressure_L2l2 is not a velocity norm"):
        velocity_error(traj, streamed, specs[0])
    assert pressure_error(traj, streamed, specs[0]) == streamed.error(traj, specs[0])


def test_nonuniform_reference_rejected(small_space):
    # the midpoint rule weights every reference sample with the first step,
    # so a pressure norm rejects the mesh before any interval is observed
    fine = build_alternating_mesh(1.0, 1.0 / 64, [0.8, 1.2])
    coarse = build_uniform_mesh(1.0, 8)
    traj = synthetic_traj(coarse, np.ones((8, small_space.num_pressure)),
                          np.ones((9, small_space.num_velocity)), small_space)
    with pytest.raises(ValueError, match="uniform"):
        StreamedReference(fine, small_space, [traj], [ErrorSpec("pressure_L2l2")])
    # velocity norms sample the reference nodes, on any mesh
    StreamedReference(fine, small_space, [traj], [ErrorSpec("velocity_LinfV1")])


def test_mismatched_spaces_rejected():
    fine = build_uniform_mesh(1.0, 32)
    coarse = build_uniform_mesh(1.0, 4)
    ref = synthetic_traj(fine, np.zeros((32, 3)))
    traj = synthetic_traj(coarse, np.zeros((4, 2)))
    with pytest.raises(ValueError, match="reference pressure has 3 coefficients, "
                                         "the trajectory stores 2"):
        score(traj, replace(ref, space=None), ErrorSpec("pressure_L2l2"))


def test_velocity_error_requires_space():
    fine = build_uniform_mesh(1.0, 32)
    traj = replace(synthetic_traj(fine, np.zeros((32, 2))), space=None)
    with pytest.raises(ValueError, match="need a trajectory with a spatial space"):
        score(traj, traj, ErrorSpec("velocity_LinfV1"))


@pytest.mark.parametrize("norm", ["pressure_L2l2", "velocity_LinfV1"])
def test_missing_field_is_named(small_space, norm):
    space, field = small_space, NORMS[norm][0]
    other = "velocity" if field == "pressure" else "pressure"

    def zero_traj(mesh):
        return synthetic_traj(mesh, np.zeros((mesh.num_intervals, space.num_pressure)),
                              np.zeros((mesh.num_intervals + 1, space.num_velocity)), space)

    traj, ref = zero_traj(build_uniform_mesh(1.0, 4)), zero_traj(build_uniform_mesh(1.0, 16))
    spec = ErrorSpec(norm)
    with pytest.raises(ValueError, match=f"the trajectory did not store the {field}"):
        score(replace(traj, **{field: None}), ref, spec)
    with pytest.raises(ValueError, match=f"the reference gave no {field}"):
        score(traj, replace(ref, **{field: None}), spec)
    # the field the norm does not read may be missing on both sides
    assert score(replace(traj, **{other: None}), replace(ref, **{other: None}), spec) == 0.0


def test_velocity_errors_on_space(small_space):
    space = small_space
    fine = build_uniform_mesh(1.0, 16)
    coarse = build_uniform_mesh(1.0, 4)
    base = space.interpolate_velocity(lambda x, y: (np.sin(x) * y, np.cos(y) * x))
    rng = np.random.default_rng(19)

    def traj_on(mesh, scale):
        vals = np.outer(np.linspace(0, scale, mesh.num_intervals + 1), base)
        p = np.zeros((mesh.num_intervals, space.num_pressure))
        return synthetic_traj(mesh, p, vals, space)

    ref = traj_on(fine, 1.0)
    same = traj_on(coarse, 1.0)
    spec = ErrorSpec("velocity_LinfV1")
    assert score(same, ref, spec) == pytest.approx(0.0, abs=1e-12)
    e1 = score(traj_on(coarse, 1.0 + 1e-3), ref, spec)
    e2 = score(traj_on(coarse, 1.0 + 1e-6), ref, spec)
    assert e1 / e2 == pytest.approx(1e3, rel=1e-6)


def test_velocity_linf_is_the_node_by_node_formula_bitwise(small_space):
    # more reference nodes than one evaluation block, with and without a window
    space = small_space
    fine, coarse = build_uniform_mesh(1.0, 600), build_alternating_mesh(1.0, 0.1, (0.8, 1.2))
    rng = np.random.default_rng(29)
    ref = synthetic_traj(fine, np.zeros((600, space.num_pressure)),
                         rng.standard_normal((601, space.num_velocity)), space)
    traj = synthetic_traj(coarse, np.zeros((coarse.num_intervals, space.num_pressure)),
                          rng.standard_normal((coarse.num_intervals + 1, space.num_velocity)),
                          space)
    S = space.stiffness
    for window_start, alpha in ((0, 0.0), (3, 1.5)):
        mask = fine.nodes > coarse.nodes[window_start]
        ts = fine.nodes[mask]
        d = [traj.velocity.evaluate(t) - r for t, r in zip(ts, ref.velocity.values[mask])]
        q = np.sqrt([x @ (S @ x) for x in d])
        w = coarse.tau_values(alpha)[coarse.interval_of(ts) - 1]
        got = score(traj, ref, ErrorSpec("velocity_LinfV1", alpha, window_start))
        assert np.float64(got).tobytes() == np.max(w * q).tobytes()


def test_pressure_norms_are_the_sample_by_sample_formula_bitwise(small_space):
    # more reference midpoints than one evaluation block, with and without a
    # window and weight, for each pressure norm on the Taylor-Hood space and
    # on the Euclidean space of as many coefficients
    space = small_space
    fine, coarse = build_uniform_mesh(1.0, 600), build_alternating_mesh(1.0, 0.1, (0.8, 1.2))
    rng = np.random.default_rng(31)
    ref = synthetic_traj(fine, rng.standard_normal((600, space.num_pressure)), space=space)
    traj = synthetic_traj(coarse, rng.standard_normal((coarse.num_intervals,
                                                       space.num_pressure)), space=space)
    Mp, k0 = space.pressure_mass, fine.steps[0]
    for window_start, alpha in ((0, 0.0), (3, 1.5)):
        mask = fine.midpoints > coarse.nodes[window_start]
        ts = fine.midpoints[mask]
        d = [midpoint_reconstruction(traj.pressure, [t])[0] - r
             for t, r in zip(ts, ref.pressure.values[mask])]
        w = coarse.tau_values(alpha)[coarse.interval_of(ts) - 1]
        for on, q in ((space, np.sqrt([x @ (Mp @ x) for x in d])),
                      (euclidean_space(space.num_pressure), np.sqrt([np.dot(x, x) for x in d]))):
            for norm, want in (("pressure_L2l2", np.sqrt(np.sum(k0 * (w * q) ** 2))),
                               ("pressure_Linfl2", np.max(w * q))):
                got = score(replace(traj, space=on), replace(ref, space=on),
                            ErrorSpec(norm, alpha, window_start))
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_streamed_reference_gives_the_stored_reference_bits(small_space):
    # a 300-interval Stokes reference spans several blocks; the weighted
    # window of the coarse runs starts inside the first one
    spec = ProblemSpec(small_space, 0.01, SeparableForcing(
        lambda t: t * t * np.exp(-t), lambda x, y: (np.cos(x) * y, np.sin(y) * x)), None, 0.3)
    fine = build_uniform_mesh(0.3, 300)
    runs = [stokes_cn_solve(spec, build_alternating_mesh(0.3, k, (0.8, 1.2)))
            for k in (0.02, 0.01)]
    assert fine.num_intervals > 2 * _NODE_BLOCK
    assert 0 < np.searchsorted(fine.midpoints, runs[0].mesh.nodes[1]) < _NODE_BLOCK
    specs = [ErrorSpec(norm, alpha, window_start)
             for norm in NORMS for alpha, window_start in ((0.0, 0), (2.0, 1))]
    streamed = StreamedReference(fine, small_space, runs, specs)
    with pytest.raises(ValueError, match="ended before the window"):
        pressure_error(runs[0], streamed, specs[0])
    bare = reference_solve(spec, fine, "stokes", fields=(), observer=streamed.observe)
    stored = reference_solve(spec, fine, "stokes")
    assert bare.velocity is None and bare.pressure is None
    replayed = replay(stored, runs, specs)
    for run in runs:
        for es in specs:
            error = pressure_error if NORMS[es.norm][0] == "pressure" else velocity_error
            got, want = error(run, streamed, es), error(run, replayed, es)
            assert got > 0.0
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), es
    with pytest.raises(ValueError, match="did not score"):
        pressure_error(runs[0], streamed, ErrorSpec("pressure_L2l2", alpha=1.0))


def test_streamed_reference_keeps_its_runs_alive(small_space):
    # samples are keyed by the run itself, by identity, so the reference
    # keeps every run it scores alive
    coarse = build_uniform_mesh(1.0, 10)
    run = synthetic_traj(coarse, np.zeros((10, small_space.num_pressure)), space=small_space)
    alive = weakref.ref(run)
    streamed = StreamedReference(build_uniform_mesh(1.0, 40), small_space, [run],
                                 [ErrorSpec("pressure_L2l2")])
    del run
    gc.collect()
    assert alive() is not None
    # found, though not yet observed
    with pytest.raises(ValueError, match="ended before the window"):
        pressure_error(alive(), streamed, ErrorSpec("pressure_L2l2"))


def test_rate_fit_csv_row():
    fit = fit_loglog([0.1, 0.05], [1e-2, 2.5e-3])
    row = fit.csv_row()
    slope, pairwise = row.split(",")
    assert float(slope) == pytest.approx(2.0, abs=1e-10)
    assert float(pairwise) == pytest.approx(2.0, abs=1e-10)
