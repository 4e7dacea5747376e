import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnflow.errors import fit_loglog
from cnflow.temporal_ops import (
    GridFunctionCG1,
    GridFunctionDG0,
    average,
    interpolate_nodal,
    interval_average,
    midpoint_sample,
    time_derivative,
    weighted_temporal_norm,
)
from cnflow.time_mesh import TimeMesh, build_uniform_mesh


def scalar(fn):
    return lambda t: np.asarray(fn(t))[..., None]


def dense_sup_error(fn, grid_fn, mesh, samples=400):
    worst = 0.0
    for n in range(mesh.num_intervals):
        ts = np.linspace(mesh.nodes[n], mesh.nodes[n + 1], samples)
        vals = np.array([grid_fn.evaluate(t)[0] for t in ts])
        worst = max(worst, np.max(np.abs(fn(ts) - vals)))
    return worst


def test_interpolation_exact_for_linear():
    mesh = build_uniform_mesh(1.0, 3)
    iu = interpolate_nodal(scalar(lambda t: t), mesh)
    for t in (0.0, 0.2, 0.5, 0.9, 1.0):
        assert iu.evaluate(t)[0] == pytest.approx(t, abs=1e-15)


def test_interpolation_quadratic_midpoint_error():
    mesh = build_uniform_mesh(1.0, 1)
    iu = interpolate_nodal(scalar(lambda t: t * t), mesh)
    assert abs(iu.evaluate(0.5)[0] - 0.25) == pytest.approx(0.25, abs=1e-15)


def test_interpolation_second_order_ratio():
    errs = []
    for N in (16, 32):
        mesh = build_uniform_mesh(2.0, N)
        iu = interpolate_nodal(scalar(np.sin), mesh)
        errs.append(dense_sup_error(np.sin, iu, mesh))
    assert 3.7 <= errs[0] / errs[1] <= 4.3


def test_average_linear():
    mesh = build_uniform_mesh(1.0, 2)
    au = average(scalar(lambda t: t), mesh)
    assert au.values[1, 0] == pytest.approx(0.75, abs=1e-14)  # interval (0.5, 1]


def test_average_quadratic_exact():
    mesh = build_uniform_mesh(1.0, 1)
    au = average(scalar(lambda t: t * t), mesh)
    assert au.values[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_average_of_cg1_is_endpoint_mean():
    mesh = build_uniform_mesh(1.0, 1)
    u = GridFunctionCG1(mesh, np.array([[0.0], [2.0]]))
    assert average(u).values[0, 0] == 1.0


def test_average_requires_enough_points():
    mesh = build_uniform_mesh(1.0, 1)
    with pytest.raises(ValueError):
        average(scalar(np.sin), mesh, quadrature_order=2)


def test_average_idempotent():
    mesh = build_uniform_mesh(1.5, 5)
    au = average(scalar(np.exp), mesh)
    again = average(au)
    assert np.array_equal(au.values, again.values)


def test_midpoint_sample_values():
    mesh = build_uniform_mesh(1.0, 2)
    mu = midpoint_sample(scalar(lambda t: t), mesh)
    assert mu.values[1, 0] == pytest.approx(0.75, abs=1e-15)
    single = build_uniform_mesh(1.0, 1)
    m2 = midpoint_sample(scalar(lambda t: t * t), single)
    a2 = average(scalar(lambda t: t * t), single)
    assert m2.values[0, 0] == pytest.approx(0.25, abs=1e-15)
    # a_k - m_k = 1/3 - 1/4 = k^2 / 12 with k = 1
    assert a2.values[0, 0] - m2.values[0, 0] == pytest.approx(1.0 / 12.0, abs=1e-14)


def test_average_midpoint_gap_second_order():
    errs = []
    for N in (16, 32):
        mesh = build_uniform_mesh(2.0, N)
        gap = average(scalar(np.exp), mesh).values - midpoint_sample(scalar(np.exp), mesh).values
        errs.append(np.max(np.abs(gap)))
    assert 3.7 <= errs[0] / errs[1] <= 4.3


def test_operator_orders():
    """Fitted log-log orders of the three projections for u = sin t."""
    ks, e_i, e_am, e_ai = [], [], [], []
    u = scalar(np.sin)
    for N in (16, 32, 64):
        mesh = build_uniform_mesh(2.0, N)
        ks.append(mesh.k_max)
        iu = interpolate_nodal(u, mesh)
        e_i.append(dense_sup_error(np.sin, iu, mesh))
        gap = average(u, mesh).values - midpoint_sample(u, mesh).values
        e_am.append(np.max(np.abs(gap)))
        aiu = average(iu)
        worst = 0.0
        for n in range(mesh.num_intervals):
            ts = np.linspace(mesh.nodes[n], mesh.nodes[n + 1], 200)
            worst = max(worst, np.max(np.abs(np.sin(ts) - aiu.values[n, 0])))
        e_ai.append(worst)
    assert abs(fit_loglog(ks, e_i).slope - 2.0) <= 0.15
    assert abs(fit_loglog(ks, e_am).slope - 2.0) <= 0.15
    assert abs(fit_loglog(ks, e_ai).slope - 1.0) <= 0.15


def trig_callable(amps, freqs, phases):
    """Vector-valued trigonometric time callable, array-valued in time."""
    def u(t):
        t = np.asarray(t)[..., None]
        return sum(a * np.cos(f * t + p) for a, f, p in zip(amps, freqs, phases))
    return u


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12),
       dim=st.integers(1, 4), terms=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_projections_match_per_interval_oracle(steps, dim, terms, seed):
    # one call per quadrature point on all intervals gives bitwise the
    # values of one scalar-bound call per interval and one call per node
    mesh = TimeMesh(np.concatenate([[0.0], np.cumsum(steps)]))
    rng = np.random.default_rng(seed)
    u = trig_callable(rng.standard_normal((terms, dim)), rng.uniform(0.0, 10.0, terms),
                      rng.uniform(0.0, 2.0 * np.pi, terms))
    for order in (3, 6):
        oracle = np.stack([interval_average(u, a, b, order)
                           for a, b in zip(mesh.nodes[:-1], mesh.nodes[1:])])
        assert np.array_equal(average(u, mesh, order).values, oracle)
    assert np.array_equal(interpolate_nodal(u, mesh).values,
                          np.stack([u(t) for t in mesh.nodes]))
    assert np.array_equal(midpoint_sample(u, mesh).values,
                          np.stack([u(t) for t in mesh.midpoints]))


@pytest.mark.parametrize("op", [interpolate_nodal, average, midpoint_sample])
@pytest.mark.parametrize("u", [lambda t: 1.0, lambda t: np.array([t, 2 * t])],
                         ids=["constant", "per-time"])
def test_time_callable_must_be_array_valued(op, u):
    # a per-time callable handed an array of times returns a block whose
    # leading axis is not the time axis
    with pytest.raises(ValueError, match="time callable"):
        op(u, build_uniform_mesh(1.0, 5))


def test_mean_derivative_of_interpolation_error_vanishes():
    # per-interval mean of d/dt (u - i_k u) is zero since the error
    # vanishes at the nodes
    mesh = build_uniform_mesh(2.0, 6)
    u = scalar(lambda t: np.cos(1.3 * t) + t * t)
    du = scalar(lambda t: -1.3 * np.sin(1.3 * t) + 2 * t)
    iu = interpolate_nodal(u, mesh)
    mean_du = average(du, mesh, quadrature_order=6).values
    mean_dik = time_derivative(iu).values
    assert np.max(np.abs(mean_du - mean_dik)) < 1e-12


def test_dg0_right_continuous_evaluation():
    mesh = build_uniform_mesh(1.0, 4)
    f = GridFunctionDG0(mesh, np.arange(4.0).reshape(-1, 1))
    assert f.evaluate(0.25)[0] == 0.0   # t_1 belongs to I^1
    assert f.evaluate(0.2500001)[0] == 1.0
    assert f.evaluate(1.0)[0] == 3.0


def euclid(v):
    """Row-wise Euclidean norm: one norm per row of a block."""
    return np.sqrt(np.sum(v * v, axis=-1))


def test_weighted_norm_constant_dg0():
    mesh = build_uniform_mesh(2.0, 5)
    f = GridFunctionDG0(mesh, np.ones((5, 1)))
    assert weighted_temporal_norm(f, 0.0, 2, euclid) == pytest.approx(np.sqrt(2.0), rel=1e-14)
    assert weighted_temporal_norm(f, 1.5, np.inf, euclid) == pytest.approx(1.0, rel=1e-14)


def test_weighted_norm_two_interval_example():
    mesh = build_uniform_mesh(2.0, 2)
    f = GridFunctionDG0(mesh, np.ones((2, 1)))
    # first interval weight 0, second k=1 weight min(t_1,1)=1
    assert weighted_temporal_norm(f, 1.0, 2, euclid) == pytest.approx(1.0, rel=1e-14)


def test_weighted_norm_window_and_errors():
    mesh = build_uniform_mesh(1.0, 4)
    f = GridFunctionDG0(mesh, np.ones((4, 1)))
    full = weighted_temporal_norm(f, 0.0, 2, euclid)
    half = weighted_temporal_norm(f, 0.0, 2, euclid, window=(2, 4))
    assert half == pytest.approx(np.sqrt(0.5), rel=1e-14)
    assert full == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        weighted_temporal_norm(f, 0.0, 2, euclid, window=(3, 3))
    with pytest.raises(ValueError):
        weighted_temporal_norm(f, 0.0, 3, euclid)


def test_weight_transparency_exact():
    # multiplying a scalar dG0 function by the weight values equals
    # weighting the norm, exactly in floating point
    mesh = build_uniform_mesh(2.0, 8)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((8, 1))
    f = GridFunctionDG0(mesh, vals)
    alpha = 1.5
    fw = GridFunctionDG0(mesh, vals * mesh.tau_values(alpha)[:, None])
    for p in (2, np.inf):
        assert (weighted_temporal_norm(fw, 0.0, p, lambda v: np.abs(v[:, 0]))
                == weighted_temporal_norm(f, alpha, p, lambda v: np.abs(v[:, 0])))


def test_weighted_norm_cg1_exact_quadrature():
    # squared euclidean norm of an affine interpolant is quadratic in t:
    # the two-point Gauss composition must integrate it exactly
    mesh = build_uniform_mesh(1.0, 3)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((4, 2))
    f = GridFunctionCG1(mesh, vals)
    got = weighted_temporal_norm(f, 0.0, 2, euclid)
    acc = 0.0
    for n in range(3):
        a, b = vals[n], vals[n + 1]
        # int_0^1 |(1-s) a + s b|^2 ds = (|a|^2 + a.b + |b|^2) / 3
        acc += mesh.steps[n] * (a @ a + a @ b + b @ b) / 3.0
    assert got == pytest.approx(np.sqrt(acc), rel=1e-13)


def test_weighted_norm_cg1_sup_at_endpoints():
    mesh = build_uniform_mesh(1.0, 2)
    f = GridFunctionCG1(mesh, np.array([[1.0], [-3.0], [2.0]]))
    assert weighted_temporal_norm(f, 0.0, np.inf, euclid) == 3.0


def test_cg1_evaluate_array_matches_scalar():
    mesh = build_uniform_mesh(1.3, 5)
    rng = np.random.default_rng(11)
    f = GridFunctionCG1(mesh, rng.standard_normal((6, 3)))
    ts = np.array([0.0, 0.13, 0.26, 0.5, 0.99, 1.3])
    many = f.evaluate(ts)
    assert many.shape == (6, 3)
    for t, row in zip(ts, many):
        assert np.array_equal(row, f.evaluate(t))
    # at the nodes the interpolant returns the stored values exactly
    assert np.array_equal(f.evaluate(mesh.nodes), f.values)
    scalar_valued = GridFunctionCG1(mesh, f.values[:, 0])
    assert np.array_equal(scalar_valued.evaluate(ts), many[:, 0])


def test_cg1_sup_norm_propagates_nan():
    mesh = build_uniform_mesh(1.0, 3)
    f = GridFunctionCG1(mesh, np.array([[1.0], [np.nan], [2.0], [0.5]]))
    assert np.isnan(weighted_temporal_norm(f, 0.0, np.inf, euclid))


def test_spatial_norm_must_be_row_wise():
    # a per-vector norm handed a block would sum all rows into one number
    mesh = build_uniform_mesh(1.0, 4)

    def block_norm(v):
        return float(np.sqrt(np.sum(v * v)))

    for f in (GridFunctionDG0(mesh, np.ones((4, 2))), GridFunctionCG1(mesh, np.ones((5, 2)))):
        for p in (2, np.inf):
            with pytest.raises(ValueError, match="one norm per row"):
                weighted_temporal_norm(f, 0.0, p, block_norm)


@st.composite
def meshes(draw, max_intervals=8):
    """Random non-uniform meshes: steps varying by up to a factor of 10."""
    steps = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=max_intervals))
    T = draw(st.floats(0.5, 3.0))
    return TimeMesh(np.concatenate([[0.0], np.cumsum(steps)]) * (T / sum(steps)))


@settings(max_examples=40, deadline=None)
@given(mesh=meshes(), kind=st.sampled_from(["dg0", "cg1"]), p=st.sampled_from([2, np.inf]),
       alpha=st.sampled_from([0.0, 0.5, 1.5]),
       c=st.floats(-5.0, 5.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-3),
       seed=st.integers(0, 2**32 - 1))
def test_weighted_norm_axioms(mesh, kind, p, alpha, c, seed):
    rng = np.random.default_rng(seed)
    cls, rows = ((GridFunctionDG0, mesh.num_intervals) if kind == "dg0"
                 else (GridFunctionCG1, mesh.num_intervals + 1))
    a, b = rng.standard_normal((2, rows, 3))

    def norm(vals):
        return weighted_temporal_norm(cls(mesh, vals), alpha, p, euclid)

    assert norm(c * a) == pytest.approx(abs(c) * norm(a), rel=1e-13, abs=1e-300)
    assert norm(a + b) <= (norm(a) + norm(b)) * (1.0 + 1e-13)


@settings(max_examples=40, deadline=None)
@given(mesh=meshes(), seed=st.integers(0, 2**32 - 1))
def test_cg1_l2_norm_matches_closed_form(mesh, seed):
    # int_0^1 |(1-s) a + s b|^2 ds = (a.a + a.b + b.b) / 3 on every interval
    vals = np.random.default_rng(seed).standard_normal((mesh.num_intervals + 1, 2))
    a, b = vals[:-1], vals[1:]
    exact = np.sum(mesh.steps * np.sum(a * a + a * b + b * b, axis=1) / 3.0)
    got = weighted_temporal_norm(GridFunctionCG1(mesh, vals), 0.0, 2, euclid)
    assert got == pytest.approx(np.sqrt(exact), rel=1e-13)
