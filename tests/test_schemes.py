import gc
import tracemalloc
import weakref
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cnflow import fem2d, schemes
from cnflow.fem2d import BorderedSaddle, FemMesh2D, SolverError, TaylorHoodSpace
from cnflow.schemes import (
    GeneralForcing,
    NewtonError,
    ProblemSpec,
    SeparableForcing,
    StationaryInitialData,
    ZeroForcing,
    _march,
    _newton,
    nse_cn_solve,
    reference_solve,
    stationary_nse_solve,
    stationary_stokes_solve,
    stokes_cn_solve,
    transient_solve,
)
from cnflow.time_mesh import build_alternating_mesh, build_uniform_mesh


def ramp_forcing(eps=1.0):
    return SeparableForcing(lambda t: eps * t * t * np.exp(-t),
                            lambda x, y: (np.cos(x) * y, np.sin(y) * x))


def test_zero_data_zero_trajectory(medium_space):
    spec = ProblemSpec(medium_space, 0.01, ZeroForcing(), None, 0.5)
    mesh = build_uniform_mesh(0.5, 4)
    for traj in (stokes_cn_solve(spec, mesh), nse_cn_solve(spec, mesh)):
        assert np.max(np.abs(traj.velocity.values)) == 0.0
        assert np.max(np.abs(traj.pressure.values)) == 0.0


def test_scheme_tags_contract(medium_space):
    spec = ProblemSpec(medium_space, 0.01, ramp_forcing(), None, 0.5)
    mesh = build_uniform_mesh(0.5, 6)
    traj = stokes_cn_solve(spec, mesh, n0=2)
    assert traj.scheme_tags == ["IE", "IE", "CN", "CN", "CN", "CN"]
    with pytest.raises(ValueError):
        stokes_cn_solve(spec, mesh, n0=6)


def step_residuals(space, traj, spec, convective=False):
    """Residuals of the per-interval defining equations of the scheme."""
    M, A, B = space.mass, space.stiffness, space.divergence
    nu = spec.viscosity
    mesh = traj.mesh
    out = []
    for n in range(mesh.num_intervals):
        k = mesh.steps[n]
        u0, u1 = traj.velocity.values[n], traj.velocity.values[n + 1]
        p = traj.pressure.values[n]
        F = spec.forcing.load_integral(space, mesh.nodes[n], mesh.nodes[n + 1])
        if traj.scheme_tags[n] == "IE":
            r = M @ (u1 - u0) + k * nu * (A @ u1) - k * (B.T @ p) - F
            if convective:
                r += k * space.convection_apply(u1, u1)
        else:
            w = u1 + u0
            r = M @ (u1 - u0) + 0.5 * k * nu * (A @ w) - k * (B.T @ p) - F
            if convective:
                r += 0.25 * k * space.convection_apply(w, w)
        rin = r[space.interior_velocity]
        div = B @ u1
        out.append(float(np.sqrt(rin @ rin + div @ div)))
    return np.array(out)


def test_stokes_steps_satisfy_scheme_equations(medium_space):
    spec = ProblemSpec(medium_space, 0.01, ramp_forcing(), None, 0.5)
    mesh = build_alternating_mesh(0.5, 0.1, [0.8, 1.2])
    traj = stokes_cn_solve(spec, mesh, n0=2)
    assert np.max(step_residuals(medium_space, traj, spec)) < 1e-10
    assert traj.newton_iterations is None


def test_nse_steps_satisfy_scheme_equations(medium_space):
    u0 = stationary_stokes_solve(
        medium_space, 0.01, lambda x, y: (np.sin(x) * y, np.cos(y) * x)).velocity
    spec = ProblemSpec(medium_space, 0.01, ramp_forcing(), u0, 0.5)
    mesh = build_alternating_mesh(0.5, 0.1, [0.8, 1.2])
    traj = nse_cn_solve(spec, mesh, n0=2)
    assert np.max(step_residuals(medium_space, traj, spec, convective=True)) < 1e-10
    assert traj.newton_iterations.shape == (mesh.num_intervals,)
    assert traj.newton_iterations.min() >= 1
    # dropping the convection term must leave a visibly larger residual,
    # on the fully implicit Euler prefix as well as on the averaged-form
    # intervals
    wrong = step_residuals(medium_space, traj, spec, convective=False)
    assert np.min(wrong) > 1e-8


def explicit_stokes_solve(spec, mesh, n0):
    """Stokes stepping with the implicit-Euler and Crank-Nicolson operators
    written out one by one: the bitwise reference of the theta table."""
    space, nu = spec.space, spec.viscosity
    M, A = space.mass, space.stiffness

    def advance(scheme, k, F, u, P, label, slot):
        if not slot:
            if scheme == "IE":
                K, K_exp = (M + k * nu * A).tocsr(), M
            else:
                half = 0.5 * k * nu
                K, K_exp = (M + half * A).tocsr(), (M - half * A).tocsr()
            slot["factors"] = (BorderedSaddle(space, K), K, K_exp)
        saddle, K, K_exp = slot["factors"]
        state = saddle.solve(F + K_exp @ u, K)
        return state.velocity, state.pressure

    return _march(spec, mesh, n0, "stokes", advance)


def explicit_nse_solve(spec, mesh, n0):
    """Navier-Stokes stepping with the implicit-Euler and Crank-Nicolson
    residuals and Jacobians written out one by one, the bitwise reference of
    the theta table; also returns the Newton iteration count of each interval."""
    space, nu = spec.space, spec.viscosity
    M, A, BT = space.mass, space.stiffness, space.divergence_transpose
    iterations = []

    def advance(scheme, k, F, u_prev, P, label, slot):
        if scheme == "IE":
            coef_nl, coef_visc = k, k * nu
        else:
            coef_nl, coef_visc = 0.25 * k, 0.5 * k * nu
        if "linear" not in slot:
            slot["linear"] = (M + coef_visc * A).tocsr()
        K_lin = slot["linear"]

        def momentum(U, P):
            w = U if scheme == "IE" else U + u_prev
            nl = space.convection_apply(w, w)
            if scheme == "IE":
                r = M @ (U - u_prev) + k * nu * (A @ U) + k * nl - BT @ P - F
            else:
                r = (M @ (U - u_prev) + 0.5 * k * nu * (A @ (U + u_prev))
                     + 0.25 * k * nl - BT @ P - F)
            return r, w

        def jacobian(w):
            return (K_lin + coef_nl * (space.convection(w)
                                       + space.convection_gradient(w))).tocsr()

        state, its = _newton(space, momentum, jacobian, u_prev.copy(), P.copy(),
                             schemes.NEWTON_TOLERANCE * min(1.0, k), label, slot)
        iterations.append(its)
        return state.velocity, state.pressure

    return _march(spec, mesh, n0, "nse", advance), iterations


def assert_same_bytes(a, b):
    assert a.scheme_tags == b.scheme_tags
    assert a.velocity.values.tobytes() == b.velocity.values.tobytes()
    assert a.pressure.values.tobytes() == b.pressure.values.tobytes()


def test_theta_table_matches_explicit_stokes_steps(small_space):
    spec = ProblemSpec(small_space, 0.01, ramp_forcing(), None, 0.5)
    mesh = build_alternating_mesh(0.5, 0.1, [0.8, 1.2])
    assert_same_bytes(stokes_cn_solve(spec, mesh, n0=2), explicit_stokes_solve(spec, mesh, 2))


def test_theta_table_matches_explicit_nse_steps(small_space):
    # initial velocity of size 3: the convection moves every Newton step
    u0 = stationary_stokes_solve(
        small_space, 0.01, lambda x, y: (np.sin(x) * y, np.cos(y) * x)).velocity
    spec = ProblemSpec(small_space, 0.01, ramp_forcing(), u0, 0.5)
    mesh = build_alternating_mesh(0.5, 0.1, [0.8, 1.2])
    traj = nse_cn_solve(spec, mesh, n0=2)
    explicit, iterations = explicit_nse_solve(spec, mesh, 2)
    assert_same_bytes(traj, explicit)
    assert traj.newton_iterations.tolist() == iterations
    assert traj.scheme_tags[:3] == ["IE", "IE", "CN"] and min(iterations) >= 1


def test_stokes_energy_decay_unforced(medium_space):
    rng = np.random.default_rng(23)
    u0 = np.zeros(medium_space.num_velocity)
    idx = medium_space.interior_velocity
    u0[idx] = rng.standard_normal(idx.size)
    # project onto the discretely divergence-free subspace first
    M = medium_space.mass
    state = BorderedSaddle(medium_space, M).solve(M @ u0, M)
    u0 = state.velocity
    spec = ProblemSpec(medium_space, 0.01, ZeroForcing(), u0, 1.0)
    traj = stokes_cn_solve(spec, build_uniform_mesh(1.0, 10))
    energies = [v @ (M @ v) for v in traj.velocity.values]
    assert np.all(np.diff(energies) <= 1e-13)


def test_stokes_converges_to_stationary(medium_space):
    # time-constant forcing: the transient solution approaches the
    # stationary solve and the distance decreases monotonically from u0=0
    space = medium_space
    f0 = lambda x, y: (np.sin(x + y), np.cos(x) * y)
    forcing = SeparableForcing(lambda t: 1.0, f0)
    stat = stationary_stokes_solve(space, 0.5, f0)
    spec = ProblemSpec(space, 0.5, forcing, None, 8.0)
    traj = stokes_cn_solve(spec, build_uniform_mesh(8.0, 40))
    M = space.mass
    dist = [np.sqrt((v - stat.velocity) @ (M @ (v - stat.velocity)))
            for v in traj.velocity.values]
    assert dist[-1] <= dist[0] * 1e-3
    assert dist[-1] <= dist[0]


def test_hybrid_with_zero_prefix_matches_plain_cn(medium_space):
    spec = ProblemSpec(medium_space, 0.01, ramp_forcing(), None, 0.5)
    mesh = build_uniform_mesh(0.5, 5)
    a = nse_cn_solve(spec, mesh, n0=0)
    b = nse_cn_solve(spec, mesh, n0=0)
    assert np.array_equal(a.velocity.values, b.velocity.values)
    assert np.array_equal(a.pressure.values, b.pressure.values)


def test_newton_converges_immediately_for_zero_problem(medium_space):
    spec = ProblemSpec(medium_space, 0.01, ZeroForcing(), None, 0.5)
    traj = nse_cn_solve(spec, build_uniform_mesh(0.5, 3))
    assert np.max(np.abs(traj.velocity.values)) == 0.0
    assert traj.newton_iterations.tolist() == [0, 0, 0]


def test_newton_failure_carries_step_info(medium_space, monkeypatch):
    monkeypatch.setattr(schemes, "NEWTON_MAX_ITERATIONS", 1)
    spec = ProblemSpec(medium_space, 0.01, ramp_forcing(), None, 0.5)
    # the ramp forcing is inactive on the first interval only
    with pytest.raises(NewtonError) as err:
        nse_cn_solve(spec, build_uniform_mesh(0.5, 2))
    assert err.value.step is not None
    assert err.value.residual is not None


def test_stokes_factorization_failure_names_its_step(small_space):
    spec = ProblemSpec(small_space, 0.01, ramp_forcing(), None, 0.5)

    def singular(system):
        raise RuntimeError("Factor is exactly singular")

    with mock.patch.object(fem2d, "splu", singular):
        with pytest.raises(SolverError) as err:
            stokes_cn_solve(spec, build_uniform_mesh(0.5, 2))
    assert str(err.value).startswith("step 1: saddle-point factorization failed")


@contextmanager
def counted_lu_solves():
    """Counts the ``lu.solve`` calls of every factorization built inside."""
    count = [0]
    factorize = fem2d.splu

    class CountedLU:
        def __init__(self, system):
            self.lu = factorize(system)

        def solve(self, rhs):
            count[0] += 1
            return self.lu.solve(rhs)

    with mock.patch.object(fem2d, "splu", CountedLU):
        yield count


def linear_newton_problem(space):
    """Momentum ``K U - B^T P - F`` with its exact Jacobian ``K``, and a
    ``frozen`` slot seeded with the wrong factorization of ``10 K``: its
    update leaves 90% of the residual, so ``_newton`` must reject it."""
    K = (space.mass + 0.1 * space.stiffness).tocsr()
    F = space.velocity_load(lambda x, y: (np.cos(x) * y, np.sin(y) * x))
    BT = space.divergence_transpose

    def momentum(U, P):
        return K @ U - BT @ P - F, None

    zero = (np.zeros(space.num_velocity), np.zeros(space.num_pressure))
    return momentum, lambda _: K, zero, {"jacobian": BorderedSaddle(space, 10 * K)}


def test_newton_iteration_cap_bounds_linear_solves(small_space, monkeypatch):
    # a rejected reused update spends the only allowed iteration
    monkeypatch.setattr(schemes, "NEWTON_MAX_ITERATIONS", 1)
    with counted_lu_solves() as solves:
        momentum, jacobian, (U, P), frozen = linear_newton_problem(small_space)
        with pytest.raises(NewtonError) as err:
            _newton(small_space, momentum, jacobian, U, P, 1e-10, "capped", frozen)
    assert solves[0] == 1
    assert err.value.iterations == 1


def test_newton_stops_at_the_round_off_floor(small_space):
    # a target of zero is never met: textbook Newton exits, well before the
    # iteration cap, once the residual is within tolerance and no longer halves
    with tracked_saddles() as record, counted_lu_solves() as solves:
        momentum, jacobian, (U, P), _ = linear_newton_problem(small_space)
        built = record["built"]  # the seeded factorization is not used
        state, its = _newton(small_space, momentum, jacobian, U, P, 0.0, "floor")
        assert record["built"] - built == its
    assert its == solves[0] and 2 <= its < schemes.NEWTON_MAX_ITERATIONS
    r, _ = momentum(state.velocity, state.pressure)
    assert np.linalg.norm(r[small_space.interior_velocity]) <= schemes.NEWTON_TOLERANCE
    assert np.linalg.norm(small_space.divergence @ state.velocity) <= schemes.NEWTON_TOLERANCE


def test_newton_non_finite_residual_fails_at_once(small_space):
    # a NaN residual fails every comparison, so no linear solve may be spent on it
    with counted_lu_solves() as solves:
        momentum, jacobian, (U, P), frozen = linear_newton_problem(small_space)
        with pytest.raises(NewtonError, match="not finite after 0 iterations") as err:
            _newton(small_space, lambda U, P: (momentum(U, P)[0] * np.nan, None),
                    jacobian, U, P, 1e-10, "nan", frozen)
    assert solves[0] == 0
    assert err.value.iterations == 0 and np.isnan(err.value.residual)


class NanUpdate:
    """A frozen Jacobian whose update is not finite."""

    def correction(self, r, rd, rm):
        return np.full(r.shape, np.nan), np.zeros_like(rd)


def test_newton_discards_a_non_finite_reused_update(small_space):
    # the frozen Jacobian goes with its update, and a fresh one converges
    with counted_lu_solves() as solves:
        momentum, jacobian, (U, P), frozen = linear_newton_problem(small_space)
        frozen["jacobian"] = NanUpdate()
        state, its = _newton(small_space, momentum, jacobian, U, P, 1e-10, "nan update", frozen)
    assert its == 2 and solves[0] == 1
    assert isinstance(frozen["jacobian"], BorderedSaddle)
    assert np.all(np.isfinite(state.velocity))


def test_newton_rejected_jacobian_freed_before_refresh(small_space):
    with tracked_saddles() as record, counted_lu_solves() as solves:
        momentum, exact, (U, P), frozen = linear_newton_problem(small_space)
        alive_at_refresh = []  # the seeded factorization is the only one before

        def jacobian(lin):
            alive_at_refresh.append(len(record["live"]))
            return exact(lin)

        state, its = _newton(small_space, momentum, jacobian, U, P, 1e-10, "refresh", frozen)
        assert alive_at_refresh == [0]
        assert frozen["jacobian"] in record["live"] and record["built"] == 2
    assert its == solves[0] == 2
    r, _ = momentum(state.velocity, state.pressure)
    assert np.linalg.norm(r[small_space.interior_velocity]) <= 1e-10


def test_nse_stokes_limit_quadratic(medium_space):
    mesh = build_uniform_mesh(0.5, 5)
    diffs = []
    for eps in (1e-3, 1e-4):
        spec = ProblemSpec(medium_space, 0.01, ramp_forcing(eps), None, 0.5)
        a = stokes_cn_solve(spec, mesh)
        b = nse_cn_solve(spec, mesh)
        diffs.append(np.max(np.abs(a.velocity.values - b.velocity.values)))
    assert 50.0 <= diffs[0] / diffs[1] <= 200.0


def test_stationary_zero_forcing(medium_space):
    zero = lambda x, y: (np.zeros_like(x), np.zeros_like(y))
    state = stationary_stokes_solve(medium_space, 0.01, zero)
    assert np.max(np.abs(state.velocity)) == 0.0
    state_nse = stationary_nse_solve(medium_space, 0.01, zero)
    assert np.max(np.abs(state_nse.velocity)) == 0.0


def test_reference_solve_zero_data(medium_space):
    spec = ProblemSpec(medium_space, 0.01, ZeroForcing(), None, 0.5)
    ref = reference_solve(spec, build_uniform_mesh(0.5, 40), kind="nse")
    assert np.max(np.abs(ref.velocity.values)) == 0.0
    assert np.max(np.abs(ref.pressure.values)) == 0.0


def test_stationary_nse_gradient_forcing(medium_space):
    # f = grad q_h for a pressure-space field: zero velocity, pressure
    # recovers q_h minus its mean (the convection vanishes at u = 0, so
    # the Stokes and Navier-Stokes solves coincide here)
    space = medium_space
    q = space.interpolate_pressure(lambda x, y: np.sin(x) * np.cos(y))
    F = -(space.divergence.T @ q)

    for K in ((0.01 * space.stiffness).tocsr(),):
        state = BorderedSaddle(space, K).solve(F, K)
        assert np.max(np.abs(state.velocity)) < 1e-8
        c = space.mean_vector
        q_shift = q - (c @ q) / c.sum()
        assert np.max(np.abs(state.pressure - q_shift)) < 1e-8

    # smooth (non-representable) gradient forcing: small but nonzero gap
    def f0(x, y):
        return np.cos(x) * np.cos(y), -np.sin(x) * np.sin(y)

    state = stationary_nse_solve(space, 0.01, f0)
    assert np.max(np.abs(state.velocity)) < 1e-2
    c = space.mean_vector
    assert abs(c @ state.pressure) < 1e-10 * max(1.0, np.linalg.norm(state.pressure))


def test_stationary_nse_rough_forcing_converges(medium_space):
    def f0(x, y):
        s = np.sign(x) * np.sign(y)
        return 0.2 * s * (-np.sin(4 * x + y) * y), 0.2 * s * (np.cos(x - 4 * y) * x)

    state = stationary_nse_solve(medium_space, 0.01, f0)
    space = medium_space
    # nonlinear residual of the returned state
    r = (0.01 * (space.stiffness @ state.velocity)
         + space.convection_apply(state.velocity, state.velocity)
         - space.divergence.T @ state.pressure - space.velocity_load(f0))
    assert np.linalg.norm(r[space.interior_velocity]) < 1e-9
    assert np.linalg.norm(space.divergence @ state.velocity) < 1e-10


def test_stationary_initial_data_cached(medium_space):
    init = StationaryInitialData(lambda x, y: (np.sin(x) * y, np.cos(y) * x))
    a = init.resolve(medium_space, 0.01, "nse")
    b = init.resolve(medium_space, 0.01, "nse")
    assert a is b
    c = init.resolve(medium_space, 0.01, "stokes")
    assert c is not a


def test_caches_never_serve_another_space():
    # a space built right after another is collected usually gets its id:
    # the caches must still compute its own load vector and initial state
    f0 = lambda x, y: (np.cos(x) * y, np.sin(y) * x)
    forcing = SeparableForcing(lambda t: 1.0, f0)
    init = StationaryInitialData(f0)
    space, stale = None, 0
    for i in range(40):
        mesh = FemMesh2D((-1.0, 1.0, -1.0, 1.0) if i % 2 else (0.0, 2.0, 0.0, 1.0), 4, 4)
        del space
        gc.collect()
        space = TaylorHoodSpace(mesh)
        stale += not np.array_equal(forcing.spatial_load(space), space.velocity_load(f0))
        stale += not np.array_equal(init.resolve(space, 0.01, "stokes").velocity,
                                    stationary_stokes_solve(space, 0.01, f0).velocity)
    assert stale == 0


def straddling_keys(mesh, n0):
    """Per interval, the (scheme, k) keys used both before it and at or after it,
    and the number of distinct keys."""
    keys = [("IE" if n < n0 else "CN", k) for n, k in enumerate(mesh.steps)]
    first, last = {}, {}
    for n, key in enumerate(keys):
        first.setdefault(key, n)
        last[key] = n
    return [sum(first[key] < n <= last[key] for key in first)
            for n in range(len(keys))], len(first)


@contextmanager
def tracked_saddles():
    """Every ``BorderedSaddle`` built inside, weakly held: ``live`` are those
    still alive and ``built`` counts the factorizations."""
    record = {"live": weakref.WeakSet(), "built": 0}
    init = BorderedSaddle.__init__

    def tracked(self, *args):
        init(self, *args)
        record["live"].add(self)
        record["built"] += 1

    with mock.patch.object(BorderedSaddle, "__init__", tracked):
        yield record


class LiveAtEachInterval(SeparableForcing):
    """The ramp forcing, noting the live factorizations as each interval starts."""

    def __init__(self, record):
        base = ramp_forcing()
        super().__init__(base.time_factor, base.spatial)
        self.record, self.live = record, []

    def load_integral(self, space, a, b):
        self.live.append(len(self.record["live"]))
        return super().load_integral(space, a, b)


def assert_factorizations_bounded(space, solve, mesh, n0):
    with tracked_saddles() as record:
        forcing = LiveAtEachInterval(record)
        solve(ProblemSpec(space, 0.01, forcing, None, mesh.T), mesh, n0)
        bound, distinct = straddling_keys(mesh, n0)
        assert len(forcing.live) == mesh.num_intervals
        assert all(live <= allowed for live, allowed in zip(forcing.live, bound))
        assert len(record["live"]) == 0
    return record["built"], distinct


def test_factorizations_freed_after_their_last_interval(small_space):
    # a uniform mesh has several float steps: each factorization lives only
    # while intervals of its (scheme, k) are still to come
    mesh = build_uniform_mesh(0.5, 50)
    built, distinct = assert_factorizations_bounded(small_space, stokes_cn_solve, mesh, 2)
    assert distinct > 3
    assert built == distinct
    assert_factorizations_bounded(small_space, nse_cn_solve, mesh, 2)


@settings(max_examples=15, deadline=None)
@given(T=st.floats(0.2, 0.6), base_k=st.floats(0.01, 0.04),
       pattern=st.sampled_from([(0.8, 1.2), (0.5, 1.5), (0.9, 1.0, 1.1)]),
       n0=st.integers(0, 3))
def test_factorizations_bounded_on_alternating_meshes(small_space, T, base_k, pattern, n0):
    mesh = build_alternating_mesh(T, base_k, pattern)
    n0 = min(n0, mesh.num_intervals - 1)
    built, distinct = assert_factorizations_bounded(small_space, stokes_cn_solve, mesh, n0)
    assert built == distinct
    assert_factorizations_bounded(small_space, nse_cn_solve, mesh, n0)


def test_nse_slots_hold_only_their_jacobian(small_space, monkeypatch):
    # and the factorized Jacobian keeps no copy of its bordered system
    held, jacobians = set(), []
    march = schemes._march

    def spy(spec, mesh, n0, kind, advance, *rest):
        def watched(*args):
            out = advance(*args)
            held.update(args[-1])  # the keys of the interval's slot
            jacobians.extend(args[-1].values())
            return out

        return march(spec, mesh, n0, kind, watched, *rest)

    monkeypatch.setattr(schemes, "_march", spy)
    spec = ProblemSpec(small_space, 0.01, ramp_forcing(), None, 0.5)
    nse_cn_solve(spec, build_uniform_mesh(0.5, 10), n0=2)
    assert held == {"jacobian"}
    assert not any(sp.issparse(v) for saddle in jacobians for v in vars(saddle).values())


def test_reference_solve_contract(medium_space):
    spec = ProblemSpec(medium_space, 0.01, ramp_forcing(), None, 0.5)
    with pytest.raises(ValueError):
        reference_solve(spec, build_alternating_mesh(0.5, 0.05, [0.8, 1.2]))
    ref = reference_solve(spec, build_uniform_mesh(0.5, 50), kind="stokes")
    assert ref.n0 == 0
    rough = ProblemSpec(medium_space, 0.01, ZeroForcing(),
                        StationaryInitialData(lambda x, y: (np.sin(x) * y, np.cos(y) * x)),
                        0.5)
    ref2 = reference_solve(rough, build_uniform_mesh(0.5, 50), kind="nse")
    assert ref2.n0 == 2
    assert ref2.scheme_tags[:3] == ["IE", "IE", "CN"]


def test_reference_step_count_arithmetic():
    # T = 2 with reference step 0.0005 gives 4000 intervals
    mesh = build_uniform_mesh(2.0, int(round(2.0 / 0.0005)))
    assert mesh.num_intervals == 4000
    assert mesh.k_max == pytest.approx(0.0005, rel=1e-12)


def test_reference_halving_audit(medium_space):
    # compatible data: halving the reference step moves the measured
    # errors by well under 2 percent
    from cnflow.errors import ErrorSpec, StreamedReference, pressure_error

    spec = ProblemSpec(medium_space, 0.01, ramp_forcing(), None, 0.5)
    coarse = stokes_cn_solve(spec, build_alternating_mesh(0.5, 0.05, [0.8, 1.2]))
    es = ErrorSpec("pressure_L2l2")
    errs = []
    for refine in (8, 16):
        fine = build_uniform_mesh(0.5, 10 * refine)
        ref = StreamedReference(fine, medium_space, [coarse], [es])
        reference_solve(spec, fine, "stokes", fields=(), observer=ref.observe)
        errs.append(pressure_error(coarse, ref, es))
    assert abs(errs[0] - errs[1]) <= 0.02 * errs[1]


def test_pressure_only_reference_keeps_no_velocity_history(small_space):
    # a 2,000-interval reference that stores the pressure alone peaks below
    # the bytes of the velocity history it no longer keeps (numpy reports
    # its arrays to tracemalloc), and the errors it scores keep every bit
    from cnflow.errors import ErrorSpec, StreamedReference, pressure_error

    space = small_space
    spec = ProblemSpec(space, 0.01, ramp_forcing(), None, 2.0)
    # the operators and the load are cached on first use, before the solve
    _ = (space.mass, space.stiffness, space.divergence, space.mean_vector,
         spec.forcing.spatial_load(space))
    fine = build_uniform_mesh(2.0, 2000)
    coarse = stokes_cn_solve(spec, build_alternating_mesh(2.0, 0.02, [0.8, 1.2]))
    specs = [ErrorSpec("pressure_L2l2"), ErrorSpec("pressure_Linfl2")]
    streamed = StreamedReference(fine, space, [coarse], specs)
    full = StreamedReference(fine, space, [coarse], specs)
    tracemalloc.start()
    try:
        ref = reference_solve(spec, fine, "stokes", fields=("pressure",),
                              observer=streamed.observe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ref.velocity is None
    assert peak < (fine.num_intervals + 1) * space.num_velocity * 8
    reference_solve(spec, fine, "stokes", observer=full.observe)
    for es in specs:
        got, want = (pressure_error(coarse, r, es) for r in (streamed, full))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("kind", ["stokes", "nse"])
def test_observer_sees_every_interval_bitwise(small_space, kind):
    # the observer gets the velocity at each interval's end and its pressure,
    # bit for bit the stored values, from a solve that stores no field
    spec = ProblemSpec(small_space, 0.01, ramp_forcing(), None, 0.5)
    mesh = build_alternating_mesh(0.5, 0.05, [0.8, 1.2])
    full = transient_solve(spec, mesh, kind, 2)
    seen = []
    bare = transient_solve(spec, mesh, kind, 2, fields=(),
                           observer=lambda u, p: seen.append((u.copy(), p.copy())))
    assert bare.velocity is None and bare.pressure is None
    assert len(seen) == mesh.num_intervals
    assert np.array([u for u, _ in seen]).tobytes() == full.velocity.values[1:].tobytes()
    assert np.array([p for _, p in seen]).tobytes() == full.pressure.values.tobytes()


@pytest.mark.parametrize("kind", ["stokes", "nse"])
def test_stored_fields_keep_every_bit(small_space, kind):
    spec = ProblemSpec(small_space, 0.01, ramp_forcing(), None, 0.5)
    mesh = build_alternating_mesh(0.5, 0.05, [0.8, 1.2])
    full = transient_solve(spec, mesh, kind, 2)
    velocity = transient_solve(spec, mesh, kind, 2, fields=("velocity",))
    pressure = transient_solve(spec, mesh, kind, 2, fields=("pressure",))
    assert velocity.pressure is None and pressure.velocity is None
    assert velocity.velocity.values.tobytes() == full.velocity.values.tobytes()
    assert pressure.pressure.values.tobytes() == full.pressure.values.tobytes()
    for traj in (velocity, pressure):
        assert (traj.newton_iterations is None) == (kind == "stokes")
        if kind == "nse":
            assert np.array_equal(traj.newton_iterations, full.newton_iterations)
    with pytest.raises(ValueError, match="subset"):
        transient_solve(spec, mesh, kind, fields=("pressure", "vorticity"))


def test_forcing_representations_agree(medium_space):
    g = lambda t: t * np.exp(-t)
    f0 = lambda x, y: (np.cos(x) * y, np.sin(y) * x)
    sep = SeparableForcing(g, f0)
    gen = GeneralForcing(lambda x, y, t: (g(t) * np.cos(x) * y, g(t) * np.sin(y) * x))
    a, b = 0.3, 0.55
    Fa = sep.load_integral(medium_space, a, b)
    Fb = gen.load_integral(medium_space, a, b)
    assert np.allclose(Fa, Fb, rtol=1e-12, atol=1e-15)


def test_load_integral_gauss_rule_matches_fine_quadrature(medium_space):
    # three-point Gauss in time is degree-5 exact; compare on a quartic
    g = lambda t: t ** 4 - 2 * t + 1
    sep = SeparableForcing(g, lambda x, y: (np.ones_like(x), np.zeros_like(y)))
    F = sep.load_integral(medium_space, 0.2, 0.9)
    exact = (0.9 ** 5 / 5 - 0.9 ** 2 + 0.9) - (0.2 ** 5 / 5 - 0.2 ** 2 + 0.2)
    base = sep.spatial_load(medium_space)
    assert np.allclose(F, exact * base, rtol=1e-13, atol=1e-16)


def test_problem_spec_validation(medium_space):
    with pytest.raises(ValueError):
        ProblemSpec(medium_space, -0.01, ZeroForcing(), None, 1.0)
    with pytest.raises(ValueError):
        ProblemSpec(medium_space, 0.01, ZeroForcing(), None, 0.0)
    for nu, T in ((np.nan, 1.0), (np.inf, 1.0), (0.01, np.nan), (0.01, np.inf)):
        with pytest.raises(ValueError):
            ProblemSpec(medium_space, nu, ZeroForcing(), None, T)
    spec = ProblemSpec(medium_space, 0.01, ZeroForcing(), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        spec.initial_velocity()


def test_newton_tail_logged_not_asserted(medium_space, caplog):
    import logging

    # the stationary solve runs textbook Newton, a fresh Jacobian every iteration
    with caplog.at_level(logging.DEBUG, logger="cnflow.schemes"):
        stationary_nse_solve(medium_space, 0.01, lambda x, y: (np.sin(x) * y, np.cos(y) * x))
    assert any("tail" in rec.message for rec in caplog.records)

