"""Time-stepping drivers for the Stokes and Navier-Stokes equations.

All schemes integrate the right-hand side exactly over each interval (up
to a three-point Gauss rule in time, which is beyond scheme accuracy)
and treat the pressure as purely implicit: each interval owns exactly
one pressure vector.  The hybrid scheme runs ``n0`` implicit-Euler steps
first (fully implicit convection) and continues with Crank-Nicolson
(averaged convection) from the Euler output; the Euler pressures are
kept in the trajectory for error evaluation but never re-enter the
stepping.
"""

import logging
import weakref
from dataclasses import dataclass, field

import numpy as np

from cnflow.fem2d import BorderedSaddle, MixedState, SolverError, solve_saddle_point
from cnflow.temporal_ops import GridFunctionCG1, GridFunctionDG0, interval_average

log = logging.getLogger(__name__)


class NewtonError(SolverError):
    def __init__(self, message, step=None, iterations=None, residual=None):
        super().__init__(message)
        self.step = step
        self.iterations = iterations
        self.residual = residual


@dataclass
class NewtonConfig:
    """Newton iteration controls (absolute residual tolerance).

    With ``reuse_jacobian`` the transient steppers keep the factorized
    Jacobian of an earlier step and refresh it only when the iteration
    stops contracting; convergence is always certified by the freshly
    assembled residual, so the option trades iteration counts for
    factorizations without touching the computed solution beyond the
    tolerance.  Set it to False for textbook Newton (quadratic tails in
    the debug log).
    """

    tolerance: float = 1e-10
    max_iterations: int = 20
    reuse_jacobian: bool = True

    def __post_init__(self):
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")


# --- forcing terms ----------------------------------------------------

class ZeroForcing:
    label = "zero"

    def load_integral(self, space, a, b):
        return np.zeros(space.num_velocity)


class SeparableForcing:
    """Forcing ``g(t) * f0(x, y)`` with a cached spatial load vector."""

    def __init__(self, time_factor, spatial, label="separable"):
        self.time_factor = time_factor
        self.spatial = spatial
        self.label = label
        self._loads = weakref.WeakKeyDictionary()

    def spatial_load(self, space):
        if space not in self._loads:
            self._loads[space] = space.velocity_load(self.spatial)
        return self._loads[space]

    def load_integral(self, space, a, b):
        return interval_average(self.time_factor, a, b) * (b - a) * self.spatial_load(space)


class GeneralForcing:
    """Arbitrary ``f(x, y, t)``; one spatial load assembly per time Gauss point."""

    def __init__(self, fn, label="general"):
        self.fn = fn
        self.label = label

    def load_integral(self, space, a, b):
        def load(t):
            return space.velocity_load(lambda xx, yy: self.fn(xx, yy, t))

        return interval_average(load, a, b) * (b - a)


class StationaryInitialData:
    """Initial velocity from a stationary solve with forcing ``f0``.

    Deliberately incompatible data: the stationary momentum balance does
    not match the transient equation at ``t = 0`` once the forcing is
    switched off.
    """

    def __init__(self, f0, label="stationary"):
        self.f0 = f0
        self.label = label
        self._cache = weakref.WeakKeyDictionary()

    def resolve(self, space, nu, kind, newton=None):
        cache = self._cache.setdefault(space, {})
        key = (float(nu), kind)
        if key not in cache:
            if kind == "nse":
                state = stationary_nse_solve(space, nu, self.f0, newton or NewtonConfig())
            else:
                state = stationary_stokes_solve(space, nu, self.f0)
            cache[key] = state
        return cache[key]


@dataclass
class ProblemSpec:
    """Transient problem data over a fixed Taylor-Hood space."""

    space: object
    viscosity: float = 0.01
    forcing: object = field(default_factory=ZeroForcing)
    initial: object = None  # None (zero), velocity coefficients, or StationaryInitialData
    T: float = 2.0

    def __post_init__(self):
        if self.viscosity <= 0.0:
            raise ValueError("viscosity must be positive")
        if self.T <= 0.0:
            raise ValueError("final time must be positive")

    @property
    def initial_kind(self):
        if self.initial is None:
            return "zero"
        if isinstance(self.initial, StationaryInitialData):
            return "stationary"
        return "vector"

    def initial_velocity(self, kind="nse", newton=None):
        if self.initial is None:
            return np.zeros(self.space.num_velocity)
        if isinstance(self.initial, StationaryInitialData):
            return self.initial.resolve(self.space, self.viscosity, kind, newton).velocity
        u0 = np.asarray(self.initial, dtype=float)
        if u0.shape != (self.space.num_velocity,):
            raise ValueError("initial velocity vector has wrong length")
        return u0


@dataclass
class Trajectory:
    """Velocity (piecewise linear) and pressure (piecewise constant) in time.

    ``newton_iterations`` holds the Newton iteration count of each interval
    of a Navier-Stokes run; it is ``None`` for Stokes.
    """

    mesh: object
    velocity: GridFunctionCG1
    pressure: GridFunctionDG0
    scheme_tags: list
    space: object = None
    n0: int = 0
    newton_iterations: np.ndarray = None


def _march(spec, mesh, n0, kind, newton, advance):
    """The interval loop shared by the transient steppers.

    ``advance(scheme, k, F, u, P, label)`` returns the velocity and the
    scaled pressure ``P = k p`` of one interval from the previous velocity
    and scaled pressure; the loop tags the intervals, integrates the
    forcing and stores ``p = P / k``.
    """
    space = spec.space
    N = mesh.num_intervals
    if not 0 <= n0 < N:
        raise ValueError("Euler prefix must leave at least one interval")
    u = spec.initial_velocity(kind, newton)
    vel = np.empty((N + 1, space.num_velocity))
    prs = np.empty((N, space.num_pressure))
    vel[0] = u
    P = np.zeros(space.num_pressure)
    tags = ["IE"] * n0 + ["CN"] * (N - n0)
    for n in range(N):
        k = mesh.steps[n]
        F = spec.forcing.load_integral(space, mesh.nodes[n], mesh.nodes[n + 1])
        try:
            u, P = advance(tags[n], k, F, u, P, f"step {n + 1}")
        except NewtonError as exc:
            exc.step = n + 1
            raise
        vel[n + 1] = u
        prs[n] = P / k
    return Trajectory(mesh, GridFunctionCG1(mesh, vel), GridFunctionDG0(mesh, prs),
                      tags, space, n0)


def stokes_cn_solve(spec, mesh, n0=0):
    """Crank-Nicolson Stokes stepping with an ``n0``-step Euler prefix.

    Implicit Euler intervals solve
        ``(M + k nu A) u^n - B^T P = F_n + M u^{n-1}``
    and Crank-Nicolson intervals
        ``(M + k nu A / 2) u^n - B^T P = F_n + (M - k nu A / 2) u^{n-1}``
    with ``P = k p^n``, discrete incompressibility and zero pressure mean
    enforced through the bordered constraint.
    """
    space, nu = spec.space, spec.viscosity
    M, A = space.mass, space.stiffness
    factors = {}

    def advance(scheme, k, F, u, P, label):
        key = (scheme, k)
        if key not in factors:
            if scheme == "IE":
                K, K_exp = (M + k * nu * A).tocsr(), M
            else:
                half = 0.5 * k * nu
                K, K_exp = (M + half * A).tocsr(), (M - half * A).tocsr()
            factors[key] = (BorderedSaddle(space, K), K_exp)
        saddle, K_exp = factors[key]
        try:
            state = saddle.solve(F + K_exp @ u)
        except SolverError as exc:
            raise SolverError(f"{label}: {exc}") from None
        return state.velocity, state.pressure

    return _march(spec, mesh, n0, "stokes", None, advance)


def _newton(space, momentum, jacobian, U, P, newton, target, label, frozen=None, key=None):
    """Newton iteration on one bordered saddle system.

    ``momentum(U, P)`` returns the momentum residual and the data
    ``jacobian`` needs to assemble the velocity block of the Jacobian at
    that iterate; incompressibility and the zero pressure mean complete
    the residual here.  The iteration stops once the residual is at most
    ``target``, or within ``newton.tolerance`` and no longer contracting.
    With a ``frozen`` dict, the factorized Jacobian stored under ``key``
    is tried first and refreshed as soon as the residual stops
    contracting.  Returns the state and the iteration count.
    """
    B, c = space.divergence, space.mean_vector
    ii = space.interior_velocity
    n_i = ii.size

    def residual(U, P):
        r, lin = momentum(U, P)
        rd = B @ U
        rm = float(c @ P)
        norm = float(np.sqrt(np.dot(r[ii], r[ii]) + np.dot(rd, rd) + rm * rm))
        return r, rd, rm, norm, lin

    def solve_update(saddle, r, rd, rm):
        rhs = np.zeros(n_i + space.num_pressure + 1)
        rhs[:n_i] = -r[ii]
        rhs[n_i:-1] = -rd
        rhs[-1] = -rm
        delta = saddle.lu.solve(rhs)
        dU = np.zeros(space.num_velocity)
        dU[ii] = delta[:n_i]
        return dU, delta[n_i:-1]

    r, rd, rm, res, lin = residual(U, P)
    prev_res = None
    it = 0
    while it < newton.max_iterations:
        if res <= target:
            return MixedState(U, P), it
        if res <= newton.tolerance and prev_res is not None and res > 0.5 * prev_res:
            # within contract and no longer contracting (round-off floor)
            return MixedState(U, P), it
        stale = frozen.get(key) if frozen is not None else None
        try:
            if stale is not None:
                dU, dP = solve_update(stale, r, rd, rm)
                U_try, P_try = U + dU, P + dP
                r2, rd2, rm2, res2, lin2 = residual(U_try, P_try)
                it += 1
                if res2 <= max(0.5 * res, target):
                    U, P, r, rd, rm, prev_res, res, lin = (
                        U_try, P_try, r2, rd2, rm2, res, res2, lin2)
                    continue
                # stale direction stopped contracting: rebuild below
                frozen.pop(key, None)
            saddle = BorderedSaddle(space, jacobian(lin), B)
            if frozen is not None:
                frozen[key] = saddle
            dU, dP = solve_update(saddle, r, rd, rm)
        except (SolverError, RuntimeError) as exc:
            raise NewtonError(f"{label}: linear solve failed: {exc}",
                              iterations=it, residual=res) from None
        U, P = U + dU, P + dP
        r, rd, rm, new_res, lin = residual(U, P)
        if prev_res is not None and prev_res > 0.0:
            log.debug("%s newton it %d residual %.3e (tail %.3e)",
                      label, it, new_res, new_res / max(res, 1e-300) ** 2)
        prev_res, res = res, new_res
        it += 1
    if res <= newton.tolerance:
        return MixedState(U, P), newton.max_iterations
    raise NewtonError(
        f"{label}: no convergence after {newton.max_iterations} iterations "
        f"(last residual {res:.3e})",
        iterations=newton.max_iterations, residual=res)


def _newton_saddle(space, nu, k, u_prev, P0, F, scheme, newton, step_label, caches):
    """Newton iteration for one implicit interval of the transient problem.

    Scaled pressure ``P = k p`` is the saddle unknown.  The Jacobian
    carries both linearization terms of the convection form; with
    ``newton.reuse_jacobian`` a previously factorized Jacobian for the
    same (scheme, step size) is tried first.
    """
    M, A, BT = space.mass, space.stiffness, space.divergence_transpose

    if scheme == "IE":
        coef_nl, coef_visc = k, k * nu
    else:
        coef_nl, coef_visc = 0.25 * k, 0.5 * k * nu
    key = (scheme, k)
    lin_cache, jac_cache = caches
    if key not in lin_cache:
        lin_cache[key] = (M + coef_visc * A).tocsr()
    K_lin = lin_cache[key]

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

    # The pressure is recovered as P / k, so residual noise enters it with
    # a 1/k amplification; drive the iteration to a k-scaled target (the
    # configured tolerance remains the hard acceptance contract).
    target = newton.tolerance * min(1.0, k)
    frozen = jac_cache if newton.reuse_jacobian else None
    return _newton(space, momentum, jacobian, u_prev.copy(), P0.copy(), newton, target,
                   step_label, frozen, key)


def nse_cn_solve(spec, mesh, n0=0, newton=None):
    """Navier-Stokes stepping: ``n0`` implicit-Euler steps, then Crank-Nicolson.

    The Euler prefix uses the fully implicit convection ``u^n . grad u^n``;
    Crank-Nicolson intervals use the averaged form
    ``(k/4) (u^n + u^{n-1}) . grad (u^n + u^{n-1})``.
    """
    newton = newton or NewtonConfig()
    space, nu = spec.space, spec.viscosity
    caches = ({}, {})
    iterations = []

    def advance(scheme, k, F, u, P, label):
        state, its = _newton_saddle(space, nu, k, u, P, F, scheme, newton, label, caches)
        iterations.append(its)
        return state.velocity, state.pressure

    traj = _march(spec, mesh, n0, "nse", newton, advance)
    traj.newton_iterations = np.array(iterations, dtype=int)
    return traj


def stationary_stokes_solve(space, nu, f0):
    """Stationary Stokes solve (also the Newton initial guess for the NSE)."""
    K = (nu * space.stiffness).tocsr()
    F = space.velocity_load(f0)
    return solve_saddle_point(space, K, F)


def stationary_nse_solve(space, nu, f0, newton=None):
    """Stationary Navier-Stokes solve by Newton from the Stokes solution."""
    newton = newton or NewtonConfig()
    A, BT = space.stiffness, space.divergence_transpose
    F = space.velocity_load(f0)
    guess = stationary_stokes_solve(space, nu, f0)

    def momentum(U, P):
        C = space.convection(U)
        return nu * (A @ U) + C @ U - BT @ P - F, (U, C)

    def jacobian(lin):
        U, C = lin
        return (nu * A + C + space.convection_gradient(U)).tocsr()

    try:
        state, _ = _newton(space, momentum, jacobian, guess.velocity, guess.pressure,
                           newton, newton.tolerance, "stationary solve")
    except NewtonError as exc:
        raise NewtonError(f"{exc}; consider continuation in viscosity",
                          iterations=exc.iterations, residual=exc.residual) from None
    return state


def transient_solve(spec, mesh, kind="nse", n0=0, newton=None):
    """Stokes (``kind="stokes"``) or Navier-Stokes (``"nse"``) stepping."""
    if kind == "stokes":
        return stokes_cn_solve(spec, mesh, n0=n0)
    if kind == "nse":
        return nse_cn_solve(spec, mesh, n0=n0, newton=newton)
    raise ValueError(f"unknown solver kind {kind!r}")


def reference_solve(spec, fine_mesh, kind="nse", newton=None):
    """Reference trajectory on a uniform fine mesh, shared spatial space.

    Incompatible (stationary-solve) initial data gets an ``n0 = 2``
    implicit-Euler prefix; otherwise no prefix is used.
    """
    if fine_mesh.rho > 1.0 + 1e-9:
        raise ValueError("reference mesh must be uniform")
    n0 = 2 if spec.initial_kind == "stationary" else 0
    return transient_solve(spec, fine_mesh, kind, n0, newton)
