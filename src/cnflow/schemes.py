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

from cnflow.fem2d import BorderedSaddle, MixedState, SolverError
from cnflow.temporal_ops import GridFunctionCG1, GridFunctionDG0, interval_average
from cnflow.time_mesh import UNIFORM_RHO_TOL

log = logging.getLogger(__name__)

# The trajectory fields a solve can store.
FIELDS = ("velocity", "pressure")

# theta of the theta-scheme per interval tag: implicit Euler, Crank-Nicolson.
# Both are powers of two, so a theta-scaled product rounds as the unscaled one.
THETA = {"IE": 1.0, "CN": 0.5}

# Newton certifies the assembled residual to this absolute tolerance.
NEWTON_TOLERANCE = 1e-10
NEWTON_MAX_ITERATIONS = 20


class NewtonError(SolverError):
    def __init__(self, message, step=None, iterations=None, residual=None):
        super().__init__(message)
        self.step = step
        self.iterations = iterations
        self.residual = residual


# --- forcing terms ----------------------------------------------------

class ZeroForcing:
    def load_integral(self, space, a, b):
        return np.zeros(space.num_velocity)


class SeparableForcing:
    """Forcing ``g(t) * f0(x, y)`` with a cached spatial load vector."""

    def __init__(self, time_factor, spatial):
        self.time_factor = time_factor
        self.spatial = spatial
        self._loads = weakref.WeakKeyDictionary()

    def spatial_load(self, space):
        if space not in self._loads:
            self._loads[space] = space.velocity_load(self.spatial)
        return self._loads[space]

    def load_integral(self, space, a, b):
        return interval_average(self.time_factor, a, b) * (b - a) * self.spatial_load(space)


class GeneralForcing:
    """Arbitrary ``f(x, y, t)``; one spatial load assembly per time Gauss point."""

    def __init__(self, fn):
        self.fn = fn

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

    def __init__(self, f0):
        self.f0 = f0
        self._cache = weakref.WeakKeyDictionary()

    def resolve(self, space, nu, kind):
        cache = self._cache.setdefault(space, {})
        key = (float(nu), kind)
        if key not in cache:
            if kind == "nse":
                state = stationary_nse_solve(space, nu, self.f0)
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
        if not 0.0 < self.viscosity < np.inf:
            raise ValueError("viscosity must be positive and finite")
        if not 0.0 < self.T < np.inf:
            raise ValueError("final time must be positive and finite")

    @property
    def initial_kind(self):
        if self.initial is None:
            return "zero"
        if isinstance(self.initial, StationaryInitialData):
            return "stationary"
        return "vector"

    def initial_velocity(self, kind="nse"):
        if self.initial is None:
            return np.zeros(self.space.num_velocity)
        if isinstance(self.initial, StationaryInitialData):
            return self.initial.resolve(self.space, self.viscosity, kind).velocity
        u0 = np.asarray(self.initial, dtype=float)
        if u0.shape != (self.space.num_velocity,):
            raise ValueError("initial velocity vector has wrong length")
        return u0


@dataclass(eq=False)
class Trajectory:
    """Velocity (piecewise linear) and pressure (piecewise constant) in time.

    Trajectories compare and hash by identity.  A field the solve was not
    asked to store is ``None``.
    ``newton_iterations`` holds the Newton iteration count of each interval
    of a Navier-Stokes run; it is ``None`` for Stokes.
    """

    mesh: object
    velocity: GridFunctionCG1 | None
    pressure: GridFunctionDG0 | None
    space: object = None
    n0: int = 0
    newton_iterations: np.ndarray = None


def _march(spec, mesh, n0, kind, advance, fields=FIELDS, observer=None):
    """The interval loop shared by the transient steppers.

    ``advance(scheme, k, F, u, P, label, slot)`` returns the velocity and
    the scaled pressure ``P = k p`` of one interval from the previous
    velocity and scaled pressure; the loop tags the intervals, integrates
    the forcing and stores ``p = P / k``.  ``slot`` is the dict in which
    the stepper keeps what it reuses across intervals, factorizations
    above all: one per ``(scheme, k)``, shared by every interval with that
    key and dropped after the last of them, so a solve holds only the
    factorizations of keys still to come.  Only the ``fields`` (a subset of
    ``FIELDS``) keep their history; of the others the loop keeps the
    current iterate alone.  An ``observer(u, p)`` is handed the velocity at
    the end of each interval and the pressure of that interval, in order.
    """
    space = spec.space
    N = mesh.num_intervals
    if not 0 <= n0 < N:
        raise ValueError("Euler prefix must leave at least one interval")
    if not set(fields) <= set(FIELDS):
        raise ValueError(f"fields must be a subset of {FIELDS}, got {tuple(fields)}")
    u = spec.initial_velocity(kind)
    vel = np.empty((N + 1, space.num_velocity)) if "velocity" in fields else None
    prs = np.empty((N, space.num_pressure)) if "pressure" in fields else None
    if vel is not None:
        vel[0] = u
    P = np.zeros(space.num_pressure)
    tags = ["IE"] * n0 + ["CN"] * (N - n0)
    keys = list(zip(tags, mesh.steps))
    last = {key: n for n, key in enumerate(keys)}
    slots = {}
    for n, (scheme, k) in enumerate(keys):
        F = spec.forcing.load_integral(space, mesh.nodes[n], mesh.nodes[n + 1])
        try:
            u, P = advance(scheme, k, F, u, P, f"step {n + 1}",
                           slots.setdefault((scheme, k), {}))
        except NewtonError as exc:
            exc.step = n + 1
            raise
        if last[scheme, k] == n:
            del slots[scheme, k]
        p = P / k
        if vel is not None:
            vel[n + 1] = u
        if prs is not None:
            prs[n] = p
        if observer is not None:
            observer(u, p)
    return Trajectory(mesh, None if vel is None else GridFunctionCG1(mesh, vel),
                      None if prs is None else GridFunctionDG0(mesh, prs), space, n0)


def stokes_cn_solve(spec, mesh, n0=0, fields=FIELDS, observer=None):
    """Theta-scheme Stokes stepping: ``n0`` implicit-Euler steps, then Crank-Nicolson.

    Each interval solves
        ``(M + theta k nu A) u^n - B^T P = F_n + (M - (1 - theta) k nu A) u^{n-1}``
    with ``theta = THETA[scheme]`` (1 for Euler, 1/2 for Crank-Nicolson),
    ``P = k p^n``, discrete incompressibility and zero pressure mean
    enforced through the bordered constraint.  ``fields`` are the fields
    the trajectory stores and ``observer`` sees every interval (see
    ``_march``).
    """
    space, nu = spec.space, spec.viscosity
    M, A = space.mass, space.stiffness

    def advance(scheme, k, F, u, P, label, slot):
        try:
            if not slot:
                theta = THETA[scheme]
                K = (M + theta * k * nu * A).tocsr()
                K_exp = M if theta == 1.0 else (M - (1.0 - theta) * k * nu * A).tocsr()
                slot["factors"] = (BorderedSaddle(space, K), K, K_exp)
            saddle, K, K_exp = slot["factors"]
            state = saddle.solve(F + K_exp @ u, K)
        except SolverError as exc:
            raise SolverError(f"{label}: {exc}") from None
        return state.velocity, state.pressure

    return _march(spec, mesh, n0, "stokes", advance, fields, observer)


def _newton(space, momentum, jacobian, U, P, target, label, frozen=None):
    """Newton iteration on one bordered saddle system.

    ``momentum(U, P)`` returns the momentum residual and the data
    ``jacobian`` needs to assemble the velocity block of the Jacobian at
    that iterate; incompressibility and the zero pressure mean complete
    the residual here.  The iteration stops once the residual is at most
    ``target``, or within ``NEWTON_TOLERANCE`` and no longer contracting; a
    non-finite residual raises at once.  With a ``frozen`` dict, the
    factorized Jacobian stored in it under ``"jacobian"`` is tried first, and
    dropped for a fresh one once its update fails to halve the residual (a
    non-finite one included).  Every linear solve counts toward
    ``NEWTON_MAX_ITERATIONS``.  Returns the state and the iteration count.
    """
    B, c = space.divergence, space.mean_vector
    ii = space.interior_velocity

    def residual(U, P):
        r, lin = momentum(U, P)
        rd = B @ U
        rm = float(c @ P)
        norm = float(np.sqrt(np.dot(r[ii], r[ii]) + np.dot(rd, rd) + rm * rm))
        return r, rd, rm, norm, lin

    r, rd, rm, res, lin = residual(U, P)
    prev_res = None
    it = 0
    while True:
        if not np.isfinite(res):
            raise NewtonError(f"{label}: residual is not finite after {it} iterations",
                              iterations=it, residual=res)
        if res <= target:
            return MixedState(U, P), it
        if res <= NEWTON_TOLERANCE and prev_res is not None and res > 0.5 * prev_res:
            # within contract and no longer contracting (round-off floor)
            return MixedState(U, P), it
        if it == NEWTON_MAX_ITERATIONS:
            break
        saddle = frozen.get("jacobian") if frozen is not None else None
        reused = saddle is not None
        try:
            if not reused:
                saddle = BorderedSaddle(space, jacobian(lin))
                if frozen is not None:
                    frozen["jacobian"] = saddle
            dU, dP = saddle.correction(r, rd, rm)
        except (SolverError, RuntimeError) as exc:
            raise NewtonError(f"{label}: linear solve failed: {exc}",
                              iterations=it, residual=res) from None
        U_try, P_try = U + dU, P + dP
        r_try, rd_try, rm_try, res_try, lin_try = residual(U_try, P_try)
        it += 1
        if reused and not res_try <= max(0.5 * res, target):
            del frozen["jacobian"]  # freed as ``saddle`` is rebound, before the refresh
            continue
        if prev_res is not None and prev_res > 0.0:
            log.debug("%s newton it %d residual %.3e (tail %.3e)",
                      label, it, res_try, res_try / max(res, 1e-300) ** 2)
        U, P, r, rd, rm, lin = U_try, P_try, r_try, rd_try, rm_try, lin_try
        prev_res, res = res, res_try
    if res <= NEWTON_TOLERANCE:
        return MixedState(U, P), it
    raise NewtonError(
        f"{label}: no convergence after {NEWTON_MAX_ITERATIONS} iterations "
        f"(last residual {res:.3e})",
        iterations=NEWTON_MAX_ITERATIONS, residual=res)


def nse_cn_solve(spec, mesh, n0=0, fields=FIELDS, observer=None):
    """Theta-scheme Navier-Stokes stepping: ``n0`` implicit-Euler steps, then
    Crank-Nicolson.

    Each interval is one Newton iteration for the scaled pressure ``P = k p``
    on the residual ``M (U - u^{n-1}) + k nu A w + k N(w, w) - B^T P - F_n``,
    with ``theta = THETA[scheme]``: ``w = U`` for Euler (fully implicit
    convection) and the midpoint ``w = theta (U + u^{n-1})`` for
    Crank-Nicolson.  Its Jacobian ``M + theta k nu A + theta k (C(w) + G(w))``
    carries both linearization terms of the convection form; the ``_march``
    slot of its (scheme, step size) keeps the factorized Jacobian tried
    first, and nothing else.  ``fields`` are the fields the trajectory stores
    and ``observer`` sees every interval (see ``_march``).
    """
    space, nu = spec.space, spec.viscosity
    M, A, BT = space.mass, space.stiffness, space.divergence_transpose
    iterations = []

    def advance(scheme, k, F, u_prev, P, label, slot):
        theta = THETA[scheme]

        def momentum(U, P):
            w = U if theta == 1.0 else theta * (U + u_prev)
            r = (M @ (U - u_prev) + k * nu * (A @ w) + k * space.convection_apply(w, w)
                 - BT @ P - F)
            return r, w

        def jacobian(w):
            C, G = space.convection(w), space.convection_gradient(w)
            return (M + theta * k * nu * A + theta * k * (C + G)).tocsr()

        # The pressure is recovered as P / k, so residual noise enters it with
        # a 1/k amplification; drive the iteration to a k-scaled target
        # (NEWTON_TOLERANCE remains the hard acceptance contract).
        target = NEWTON_TOLERANCE * min(1.0, k)
        state, its = _newton(space, momentum, jacobian, u_prev.copy(), P.copy(),
                             target, label, slot)
        iterations.append(its)
        return state.velocity, state.pressure

    traj = _march(spec, mesh, n0, "nse", advance, fields, observer)
    traj.newton_iterations = np.array(iterations, dtype=int)
    return traj


def stationary_stokes_solve(space, nu, f0):
    """Stationary Stokes solve (also the Newton initial guess for the NSE)."""
    K = (nu * space.stiffness).tocsr()
    F = space.velocity_load(f0)
    return BorderedSaddle(space, K).solve(F, K)


def stationary_nse_solve(space, nu, f0):
    """Stationary Navier-Stokes solve by textbook Newton from the Stokes solution."""
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
                           NEWTON_TOLERANCE, "stationary solve")
    except NewtonError as exc:
        raise NewtonError(f"{exc}; consider continuation in viscosity",
                          iterations=exc.iterations, residual=exc.residual) from None
    return state


def transient_solve(spec, mesh, kind="nse", n0=0, fields=FIELDS, observer=None):
    """Stokes (``kind="stokes"``) or Navier-Stokes (``"nse"``) stepping that
    stores the ``fields`` of its trajectory and hands every interval to
    ``observer``."""
    if kind == "stokes":
        return stokes_cn_solve(spec, mesh, n0=n0, fields=fields, observer=observer)
    if kind == "nse":
        return nse_cn_solve(spec, mesh, n0=n0, fields=fields, observer=observer)
    raise ValueError(f"unknown solver kind {kind!r}")


def reference_solve(spec, fine_mesh, kind="nse", fields=FIELDS, observer=None):
    """Reference trajectory on a uniform fine mesh, shared spatial space,
    that stores the ``fields`` of its trajectory and hands every interval to
    ``observer``.

    Incompatible (stationary-solve) initial data gets an ``n0 = 2``
    implicit-Euler prefix; otherwise no prefix is used.
    """
    if fine_mesh.rho > 1.0 + UNIFORM_RHO_TOL:
        raise ValueError("reference mesh must be uniform")
    n0 = 2 if spec.initial_kind == "stationary" else 0
    return transient_solve(spec, fine_mesh, kind, n0, fields, observer)
