"""Diagonal spectral surrogate of the Stokes operator.

A field is a finite expansion in eigenfunctions of a positive
self-adjoint operator with eigenvalues ``lambda_1 < ... < lambda_M``;
the operator acts diagonally and the fractional-order norms

    ||f||_{V^s} = sqrt(sum_j lambda_j^s c_j^2)

are exact for every real ``s`` (homogeneous variant; equivalent to the
graph norm because the spectrum is bounded away from zero).  The
surrogate is solenoidal by construction, so the Helmholtz projection is
the identity and no pressure exists at this level.

On this backend the Crank-Nicolson and implicit-Euler steps are
per-mode rational maps, which makes the discrete stability estimate,
its smoothing-weighted refinement and the Euler smoothing rates cheap
to verify numerically with tight tolerances.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from cnflow.temporal_ops import (
    GridFunctionCG1,
    GridFunctionDG0,
    average,
    time_derivative,
    weighted_temporal_norm,
)

DEFAULT_MODES = 256


def default_spectrum(num_modes=DEFAULT_MODES):
    """Laplacian-like surrogate spectrum ``lambda_j = j^2``."""
    j = np.arange(1, num_modes + 1, dtype=float)
    return j * j


@dataclass(frozen=True)
class SpectralField:
    """Coefficients of a field over a fixed positive ascending spectrum."""

    eigenvalues: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        c = np.asarray(self.coefficients, dtype=float)
        if lam.shape != c.shape or lam.ndim != 1:
            raise ValueError("eigenvalues and coefficients must be equal-length vectors")
        if lam[0] <= 0.0 or np.any(np.diff(lam) <= 0.0):
            raise ValueError("eigenvalues must be positive and ascending")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "coefficients", c)

    def with_coefficients(self, c):
        return SpectralField(self.eigenvalues, c)


def vs_row_norm(eigenvalues, s):
    """The V^s norm as a row-wise spatial norm: maps a block of coefficient
    rows to ``sqrt(sum_j lambda_j^s c_j^2)`` per row."""
    lam_s = eigenvalues ** s
    return lambda c: np.sqrt(np.sum(lam_s * c * c, axis=-1))


def vs_norm(f, s):
    """Exact fractional-order norm ``sqrt(sum lambda^s c^2)``."""
    return float(vs_row_norm(f.eigenvalues, s)(f.coefficients))


def cn_step_spectral(state, k_n, f_avg):
    """One Crank-Nicolson step with interval-averaged forcing.

    Per mode: ``c_new = ((1 - lam k/2) c + k f) / (1 + lam k/2)``.
    """
    if k_n <= 0.0:
        raise ValueError("step size must be positive")
    lam = state.eigenvalues
    half = 0.5 * lam * k_n
    f = f_avg.coefficients if isinstance(f_avg, SpectralField) else np.asarray(f_avg, dtype=float)
    c = ((1.0 - half) * state.coefficients + k_n * f) / (1.0 + half)
    return state.with_coefficients(c)


def ie_step_spectral(state, k_n, f_int):
    """One implicit-Euler step: ``c_new = (c + k f) / (1 + lam k)``."""
    if k_n <= 0.0:
        raise ValueError("step size must be positive")
    lam = state.eigenvalues
    f = f_int.coefficients if isinstance(f_int, SpectralField) else np.asarray(f_int, dtype=float)
    c = (state.coefficients + k_n * f) / (1.0 + lam * k_n)
    return state.with_coefficients(c)


@dataclass
class SpectralTrajectory:
    """Nodal states (piecewise linear in time) plus applied forcing averages."""

    mesh: object
    eigenvalues: np.ndarray
    states: GridFunctionCG1
    forcing: GridFunctionDG0


def evolve_cn(mesh, eigenvalues, c0, forcing_values, start=0):
    """Crank-Nicolson evolution over intervals ``start+1 .. N`` of the mesh.

    ``forcing_values`` holds one coefficient vector per mesh interval
    (entries before ``start`` are ignored).  Nodes before ``start`` are
    filled with the initial value so the result is a full grid function.
    """
    N = mesh.num_intervals
    lam = np.asarray(eigenvalues, dtype=float)
    vals = np.empty((N + 1, lam.size))
    vals[: start + 1] = c0
    for n in range(start, N):
        k = mesh.steps[n]
        half = 0.5 * lam * k
        vals[n + 1] = ((1.0 - half) * vals[n] + k * forcing_values[n]) / (1.0 + half)
    return SpectralTrajectory(
        mesh, lam,
        GridFunctionCG1(mesh, vals),
        GridFunctionDG0(mesh, np.asarray(forcing_values, dtype=float)),
    )


@dataclass
class StabilityReport:
    """Measured two-sided ratios for one stability verification."""

    kind: str
    s: int
    ell: int
    n0: int
    num_intervals: int
    trials: int
    seed: int
    max_ratio: float
    ratios: np.ndarray = dataclass_field(repr=False, default=None)

    CSV_HEADER = "kind,s,ell,n0,N,trials,seed,max_ratio"

    def csv_row(self):
        return (f"{self.kind},{self.s},{self.ell},{self.n0},{self.num_intervals},"
                f"{self.trials},{self.seed},{self.max_ratio!r}")


def _random_trial(rng, lam, s, decay=-1.2):
    """Mesh-independent random data: initial field and a smooth forcing.

    The initial coefficients are normalized to unit V^s size and the
    forcing, a three-term trigonometric polynomial in time per mode, to
    unit L2(V^{s-1}) size; both are independent of the time mesh, so
    refinement studies rediscretize the same underlying data.
    """
    M = lam.size
    j = np.arange(1, M + 1, dtype=float)
    c0 = rng.standard_normal(M) * lam ** (-s / 2.0) * j ** decay
    b = rng.standard_normal((3, M)) * (lam ** ((1.0 - s) / 2.0) * j ** decay)

    def forcing(t, T):
        t = np.asarray(t)[..., None]
        return b[0] + b[1] * np.cos(np.pi * t / T) + b[2] * np.sin(2.0 * np.pi * t / T)

    return c0, forcing


def _norms(traj, s, alpha, window):
    """(Linf V^s, L2 V^{s+1} of the average, L2 V^{s-1} of the derivative)."""
    lam = traj.eigenvalues
    linf = weighted_temporal_norm(traj.states, alpha, np.inf, vs_row_norm(lam, s), window)
    l2_avg = weighted_temporal_norm(average(traj.states), alpha, 2, vs_row_norm(lam, s + 1),
                                    window)
    l2_dt = weighted_temporal_norm(time_derivative(traj.states), alpha, 2,
                                   vs_row_norm(lam, s - 1), window)
    return linf, l2_avg, l2_dt


def verify_discrete_stability(s, mesh, trial_count=50, rng_seed=0, eigenvalues=None):
    """Two-sided check of the unweighted discrete stability estimate.

    Random initial values and forcings drive the Crank-Nicolson
    evolution; for each trial the ratio

        (Linf V^s + L2 V^{s-1} of d/dt + L2 V^{s+1} of the average)
        / (V^s of the initial value + L2 V^{s-1} of the forcing)

    is recorded and the maximum reported.  Trials are seeded from
    ``(rng_seed, trial)`` so they are independent of execution order.
    """
    lam = default_spectrum() if eigenvalues is None else np.asarray(eigenvalues, dtype=float)
    ratios = []
    for t in range(trial_count):
        rng = np.random.default_rng([rng_seed, t])
        c0, forcing = _random_trial(rng, lam, s)
        rk = average(lambda t: forcing(t, mesh.T), mesh).values
        traj = evolve_cn(mesh, lam, c0, rk)
        linf, l2_avg, l2_dt = _norms(traj, s, 0.0, None)
        lhs = linf + l2_dt + l2_avg
        rhs = vs_norm(SpectralField(lam, c0), s) + weighted_temporal_norm(
            traj.forcing, 0.0, 2, vs_row_norm(lam, s - 1))
        ratios.append(lhs / rhs)
    ratios = np.asarray(ratios)
    return StabilityReport("discrete-stability", s, 0, 0, mesh.num_intervals,
                           trial_count, rng_seed, float(ratios.max()), ratios)


def verify_smoothing_stability(s, ell, n0, mesh, trial_count=50, rng_seed=0,
                               eigenvalues=None):
    """Two-sided check of the smoothing-weighted stability estimate.

    The evolution starts from a random state at node ``n0`` and runs on
    the window ``(t_n0, T]``.  The left side carries the weight
    ``tau^(ell/2)``; the right side combines the ``k^(ell/2)``-scaled
    initial norm, the weighted forcing term, and the two lower-level
    norms of the evolved solution (weight ``tau^((ell-1)/2)``, orders
    ``s`` for both the average and, with a factor ``k``, the derivative).
    """
    if ell <= 0:
        raise ValueError("smoothing level must be positive "
                         "(use verify_discrete_stability for the unweighted estimate)")
    if not 0 <= n0 < mesh.num_intervals:
        raise ValueError("start index outside the mesh")
    lam = default_spectrum() if eigenvalues is None else np.asarray(eigenvalues, dtype=float)
    window = (n0, mesh.num_intervals)
    kmax = mesh.k_max
    ratios = []
    for t in range(trial_count):
        rng = np.random.default_rng([rng_seed, t])
        c0, forcing = _random_trial(rng, lam, s)
        rk = average(lambda t: forcing(t, mesh.T), mesh).values
        traj = evolve_cn(mesh, lam, c0, rk, start=n0)

        linf, l2_avg, l2_dt = _norms(traj, s, 0.5 * ell, window)
        lhs = linf + l2_avg + l2_dt

        a_ell, a_lower = 0.5 * ell, 0.5 * (ell - 1)
        rhs = (kmax ** a_ell * vs_norm(SpectralField(lam, c0), s)
               + weighted_temporal_norm(traj.forcing, a_ell, 2, vs_row_norm(lam, s - 1), window)
               + weighted_temporal_norm(average(traj.states), a_lower, 2, vs_row_norm(lam, s),
                                        window)
               + kmax * weighted_temporal_norm(time_derivative(traj.states), a_lower, 2,
                                               vs_row_norm(lam, s), window))
        ratios.append(lhs / rhs)
    ratios = np.asarray(ratios)
    return StabilityReport("smoothing-stability", s, ell, n0, mesh.num_intervals,
                           trial_count, rng_seed, float(ratios.max()), ratios)


def sharp_initial_field(r, eigenvalues):
    """Initial data lying in V^r but in no better space.

    Coefficients ``c_j = j^(-r-0.6)`` over ``lambda_j = j^2`` give a
    V^r norm that converges while every higher-order norm diverges as
    modes are added, so smoothing rates are observed sharply.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    j = np.arange(1, lam.size + 1, dtype=float)
    return SpectralField(lam, j ** (-r - 0.6))


def euler_smoothing_rate(r, s, s0, k_list, num_modes=DEFAULT_MODES):
    """Fitted rate of the implicit-Euler startup error in the V^s norm.

    For sharp V^r data and zero forcing, ``n0 = 2 + s0 - r`` Euler steps
    of size ``k`` are compared at ``t_{n0}`` against the exact evolution
    ``exp(-lambda t) c``; the expected log-log slope is ``(r - s)/2``.
    """
    from cnflow.errors import fit_loglog

    if r not in (0, 1, 2):
        raise ValueError("regularity r must be 0, 1 or 2")
    if s0 not in (1, 2):
        raise ValueError("s0 must be 1 or 2")
    k_list = np.asarray(k_list, dtype=float)
    if k_list.size == 0:
        raise ValueError("empty step-size list")
    n0 = 2 + s0 - r
    lam = default_spectrum(num_modes)
    u0 = sharp_initial_field(r, lam)
    zero = u0.with_coefficients(np.zeros(num_modes))
    errs = []
    for k in k_list:
        state = u0
        for _ in range(n0):
            state = ie_step_spectral(state, k, zero)
        exact = u0.coefficients * np.exp(-lam * n0 * k)
        diff = state.with_coefficients(state.coefficients - exact)
        errs.append(vs_norm(diff, s))
    return fit_loglog(k_list, errs)
