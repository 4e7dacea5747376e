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

from dataclasses import dataclass

import numpy as np

from cnflow.temporal_ops import (
    GridFunctionCG1,
    GridFunctionDG0,
    average,
    weighted_temporal_norm,
)

DEFAULT_MODES = 256


def default_spectrum(num_modes=DEFAULT_MODES):
    """Laplacian-like surrogate spectrum ``lambda_j = j^2``."""
    j = np.arange(1, num_modes + 1, dtype=float)
    return j * j


def _checked_spectrum(eigenvalues):
    """The eigenvalues as a float vector, if finite, positive and strictly ascending."""
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or not (lam.size and np.all(np.isfinite(lam)) and lam[0] > 0.0
                             and np.all(np.diff(lam) > 0.0)):
        raise ValueError("eigenvalues must be a finite, positive, strictly ascending vector")
    return lam


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
        object.__setattr__(self, "eigenvalues", _checked_spectrum(lam))
        object.__setattr__(self, "coefficients", c)

    def with_coefficients(self, c):
        return SpectralField(self.eigenvalues, c)


def vs_row_norm(eigenvalues, s):
    """The V^s norm as a row-wise spatial norm: maps a block of coefficient
    rows to ``sqrt(sum_j lambda_j^s c_j^2)`` per row, in one ``einsum`` pass
    whose bits per row depend on neither the number of rows nor the BLAS."""
    lam_s = eigenvalues ** s
    return lambda c: np.sqrt(np.einsum("...j,...j,j->...", c, c, lam_s))


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


def evolve_cn(mesh, eigenvalues, c0, forcing, start, observer):
    """Crank-Nicolson evolution over intervals ``start+1 .. N`` of the mesh.

    ``c0`` is one coefficient vector or a ``(trials, modes)`` block stepped
    together; ``forcing(n)`` gives the interval average of the forcing on the
    0-based interval ``n``, shaped like ``c0`` (checked, as is the spectrum).
    Each step rounds exactly as ``cn_step_spectral``.  Nothing is stored:
    each interval ``n`` is handed to ``observer(n, prev, new, f)`` in order,
    in arrays that later steps overwrite.
    """
    N = mesh.num_intervals
    lam = _checked_spectrum(eigenvalues)
    c0 = np.asarray(c0, dtype=float)
    if not 0 <= start < N:
        raise ValueError(f"start index {start} outside 0..{N - 1}")
    if c0.shape[-1:] != lam.shape or c0.ndim > 2:
        raise ValueError(f"initial value of shape {c0.shape}, need {lam.shape} "
                         f"or (trials, {lam.size})")
    k = mesh.steps
    # per step size, not per interval: the meshes repeat few step sizes
    step_sizes, which = np.unique(k[start:], return_inverse=True)
    half = 0.5 * lam * step_sizes[:, None]
    factors = list(zip(1.0 - half, 1.0 + half))
    prev, new, decayed = c0.copy(), np.empty_like(c0), np.empty_like(c0)
    for n, m in zip(range(start, N), which):
        decay, growth = factors[m]
        f = forcing(n)
        if np.shape(f) != c0.shape:  # a row that broadcasts would force every mode
            raise ValueError(f"forcing on interval {n} has shape {np.shape(f)}, not {c0.shape}")
        np.multiply(k[n], f, out=new)
        np.multiply(decay, prev, out=decayed)
        new += decayed  # k f + decay c, equal bit for bit to decay c + k f
        new /= growth
        observer(n, prev, new, f)
        prev, new = new, prev


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
    ratios: np.ndarray

    CSV_HEADER = "kind,s,ell,n0,N,trials,seed,max_ratio"

    @property
    def max_ratio(self):
        return float(self.ratios.max())

    def csv_row(self):
        return (f"{self.kind},{self.s},{self.ell},{self.n0},{self.num_intervals},"
                f"{self.trials},{self.seed},{self.max_ratio!r}")


_TRIAL_DECAY = -1.2  # spectral decay exponent of the random trial data


def _random_trial(rng, lam, s):
    """Mesh-independent random data: an initial field and the coefficients of
    a smooth forcing.

    The initial coefficients ``c0`` decay like ``lambda^(-s/2) j^-1.2`` and
    the forcing, ``b[0] + b[1] cos(pi t/T) + b[2] sin(2 pi t/T)`` per mode
    with ``b`` of shape ``(3, M)``, like ``lambda^((1-s)/2) j^-1.2``, so
    that their V^s and L2(V^{s-1}) sizes depend on neither ``s`` nor the time
    mesh: refinement studies rediscretize the same underlying data.
    """
    return _scaled_trial(rng.standard_normal(lam.size), rng.standard_normal((3, lam.size)),
                         lam, s)


def _scaled_trial(z0, zb, lam, s):
    """``_random_trial`` from its normals ``z0`` ``(..., M)`` and ``zb`` ``(3, ..., M)``,
    elementwise: a block of trials gets the bits of each trial scaled alone."""
    j = np.arange(1, lam.size + 1, dtype=float)
    c0 = z0 * lam ** (-s / 2.0) * j ** _TRIAL_DECAY
    b = zb * (lam ** ((1.0 - s) / 2.0) * j ** _TRIAL_DECAY)
    return c0, b


def _trial_normals(rng_seed, trial_count, M):
    """The normals ``_random_trial`` draws from ``default_rng([rng_seed, t])`` for every
    trial ``t``, as a ``(trials, M)`` and a ``(3, trials, M)`` block."""
    z0, zb = np.empty((trial_count, M)), np.empty((3, trial_count, M))
    for t in range(trial_count):
        rng = np.random.default_rng([rng_seed, t])
        z0[t], zb[:, t] = rng.standard_normal(M), rng.standard_normal((3, M))
    return z0, zb


def _time_factors(mesh):
    """Interval averages of the time factors ``(1, cos(pi t/T), sin(2 pi t/T))``
    of the trial forcing: an ``(N, 3)`` block."""
    T = mesh.T

    def factors(t):
        return np.stack([np.ones_like(t), np.cos(np.pi * t / T),
                         np.sin(2.0 * np.pi * t / T)], axis=-1)

    return average(factors, mesh).values


def _trial_forcing(phi, b):
    """Interval averages of the forcing of coefficients ``b`` (see
    ``_random_trial``) from the averaged time factors ``phi``: the forcing is
    separable in time, so this is the same Gauss rule regrouped.  ``phi`` is
    the ``(N, 3)`` block or one row of it.  An explicit three-term sum, so
    the bits do not depend on the BLAS build."""
    return (phi[..., :1] * b[0] + phi[..., 1:2] * b[1]) + phi[..., 2:] * b[2]


def _trial_rows(s, lower_level, n0, mesh, normals, lam):
    """Per-trial norm rows of one evolution of the trial ``normals``: V^s per node, then
    per interval V^{s+1} of the average, V^{s-1} of d/dt and of the forcing and, if
    ``lower_level``, V^s of the average and of d/dt.  The trials step as one block,
    storing no trajectory."""
    N = mesh.num_intervals
    phi = _time_factors(mesh)  # once per mesh, not per trial
    lower, same, upper = (vs_row_norm(lam, order) for order in (s - 1, s, s + 1))
    c0, b = _scaled_trial(*normals, lam, s)
    node = np.empty((N + 1, len(c0)))
    node[: n0 + 1] = same(c0)
    rows = np.zeros((5 if lower_level else 3, N, len(c0)))

    def observe(n, prev, new, f):
        avg, dt = 0.5 * (prev + new), (new - prev) / mesh.steps[n]
        node[n + 1] = same(new)
        rows[0, n], rows[1, n], rows[2, n] = upper(avg), lower(dt), lower(f)
        if lower_level:
            rows[3, n], rows[4, n] = same(avg), same(dt)

    evolve_cn(mesh, lam, c0, lambda n: _trial_forcing(phi[n], b), n0, observe)
    return (node, *rows)


def _report(rows, s, ell, n0, mesh, trial_count, rng_seed):
    """The report of level ``ell`` on ``mesh``, composed from ``_trial_rows``."""
    window = (n0, mesh.num_intervals)
    kmax = mesh.k_max
    a_ell, a_lower = 0.5 * ell, 0.5 * (ell - 1)
    node, avg_upper, dt_lower, f_lower, *same_rows = rows

    def composed(grid, rows, alpha, p=2):
        return np.array([weighted_temporal_norm(grid(mesh, r), alpha, p, np.abs, window)
                         for r in rows.T])

    lhs = (composed(GridFunctionCG1, node, a_ell, np.inf)
           + composed(GridFunctionDG0, avg_upper, a_ell)
           + composed(GridFunctionDG0, dt_lower, a_ell))
    rhs = kmax ** a_ell * node[n0] + composed(GridFunctionDG0, f_lower, a_ell)
    if ell >= 1:  # summed left to right, so the rounding matches one four-term sum
        avg_same, dt_same = same_rows
        rhs = (rhs + composed(GridFunctionDG0, avg_same, a_lower)
               + kmax * composed(GridFunctionDG0, dt_same, a_lower))
    return StabilityReport("smoothing-stability" if ell >= 1 else "discrete-stability", s, ell,
                           n0, mesh.num_intervals, trial_count, rng_seed, lhs / rhs)


def stability_reports(checks, ladders, trial_count=50, rng_seed=0, eigenvalues=None):
    """Per ``(s, ell, n0)`` check, the reports of its two-sided ratios on its ladder.

    The evolution starts from a random state at node ``n0`` and runs on
    the window ``(t_n0, T]``.  The left side

        Linf V^s + L2 V^{s+1} of the average + L2 V^{s-1} of d/dt

    carries the weight ``tau^(ell/2)``; the right side is the
    ``k^(ell/2)``-scaled V^s norm of the initial value plus the weighted
    L2 V^{s-1} norm of the forcing and, for ``ell >= 1``, the two
    lower-level norms of the evolved solution (weight ``tau^((ell-1)/2)``,
    order ``s`` for both the average and, with a factor ``k``, the
    derivative).  Level 0 from ``n0 = 0`` is the unweighted discrete
    stability estimate.  Trials are seeded from ``(rng_seed, trial)``, their
    normals drawn once per call.  The checks of one ``s``, ``n0`` and
    ``ell >= 1`` share one evolution per rung, stepped on the first one's mesh:
    all compose it before the next steps, each on its own mesh of equal nodes.
    """
    lam = default_spectrum() if eigenvalues is None else _checked_spectrum(eigenvalues)
    if trial_count < 1:
        raise ValueError(f"trial_count must be at least 1, got {trial_count}")
    normals = _trial_normals(rng_seed, trial_count, lam.size)
    groups, reports = {}, [[] for _ in checks]
    for i, (s, ell, n0) in enumerate(checks):
        groups.setdefault((s, ell >= 1, n0), []).append(i)
    for (s, lower_level, n0), members in groups.items():
        if len({tuple(mesh.nodes.tobytes() for mesh in ladders[i]) for i in members}) > 1:
            raise ValueError("checks that share their trials need ladders of equal meshes")
        for j, mesh in enumerate(ladders[members[0]]):
            rows = _trial_rows(s, lower_level, n0, mesh, normals, lam)
            for i in members:
                reports[i].append(_report(rows, *checks[i], ladders[i][j], trial_count, rng_seed))
    return reports


def verify_discrete_stability(s, mesh, trial_count=50, rng_seed=0, eigenvalues=None):
    """Two-sided check of the unweighted discrete stability estimate.

    Random initial values and forcings drive the Crank-Nicolson
    evolution; for each trial the ratio

        (Linf V^s + L2 V^{s+1} of the average + L2 V^{s-1} of d/dt)
        / (V^s of the initial value + L2 V^{s-1} of the forcing)

    is recorded and the maximum reported: level 0 of the smoothing
    estimate (see ``stability_reports``).
    """
    return stability_reports([(s, 0, 0)], [[mesh]], trial_count, rng_seed, eigenvalues)[0][0]


def verify_smoothing_stability(s, ell, n0, mesh, trial_count=50, rng_seed=0,
                               eigenvalues=None):
    """Two-sided check of the smoothing-weighted stability estimate of
    level ``ell >= 1`` on the window ``(t_n0, T]`` (see ``stability_reports``)."""
    if ell <= 0:
        raise ValueError("smoothing level must be positive "
                         "(use verify_discrete_stability for the unweighted estimate)")
    return stability_reports([(s, ell, n0)], [[mesh]], trial_count, rng_seed, eigenvalues)[0][0]


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
