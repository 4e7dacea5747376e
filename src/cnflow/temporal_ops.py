"""Time-discrete function spaces and the temporal projection operators.

Grid functions live over an abstract coefficient space: values are numpy
arrays of any fixed shape (scalars included).  ``GridFunctionCG1`` is
continuous piecewise linear with one value per node; ``GridFunctionDG0``
is piecewise constant with one value per right-closed interval
``I^n = (t_{n-1}, t_n]`` (see ``TimeMesh.interval_of``).

The three projection operators are nodal interpolation onto the
piecewise-linear space, interval averaging (the L2-projection onto the
piecewise constants) and constant continuation of midpoint values.  A time
callable is array-valued: times of shape ``S`` give values of shape ``S + V``.
"""

import numpy as np


class GridFunctionCG1:
    """Continuous piecewise-linear grid function (one value per node)."""

    def __init__(self, mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape[0] != mesh.num_intervals + 1:
            raise ValueError("need one value per mesh node")
        self.mesh = mesh
        self.values = values

    def evaluate(self, t):
        """Affine interpolant at one time or at an array of times."""
        t = np.asarray(t, dtype=float)
        n = self.mesh.interval_of(t)
        theta = np.clip((t - self.mesh.nodes[n - 1]) / self.mesh.steps[n - 1], 0.0, 1.0)
        theta = np.reshape(theta, theta.shape + (1,) * (self.values.ndim - 1))
        return (1.0 - theta) * self.values[n - 1] + theta * self.values[n]


class GridFunctionDG0:
    """Piecewise-constant grid function (one value per interval)."""

    def __init__(self, mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape[0] != mesh.num_intervals:
            raise ValueError("need one value per mesh interval")
        self.mesh = mesh
        self.values = values


_GAUSS_CACHE = {}


def gauss_rule(npts):
    """Gauss-Legendre nodes/weights on [-1, 1], cached."""
    if npts not in _GAUSS_CACHE:
        _GAUSS_CACHE[npts] = np.polynomial.legendre.leggauss(npts)
    return _GAUSS_CACHE[npts]


def _sample(u, t):
    """Values of the time callable ``u`` at the array of times ``t``."""
    vals = np.asarray(u(t), dtype=float)
    if vals.shape[:t.ndim] != t.shape:
        raise ValueError(f"time callable gave shape {vals.shape} for times {t.shape}")
    return vals


def interval_average(fn, a, b, npts=3):
    """Gauss approximation of ``(b - a)^{-1} \\int_a^b fn``, for scalar or array bounds."""
    x, w = gauss_rule(npts)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    acc = None
    for xi, wi in zip(x, w):
        val = wi * _sample(fn, mid + half * xi)
        acc = val if acc is None else acc + val
    return 0.5 * acc


def interpolate_nodal(u, mesh):
    """Nodal interpolation of a time callable onto the piecewise linears."""
    return GridFunctionCG1(mesh, _sample(u, mesh.nodes))


def average(u, mesh=None, quadrature_order=3):
    """Interval averaging (L2-projection onto the piecewise constants).

    For a piecewise-linear grid function the average is the exact endpoint
    mean; for a time callable each interval is integrated with a Gauss
    rule of at least three points.
    """
    if isinstance(u, GridFunctionCG1):
        m = u.mesh
        return GridFunctionDG0(m, 0.5 * (u.values[:-1] + u.values[1:]))
    if mesh is None:
        raise ValueError("mesh required when averaging a time callable")
    if quadrature_order < 3:
        raise ValueError("need at least 3 Gauss points per interval")
    return GridFunctionDG0(mesh, interval_average(u, mesh.nodes[:-1], mesh.nodes[1:],
                                                  quadrature_order))


def midpoint_sample(u, mesh):
    """Constant continuation of the interval midpoint values."""
    return GridFunctionDG0(mesh, _sample(u, mesh.midpoints))


def time_derivative(u):
    """Piecewise-constant derivative of a piecewise-linear grid function."""
    if not isinstance(u, GridFunctionCG1):
        raise ValueError("time derivative defined for piecewise linears only")
    d = np.diff(u.values, axis=0)
    k = u.mesh.steps.reshape((-1,) + (1,) * (d.ndim - 1))
    return GridFunctionDG0(u.mesh, d / k)


_GAUSS2_THETA = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


def _compose(p, w, q, k=None):
    """Temporal composition of weighted samples ``q`` with weights ``w``:
    ``sqrt(sum k (w q)^2)`` with steps ``k`` for ``p == 2``, ``max(w q)`` for
    ``p == inf`` (the only other ``p`` its callers pass)."""
    if p == 2:
        return float(np.sqrt(np.sum(k * (w * q) ** 2)))
    return float(np.max(w * q))


def _row_norms(spatial_norm, rows):
    q = np.asarray(spatial_norm(rows), dtype=float)
    if q.shape != rows.shape[:1]:
        raise ValueError(f"spatial_norm must return one norm per row, got shape {q.shape}")
    return q


def weighted_temporal_norm(f, alpha, p, spatial_norm, window=None):
    """Weighted temporal L2 or Linf norm of a grid function.

    Parameters
    ----------
    f : GridFunctionDG0 or GridFunctionCG1
    alpha : float
        Exponent of the smoothing weight ``tau_k^alpha`` on the mesh of
        ``f`` (see ``TimeMesh.tau_values``).
    p : 2 or numpy.inf
        Temporal composition.
    spatial_norm : callable
        Row-wise spatial norm: maps a block of ``n`` coefficient values
        (an array of shape ``(n,) + value shape``) to the ``n`` nonnegative
        norms of its rows, as an array of shape ``(n,)``.
    window : pair of ints, optional
        Half-open interval-index window ``(n_start, n_end]`` (1-based,
        default the whole mesh).

    Each interval contributes one sample ``q_n`` to ``_compose``.  For
    piecewise constants ``q_n`` is the norm of the interval value.  For
    piecewise linears the L2 sample is the two-point Gauss quadrature of
    the squared norm of the affine interpolant, which is exact whenever
    the spatial norm is induced by an inner product, and the Linf sample
    is the larger endpoint norm (the norm along an affine segment is
    convex, so the interval supremum sits at an endpoint).
    """
    if not (p == 2 or np.isinf(p)):  # before any spatial norm runs
        raise ValueError("p must be 2 or inf")
    mesh = f.mesh
    N = mesh.num_intervals
    if window is None:
        window = (0, N)
    n_start, n_end = window
    if not (0 <= n_start < n_end <= N):
        raise ValueError(f"empty or invalid window {window}")
    w = mesh.tau_values(alpha)[n_start:n_end]
    k = mesh.steps[n_start:n_end]

    if isinstance(f, GridFunctionDG0):
        q = _row_norms(spatial_norm, f.values[n_start:n_end])
    elif isinstance(f, GridFunctionCG1):
        if p == 2:
            left = f.values[n_start:n_end]
            right = f.values[n_start + 1:n_end + 1]
            q = np.sqrt(sum(0.5 * _row_norms(spatial_norm, (1.0 - th) * left + th * right) ** 2
                            for th in _GAUSS2_THETA))
        else:  # each node's norm once, shared by the two intervals it bounds
            q = _row_norms(spatial_norm, f.values[n_start:n_end + 1])
            q = np.maximum(q[:-1], q[1:])
    else:
        raise ValueError("unsupported grid function type")
    return _compose(p, w, q, k)
