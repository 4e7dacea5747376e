"""Error norms between trajectories and rate fitting.

Pressure errors follow the midpoint-rule protocol: both piecewise
constant pressures are evaluated at the midpoints of the (uniform, finer)
reference mesh, the pressure-mass-weighted spatial norm is applied to the
difference, and the values are composed in time either by the midpoint-rule
L2 sum or by a maximum.  Weighted variants multiply each sample by the
smoothing weight of the coarse-mesh interval containing it, and a window
``(t_n0, T]`` restricts the samples.  Velocity errors sample the reference
nodes alike, in the stiffness-weighted seminorm.

The reference is a ``StreamedReference``: it takes the reference values
interval by interval while the reference is solved, scores every coarse
trajectory against them block by block and stores no field.
"""

from dataclasses import dataclass, field

import numpy as np

from cnflow.temporal_ops import _compose
from cnflow.time_mesh import UNIFORM_RHO_TOL

# norm id -> (field it reads, temporal exponent p of ``_compose``)
NORMS = {
    "pressure_L2l2": ("pressure", 2),
    "pressure_Linfl2": ("pressure", np.inf),
    "velocity_LinfV1": ("velocity", np.inf),
}
# Reference samples evaluated together.  A block's values, coarse values and
# their temporaries hold about four blocks of a field; the per-row spatial
# norms, not the block size, set the time (the same from 16 to 256 rows).
_NODE_BLOCK = 32


def fields_read(error_specs):
    """The trajectory fields the norms of ``error_specs`` read, each once, in
    the order the norms first name them."""
    return tuple(dict.fromkeys(NORMS[es.norm][0] for es in error_specs))


@dataclass(frozen=True)
class ErrorSpec:
    """Selection of one error norm.

    ``window_start`` is the number of leading coarse intervals excluded
    from the evaluation window ``(t_{n0}, T]``; weighted norms use it to
    skip the Euler prefix.
    """

    norm: str
    alpha: float = 0.0
    window_start: int = 0

    def __post_init__(self):
        if self.norm not in NORMS:
            raise ValueError(f"unknown norm id {self.norm!r}")
        if not 0.0 <= self.alpha < np.inf:
            raise ValueError("weight exponent must be nonnegative and finite")
        if self.window_start < 0:
            raise ValueError("window start must be nonnegative")


@dataclass
class ConvergenceRow:
    k: float
    n0: int
    alpha: float
    norm: str
    error: float


@dataclass
class ConvergenceRecord:
    """Rows of a convergence study plus fitted rates."""

    rows: list = field(default_factory=list)

    def add(self, k, n0, alpha, norm, error):
        self.rows.append(ConvergenceRow(float(k), int(n0), float(alpha), norm, float(error)))

    def norms(self):
        seen = []
        for r in self.rows:
            if r.norm not in seen:
                seen.append(r.norm)
        return seen

    def fit(self, norm):
        """``fit_loglog`` over the rows of ``norm``."""
        rows = [r for r in self.rows if r.norm == norm]
        return fit_loglog([r.k for r in rows], [r.error for r in rows])

    def to_csv(self):
        """CSV text with header ``k,n0,alpha,norm,error,rate_pairwise``.

        Rows are emitted per norm in descending k; the pairwise rate
        column is empty on the first row of each norm.
        """
        lines = ["k,n0,alpha,norm,error,rate_pairwise"]
        for norm in self.norms():
            rows = sorted((r for r in self.rows if r.norm == norm), key=lambda r: -r.k)
            prev = None
            for r in rows:
                rate = ""
                if prev is not None and r.error > 0.0 and prev.error > 0.0:
                    rate = repr(float(np.log(prev.error / r.error) / np.log(prev.k / r.k)))
                lines.append(f"{r.k!r},{r.n0},{r.alpha!r},{r.norm},{r.error!r},{rate}")
                prev = r
        return "\n".join(lines) + "\n"


@dataclass
class RateFit:
    """Least-squares slope of log error against log step size."""

    k_values: np.ndarray
    errors: np.ndarray
    slope: float
    pairwise: np.ndarray

    def csv_row(self):
        pair = ";".join(repr(float(p)) for p in self.pairwise)
        return f"{self.slope!r},{pair}"


def fit_loglog(k_values, errors):
    """Fit ``log(error) = slope * log(k) + c`` and the pairwise rates."""
    k = np.asarray(k_values, dtype=float)
    e = np.asarray(errors, dtype=float)
    if k.size < 2 or np.unique(k).size < 2:
        raise ValueError("need at least two distinct step sizes")
    if not np.all(np.isfinite(e) & (e > 0.0)):
        raise ValueError("errors must be positive and finite for a log-log fit "
                         "(zero error signals an exact match or a bug)")
    order = np.argsort(-k)
    k, e = k[order], e[order]
    A = np.vstack([np.log(k), np.ones_like(k)]).T
    slope = np.linalg.lstsq(A, np.log(e), rcond=None)[0][0]
    pairwise = np.log(e[:-1] / e[1:]) / np.log(k[:-1] / k[1:])
    return RateFit(k, e, float(slope), pairwise)


def midpoint_reconstruction(pressure, ts):
    """Pressure samples read as midpoint values, interpolated in time.

    The n-th piecewise-constant pressure value approximates the pressure
    at the interval midpoint (that is where it is second-order accurate),
    so for comparison at other times the values are anchored at the
    midpoints and interpolated piecewise linearly, with linear extension
    beyond the outermost anchors.  Evaluating at the anchors themselves
    returns the stored values exactly; in particular the reconstruction
    of a trajectory at its own midpoints is the identity.
    """
    anchors = pressure.mesh.midpoints
    vals = pressure.values
    ts = np.asarray(ts, dtype=float)
    if anchors.size == 1:
        return np.broadcast_to(vals[0], (ts.size,) + vals.shape[1:]).copy()
    seg = np.clip(np.searchsorted(anchors, ts), 1, anchors.size - 1)
    theta = (ts - anchors[seg - 1]) / (anchors[seg] - anchors[seg - 1])
    theta = theta.reshape((-1,) + (1,) * (vals.ndim - 1))
    return (1.0 - theta) * vals[seg - 1] + theta * vals[seg]


# field -> (its reference sample times on a mesh, the coarse field at times)
_SAMPLING = {
    "pressure": (lambda mesh: mesh.midpoints, midpoint_reconstruction),
    "velocity": (lambda mesh: mesh.nodes, lambda velocity, ts: velocity.evaluate(ts)),
}


class _Samples:
    """The samples of one field of one coarse trajectory against a reference on
    ``mesh``: the spatial norm of the coarse field less the reference value at
    each reference sample time inside the window ``(t_{window_start}, T]``,
    filled by ``feed`` as the reference values arrive in order.  ``error``
    weighs and composes them in any norm of that field and window."""

    def __init__(self, traj, field, window_start, mesh, space):
        if traj.space is not None and space is not None and traj.space is not space:
            raise ValueError("trajectories live on different spatial spaces")
        if getattr(traj, field) is None:
            raise ValueError(f"the trajectory did not store the {field}")
        if window_start >= traj.mesh.num_intervals:
            raise ValueError("window start leaves no intervals")
        times, self._at = _SAMPLING[field]
        times = times(mesh)
        self._ts = times[times > traj.mesh.nodes[window_start]]
        if not self._ts.size:
            raise ValueError("window contains no evaluation times")
        # the window is a suffix of the ascending times
        self._skip = times.size - self._ts.size
        space = traj.space or space
        if space is None:
            raise ValueError("error norms need a trajectory with a spatial space")
        # one dot product x . (S x) per row of a block
        S = space.pressure_mass if field == "pressure" else space.stiffness
        self._norm = lambda d: np.sqrt([x @ (S @ x) for x in d])
        self._field, self._coarse = field, getattr(traj, field)
        self._mesh, self._k = traj.mesh, mesh.steps[0]  # the step of the L2 sum
        self._q = np.empty(self._ts.size)
        self._filled = 0

    def feed(self, first, values):
        """Take the reference ``values`` of the samples ``first, first + 1, ...``."""
        width = self._coarse.values.shape[1]
        if values.shape[1] != width:
            raise ValueError(f"the reference {self._field} has {values.shape[1]} coefficients, "
                             f"the trajectory stores {width}")
        lo, hi = max(first - self._skip, 0), first + len(values) - self._skip
        if lo < hi:
            d = self._at(self._coarse, self._ts[lo:hi])
            d -= values[lo + self._skip - first:]
            self._q[lo:hi] = self._norm(d)
            self._filled = hi

    def error(self, spec):
        """The temporal norm of ``spec`` of the weighted samples."""
        if self._filled < self._q.size:
            raise ValueError("the reference ended before the window")
        w = self._mesh.tau_values(spec.alpha)[self._mesh.interval_of(self._ts) - 1]
        return _compose(NORMS[spec.norm][1], w, self._q, self._k)


class StreamedReference:
    """A reference scored while it is solved, storing no field.

    Pass ``observe`` as the observer of the reference solve on ``mesh``: it
    keeps one block of ``_NODE_BLOCK`` intervals of each field the norms read,
    as wide as that field of the first interval, and hands every full block,
    and the last one, to one sample array per distinct coarse trajectory,
    field and window start of ``groups``, pairs ``(runs, error_specs)``.  The
    trajectories must store those fields; ``pressure_error`` and
    ``velocity_error`` compose any weight and order of a scored array.
    """

    def __init__(self, mesh, space, groups):
        fields = fields_read([es for _, error_specs in groups for es in error_specs])
        # the midpoint rule weights every pressure sample with one reference step
        if "pressure" in fields and mesh.rho > 1.0 + UNIFORM_RHO_TOL:
            raise ValueError("reference mesh must be uniform")
        self.mesh = mesh
        keys = dict.fromkeys((traj, NORMS[es.norm][0], es.window_start)
                             for runs, error_specs in groups for traj in runs for es in error_specs)
        self._samples = {key: _Samples(*key, mesh, space) for key in keys}
        self._block = dict.fromkeys(fields)  # allocated on the first interval
        self._done = 0  # intervals observed

    def observe(self, u, p):
        row = self._done % _NODE_BLOCK
        for field, value in (("velocity", u), ("pressure", p)):
            if field in self._block:
                if value is None:
                    raise ValueError(f"the reference gave no {field}")
                if not self._done:
                    rows = min(_NODE_BLOCK, self.mesh.num_intervals)
                    self._block[field] = np.empty((rows, np.size(value)))
                self._block[field][row] = value
        self._done += 1
        if row + 1 == _NODE_BLOCK or self._done == self.mesh.num_intervals:
            # interval n ends at velocity sample n (node n) and holds pressure
            # sample n - 1 (midpoint n)
            n = self._done - row  # first interval of the block
            for (_, field, _), samples in self._samples.items():
                samples.feed(n - (field == "pressure"), self._block[field][:row + 1])

    def error(self, traj, spec):
        """The norm of ``spec`` of ``traj``, whose field and window were scored."""
        try:
            samples = self._samples[traj, NORMS[spec.norm][0], spec.window_start]
        except KeyError:
            raise ValueError("the reference did not score this run, field and window") from None
        return samples.error(spec)


def _field_norm(spec, field):
    if NORMS[spec.norm][0] != field:
        raise ValueError(f"{spec.norm} is not a {field} norm")
    return spec


def pressure_error(traj, ref, spec):
    """Midpoint-rule pressure error of ``traj`` against the
    ``StreamedReference`` ``ref`` that scored its window of ``spec``.

    Both pressures are read as midpoint samples (see
    ``midpoint_reconstruction``) and compared at the reference midpoints
    inside the window, where the reference reconstruction is exactly its
    values; the smoothing weight of the coarse interval containing each
    midpoint multiplies the spatial norm of the difference.
    """
    return ref.error(traj, _field_norm(spec, "pressure"))


def velocity_error(traj, ref, spec):
    """Velocity error of ``traj`` against the ``StreamedReference`` ``ref``
    that scored its window of ``spec``.

    ``velocity_LinfV1`` takes the maximum over reference nodes (inside
    the window) of the stiffness-weighted seminorm of the difference of
    the piecewise-linear evaluations.
    """
    return ref.error(traj, _field_norm(spec, "velocity"))
