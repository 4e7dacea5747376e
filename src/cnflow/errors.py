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
trajectory against each one as it arrives and stores no field.
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


def _anchor_weights(anchors, ts):
    """Indices ``lo``, ``hi`` and weights ``theta`` of the piecewise linear
    interpolant through values at the ascending ``anchors``: its value at
    ``ts[j]`` is ``(1 - theta[j]) * v[lo[j]] + theta[j] * v[hi[j]]``.

    The n-th piecewise-constant pressure value approximates the pressure
    at the interval midpoint (that is where it is second-order accurate),
    so for comparison at other times the pressure is anchored at the
    midpoints; the piecewise linear velocity is anchored at the nodes.
    Beyond the outermost anchors the interpolant extends linearly, and a
    single anchor holds its value.  At an anchor the interpolant is the
    stored value exactly; in particular a trajectory read at its own
    midpoints is reconstructed bit for bit.
    """
    if anchors.size == 1:
        zero = np.zeros(ts.size, dtype=int)
        return zero, zero, np.zeros(ts.size)
    hi = np.clip(np.searchsorted(anchors, ts), 1, anchors.size - 1)
    lo = hi - 1
    return lo, hi, (ts - anchors[lo]) / (anchors[hi] - anchors[lo])


class _Samples:
    """The samples of one field of one coarse trajectory against a reference on
    ``mesh``: the spatial norm of the coarse field less the reference value at
    each reference sample time inside the window ``(t_{window_start}, T]``,
    filled by ``feed`` one reference value at a time, in order.  The
    interpolation weights of the coarse field at those times are computed
    once, here.  ``error`` weighs and composes the samples in any norm of
    that field and window."""

    def __init__(self, traj, field, window_start, mesh, space):
        if traj.space is not None and space is not None and traj.space is not space:
            raise ValueError("trajectories live on different spatial spaces")
        if getattr(traj, field) is None:
            raise ValueError(f"the trajectory did not store the {field}")
        if window_start >= traj.mesh.num_intervals:
            raise ValueError("window start leaves no intervals")
        # the reference samples the pressure at its midpoints and the velocity
        # at its nodes; the coarse field is anchored alike
        times, anchors = ((mesh.midpoints, traj.mesh.midpoints) if field == "pressure"
                          else (mesh.nodes, traj.mesh.nodes))
        ts = times[times > traj.mesh.nodes[window_start]]
        if not ts.size:
            raise ValueError("window contains no evaluation times")
        self._interval = traj.mesh.interval_of(ts)  # refuses times beyond the coarse mesh
        # the window is a suffix of the ascending times
        self._skip = times.size - ts.size
        space = traj.space or space
        if space is None:
            raise ValueError("error norms need a trajectory with a spatial space")
        self._S = space.pressure_mass if field == "pressure" else space.stiffness
        self._field, self._c = field, getattr(traj, field).values
        lo, hi, theta = _anchor_weights(anchors, ts)
        self._weights = list(zip(lo.tolist(), hi.tolist(), theta.tolist()))
        self._mesh, self._k = traj.mesh, mesh.steps[0]  # the step of the L2 sum
        self._q = np.empty(ts.size)
        self._filled = 0

    def feed(self, i, value):
        """Take the reference ``value`` of sample ``i``."""
        width = self._c.shape[1]
        if value.size != width:
            raise ValueError(f"the reference {self._field} has {value.size} coefficients, "
                             f"the trajectory stores {width}")
        j = i - self._skip
        if j >= 0:
            lo, hi, theta = self._weights[j]
            d = (1.0 - theta) * self._c[lo] + theta * self._c[hi]
            d -= value
            self._q[j] = np.sqrt(d @ (self._S @ d))
            self._filled = j + 1

    def error(self, spec):
        """The temporal norm of ``spec`` of the weighted samples."""
        if self._filled < self._q.size:
            raise ValueError("the reference ended before the window")
        w = self._mesh.tau_values(spec.alpha)[self._interval - 1]
        return _compose(NORMS[spec.norm][1], w, self._q, self._k)


class StreamedReference:
    """A reference scored while it is solved, storing no field.

    Pass ``observe`` as the observer of the reference solve on ``mesh``: it
    hands each interval's value of every field the norms read to one sample
    array per distinct coarse trajectory, field and window start of
    ``groups``, pairs ``(runs, error_specs)``.  The trajectories must store
    those fields; ``pressure_error`` and ``velocity_error`` compose any
    weight and order of a scored array.
    """

    def __init__(self, mesh, space, groups):
        fields = fields_read([es for _, error_specs in groups for es in error_specs])
        # the midpoint rule weights every pressure sample with one reference step
        if "pressure" in fields and mesh.rho > 1.0 + UNIFORM_RHO_TOL:
            raise ValueError("reference mesh must be uniform")
        keys = dict.fromkeys((traj, NORMS[es.norm][0], es.window_start)
                             for runs, error_specs in groups for traj in runs for es in error_specs)
        self._samples = {key: _Samples(*key, mesh, space) for key in keys}
        self._fields = fields
        self._done = 0  # intervals observed

    def observe(self, u, p):
        values = {"velocity": u, "pressure": p}
        for field in self._fields:
            if values[field] is None:
                raise ValueError(f"the reference gave no {field}")
        self._done += 1
        # interval n ends at velocity sample n (node n) and holds pressure
        # sample n - 1 (midpoint n)
        for (_, field, _), samples in self._samples.items():
            samples.feed(self._done - (field == "pressure"), values[field])

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

    Both pressures are read as midpoint samples (see ``_anchor_weights``)
    and compared at the reference midpoints inside the window, where the
    reference reconstruction is exactly its values; the smoothing weight of the coarse interval containing each
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
