"""Temporal meshes and the discrete smoothing weight.

A mesh covers ``[0, T]`` with nodes ``0 = t_0 < ... < t_N = T``; interval
``n`` (1-based) is the half-open ``(t_{n-1}, t_n]``.  Two regularity
numbers are tracked: the adjacency ratio ``kappa`` (largest ratio of
neighbouring steps) and the global ratio ``rho`` (largest step over
smallest step).

The smoothing weight is the piecewise-constant discretization of
``min(t, 1)``: on interval ``n`` it takes the value ``min(t_{n-1}, 1)``,
so it vanishes identically on the first interval.
"""

import numpy as np


class TimeMesh:
    """Immutable temporal mesh with derived interval data.

    Parameters
    ----------
    nodes : array_like
        Strictly increasing times, ``nodes[0] == 0``.
    """

    def __init__(self, nodes):
        nodes = np.ascontiguousarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least two nodes")
        if nodes[0] != 0.0:
            raise ValueError("first node must be t_0 = 0")
        steps = np.diff(nodes)
        if np.any(steps <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        self.nodes = nodes
        self.steps = steps
        self.midpoints = 0.5 * (nodes[:-1] + nodes[1:])
        self.num_intervals = steps.size
        self.T = float(nodes[-1])
        self.k_max = float(steps.max())
        self.k_min = float(steps.min())
        ratio = steps[1:] / steps[:-1]
        self.kappa = float(max(ratio.max(), (1.0 / ratio).max())) if ratio.size else 1.0
        self.rho = self.k_max / self.k_min
        for a in (self.nodes, self.steps, self.midpoints):
            a.flags.writeable = False

    def __len__(self):
        return self.num_intervals

    def __repr__(self):
        return (f"TimeMesh(T={self.T}, N={self.num_intervals}, "
                f"k={self.k_max:.6g}, kappa={self.kappa:.4g})")

    def interval_of(self, t):
        """1-based index of the interval ``(t_{n-1}, t_n]`` containing ``t``.

        Right-continuous convention; times at or below 0 map to interval 1
        and times above ``T`` raise.
        """
        t = np.asarray(t, dtype=float)
        if np.any(t > self.T * (1.0 + 1e-14) + 1e-300):
            raise ValueError("time beyond final node")
        idx = np.searchsorted(self.nodes, np.minimum(t, self.T), side="left")
        idx = np.clip(idx, 1, self.num_intervals)
        return idx if idx.ndim else int(idx)

    def tau_values(self, alpha=1.0):
        """Per-interval smoothing weight ``min(t_{n-1}, 1) ** alpha``.

        Uses the convention ``0**0 == 1`` so ``alpha = 0`` gives the
        unweighted (all-ones) profile including the first interval.  The
        weight at times ``t`` is ``tau_values(alpha)[interval_of(t) - 1]``.
        """
        if alpha < 0.0:
            raise ValueError("weight exponent must be nonnegative")
        base = np.minimum(self.nodes[:-1], 1.0)
        if alpha == 0.0:
            return np.ones_like(base)
        return base ** alpha


def build_uniform_mesh(T, N):
    """Uniform mesh with ``N`` intervals on ``[0, T]``."""
    if not 0.0 < T < np.inf:
        raise ValueError("final time must be positive and finite")
    if N < 1:
        raise ValueError("need at least one interval")
    return TimeMesh(np.linspace(0.0, T, int(N) + 1))


def build_alternating_mesh(T, base_k, pattern):
    """Mesh whose steps cycle through ``base_k * pattern``.

    The pattern factors must be positive and average to one over a
    period, so a whole number of periods tiles ``[0, T]`` when ``T`` is a
    multiple of the period length.  If it is not, the step sequence is
    truncated and the final step adjusted (shrunk or stretched, at most
    one step) so that the last node lands on ``T`` exactly.
    """
    if not 0.0 < T < np.inf:
        raise ValueError("final time must be positive and finite")
    if not 0.0 < base_k < np.inf:
        raise ValueError("base step must be positive and finite")
    pattern = np.asarray(pattern, dtype=float)
    if pattern.size == 0 or not np.all((pattern > 0.0) & (pattern < np.inf)):
        raise ValueError("pattern factors must be positive and finite")
    if abs(pattern.mean() - 1.0) > 1e-9:
        raise ValueError("pattern factors must average to 1")
    cycle = base_k * pattern
    nodes = [0.0]
    t = 0.0
    i = 0
    while True:
        step = cycle[i % pattern.size]
        remaining = T - t
        if remaining <= step * 1.5 or remaining - step < 1e-12 * T:
            # close out with a single adjusted step
            nodes.append(T)
            break
        t += step
        nodes.append(t)
        i += 1
    return TimeMesh(np.asarray(nodes))

