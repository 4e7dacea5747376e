"""In-memory span tracing of cnflow's public entry points.

``install`` wraps the entry points of every cnflow module from outside the
package: it replaces module attributes and class attributes with wrappers
that record a span (name, start, end, parent, attributes) and then call the
original.  The wrappers only time and count; every check the wrapped code
does still runs.  ``layer_metrics`` turns the spans into the per-layer
metrics of the benchmark.

A layer's ``.s`` metric is its self time: the duration of its spans minus
the part covered by their child spans.  The three phase metrics
``schemes.reference.s``, ``schemes.coarse.s`` and ``schemes.stationary.s``
are wall times of whole phases instead, child spans included, and
``schemes.ms_per_step`` is the wall time of the time-stepping calls, less
the stationary solve that resolves incompatible initial data, per step.
The per-step ratios and ``schemes.factorizations`` count only work done by
the time steppers themselves, not by a stationary solve inside them.
``fem2d.assembly`` covers cache misses of the cached operator properties,
not their cache hits.  ``trace_overhead_s`` is the time the wrappers add:
the number of spans times the measured cost of one wrapped call.
"""

import functools
import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, ATTRS = range(5)

# Metrics that count work and must repeat exactly for one seed.
EXACT_COUNTS = (
    "fem2d.convection_apply.calls",
    "fem2d.jacobian.calls",
    "fem2d.factor.calls",
    "fem2d.lu_fill_nnz",
    "fem2d.lu_solve.calls",
    "schemes.steps",
    "schemes.factorizations",
    "time_mesh.distinct_steps",
    "errors.pressure_error.calls",
    "errors.velocity_error.calls",
    "temporal_ops.weighted_norm.calls",
)

# Every per-layer metric, in report order; BENCHMARK.json lists the same names.
LAYER_METRICS = (
    ("fem2d.assembly.s", "s"),
    ("fem2d.convection_apply.calls", "count"),
    ("fem2d.convection_apply.s", "s"),
    ("fem2d.jacobian.calls", "count"),
    ("fem2d.jacobian.s", "s"),
    ("fem2d.factor.calls", "count"),
    ("fem2d.factor.s", "s"),
    ("fem2d.lu_fill_nnz", "count"),
    ("fem2d.lu_solve.calls", "count"),
    ("fem2d.lu_solve.s", "s"),
    ("fem2d.saddle_solve.s", "s"),
    ("schemes.steps", "count"),
    ("schemes.ms_per_step", "ms"),
    ("schemes.step.self_s", "s"),
    ("schemes.reference.s", "s"),
    ("schemes.coarse.s", "s"),
    ("schemes.stationary.s", "s"),
    ("schemes.newton_residuals_per_step", "count"),
    ("schemes.lu_solves_per_step", "count"),
    ("schemes.factorizations", "count"),
    ("time_mesh.distinct_steps", "count"),
    ("errors.pressure_error.calls", "count"),
    ("errors.pressure_error.s", "s"),
    ("errors.velocity_error.calls", "count"),
    ("errors.velocity_error.s", "s"),
    ("temporal_ops.weighted_norm.calls", "count"),
    ("temporal_ops.weighted_norm.s", "s"),
    ("temporal_ops.average.s", "s"),
    ("temporal_ops.time_derivative.s", "s"),
    ("spectral_stokes.evolve_cn.s", "s"),
    ("spectral_stokes.verify.self_s", "s"),
    ("cli.rows.s", "s"),
    ("cli.self_s", "s"),
    ("trace_overhead_s", "s"),
)


class Tracer:
    """Spans of one single-threaded process, kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(args, result)`` adds data."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, result)
            return result

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)


class _CountingLU:
    """A SuperLU factorization whose ``solve`` records a span."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _replace_function(original, replacement):
    """Rebind ``original`` to ``replacement`` in every cnflow module namespace."""
    for name, module in list(sys.modules.items()):
        if name == "cnflow" or name.startswith("cnflow."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _wrap_method(tracer, cls, name, span, attrs=None):
    setattr(cls, name, tracer.wrap(span, cls.__dict__[name], attrs))


def _wrap_cached_property(tracer, cls, name, key, span):
    """Wrap a property that caches its value in ``self._cache[key]``: only a
    cache miss, which assembles the value, records a span."""
    traced = tracer.wrap(span, cls.__dict__[name].fget)

    def get(self):
        cache = self._cache
        return cache[key] if key in cache else traced(self)

    setattr(cls, name, property(get))


def install(tracer):
    """Wrap the public entry points of every cnflow module."""
    from cnflow import cli, errors, fem2d, schemes, spectral_stokes, temporal_ops, time_mesh

    def factor_attrs(args, _):
        saddle = args[0]
        saddle.lu = _CountingLU(saddle.lu, tracer.wrap("fem2d.lu_solve", saddle.lu.solve))
        return {"nnz": int(saddle.lu.L.nnz + saddle.lu.U.nnz)}

    def step_attrs(args, _):
        return {"steps": int(args[1].num_intervals)}

    def mesh_attrs(_, mesh):
        return {"distinct": int(np.unique(mesh.steps).size)}

    space = fem2d.TaylorHoodSpace
    for name, key in (("scalar_mass", "Ms"), ("scalar_stiffness", "As"), ("mass", "M"),
                      ("stiffness", "A"), ("divergence", "B"), ("pressure_mass", "Mp"),
                      ("mean_vector", "c")):
        _wrap_cached_property(tracer, space, name, key, "fem2d.assembly")
    _wrap_method(tracer, space, "velocity_load", "fem2d.assembly")
    _wrap_method(tracer, space, "convection_apply", "fem2d.convection_apply")
    _wrap_method(tracer, space, "convection", "fem2d.jacobian")
    _wrap_method(tracer, space, "convection_gradient", "fem2d.jacobian")
    _wrap_method(tracer, fem2d.BorderedSaddle, "__init__", "fem2d.factor", factor_attrs)
    _wrap_method(tracer, fem2d.BorderedSaddle, "solve", "fem2d.saddle_solve")

    functions = [
        (fem2d.build_space, "fem2d.assembly", None),
        (schemes.stokes_cn_solve, "schemes.step", step_attrs),
        (schemes.nse_cn_solve, "schemes.step", step_attrs),
        (schemes.reference_solve, "schemes.reference", None),
        (schemes.stationary_stokes_solve, "schemes.stationary", None),
        (schemes.stationary_nse_solve, "schemes.stationary", None),
        (time_mesh.build_uniform_mesh, "time_mesh.build", mesh_attrs),
        (time_mesh.build_alternating_mesh, "time_mesh.build", mesh_attrs),
        (errors.pressure_error, "errors.pressure_error", None),
        (errors.velocity_error, "errors.velocity_error", None),
        (temporal_ops.weighted_temporal_norm, "temporal_ops.weighted_norm", None),
        (temporal_ops.average, "temporal_ops.average", None),
        (temporal_ops.time_derivative, "temporal_ops.time_derivative", None),
        (spectral_stokes.evolve_cn, "spectral_stokes.evolve_cn", None),
        (spectral_stokes.verify_discrete_stability, "spectral_stokes.verify", None),
        (spectral_stokes.verify_smoothing_stability, "spectral_stokes.verify", None),
        (spectral_stokes.euler_smoothing_rate, "spectral_stokes.verify", None),
        (cli.convergence_rows, "cli.rows", None),
        (cli.run_convergence, "cli.study", None),
        (cli.run_verify, "cli.study", None),
    ]
    for fn, span, attrs in functions:
        _replace_function(fn, tracer.wrap(span, fn, attrs))


def span_cost(calls=20000, repeats=7):
    """Seconds a ``Tracer.wrap`` wrapper adds to one call: the median over
    ``repeats`` batches of a wrapped minus an unwrapped no-op call."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    costs = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(calls):
            traced()
        middle = perf_counter()
        for _ in range(calls):
            noop()
        costs.append(((middle - start) - (perf_counter() - middle)) / calls)
    return statistics.median(costs)


def layer_metrics(spans, cost):
    """Per-layer metrics of one traced study; ``cost`` is ``span_cost()``."""
    child = [0.0] * len(spans)
    # innermost enclosing time-stepping or stationary solve of each span
    phase = [None] * len(spans)
    under_reference = [False] * len(spans)
    calls, self_s = Counter(), defaultdict(float)
    wall = defaultdict(float)
    nnz, steps, distinct = [], 0, 0
    step_calls = Counter()
    # a parent is recorded before its children: a reverse pass sums child
    # durations, a forward pass sees every ancestor's flags already set
    for i in range(len(spans) - 1, -1, -1):
        parent = spans[i][PARENT]
        if parent >= 0:
            child[parent] += spans[i][END] - spans[i][START]
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        duration = end - start
        if parent >= 0:
            parent_name = spans[parent][NAME]
            phase[i] = (parent_name if parent_name in ("schemes.step", "schemes.stationary")
                        else phase[parent])
            under_reference[i] = under_reference[parent] or parent_name == "schemes.reference"
        calls[name] += 1
        self_s[name] += duration - child[i]
        if phase[i] == "schemes.step":
            step_calls[name] += 1
        if name == "fem2d.factor":
            nnz.append(attrs["nnz"])
        elif name == "schemes.step":
            steps += attrs["steps"]
            wall["step"] += duration
            if not under_reference[i]:
                wall["coarse"] += duration
        elif name == "time_mesh.build":
            distinct += attrs["distinct"]
        elif name == "schemes.reference":
            wall[name] += duration
        elif name == "schemes.stationary" and phase[i] != name:
            wall[name] += duration
            if phase[i] == "schemes.step":
                wall["stationary in step"] += duration

    def per_step(count):
        return count / steps if steps else 0.0

    return {
        "fem2d.assembly.s": self_s["fem2d.assembly"],
        "fem2d.convection_apply.calls": calls["fem2d.convection_apply"],
        "fem2d.convection_apply.s": self_s["fem2d.convection_apply"],
        "fem2d.jacobian.calls": calls["fem2d.jacobian"],
        "fem2d.jacobian.s": self_s["fem2d.jacobian"],
        "fem2d.factor.calls": calls["fem2d.factor"],
        "fem2d.factor.s": self_s["fem2d.factor"],
        "fem2d.lu_fill_nnz": round(sum(nnz) / len(nnz)) if nnz else 0,
        "fem2d.lu_solve.calls": calls["fem2d.lu_solve"],
        "fem2d.lu_solve.s": self_s["fem2d.lu_solve"],
        "fem2d.saddle_solve.s": self_s["fem2d.saddle_solve"],
        "schemes.steps": steps,
        "schemes.ms_per_step": 1000.0 * per_step(wall["step"] - wall["stationary in step"]),
        "schemes.step.self_s": self_s["schemes.step"],
        "schemes.reference.s": wall["schemes.reference"],
        "schemes.coarse.s": wall["coarse"],
        "schemes.stationary.s": wall["schemes.stationary"],
        "schemes.newton_residuals_per_step": per_step(step_calls["fem2d.convection_apply"]),
        "schemes.lu_solves_per_step": per_step(step_calls["fem2d.lu_solve"]),
        "schemes.factorizations": step_calls["fem2d.factor"],
        "time_mesh.distinct_steps": distinct,
        "errors.pressure_error.calls": calls["errors.pressure_error"],
        "errors.pressure_error.s": self_s["errors.pressure_error"],
        "errors.velocity_error.calls": calls["errors.velocity_error"],
        "errors.velocity_error.s": self_s["errors.velocity_error"],
        "temporal_ops.weighted_norm.calls": calls["temporal_ops.weighted_norm"],
        "temporal_ops.weighted_norm.s": self_s["temporal_ops.weighted_norm"],
        "temporal_ops.average.s": self_s["temporal_ops.average"],
        "temporal_ops.time_derivative.s": self_s["temporal_ops.time_derivative"],
        "spectral_stokes.evolve_cn.s": self_s["spectral_stokes.evolve_cn"],
        "spectral_stokes.verify.self_s": self_s["spectral_stokes.verify"],
        "cli.rows.s": self_s["cli.rows"],
        "cli.self_s": self_s["cli.study"],
        "trace_overhead_s": len(spans) * cost,
    }
