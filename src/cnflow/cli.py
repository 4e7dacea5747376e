"""Experiment orchestration and verification commands.

Two subcommands are exposed::

    cnflow convergence --config PATH [--out DIR] [--threads N] [--set KEY=VALUE ...]
    cnflow verify TARGET [--out DIR] [--seed N]

Configuration files are flat ``key = value`` text (``#`` comments); CLI
``--set key=value`` flags override file values.  Every convergence run
writes ``convergence.csv`` (schema ``k,n0,alpha,norm,error,rate_pairwise``,
rows in descending step size) next to a ``manifest.txt`` that echoes the
resolved configuration, records timings and failures, and suffices to
re-run the experiment.  A convergence study runs ``coarse_run`` per step size
on ``threads`` pool workers, then one ``build_reference`` on the calling thread
that scores them as it steps; the flow acceptance criteria run through the
same two functions.

Exit codes: 0 success, 1 verification assertion failure, 2 configuration
error, 3 solver failure.

The module needs numpy only, so ``cnflow verify`` never loads scipy.  The
flow stack (``cnflow.fem2d`` and ``cnflow.schemes``, which need scipy) is
imported inside the functions that run a convergence study.  They look its
entry points up at call time, so a tracer that rebinds those module
attributes sees every call.
"""

import argparse
import os
import sys
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from cnflow import __version__
from cnflow.errors import (
    NORMS,
    ConvergenceRecord,
    ErrorSpec,
    StreamedReference,
    fields_read,
    fit_loglog,
    pressure_error,
    velocity_error,
)
from cnflow.spectral_stokes import (
    StabilityReport,
    euler_smoothing_rate,
    stability_reports,
)
from cnflow.temporal_ops import average, interpolate_nodal, midpoint_sample
from cnflow.time_mesh import (
    UNIFORM_RHO_TOL,
    build_alternating_mesh,
    build_uniform_mesh,
    uniform_rho_bound,
)


class ConfigError(ValueError):
    pass


# --- problem definitions -------------------------------------------------

def oscillatory_field(x, y):
    """Rotational trigonometric test field used by the flow experiments."""
    return -np.sin(4.0 * x + y) * y, np.cos(x - 4.0 * y) * x


def smooth_ramp_forcing():
    """Forcing ``0.2 t^2 exp(-t)`` times the oscillatory field.

    Vanishes to first order at t = 0, so zero initial data is compatible.
    """
    from cnflow.schemes import SeparableForcing

    return SeparableForcing(lambda t: 0.2 * t * t * np.exp(-t), oscillatory_field)


def rough_stationary_initial():
    """Initial data from a stationary solve forced by the oscillatory field
    times 0.2 sign(x) sign(y).

    The forcing is merely square integrable, so the resulting field does
    not satisfy the compatibility conditions of the transient problem
    with the forcing switched off.
    """
    from cnflow.schemes import StationaryInitialData

    def f0(x, y):
        fx, fy = oscillatory_field(x, y)
        s = 0.2 * np.sign(x) * np.sign(y)  # +-0.2 or 0, so each product rounds once
        return s * fx, s * fy

    return StationaryInitialData(f0)


def zero_forcing():
    from cnflow.schemes import ZeroForcing

    return ZeroForcing()


# experiment -> (forcing factory, initial-data factory or None for zero, solver)
EXPERIMENTS = {
    "case_i": (smooth_ramp_forcing, None, "nse"),
    "case_ii": (zero_forcing, rough_stationary_initial, "nse"),
    "stokes_manufactured": (smooth_ramp_forcing, None, "stokes"),
}


@dataclass
class RunConfig:
    """Resolved configuration of one convergence run."""

    experiment: str = "case_i"
    nu: float = 0.01
    T: float = 2.0
    k_list: tuple[float, ...] = (0.02, 0.01, 0.005, 0.0025)
    pattern: tuple[float, ...] = (0.8, 1.2)
    n0: int = 0
    alpha: float = 0.0
    window_start: int = None
    nx: int = 16
    ny: int = 16
    domain: tuple[float, ...] = (-1.0, 1.0, -1.0, 1.0)
    refinement: int = 8
    norms: tuple[str, ...] = ("pressure_L2l2", "pressure_Linfl2")
    out: str = "results"
    threads: int = 1

    def __post_init__(self):
        for key, value in vars(self).items():
            if any(isinstance(v, float) and not np.isfinite(v)
                   for v in (value if isinstance(value, tuple) else (value,))):
                raise ConfigError(f"{key} must be finite")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        ks = tuple(float(k) for k in self.k_list)
        if any(k <= 0 for k in ks) or any(a <= b for a, b in zip(ks, ks[1:])):
            raise ConfigError("step sizes must be positive and strictly descending")
        self.k_list = ks
        if self.refinement < 4:
            raise ConfigError("reference refinement factor must be at least 4")
        if self.nu <= 0.0:
            raise ConfigError("viscosity must be positive")
        x0, x1, y0, y1 = self.domain
        if x1 <= x0 or y1 <= y0 or self.nx < 1 or self.ny < 1:
            raise ConfigError("need a nonempty domain and nx, ny of at least 1")
        velocity = 2 * (2 * self.nx - 1) * (2 * self.ny - 1)  # interior P2 unknowns
        if velocity < (self.nx + 1) * (self.ny + 1) - 1:  # mean-free P1 unknowns: only 1x1
            raise ConfigError(f"a {self.nx}x{self.ny} mesh has fewer interior velocity than "
                              "mean-free pressure unknowns: a singular saddle-point system")
        # an area that under- or overflows, or a subnormal one whose
        # reciprocal overflows, leaves the assembly with singular operators
        area = (x1 - x0) / self.nx * ((y1 - y0) / self.ny)
        if not (0.0 < area < np.inf and 1.0 / area < np.inf):
            raise ConfigError(f"cell area {area!r} of the domain and nx, ny must be "
                              "positive with a finite reciprocal")
        if self.window_start is None:
            self.window_start = self.n0 if self.alpha > 0 else 0
        fields = fields_read(self.error_specs())  # rejects unknown norms, bad weights or windows
        if len(set(self.norms)) < len(self.norms):
            raise ConfigError(f"norms repeat: {','.join(self.norms)}")
        if self.T <= 0.0:
            raise ConfigError("final time must be positive")
        # every mesh grows with T / min(k): before one is built, what the study
        # stores must fit in memory, the fields that the norms read of every
        # coarse run and of one reference interval, and the reference mesh must
        # pass reference_solve
        N0 = reference_intervals(self.T, self.k_list, self.refinement)
        coarse = [max(round(self.T / k), 1) for k in self.k_list]  # about T / k intervals
        rows = {"velocity": sum(coarse) + len(coarse) + 1, "pressure": sum(coarse) + 1}
        dims = {"velocity": 2 * (2 * self.nx + 1) * (2 * self.ny + 1),  # P2 nodes, two components
                "pressure": (self.nx + 1) * (self.ny + 1)}  # P1 vertices
        need = 8 * sum(rows[f] * dims[f] for f in fields)
        have = physical_memory()
        if need > have:
            raise ConfigError(f"the {','.join(fields)} of {sum(coarse)} coarse intervals and "
                              f"of one reference interval need {need / 1e9:.3g} GB, "
                              f"more than the {have / 1e9:.3g} GB of physical memory")
        if uniform_rho_bound(self.T, N0) > UNIFORM_RHO_TOL:
            raise ConfigError(f"the rounding of a uniform reference mesh of {N0} intervals "
                              f"on [0, {self.T!r}] may leave rho - 1 above {UNIFORM_RHO_TOL:g}")
        # the coarsest mesh checks the pattern, and bounds n0 and the window
        N = build_alternating_mesh(self.T, self.k_list[0], self.pattern).num_intervals
        if not (0 <= self.n0 < N and self.window_start < N):
            raise ConfigError(f"n0 and window_start must be below the {N} intervals "
                              "of the coarsest mesh")

    def error_specs(self):
        return [ErrorSpec(norm, self.alpha, self.window_start) for norm in self.norms]

    def items(self):
        def fmt(v):
            if isinstance(v, tuple):
                return ",".join(str(x) for x in v)
            return str(v)
        return sorted((k, fmt(v)) for k, v in vars(self).items())


def parse_config_text(text):
    mapping, first = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in mapping:
            raise ConfigError(f"key {key!r} set twice, on lines {first[key]} and {lineno}")
        mapping[key], first[key] = value, lineno
    return mapping


def build_run_config(mapping):
    """``RunConfig`` from string values, each coerced by its field's type:
    ``tuple[X, ...]`` reads comma-separated ``X`` values."""
    types = {f.name: f.type for f in fields(RunConfig)}
    kwargs = {}
    try:
        for key, value in mapping.items():
            if key not in types:
                raise ConfigError(f"unknown configuration key {key!r}")
            kind = types[key]
            element = typing.get_args(kind)  # (X, ...) for tuple[X, ...]
            kwargs[key] = (tuple(element[0](v.strip()) for v in value.split(","))
                           if element else kind(value))
        return RunConfig(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from None


def build_space(bounds, nx, ny):
    """Taylor-Hood space of ``cnflow.fem2d.build_space``."""
    from cnflow import fem2d

    return fem2d.build_space(bounds, nx, ny)


def resolve_problem(config, space):
    """Problem of an experiment on ``space``; its solver is the third entry
    of ``EXPERIMENTS[config.experiment]``."""
    from cnflow.schemes import ProblemSpec

    forcing, initial, _ = EXPERIMENTS[config.experiment]
    return ProblemSpec(space, config.nu, forcing(), None if initial is None else initial(),
                       config.T)


def check_finite_data(config, spec):
    """``ConfigError`` naming the domain unless the assembled operators and the loads of
    the forcing and of the stationary initial data are finite, checked before any solve."""
    space, forcing, f0 = spec.space, spec.forcing, getattr(spec.initial, "f0", None)
    with np.errstate(over="ignore", invalid="ignore"):  # the error reports the overflow
        arrays = [op.data for op in (space.mass, space.stiffness, space.divergence)]
        arrays += [forcing.spatial_load(space)] if hasattr(forcing, "spatial_load") else []
        arrays += [] if f0 is None else [space.velocity_load(f0)]
    if not all(np.isfinite(a).all() for a in arrays):
        raise ConfigError(f"domain {','.join(map(repr, config.domain))} on {config.nx}x"
                          f"{config.ny} cells gives operators or loads that are not finite")


def physical_memory():
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def reference_intervals(T, k_list, refinement):
    """Interval count of the uniform reference mesh, whose step is about
    min(k)/refinement; ``ConfigError`` unless that step is at least 4x
    finer than the smallest k."""
    k_min = min(k_list)
    N0 = max(int(round(T / (k_min / refinement))), 1)
    if T / N0 > k_min / 4 * (1 + 1e-12):
        raise ConfigError("reference step must be at least 4x finer than the smallest k")
    return N0


def coarse_run(spec, kind, k, pattern, n0, error_specs):
    """Trajectory of one coarse run of step ``k``, storing the fields that
    ``error_specs`` read."""
    from cnflow.schemes import transient_solve

    mesh = build_alternating_mesh(spec.T, k, pattern)
    return transient_solve(spec, mesh, kind, n0, fields=fields_read(error_specs))


def build_reference(spec, kind, k_list, refinement, groups):
    """Uniform-mesh reference with step about min(k)/refinement, which stores
    no field and scores each group ``(runs, error_specs)`` of ``groups``, the
    coarse trajectories ``runs`` in the norms of ``error_specs``, as it steps:
    its trajectory and the one ``StreamedReference`` that scored every group."""
    from cnflow.schemes import reference_solve

    fine = build_uniform_mesh(spec.T, reference_intervals(spec.T, k_list, refinement))
    stream = StreamedReference(fine, spec.space, groups)
    return reference_solve(spec, fine, kind=kind, fields=(), observer=stream.observe), stream


def convergence_rows(reference, k, run, error_specs):
    """Error rows of the coarse trajectory ``run`` of step ``k`` against the
    ``StreamedReference`` that scored it."""
    rows = []
    for es in error_specs:
        # looked up per call, so a tracer that rebinds either function sees it
        error = pressure_error if NORMS[es.norm][0] == "pressure" else velocity_error
        rows.append((k, run.n0, es.alpha, es.norm, error(run, reference, es)))
    return rows


def run_convergence(config):
    """Full convergence experiment; returns (record, failures, files)."""
    from cnflow.fem2d import SolverError

    os.makedirs(config.out, exist_ok=True)
    t_begin = time.perf_counter()
    space = build_space(config.domain, config.nx, config.ny)
    spec = resolve_problem(config, space)
    check_finite_data(config, spec)
    kind = EXPERIMENTS[config.experiment][2]

    record = ConvergenceRecord()
    failures = []
    error_specs = config.error_specs()

    def timed(fn, *args):
        t0 = time.perf_counter()
        return fn(*args), time.perf_counter() - t0

    # the pool runs the independent coarse rows; the reference needs them all
    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        futures = [(k, pool.submit(timed, coarse_run, spec, kind, k, config.pattern,
                                   config.n0, error_specs)) for k in config.k_list]
    runs = [future.result()[0] for _, future in futures if future.exception() is None]
    reference = streamed = None
    timings, iterations = [], []
    if runs:  # else nothing is left to score: skip the costliest solve
        (reference, streamed), dt = timed(build_reference, spec, kind, config.k_list,
                                          config.refinement, [(runs, error_specs)])
        timings.append(("reference", dt))
        iterations.append(("reference", reference.newton_iterations))
    for k, future in futures:
        try:
            run, dt = future.result()
            rows = convergence_rows(streamed, k, run, error_specs)
        except SolverError as exc:
            failures.append((k, str(exc)))
            continue
        timings.append((f"k={k!r}", dt))
        iterations.append((f"k={k!r}", run.newton_iterations))
        for row in rows:
            record.add(*row)

    csv_path = os.path.join(config.out, "convergence.csv")
    with open(csv_path, "w") as fh:
        fh.write(record.to_csv())

    manifest_path = os.path.join(config.out, "manifest.txt")
    with open(manifest_path, "w") as fh:
        fh.write(f"version = {__version__}\n")
        for key, value in config.items():
            fh.write(f"{key} = {value}\n")
        fh.write(f"stored_fields = {','.join(fields_read(error_specs))}\n")
        if reference is not None:
            fh.write(f"reference_euler_steps = {reference.n0}\n")
        for norm in record.norms():
            try:
                fh.write(f"fitted_rate[{norm}] = {record.fit(norm).slope!r}\n")
            except ValueError as exc:
                fh.write(f"fitted_rate[{norm}] = unavailable ({exc})\n")
        for k, msg in failures:
            fh.write(f"failed[k={k!r}] = {msg}\n")
        for label, its in iterations:
            if its is not None:
                fh.write(f"newton_iterations[{label}] = min {its.min()}, "
                         f"mean {its.mean():.3f}, max {its.max()}\n")
        for label, dt in timings:
            fh.write(f"time[{label}] = {dt:.3f}s\n")
        fh.write(f"time[total] = {time.perf_counter() - t_begin:.3f}s\n")
    return record, failures, (csv_path, manifest_path)


# --- verification drivers -------------------------------------------------

_ORACLE_SAMPLES = 200  # dense samples per interval of the sup-norm oracle


def temporal_operator_orders(T=2.0, n_list=(16, 32, 64)):
    """Fitted convergence orders of the three temporal projections of ``sin``.

    Dense per-interval sampling provides the independent sup-norm oracle;
    the expected orders are 2 for nodal interpolation, 2 for the
    average/midpoint gap and 1 for the averaged interpolant.
    """
    errs = {"interpolation": [], "average_vs_midpoint": [], "averaged_interpolant": []}
    ks = []
    for N in n_list:
        mesh = build_uniform_mesh(T, N)
        ks.append(mesh.k_max)
        iu = interpolate_nodal(np.sin, mesh)
        au = average(np.sin, mesh)
        mu = midpoint_sample(np.sin, mesh)
        aiu = average(iu)
        ts = np.linspace(mesh.nodes[:-1], mesh.nodes[1:], _ORACLE_SAMPLES, axis=1)
        exact = np.sin(ts)
        errs["interpolation"].append(np.max(np.abs(exact - iu.evaluate(ts))))
        errs["averaged_interpolant"].append(np.max(np.abs(exact - aiu.values[:, None])))
        errs["average_vs_midpoint"].append(np.max(np.abs(au.values - mu.values)))
    return {name: fit_loglog(ks, es) for name, es in errs.items()}


DRIFT_LIMIT = 1.10

# each spectral target: its (s, ell, n0) checks and the interval counts of their meshes
SPECTRAL_TARGETS = {"spectral-stability": ([(s, 0, 0) for s in (0, 1, 2)], (16, 32, 64)),
                    "spectral-smoothing": ([(1, 1, 0), (1, 2, 0), (2, 1, 0)], (64, 128, 256))}
EULER_CASES = ((2, 4, 2), (2, 3, 2), (0, 2, 2), (2, 2, 2))
EULER_K_LIST = tuple(0.02 * 0.5 ** i for i in range(8))


def _drifts(checks, n_values, T=1.0, trials=50, seed=0):
    """``(drift, reports)`` of each ``(s, ell, n0)`` check, on its own uniform meshes."""
    ladders = [[build_uniform_mesh(T, N) for N in n_values] for _ in checks]
    return [(max(r.max_ratio for r in reports) / min(r.max_ratio for r in reports), reports)
            for reports in stability_reports(checks, ladders, trials, seed)]


def stability_drift(s, n_values=(16, 32, 64), T=1.0, trials=50, seed=0):
    return _drifts([(s, 0, 0)], n_values, T, trials, seed)[0]


def smoothing_drift(s, ell, n0=0, n_values=(64, 128, 256), T=1.0, trials=50, seed=0):
    if ell <= 0:
        raise ValueError("smoothing level must be positive")
    return _drifts([(s, ell, n0)], n_values, T, trials, seed)[0]


def _verify_checks(target, seed):
    """CSV header and the ``(good, line, csv_rows)`` checks of one target."""
    if target == "temporal":
        expected = {"interpolation": 2.0, "average_vs_midpoint": 2.0,
                    "averaged_interpolant": 1.0}
        return "operator,slope,pairwise", [
            (abs(fitted.slope - expected[name]) <= 0.15,
             f"{name}: rate {fitted.slope:.4f} expected {expected[name]} +- 0.15",
             f"{name},{fitted.csv_row()}")
            for name, fitted in temporal_operator_orders().items()]
    if target in SPECTRAL_TARGETS:
        checks, n_values = SPECTRAL_TARGETS[target]
        rows = []
        for (s, ell, _), (drift, reports) in zip(checks, _drifts(checks, n_values, seed=seed)):
            label = f"s={s}" if ell == 0 else f"(s,l)=({s},{ell})"
            ratios = ", ".join(f"{r.max_ratio:.4f}" for r in reports)
            rows.append((drift < DRIFT_LIMIT, f"{label}: max ratios [{ratios}] drift {drift:.4f} "
                         f"< {DRIFT_LIMIT}", "\n".join(r.csv_row() for r in reports)))
        return StabilityReport.CSV_HEADER, rows
    if target == "euler-rates":
        checks = []
        for r, s, s0 in EULER_CASES:
            fit = euler_smoothing_rate(r, s, s0, EULER_K_LIST)
            expected = 0.5 * (r - s)
            tol = 0.1 if r == s else 0.2
            checks.append((abs(fit.slope - expected) <= tol,
                           f"(r,s,s0)=({r},{s},{s0}): rate {fit.slope:.4f} "
                           f"expected {expected} +- {tol}",
                           f"{r},{s},{s0},{fit.csv_row()}"))
        return "r,s,s0,slope,pairwise", checks
    raise ConfigError(f"unknown verification target {target!r}")


def run_verify(target, out="results", seed=0):
    """Run one verification target; returns (exit_code, report_lines).

    Writes a pass/fail text report plus a CSV with the measured ratios
    or fitted rates.
    """
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    os.makedirs(out, exist_ok=True)  # a bad output path fails before any check runs
    header, checks = _verify_checks(target, seed)
    lines = [f"{'PASS' if good else 'FAIL'} {line}" for good, line, _ in checks]
    with open(os.path.join(out, f"verify_{target}.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(out, f"verify_{target}.csv"), "w") as fh:
        fh.write("\n".join([header] + [rows for _, _, rows in checks]) + "\n")
    return (0 if all(good for good, _, _ in checks) else 1), lines


# --- entry point ----------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(prog="cnflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_conv = sub.add_parser("convergence", help="run a convergence experiment")
    p_conv.add_argument("--config", help="flat key=value configuration file")
    p_conv.add_argument("--out", help="output directory")
    p_conv.add_argument("--threads", type=int, help="independent step-size rows in parallel")
    p_conv.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a configuration value")

    p_ver = sub.add_parser("verify", help="run an estimate-verification target")
    p_ver.add_argument("target", choices=["temporal", "spectral-stability",
                                          "spectral-smoothing", "euler-rates"])
    p_ver.add_argument("--out", default="results")
    p_ver.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)

    try:
        if args.command == "convergence":
            mapping = {}
            if args.config:
                try:
                    with open(args.config, encoding="utf-8") as fh:
                        mapping.update(parse_config_text(fh.read()))
                except UnicodeDecodeError as exc:
                    raise ConfigError(f"{args.config} is not UTF-8 text: {exc}") from None
            for item in args.set:
                if "=" not in item:
                    raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
                key, value = item.split("=", 1)
                mapping[key.strip()] = value.strip()
            for key in ("out", "threads"):
                value = getattr(args, key)
                if value is not None:
                    mapping[key] = str(value)
            config = build_run_config(mapping)
            from cnflow.fem2d import SolverError

            try:
                _, failures, files = run_convergence(config)
            except SolverError as exc:
                print(f"solver failure: {exc}", file=sys.stderr)
                return 3
            for path in files:
                print(path)
            if failures:
                for k, msg in failures:
                    print(f"solver failure at k={k}: {msg}", file=sys.stderr)
                return 3
            return 0
        # verify
        code, lines = run_verify(args.target, args.out, args.seed)
        for line in lines:
            print(line)
        return code
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
