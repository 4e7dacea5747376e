"""Experiment orchestration and verification commands.

Two subcommands are exposed::

    cnflow convergence --config PATH [--out DIR] [--seed N] [--threads N]
    cnflow verify TARGET [--out DIR] [--seed N]

Configuration files are flat ``key = value`` text (``#`` comments); CLI
``--set key=value`` flags override file values.  Every convergence run
writes ``convergence.csv`` (schema ``k,n0,alpha,norm,error,rate_pairwise``,
rows in descending step size) next to a ``manifest.txt`` that echoes the
resolved configuration, records timings and failures, and suffices to
re-run the experiment.

Exit codes: 0 success, 1 verification assertion failure, 2 configuration
error, 3 solver failure.
"""

import argparse
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from cnflow import __version__
from cnflow.errors import (
    ConvergenceRecord,
    ErrorSpec,
    fit_loglog,
    pressure_error,
    velocity_error,
)
from cnflow.fem2d import SolverError, build_space
from cnflow.schemes import (
    ProblemSpec,
    SeparableForcing,
    StationaryInitialData,
    ZeroForcing,
    reference_solve,
    transient_solve,
)
from cnflow.spectral_stokes import (
    StabilityReport,
    euler_smoothing_rate,
    verify_discrete_stability,
    verify_smoothing_stability,
)
from cnflow.temporal_ops import average, interpolate_nodal, midpoint_sample
from cnflow.time_mesh import build_alternating_mesh, build_uniform_mesh


class ConfigError(ValueError):
    pass


# --- problem definitions -------------------------------------------------

def oscillatory_field(x, y):
    """Rotational trigonometric test field used by the flow experiments."""
    return -np.sin(4.0 * x + y) * y, np.cos(x - 4.0 * y) * x


def smooth_ramp_forcing(amplitude=0.2):
    """Forcing ``a t^2 exp(-t)`` times the oscillatory field.

    Vanishes to first order at t = 0, so zero initial data is compatible.
    """
    return SeparableForcing(lambda t: amplitude * t * t * np.exp(-t),
                            oscillatory_field, "smooth-ramp")


def sign_modulated_field(x, y):
    fx, fy = oscillatory_field(x, y)
    s = np.sign(x) * np.sign(y)
    return s * fx, s * fy


def rough_stationary_initial(amplitude=0.2):
    """Initial data from a stationary solve with sign-modulated forcing.

    The forcing is merely square integrable, so the resulting field does
    not satisfy the compatibility conditions of the transient problem
    with the forcing switched off.
    """
    def f0(x, y):
        fx, fy = sign_modulated_field(x, y)
        return amplitude * fx, amplitude * fy

    return StationaryInitialData(f0, "stationary-sign-forcing")


EXPERIMENTS = ("case_i", "case_ii", "stokes_manufactured", "custom")


@dataclass
class RunConfig:
    """Resolved configuration of one convergence run."""

    experiment: str = "case_i"
    nu: float = 0.01
    T: float = 2.0
    k_list: tuple = (0.02, 0.01, 0.005, 0.0025)
    pattern: tuple = (0.8, 1.2)
    n0: int = 0
    alpha: float = 0.0
    window_start: int = None
    nx: int = 16
    ny: int = 16
    domain: tuple = (-1.0, 1.0, -1.0, 1.0)
    refinement: int = 8
    norms: tuple = ("pressure_L2l2", "pressure_Linfl2")
    spatial_norm: str = "mass"
    solver: str = None
    forcing: str = None
    initial: str = None
    out: str = "results"
    seed: int = 0
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
        if any(k <= 0 for k in ks) or list(ks) != sorted(ks, reverse=True):
            raise ConfigError("step sizes must be positive and descending")
        self.k_list = ks
        if self.refinement < 4:
            raise ConfigError("reference refinement factor must be at least 4")
        if self.nu <= 0.0:
            raise ConfigError("viscosity must be positive")
        x0, x1, y0, y1 = self.domain
        if x1 <= x0 or y1 <= y0 or self.nx < 1 or self.ny < 1:
            raise ConfigError("need a nonempty domain and nx, ny of at least 1")
        if self.window_start is None:
            self.window_start = self.n0 if self.alpha > 0 else 0
        if self.solver is None:
            self.solver = "stokes" if self.experiment == "stokes_manufactured" else "nse"
        if self.solver not in ("stokes", "nse"):
            raise ConfigError(f"unknown solver {self.solver!r}")
        self.error_specs()  # rejects unknown norms and bad weights or windows
        # the coarsest mesh checks T and the pattern, and bounds n0 and the window
        N = build_alternating_mesh(self.T, self.k_list[0], self.pattern).num_intervals
        if not (0 <= self.n0 < N and self.window_start < N):
            raise ConfigError(f"n0 and window_start must be below the {N} intervals "
                              "of the coarsest mesh")

    def error_specs(self):
        return [ErrorSpec(norm, self.alpha, self.window_start, self.spatial_norm)
                for norm in self.norms]

    def items(self):
        def fmt(v):
            if isinstance(v, tuple):
                return ",".join(str(x) for x in v)
            return str(v)
        return sorted((k, fmt(v)) for k, v in vars(self).items())


def parse_config_text(text):
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        mapping[key] = value
    return mapping


_TUPLE_FLOAT = ("k_list", "pattern", "domain")
_FLOAT = ("nu", "T", "alpha")
_INT = ("n0", "nx", "ny", "refinement", "seed", "threads", "window_start")


def build_run_config(mapping):
    kwargs = {}
    try:
        for key, value in mapping.items():
            if key in _TUPLE_FLOAT:
                kwargs[key] = tuple(float(v) for v in value.split(","))
            elif key == "norms":
                kwargs[key] = tuple(v.strip() for v in value.split(","))
            elif key in _FLOAT:
                kwargs[key] = float(value)
            elif key in _INT:
                kwargs[key] = int(value)
            elif key in ("experiment", "spatial_norm", "solver", "forcing", "initial", "out"):
                kwargs[key] = value
            else:
                raise ConfigError(f"unknown configuration key {key!r}")
        return RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def resolve_problem(config, space):
    """Forcing/initial-data/solver combination of an experiment."""
    if config.experiment == "case_i":
        forcing, initial = smooth_ramp_forcing(), None
    elif config.experiment == "case_ii":
        forcing, initial = ZeroForcing(), rough_stationary_initial()
    elif config.experiment == "stokes_manufactured":
        forcing, initial = smooth_ramp_forcing(), None
    else:
        forcing = {"case_i": smooth_ramp_forcing(), "zero": ZeroForcing(),
                   None: ZeroForcing()}.get(config.forcing)
        if forcing is None:
            raise ConfigError(f"unknown forcing id {config.forcing!r}")
        if config.initial in ("stationary",):
            initial = rough_stationary_initial()
        elif config.initial in (None, "zero"):
            initial = None
        else:
            raise ConfigError(f"unknown initial data id {config.initial!r}")
    return ProblemSpec(space, config.nu, forcing, initial, config.T)


def build_reference(spec, kind, k_list, refinement):
    """Uniform-mesh reference trajectory with step about min(k)/refinement."""
    k0 = min(k_list) / refinement
    N0 = max(int(round(spec.T / k0)), 1)
    fine = build_uniform_mesh(spec.T, N0)
    if fine.k_max > min(k_list) / 4 * (1 + 1e-12):
        raise ValueError("reference step must be at least 4x finer than the smallest k")
    return reference_solve(spec, fine, kind=kind)


def convergence_rows(spec, kind, reference, k, pattern, n0, error_specs):
    """Error rows of one coarse run against a shared reference, and the
    run's Newton iteration counts (``None`` for Stokes)."""
    mesh = build_alternating_mesh(spec.T, k, pattern)
    traj = transient_solve(spec, mesh, kind, n0)
    rows = []
    for es in error_specs:
        if es.norm.startswith("pressure"):
            err = pressure_error(traj, reference, es)
        else:
            err = velocity_error(traj, reference, es)
        rows.append((k, n0, es.alpha, es.norm, err))
    return rows, traj.newton_iterations


def run_convergence(config):
    """Full convergence experiment; returns (record, failures, files)."""
    import os

    os.makedirs(config.out, exist_ok=True)
    t_begin = time.perf_counter()
    space = build_space(config.domain, config.nx, config.ny)
    spec = resolve_problem(config, space)
    timings = []

    t0 = time.perf_counter()
    reference = build_reference(spec, config.solver, config.k_list, config.refinement)
    timings.append(("reference", time.perf_counter() - t0))
    iterations = [("reference", reference.newton_iterations)]

    record = ConvergenceRecord()
    failures = []
    error_specs = config.error_specs()

    def one(k):
        t0 = time.perf_counter()
        rows, its = convergence_rows(spec, config.solver, reference, k,
                                     config.pattern, config.n0, error_specs)
        return rows, its, time.perf_counter() - t0

    results = {}
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            futures = {k: pool.submit(one, k) for k in config.k_list}
        for k in config.k_list:
            try:
                results[k] = futures[k].result()
            except SolverError as exc:
                failures.append((k, str(exc)))
    else:
        for k in config.k_list:
            try:
                results[k] = one(k)
            except SolverError as exc:
                failures.append((k, str(exc)))

    for k in config.k_list:
        if k in results:
            rows, its, dt = results[k]
            timings.append((f"k={k!r}", dt))
            iterations.append((f"k={k!r}", its))
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

def temporal_operator_orders(T=2.0, n_list=(16, 32, 64), samples_per_interval=200,
                             fn=np.sin):
    """Fitted convergence orders of the three temporal projections.

    Dense per-interval sampling provides the independent sup-norm oracle
    for a smooth scalar function of time; the expected orders are 2 for
    nodal interpolation, 2 for the average/midpoint gap and 1 for the
    averaged interpolant.
    """
    errs = {"interpolation": [], "average_vs_midpoint": [], "averaged_interpolant": []}
    ks = []
    for N in n_list:
        mesh = build_uniform_mesh(T, N)
        ks.append(mesh.k_max)
        iu = interpolate_nodal(fn, mesh)
        au = average(fn, mesh)
        mu = midpoint_sample(fn, mesh)
        aiu = average(iu)
        ts = np.linspace(mesh.nodes[:-1], mesh.nodes[1:], samples_per_interval, axis=1)
        exact = fn(ts)
        errs["interpolation"].append(np.max(np.abs(exact - iu.evaluate(ts))))
        errs["averaged_interpolant"].append(np.max(np.abs(exact - aiu.values[:, None])))
        errs["average_vs_midpoint"].append(np.max(np.abs(au.values - mu.values)))
    return {name: fit_loglog(ks, es) for name, es in errs.items()}


DRIFT_LIMIT = 1.10

_REPORT_CSV_HEADER = StabilityReport.CSV_HEADER

STABILITY_PROTOCOL = dict(s_values=(0, 1, 2), n_values=(16, 32, 64), T=1.0, trials=50)
SMOOTHING_PROTOCOL = dict(pairs=((1, 1), (1, 2), (2, 1)), n_values=(64, 128, 256),
                          T=1.0, trials=50, n0=0)
EULER_CASES = ((2, 4, 2), (2, 3, 2), (0, 2, 2), (2, 2, 2))
EULER_K_LIST = tuple(0.02 * 0.5 ** i for i in range(8))


def stability_drift(s, n_values=(16, 32, 64), T=1.0, trials=50, seed=0):
    reports = [verify_discrete_stability(s, build_uniform_mesh(T, N), trials, seed)
               for N in n_values]
    ratios = [r.max_ratio for r in reports]
    return max(ratios) / min(ratios), reports


def smoothing_drift(s, ell, n0=0, n_values=(64, 128, 256), T=1.0, trials=50, seed=0):
    reports = [verify_smoothing_stability(s, ell, n0, build_uniform_mesh(T, N),
                                          trials, seed) for N in n_values]
    ratios = [r.max_ratio for r in reports]
    return max(ratios) / min(ratios), reports


def run_verify(target, out="results", seed=0):
    """Run one verification target; returns (exit_code, report_lines).

    Writes a pass/fail text report plus a CSV with the measured ratios
    or fitted rates.
    """
    import os

    os.makedirs(out, exist_ok=True)
    lines = []
    csv_lines = []
    ok = True

    if target == "temporal":
        rates = temporal_operator_orders()
        expected = {"interpolation": 2.0, "average_vs_midpoint": 2.0,
                    "averaged_interpolant": 1.0}
        csv_lines.append("operator,slope,pairwise")
        for name, fitted in rates.items():
            good = abs(fitted.slope - expected[name]) <= 0.15
            ok &= good
            lines.append(f"{'PASS' if good else 'FAIL'} {name}: rate {fitted.slope:.4f} "
                         f"expected {expected[name]} +- 0.15")
            csv_lines.append(f"{name},{fitted.csv_row()}")
    elif target == "spectral-stability":
        proto = STABILITY_PROTOCOL
        csv_lines.append(_REPORT_CSV_HEADER)
        for s in proto["s_values"]:
            drift, reports = stability_drift(s, proto["n_values"], proto["T"],
                                             proto["trials"], seed)
            good = drift < DRIFT_LIMIT
            ok &= good
            ratios = ", ".join(f"{r.max_ratio:.4f}" for r in reports)
            lines.append(f"{'PASS' if good else 'FAIL'} s={s}: max ratios [{ratios}] "
                         f"drift {drift:.4f} < {DRIFT_LIMIT}")
            csv_lines.extend(r.csv_row() for r in reports)
    elif target == "spectral-smoothing":
        proto = SMOOTHING_PROTOCOL
        csv_lines.append(_REPORT_CSV_HEADER)
        for s, ell in proto["pairs"]:
            drift, reports = smoothing_drift(s, ell, proto["n0"], proto["n_values"],
                                             proto["T"], proto["trials"], seed)
            good = drift < DRIFT_LIMIT
            ok &= good
            ratios = ", ".join(f"{r.max_ratio:.4f}" for r in reports)
            lines.append(f"{'PASS' if good else 'FAIL'} (s,l)=({s},{ell}): max ratios "
                         f"[{ratios}] drift {drift:.4f} < {DRIFT_LIMIT}")
            csv_lines.extend(r.csv_row() for r in reports)
    elif target == "euler-rates":
        csv_lines.append("r,s,s0,slope,pairwise")
        for r, s, s0 in EULER_CASES:
            fit = euler_smoothing_rate(r, s, s0, EULER_K_LIST)
            expected = 0.5 * (r - s)
            tol = 0.1 if r == s else 0.2
            good = abs(fit.slope - expected) <= tol
            ok &= good
            lines.append(f"{'PASS' if good else 'FAIL'} (r,s,s0)=({r},{s},{s0}): "
                         f"rate {fit.slope:.4f} expected {expected} +- {tol}")
            csv_lines.append(f"{r},{s},{s0},{fit.csv_row()}")
    else:
        raise ConfigError(f"unknown verification target {target!r}")

    report = os.path.join(out, f"verify_{target}.txt")
    with open(report, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(out, f"verify_{target}.csv"), "w") as fh:
        fh.write("\n".join(csv_lines) + "\n")
    return (0 if ok else 1), lines


# --- entry point ----------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(prog="cnflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_conv = sub.add_parser("convergence", help="run a convergence experiment")
    p_conv.add_argument("--config", help="flat key=value configuration file")
    p_conv.add_argument("--out", help="output directory")
    p_conv.add_argument("--seed", type=int, help="random seed recorded in the manifest")
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
                with open(args.config) as fh:
                    mapping.update(parse_config_text(fh.read()))
            for item in args.set:
                if "=" not in item:
                    raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
                key, value = item.split("=", 1)
                mapping[key.strip()] = value.strip()
            for key in ("out", "seed", "threads"):
                value = getattr(args, key)
                if value is not None:
                    mapping[key] = str(value)
            config = build_run_config(mapping)
            _, failures, files = run_convergence(config)
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
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
