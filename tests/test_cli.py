import dataclasses
import json
import os
import re
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cnflow.cli as cli
import cnflow.schemes as schemes
import cnflow.spectral_stokes as spectral_stokes
from cnflow.cli import (
    ConfigError,
    RunConfig,
    build_run_config,
    main,
    parse_config_text,
    resolve_problem,
    run_convergence,
    run_verify,
    temporal_operator_orders,
)
from cnflow.errors import ErrorSpec
from cnflow.fem2d import SolverError
from cnflow.schemes import SeparableForcing, ZeroForcing


def test_parse_config_text():
    text = """
    # comment
    experiment = case_ii
    k_list = 0.1, 0.05
    nx = 4  # trailing comment
    """
    mapping = parse_config_text(text)
    assert mapping["experiment"] == "case_ii"
    assert mapping["k_list"] == "0.1, 0.05"
    assert mapping["nx"] == "4"
    with pytest.raises(ConfigError):
        parse_config_text("just a line without equals")


def test_repeated_config_key_is_rejected(tmp_path, monkeypatch, capsys):
    # the second value used to win silently
    with pytest.raises(ConfigError, match="'k_list' set twice, on lines 1 and 2"):
        parse_config_text("k_list = 0.02,0.01\nk_list = 0.5,0.25")
    path = tmp_path / "twice.cfg"
    path.write_text("nx = 4\n# comment\nk_list = 0.02,0.01\nk_list = 0.5,0.25\n")
    assert main(["convergence", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert "'k_list' set twice, on lines 3 and 4" in capsys.readouterr().err
    # --set still overrides a value of the file
    ran = []
    monkeypatch.setattr(cli, "run_convergence", lambda config: (ran.append(config), [], ()))
    path.write_text("nx = 4\nk_list = 0.02,0.01\n")
    assert main(["convergence", "--config", str(path), "--out", str(tmp_path / "run"),
                 "--set", "k_list=0.5,0.25"]) == 0
    assert [config.k_list for config in ran] == [(0.5, 0.25)]


def test_config_file_that_is_not_utf8_is_a_configuration_error(tmp_path, capsys):
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"\xff\xfe\x00bad")
    assert main(["convergence", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and str(path) in err
    assert len(err.splitlines()) == 1


def test_build_run_config_validation():
    config = build_run_config({"experiment": "case_ii", "k_list": "0.1, 0.05",
                               "norms": "pressure_L2l2, velocity_LinfV1", "nx": "4",
                               "nu": "0.02", "out": "somewhere"})
    assert config.experiment == "case_ii"
    assert config.k_list == (0.1, 0.05)
    assert config.norms == ("pressure_L2l2", "velocity_LinfV1")
    assert (config.nx, config.nu, config.out) == (4, 0.02, "somewhere")
    for experiment in ("case_iii", "custom"):
        with pytest.raises(ConfigError):
            build_run_config({"experiment": experiment})
    with pytest.raises(ConfigError):
        build_run_config({"nx": "4.5"})
    with pytest.raises(ConfigError):
        build_run_config({"k_list": "0.01,0.02"})  # ascending
    with pytest.raises(ConfigError):
        build_run_config({"refinement": "2"})
    with pytest.raises(ConfigError):
        build_run_config({"bogus_key": "1"})


def test_window_default_follows_weight():
    unweighted = build_run_config({"n0": "2", "alpha": "0"})
    assert unweighted.window_start == 0
    weighted = build_run_config({"n0": "2", "alpha": "2.0"})
    assert weighted.window_start == 2
    explicit = build_run_config({"n0": "2", "alpha": "2.0", "window_start": "1"})
    assert explicit.window_start == 1


def test_resolve_problem_kinds(small_space):
    expected = {"case_i": (SeparableForcing, "zero", "nse"),
                "case_ii": (ZeroForcing, "stationary", "nse"),
                "stokes_manufactured": (SeparableForcing, "zero", "stokes")}
    assert sorted(cli.EXPERIMENTS) == sorted(expected)
    for experiment, (forcing, initial_kind, solver) in expected.items():
        config = build_run_config({"experiment": experiment})
        spec = resolve_problem(config, small_space)
        assert type(spec.forcing) is forcing
        assert spec.initial_kind == initial_kind
        assert cli.EXPERIMENTS[experiment][2] == solver


def tiny_mapping(out):
    return {
        "experiment": "stokes_manufactured",
        "T": "0.4",
        "k_list": "0.1,0.05",
        "pattern": "0.8,1.2",
        "nx": "4", "ny": "4",
        "refinement": "4",
        "norms": "pressure_L2l2,pressure_Linfl2",
        "out": str(out),
    }


def tiny_overrides():
    """``--set`` arguments of ``tiny_mapping`` without its output directory."""
    return [arg for key, value in tiny_mapping("").items() if key != "out"
            for arg in ("--set", f"{key}={value}")]


def test_run_convergence_deterministic_csv(tmp_path):
    rec1, fails1, files1 = run_convergence(build_run_config(tiny_mapping(tmp_path / "a")))
    rec2, fails2, files2 = run_convergence(build_run_config(tiny_mapping(tmp_path / "b")))
    assert not fails1 and not fails2
    csv1 = open(files1[0], "rb").read()
    csv2 = open(files2[0], "rb").read()
    assert csv1 == csv2
    lines = csv1.decode().strip().split("\n")
    assert lines[0] == "k,n0,alpha,norm,error,rate_pairwise"
    assert len(lines) == 1 + 4  # two norms x two step sizes


def test_manifest_contents(tmp_path):
    config = build_run_config(tiny_mapping(tmp_path / "m"))
    run_convergence(config)
    manifest = (tmp_path / "m" / "manifest.txt").read_text()
    assert "version = " in manifest
    assert "experiment = stokes_manufactured" in manifest
    assert "k_list = 0.1,0.05" in manifest
    assert "fitted_rate[pressure_L2l2]" in manifest
    assert "time[total]" in manifest
    assert "newton_iterations" not in manifest  # Stokes runs no Newton iteration


@pytest.mark.parametrize("experiment, norms, fields, euler_steps", [
    ("stokes_manufactured", "pressure_L2l2,pressure_Linfl2", "pressure", 0),
    ("case_ii", "velocity_LinfV1,pressure_L2l2", "velocity,pressure", 2),
])
def test_manifest_stored_fields_and_reference_euler_steps(tmp_path, experiment, norms,
                                                          fields, euler_steps):
    mapping = tiny_mapping(tmp_path / "m")
    mapping.update(experiment=experiment, norms=norms)
    _, fails, files = run_convergence(build_run_config(mapping))
    assert not fails
    manifest = open(files[1]).read().splitlines()
    assert f"stored_fields = {fields}" in manifest
    assert f"reference_euler_steps = {euler_steps}" in manifest


def test_pressure_only_study_stores_no_reference_velocity(tmp_path, monkeypatch):
    # the reference stores no field at all: the norms read it as it steps
    build, seen = cli.build_reference, []

    def spy(*args):
        reference, streamed = build(*args)
        seen.append((reference.velocity, reference.pressure))
        return reference, streamed

    monkeypatch.setattr(cli, "build_reference", spy)
    _, fails, _ = run_convergence(build_run_config(tiny_mapping(tmp_path / "p")))
    assert not fails and seen == [(None, None)]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_reference_runs_on_the_calling_thread(tmp_path, monkeypatch, threads):
    # the pool runs the coarse rows alone, so a profiler of the calling
    # thread sees the reference solve
    solve, coarse, seen = schemes.reference_solve, cli.coarse_run, []

    def spy(name, fn):
        def call(*args, **kwargs):
            seen.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(schemes, "reference_solve", spy("reference", solve))
    monkeypatch.setattr(cli, "coarse_run", spy("coarse", coarse))
    mapping = tiny_mapping(tmp_path / "t")
    mapping["threads"] = threads
    _, fails, _ = run_convergence(build_run_config(mapping))
    caller = threading.get_ident()
    assert not fails
    assert [name for name, _ in seen].count("coarse") == 2
    assert seen[-1] == ("reference", caller)
    assert all(thread != caller for name, thread in seen if name == "coarse")


def test_reference_groups_score_as_separate_references(small_space):
    # one reference scoring two groups gives each group's errors the bits of a
    # reference that scores that group alone
    config = build_run_config(tiny_mapping("unused"))
    spec = resolve_problem(config, small_space)
    groups = [(0, (ErrorSpec("pressure_L2l2"), ErrorSpec("velocity_LinfV1"))),
              (1, (ErrorSpec("pressure_Linfl2", 2.0, 1),))]
    runs = [[cli.coarse_run(spec, "stokes", k, config.pattern, n0, specs)
             for k in config.k_list] for n0, specs in groups]

    def errors(scored, group_runs, specs):
        return [scored.error(run, es).hex() for run in group_runs for es in specs]

    args = (spec, "stokes", config.k_list, config.refinement)
    reference, streams = cli.build_reference(
        *args, [(group_runs, specs) for group_runs, (_, specs) in zip(runs, groups)])
    assert reference.velocity is None and reference.pressure is None
    assert len(streams) == 2
    for group_runs, (_, specs), scored in zip(runs, groups, streams):
        _, (alone,) = cli.build_reference(*args, [(group_runs, specs)])
        assert errors(scored, group_runs, specs) == errors(alone, group_runs, specs)


def test_study_memory_does_not_grow_with_the_reference(tmp_path):
    # scoring velocity_LinfV1 against a 512- instead of a 32-interval
    # reference adds less to the traced peak (numpy reports its arrays to
    # tracemalloc) than the 513 x 162 velocity history it does not store
    def peak(refinement):
        mapping = tiny_mapping(tmp_path / str(refinement))
        mapping.update(norms="velocity_LinfV1", refinement=str(refinement))
        config = build_run_config(mapping)
        tracemalloc.start()
        try:
            _, fails, _ = run_convergence(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not fails
        return peak

    peak(4)  # a first study also imports and fills caches
    assert peak(64) - peak(4) < 513 * 162 * 8


def test_manifest_newton_iterations(tmp_path):
    mapping = tiny_mapping(tmp_path / "n")
    mapping["experiment"] = "case_i"
    _, fails, files = run_convergence(build_run_config(mapping))
    assert not fails
    lines = [line for line in open(files[1]).read().splitlines()
             if line.startswith("newton_iterations[")]
    assert [line.split(" = ")[0] for line in lines] == [
        "newton_iterations[reference]", "newton_iterations[k=0.1]",
        "newton_iterations[k=0.05]"]
    for line in lines:
        stats = dict(item.split() for item in line.split(" = ")[1].split(", "))
        assert 1 <= int(stats["min"]) <= float(stats["mean"]) <= int(stats["max"])


def test_zero_forcing_yields_exact_match_rows(tmp_path, monkeypatch):
    # the Stokes experiment with its forcing switched off: zero data, zero solution
    monkeypatch.setitem(cli.EXPERIMENTS, "stokes_manufactured", (ZeroForcing, None, "stokes"))
    rec, fails, files = run_convergence(build_run_config(tiny_mapping(tmp_path / "z")))
    assert not fails
    assert all(row.error == 0.0 for row in rec.rows)
    manifest = open(files[1]).read()
    assert "unavailable" in manifest  # rate fit rejects exact matches


def test_solver_failures_recorded(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(cli, "convergence_rows", boom)
    config = build_run_config(tiny_mapping(tmp_path / "f"))
    rec, fails, files = run_convergence(config)
    assert len(fails) == len(config.k_list)
    manifest = open(files[1]).read()
    assert "failed[k=0.1] = synthetic failure" in manifest


def test_no_reference_when_every_coarse_run_fails(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise SolverError("synthetic failure")

    calls = []
    monkeypatch.setattr(cli, "coarse_run", boom)
    monkeypatch.setattr(cli, "build_reference", lambda *args: calls.append(args))
    out = tmp_path / "all_failed"
    assert main(["convergence", "--out", str(out)] + tiny_overrides()) == 3
    assert calls == []
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "failed[k=0.1] = synthetic failure" in manifest
    assert "failed[k=0.05] = synthetic failure" in manifest
    assert not [line for line in manifest if line.startswith(
        ("reference_euler_steps", "time[reference]", "newton_iterations[reference]"))]
    assert "solver failure at k=0.1" in capsys.readouterr().err


def test_threaded_run_matches_serial(tmp_path):
    serial = tiny_mapping(tmp_path / "s")
    threaded = tiny_mapping(tmp_path / "t")
    threaded["threads"] = "2"
    _, _, files_s = run_convergence(build_run_config(serial))
    _, _, files_t = run_convergence(build_run_config(threaded))
    assert open(files_s[0], "rb").read() == open(files_t[0], "rb").read()


def test_temporal_operator_orders_values():
    rates = temporal_operator_orders()
    assert abs(rates["interpolation"].slope - 2.0) <= 0.15
    assert abs(rates["average_vs_midpoint"].slope - 2.0) <= 0.15
    assert abs(rates["averaged_interpolant"].slope - 1.0) <= 0.15


def test_run_verify_temporal(tmp_path):
    code, lines = run_verify("temporal", out=str(tmp_path))
    assert code == 0
    assert all(line.startswith("PASS") for line in lines)
    assert (tmp_path / "verify_temporal.txt").exists()


def test_run_verify_euler_rates(tmp_path):
    code, lines = run_verify("euler-rates", out=str(tmp_path))
    assert code == 0
    assert len(lines) == len(cli.EULER_CASES)
    csv = (tmp_path / "verify_euler-rates.csv").read_text().strip().split("\n")
    assert csv[0] == "r,s,s0,slope,pairwise"
    assert len(csv) == 1 + len(cli.EULER_CASES)


@pytest.mark.parametrize("target", ["spectral-stability", "spectral-smoothing"])
def test_run_verify_spectral_smoothing(tmp_path, target):
    code, lines = run_verify(target, out=str(tmp_path))
    assert code == 0
    assert all(line.startswith("PASS") for line in lines)
    csv = (tmp_path / f"verify_{target}.csv").read_text().strip().split("\n")
    assert csv[0] == "kind,s,ell,n0,N,trials,seed,max_ratio"
    assert len(csv) == 1 + 9  # three s values or (s, ell) pairs times three meshes
    if target == "spectral-stability":
        rows = [row.split(",") for row in csv[1:]]
        assert all(row[0] == "discrete-stability" and row[2] == "0" for row in rows)


@pytest.mark.parametrize("target, meshes", [
    ("spectral-stability", [16, 32, 64] * 3),  # s = 0, 1, 2
    ("spectral-smoothing", [64, 128, 256] * 2)])  # s = 1 (ell = 1, 2 share), then s = 2
def test_run_verify_steps_each_shared_evolution_once(tmp_path, monkeypatch, target, meshes):
    # one evolution per (s, ell >= 1, n0) and mesh, and one seeding per trial
    stepped, seeded = [], []
    evolve_cn, default_rng = spectral_stokes.evolve_cn, np.random.default_rng

    def spy_evolve(mesh, *args):
        stepped.append(mesh.num_intervals)
        return evolve_cn(mesh, *args)

    def spy_rng(seed):
        seeded.append(tuple(seed))
        return default_rng(seed)

    monkeypatch.setattr(spectral_stokes, "evolve_cn", spy_evolve)
    monkeypatch.setattr(np.random, "default_rng", spy_rng)
    assert run_verify(target, out=str(tmp_path))[0] == 0
    assert stepped == meshes
    assert seeded == [(0, t) for t in range(50)]


def test_run_verify_bad_out_fails_before_any_check(tmp_path, monkeypatch):
    def checks(target, seed):
        raise AssertionError(f"{target} ran its checks before its output directory existed")

    monkeypatch.setattr(cli, "_verify_checks", checks)
    (tmp_path / "file").write_text("")
    with pytest.raises(OSError):
        run_verify("spectral-smoothing", out=str(tmp_path / "file" / "sub"))


def test_run_verify_unknown_target(tmp_path):
    with pytest.raises(ConfigError):
        run_verify("everything", out=str(tmp_path))


def test_main_exit_codes(tmp_path, capsys):
    # configuration error -> 2
    assert main(["convergence", "--set", "bogus=1", "--out", str(tmp_path)]) == 2
    assert main(["convergence", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert main(["convergence", "--set", "bad-item", "--out", str(tmp_path)]) == 2
    # verification success -> 0 and PASS lines printed
    assert main(["verify", "euler-rates", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


@pytest.mark.parametrize("override", ["nx=0", "T=-1", "nu=0", "pattern=0.5,0.5",
                                      "norms=bogus", "n0=500", "T=nan", "T=inf",
                                      "k_list=nan", "pattern=nan,nan", "nu=nan",
                                      "domain=-1,nan,-1,1", "alpha=nan", "threads=0",
                                      "threads=-3", "experiment=custom", "solver=nse",
                                      "forcing=zero", "initial=stationary", "seed=1",
                                      "k_list=0.1,0.1", "k_list=0.02,0.02,0.01",
                                      "norms=velocity_L2V2avg",
                                      # a repeated norm gives rows of equal k,
                                      # whose pairwise rate is nan
                                      "nx=4 ny=4 T=0.4 k_list=0.1,0.05 refinement=4 "
                                      "norms=pressure_L2l2,pressure_L2l2",
                                      # a cell area that underflows to 0, a width
                                      # that overflows, and a subnormal cell area
                                      # whose reciprocal overflows
                                      "nx=2 ny=2 k_list=0.5 T=1 refinement=4 "
                                      "domain=0,1e-200,0,1e-200",
                                      "nx=2 ny=2 k_list=0.5 T=1 refinement=4 "
                                      "domain=-1e308,1e308,-1,1",
                                      "nx=2 ny=2 k_list=0.5 T=1 refinement=4 "
                                      "domain=0,1e-320,0,1",
                                      pytest.param("nx=1" + "0" * 400, id="nx=1e400"),
                                      # N0 = round(13.3) = 13 gives a reference
                                      # step above 0.3 / 4
                                      "T=1 k_list=0.3 refinement=4"])
def test_invalid_config_value_exit_code(tmp_path, capsys, override):
    # an override of several keys separates them by spaces
    config = Path(__file__).parent.parent / "configs" / "stokes_manufactured.cfg"
    args = ["convergence", "--config", str(config), "--out", str(tmp_path)]
    for item in override.split():
        args += ["--set", item]
    assert main(args) == 2
    assert "configuration error:" in capsys.readouterr().err


def test_reference_beyond_physical_memory_exit_code(tmp_path, monkeypatch, capsys):
    # physical memory is read from the machine: one page cannot hold even
    # the fields the tiny run stores
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf",
                        lambda name: 1 if name == "SC_PHYS_PAGES" else sysconf(name))
    assert main(["convergence", "--out", str(tmp_path / "run")] + tiny_overrides()) == 2
    assert "of physical memory" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_memory_guard_counts_the_stored_fields(tmp_path, monkeypatch, capsys):
    # the tiny run stores 12 x 25 coarse and 32 x 25 reference-block pressure
    # values (8,800 bytes) or 14 x 162 coarse and 32 x 162 reference-block
    # velocity values (59,616 bytes); the memory lies between
    sysconf = os.sysconf
    pages = 16384 // sysconf("SC_PAGE_SIZE")
    monkeypatch.setattr(os, "sysconf",
                        lambda name: pages if name == "SC_PHYS_PAGES" else sysconf(name))
    assert 6400 < cli.physical_memory() < 42768
    args = ["convergence", "--out", str(tmp_path / "run")] + tiny_overrides()
    assert main(args) == 0
    assert main(args + ["--set", "norms=velocity_LinfV1"]) == 2
    assert "of physical memory" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["T=2e6", "T=2e4", "T=2e4 nx=1 ny=1"])
def test_oversized_run_exit_code_before_any_mesh(tmp_path, override):
    # 7e8 coarse intervals, 7e6 coarse intervals whose fields need 1.4e11
    # bytes, and a 3.2e7-interval reference mesh that no rounding of
    # np.linspace leaves uniform to 1e-9: each is refused from the inputs.
    # A 1 GiB address space turns an attempt to build the meshes into a
    # MemoryError.
    def cap_address_space():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    config = Path(__file__).parent.parent / "configs" / "stokes_manufactured.cfg"
    args = ["convergence", "--config", str(config), "--out", str(tmp_path / "run")]
    for item in override.split():
        args += ["--set", item]
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-m", "cnflow.cli", *args], env=env,
                            capture_output=True, text=True, timeout=120,
                            preexec_fn=cap_address_space)
    assert result.returncode == 2, result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("configuration error:")


@pytest.mark.parametrize("target", ["temporal", "spectral-stability",
                                    "spectral-smoothing", "euler-rates"])
def test_verify_negative_seed_exit_code(tmp_path, capsys, target):
    # a bad seed is a configuration error (2), not a failed verification (1)
    assert main(["verify", target, "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_verify_threshold_failure_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "DRIFT_LIMIT", 0.5)  # impossible bound
    assert main(["verify", "spectral-stability", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_main_solver_failure_exit_code(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise SolverError("synthetic failure")

    args = ["convergence", "--out", str(tmp_path / "fail")] + tiny_overrides()
    # a failed coarse run is recorded in the manifest; a failed reference
    # ends the run, and main catches the error
    for failing in ("convergence_rows", "build_reference"):
        with monkeypatch.context() as patch:
            patch.setattr(cli, failing, boom)
            assert main(args) == 3
        assert "solver failure" in capsys.readouterr().err


FLOW_STACK = ("scipy", "cnflow.fem2d", "cnflow.schemes")


def run_fresh_interpreter(script, *args):
    """JSON printed by ``script`` in a fresh interpreter that imports cnflow
    from this checkout."""
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    prelude = ("import json, sys\n"
               f"def loaded():\n    return [m for m in {FLOW_STACK!r} if m in sys.modules]\n")
    result = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(script), *args],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_verify_loads_numpy_only(tmp_path):
    # every verify target runs on the spectral surrogate: no scipy, no FEM
    report = run_fresh_interpreter("""
        from cnflow.cli import main
        codes = [main(["verify", target, "--out", sys.argv[1]])
                 for target in ("temporal", "spectral-stability",
                                "spectral-smoothing", "euler-rates")]
        print(json.dumps({"codes": codes, "loaded": loaded()}))
        """, str(tmp_path))
    assert report == {"codes": [0, 0, 0, 0], "loaded": []}


def test_convergence_loads_flow_stack(tmp_path):
    report = run_fresh_interpreter("""
        import cnflow.cli as cli
        out, overrides = sys.argv[1], sys.argv[2:]
        before = loaded()
        ok = cli.main(["convergence", "--out", out + "/ok"] + overrides)
        after = loaded()

        def boom(*args, **kwargs):
            from cnflow.fem2d import SolverError
            raise SolverError("synthetic failure")

        cli.build_reference = boom
        failed = cli.main(["convergence", "--out", out + "/failed"] + overrides)
        print(json.dumps({"before": before, "ok": ok, "after": after, "failed": failed}))
        """, str(tmp_path), *tiny_overrides())
    assert report == {"before": [], "ok": 0, "after": list(FLOW_STACK), "failed": 3}


def test_main_runs_tiny_convergence(tmp_path, capsys):
    args = ["convergence", "--out", str(tmp_path / "run")] + tiny_overrides()
    assert main(args) == 0
    printed = capsys.readouterr().out.strip().split("\n")
    assert printed[0].endswith("convergence.csv")


def test_shipped_configs_parse():
    config_dir = Path(__file__).parent.parent / "configs"
    found = sorted(config_dir.glob("*.cfg"))
    assert len(found) >= 3
    for path in found:
        config = build_run_config(parse_config_text(path.read_text()))
        assert config.k_list[0] > config.k_list[-1] or len(config.k_list) == 1


def test_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(f"{k} = {v}" for k, v in tiny_mapping(tmp_path / "c").items()))
    assert main(["convergence", "--config", str(cfg),
                 "--set", "k_list=0.2,0.1"]) == 0
    manifest = (tmp_path / "c" / "manifest.txt").read_text()
    assert "k_list = 0.2,0.1" in manifest  # override wins over the file


def test_readme_keys_match_run_config():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    table = readme.split("Keys and defaults:", 1)[1].split("\n\n", 2)[1]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    documented = [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(documented) == sorted(f.name for f in dataclasses.fields(RunConfig))
