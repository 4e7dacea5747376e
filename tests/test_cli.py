import pytest

import cnflow.cli as cli
from cnflow.cli import (
    ConfigError,
    build_run_config,
    main,
    parse_config_text,
    resolve_problem,
    run_convergence,
    run_verify,
    temporal_operator_orders,
)
from cnflow.fem2d import SolverError


def test_parse_config_text():
    text = """
    # comment
    experiment = custom
    k_list = 0.1, 0.05
    nx = 4  # trailing comment
    """
    mapping = parse_config_text(text)
    assert mapping["experiment"] == "custom"
    assert mapping["k_list"] == "0.1, 0.05"
    assert mapping["nx"] == "4"
    with pytest.raises(ConfigError):
        parse_config_text("just a line without equals")


def test_build_run_config_validation():
    assert build_run_config({"experiment": "case_i"}).solver == "nse"
    assert build_run_config({"experiment": "stokes_manufactured"}).solver == "stokes"
    with pytest.raises(ConfigError):
        build_run_config({"experiment": "case_iii"})
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
    for experiment, label in (("case_i", "smooth-ramp"), ("case_ii", "zero"),
                              ("stokes_manufactured", "smooth-ramp")):
        config = build_run_config({"experiment": experiment})
        spec = resolve_problem(config, small_space)
        assert spec.forcing.label == label
    config = build_run_config({"experiment": "custom", "forcing": "zero",
                               "initial": "stationary"})
    spec = resolve_problem(config, small_space)
    assert spec.initial_kind == "stationary"
    with pytest.raises(ConfigError):
        resolve_problem(build_run_config({"experiment": "custom",
                                          "forcing": "wavelets"}), small_space)


def tiny_mapping(out):
    return {
        "experiment": "custom",
        "solver": "stokes",
        "forcing": "case_i",
        "T": "0.4",
        "k_list": "0.1,0.05",
        "pattern": "0.8,1.2",
        "nx": "4", "ny": "4",
        "refinement": "4",
        "norms": "pressure_L2l2,pressure_Linfl2",
        "out": str(out),
    }


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
    assert "experiment = custom" in manifest
    assert "k_list = 0.1,0.05" in manifest
    assert "fitted_rate[pressure_L2l2]" in manifest
    assert "time[total]" in manifest
    assert "newton_iterations" not in manifest  # Stokes runs no Newton iteration


def test_manifest_newton_iterations(tmp_path):
    mapping = tiny_mapping(tmp_path / "n")
    mapping["solver"] = "nse"
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


def test_zero_forcing_yields_exact_match_rows(tmp_path):
    mapping = tiny_mapping(tmp_path / "z")
    mapping["forcing"] = "zero"
    rec, fails, files = run_convergence(build_run_config(mapping))
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


def test_run_verify_spectral_smoothing(tmp_path):
    code, lines = run_verify("spectral-smoothing", out=str(tmp_path))
    assert code == 0
    assert all(line.startswith("PASS") for line in lines)
    csv = (tmp_path / "verify_spectral-smoothing.csv").read_text().strip().split("\n")
    assert csv[0].startswith("kind,s,ell,")
    assert len(csv) == 1 + 9  # three (s, ell) pairs times three meshes


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
                                      "threads=-3"])
def test_invalid_config_value_exit_code(tmp_path, capsys, override):
    from pathlib import Path

    config = Path(__file__).parent.parent / "configs" / "stokes_manufactured.cfg"
    args = ["convergence", "--config", str(config), "--set", override,
            "--out", str(tmp_path)]
    assert main(args) == 2
    assert "configuration error:" in capsys.readouterr().err


def test_verify_threshold_failure_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "DRIFT_LIMIT", 0.5)  # impossible bound
    assert main(["verify", "spectral-stability", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_main_solver_failure_exit_code(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(cli, "convergence_rows", boom)
    args = ["convergence", "--out", str(tmp_path / "fail")]
    for key, value in tiny_mapping(tmp_path / "fail").items():
        if key != "out":
            args += ["--set", f"{key}={value}"]
    assert main(args) == 3
    assert "solver failure" in capsys.readouterr().err


def test_main_runs_tiny_convergence(tmp_path, capsys):
    args = ["convergence", "--out", str(tmp_path / "run")]
    for key, value in tiny_mapping(tmp_path / "run").items():
        if key != "out":
            args += ["--set", f"{key}={value}"]
    assert main(args) == 0
    printed = capsys.readouterr().out.strip().split("\n")
    assert printed[0].endswith("convergence.csv")


def test_shipped_configs_parse():
    from pathlib import Path

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
