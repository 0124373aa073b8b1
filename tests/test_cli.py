"""Tests for the command-line interface."""

import csv
import functools
import glob
import inspect
import os
import tracemalloc
import warnings

import numpy as np
import pytest
import yaml

import nnlslab.cli as cli
import nnlslab.experiments as experiments
from nnlslab.cli import (EXPERIMENTS, ConfigError, _check_sections, _trajectory_inputs,
                         build_equation, build_grid, build_initial_data, load_config, main,
                         run_experiment, write_report, write_timeseries)
from nnlslab.equations import EquationSpec, mass_energy_coeffs, support_leakage
from nnlslab.evolve import solve
from nnlslab.gauge import gauge_forward
from nnlslab.spaces import esigma_norm
from reference import reference_energy, reference_mass

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

BASE_CFG = {
    "grid": {"n_modes": 256, "length": 40.0},
    "equation": {"kind": "NNLS", "alpha": 1.0},
    "initial_data": {"kind": "gaussian", "params": {"amplitude": 1.0, "width": 1.0}},
    "evolution": {"T": 0.1, "dt": 2e-3, "sample_every": 10, "norms": [[-1.0, 0.0]]},
    "experiment": {"name": "conservation"},
}


def write_cfg(tmp_path, cfg):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "gauge_equivalence" in out
    assert "norm_inflation" in out
    assert len(EXPERIMENTS) >= 6
    for experiment in EXPERIMENTS.values():
        assert experiment.claim and experiment.about and callable(experiment.run)


def test_missing_config_is_exit_2(capsys):
    assert main(["solve"]) == 2


def test_invalid_config_is_exit_2(tmp_path, capsys):
    cfg = dict(BASE_CFG)
    cfg = {k: v for k, v in cfg.items() if k != "grid"}
    path = write_cfg(tmp_path, cfg)
    assert main(["solve", "--config", path]) == 2
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize("override, message", [
    # YAML reads nan as a string and .nan as a float
    ("evolution.dt=nan", "evolution.dt must be a number, got 'nan'"),
    ("evolution.dt=.nan", "evolution.dt must be finite and > 0"),
    ("evolution.dt=0", "evolution.dt must be finite and > 0"),
])
def test_bad_dt_is_exit_2(tmp_path, capsys, override, message):
    path = write_cfg(tmp_path, BASE_CFG)
    assert main(["solve", "--config", path, "--override", override]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("override", ["evolution.T=.inf", "evolution.T=-1.0"])
def test_bad_horizon_is_exit_2(tmp_path, capsys, override):
    path = write_cfg(tmp_path, BASE_CFG)
    assert main(["solve", "--config", path, "--override", override]) == 2
    assert "evolution.T must be finite and >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["evolution.sample_every=0", "evolution.sample_every=2.5"])
def test_bad_sample_every_is_exit_2(tmp_path, capsys, override):
    path = write_cfg(tmp_path, BASE_CFG)
    assert main(["solve", "--config", path, "--override", override]) == 2
    assert "evolution.sample_every must be an integer >= 1" in capsys.readouterr().err


def test_unknown_experiment_is_exit_2(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE_CFG)
    assert main(["experiment", "frobnicate", "--config", path]) == 2


def test_unknown_experiment_is_named_before_the_grid_is_read(tmp_path, capsys):
    path = write_cfg(tmp_path, {k: v for k, v in BASE_CFG.items() if k != "grid"})
    assert main(["experiment", "frobnicate", "--config", path]) == 2
    assert "unknown experiment 'frobnicate'" in capsys.readouterr().err


def test_unknown_sweep_experiment_is_exit_2_before_any_job(tmp_path, capsys):
    cfg = dict(BASE_CFG, experiment={"name": "frobnicate"},
               sweep={"overrides": [{"equation.alpha": 0.5}]})
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", path, "--out", out]) == 2
    assert "unknown experiment 'frobnicate'" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_jobs_is_a_sweep_option_only(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", path, "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_malformed_override_value_is_exit_2(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE_CFG)
    assert main(["solve", "--config", path, "--override", "evolution.T=[1,"]) == 2
    assert "malformed value" in capsys.readouterr().err


def test_colliding_norm_keys_are_exit_2(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE_CFG)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "out"),
                 "--override", "evolution.norms=[[-1.0,0.0],[-1.0000001,0.0]]"]) == 2
    assert "repeat a diagnostics key" in capsys.readouterr().err


def test_solve_writes_timeseries(tmp_path):
    path = write_cfg(tmp_path, BASE_CFG)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", path, "--out", out]) == 0
    with open(os.path.join(out, "timeseries.csv")) as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    assert header[:6] == ["t", "Re M", "Im M", "Re E", "Im E", "leakage"]
    assert "Es(-1,0)" in header
    # full-precision floats survive a round trip through the file
    t = np.array([float(r[0]) for r in data])
    assert t[0] == 0.0 and abs(t[-1] - 0.1) < 1e-15
    m = np.array([float(r[1]) for r in data])
    assert np.max(np.abs(m - m[0])) <= 1e-8 * abs(m[0])
    assert os.path.exists(os.path.join(out, "report.txt"))


def test_solve_report_keys(tmp_path):
    path = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    lines = dict(l.split("=", 1) for l in (out / "report.txt").read_text().splitlines())
    assert sorted(lines) == ["blown_up", "final_energy_re", "final_mass_re", "final_time"]
    assert lines["blown_up"] == "False" and float(lines["final_time"]) == 0.1


@pytest.mark.parametrize("amplitude, code", [("1.0", 0), ("1.0e+150", 1)])
def test_solve_report_repeats_the_last_timeseries_row(tmp_path, amplitude, code):
    # the final mass and energy are those of the last recorded sample, also
    # when the solve blew up and that sample is the last finite state
    path = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["solve", "--config", path, "--out", str(out),
                     "--override", "initial_data.params.amplitude=" + amplitude]) == code
    lines = dict(l.split("=", 1) for l in (out / "report.txt").read_text().splitlines())
    with open(out / "timeseries.csv") as fh:
        rows = list(csv.reader(fh))
    last = dict(zip(rows[0], rows[-1]))
    assert lines["blown_up"] == str(code == 1)
    assert lines["final_time"] == last["t"]
    assert (lines["final_mass_re"], lines["final_energy_re"]) == (last["Re M"], last["Re E"])


def solve_as_collected(cfg, out_dir):
    """``cmd_solve`` as it was before it streamed: ``write_timeseries`` of the whole
    trajectory, then the report of the last state's mass and energy."""
    spec, u0, T, dt, sample_every, norms = _trajectory_inputs(cfg)
    eps0 = cfg.get("experiment", {}).get("eps0", 0.0)
    traj = solve(u0, T, dt, spec, sample_every=sample_every)
    os.makedirs(out_dir)
    write_timeseries(os.path.join(out_dir, "timeseries.csv"), traj, spec.alpha, eps0, norms)
    m, e = mass_energy_coeffs(traj.states[-1].coeffs, u0.grid, spec.alpha)
    write_report(os.path.join(out_dir, "report.txt"), {
        "blown_up": traj.blown_up,
        "final_time": traj.times[-1],
        "final_mass_re": m.real,
        "final_energy_re": e.real,
    })
    return 0 if not traj.blown_up else 1


@pytest.mark.parametrize("overrides, code, n_rows", [
    ([], 0, 6),
    (["initial_data.params.amplitude=1.0e+150"], 1, None),
    (["evolution.sample_every=3", "experiment.eps0=0.5"], 0, 18),
    (["evolution.T=0.0999", "evolution.norms=[[-1.0,0.0],[0.0,1.0]]"], 0, 6),
], ids=["plain", "blow-up", "sample_every-3", "shortened-last-step"])
def test_streamed_solve_writes_the_collected_solve_byte_for_byte(tmp_path, overrides, code,
                                                                 n_rows):
    # the old path, a whole trajectory written after the solve, is the oracle
    # of the rows written while the solve steps
    path = write_cfg(tmp_path, BASE_CFG)
    cfg = load_config(path, overrides)
    streamed, collected = tmp_path / "streamed", tmp_path / "collected"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["solve", "--config", path, "--out", str(streamed)]
                    + [arg for o in overrides for arg in ("--override", o)]) == code
        assert solve_as_collected(cfg, str(collected)) == code
    for name in ("timeseries.csv", "report.txt"):
        assert (streamed / name).read_bytes() == (collected / name).read_bytes()
    if n_rows is not None:
        assert len((streamed / "timeseries.csv").read_text().splitlines()) == 1 + n_rows


def traced_peak(fn):
    """tracemalloc's peak above its level at the call of ``fn()``."""
    tracemalloc.start()
    try:
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - current


def test_streamed_solve_memory_does_not_grow_with_the_sample_count(tmp_path):
    # a 64 KiB state per step at n = 4096: the collected trajectory held 50
    # more states at T = 0.1 than at T = 0.05, about 3.3 MB; the stream holds
    # the state it is writing
    def run(T):
        cfg = load_config(os.path.join(CONFIGS, "conservation.yaml"),
                          ["grid.n_modes=4096", "evolution.sample_every=1",
                           "evolution.T=%r" % T])
        return traced_peak(lambda: cli.cmd_solve(cfg, str(tmp_path / ("T%r" % T))))

    run(0.01)  # the per-grid caches
    short, long = run(0.05), run(0.1)
    assert abs(long - short) < 4 * 65536, (short, long)


@pytest.mark.parametrize("command", [["solve"], ["experiment", "conservation"],
                                     ["experiment", "support_invariance"]])
@pytest.mark.parametrize("length", [".inf", ".nan"])
def test_non_finite_grid_length_is_exit_2(tmp_path, capsys, command, length):
    # a bad length is refused as input, not reported as a numerical failure
    # (exit 1) or blamed on the coefficients it makes non-finite
    path = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    assert main(command + ["--config", path, "--out", str(out),
                           "--override", "grid.length=" + length]) == 2
    assert "length must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["grid.length", "grid.n_modes", "evolution.T", "evolution.dt"])
def test_int_beyond_the_float_range_is_exit_2(tmp_path, capsys, key):
    # before: float() raised OverflowError, a traceback with exit 1
    path = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out),
                 "--override", "%s=1%s" % (key, "0" * 400)]) == 2
    assert "%s must be finite, got 1000" % key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("amplitude", [1.0, 100.0])
def test_timeseries_columns_match_the_references_bit_for_bit(tmp_path, amplitude):
    # each row is computed from its recorded state: the mass and energy as
    # reference_mass and reference_energy build them, the leakage below eps0
    # and one E^s_sigma norm per pair.  Amplitude 100 blows up in the second
    # step; the run ends with its last finite state, whose energy overflows
    # to nan
    grid = build_grid(BASE_CFG)
    u0 = build_initial_data(BASE_CFG, grid, amplitude=amplitude)
    alpha, eps0, pairs = 1.5, 0.5, [(-1.0, 0.0), (-0.5, 0.25), (0.0, 1.0)]
    traj = solve(u0, 0.04, 0.01, EquationSpec("NNLS", alpha=alpha), sample_every=2)
    assert traj.blown_up == (amplitude > 1)
    path = tmp_path / "ts.csv"
    want = []
    with np.errstate(over="ignore", invalid="ignore"):
        write_timeseries(str(path), traj, alpha, eps0, pairs)
        for t, u in zip(traj.times, traj.states):
            m, e = reference_mass(u), reference_energy(u, alpha)
            row = [t, m.real, m.imag, e.real, e.imag, support_leakage(u, eps0)]
            want.append(["%.17g" % v for v in row + [esigma_norm(u, *p) for p in pairs]])
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "Re M", "Im M", "Re E", "Im E", "leakage",
                       "Es(-1,0)", "Es(-0.5,0.25)", "Es(0,1)"]
    assert rows[1:] == want
    assert all(float(row[5]) > 0 for row in want)
    if traj.blown_up:
        assert traj.times == [0.0, 0.01] and want[-1][3] == "nan"


@pytest.mark.parametrize("amplitude", [100.0, 1e4])
def test_blown_up_timeseries_prints_no_numpy_warnings(tmp_path, amplitude):
    # the last finite state of a blown-up solve overflows the energy
    # integrand, and at amplitude 1e4 (a last state near 1e238) the leakage
    # and the norm too; the nan and inf in the CSV report it, and numpy warns
    # nothing
    grid = build_grid(BASE_CFG)
    u0 = build_initial_data(BASE_CFG, grid, amplitude=amplitude)
    traj = solve(u0, 0.04, 0.01, EquationSpec("NNLS", alpha=1.5), sample_every=2)
    assert traj.blown_up
    path = tmp_path / "ts.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_timeseries(str(path), traj, 1.5, 0.5, [(-1.0, 0.0)])
    with open(path) as fh:
        assert list(csv.reader(fh))[-1][3] == "nan"


def test_support_invariance_writes_the_requested_norms(tmp_path):
    out = tmp_path / "out"
    assert main(["experiment", "support_invariance", "--config",
                 os.path.join(CONFIGS, "support_invariance.yaml"), "--out", str(out),
                 "--override", "evolution.T=0.1",
                 "--override", "evolution.norms=[[-1.0,0.0],[0.0,1.0]]"]) == 0
    with open(out / "timeseries.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][6:] == ["Es(-1,0)", "Es(0,1)"]
    cfg = load_config(os.path.join(CONFIGS, "support_invariance.yaml"))
    u0 = build_initial_data(cfg, build_grid(cfg))
    norms = [esigma_norm(u0, -1.0, 0.0), esigma_norm(u0, 0.0, 1.0)]
    assert rows[1][6:] == ["%.17g" % v for v in norms]
    assert len(rows) == 4 and all(len(row) == 8 for row in rows)


def test_experiment_pass_and_report(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE_CFG)
    out = str(tmp_path / "out")
    assert main(["experiment", "conservation", "--config", path, "--out", out]) == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    lines = dict(l.split("=", 1) for l in report.strip().splitlines())
    assert lines["claim_id"] == "mass-energy-conservation"
    assert lines["passed"] == "True"
    assert float(lines["measurements.mass_drift"]) <= 1e-6
    assert float(lines["runtime_seconds"]) > 0


def test_experiment_failure_is_exit_1_with_report(tmp_path):
    path = write_cfg(tmp_path, BASE_CFG)
    out = str(tmp_path / "out")
    code = main(["experiment", "conservation", "--config", path, "--out", out,
                 "--override", "experiment.tolerance=0.0"])
    assert code == 1
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "passed=False" in report


def test_override_changes_run(tmp_path):
    path = write_cfg(tmp_path, BASE_CFG)
    cfg = load_config(path, ["equation.alpha=2.5", "evolution.T=0.05"])
    assert cfg["equation"]["alpha"] == 2.5
    assert cfg["evolution"]["T"] == 0.05
    with pytest.raises(Exception):
        load_config(path, ["no-equals-sign"])


def test_sweep_runs_jobs(tmp_path, capsys):
    cfg = dict(BASE_CFG)
    cfg["sweep"] = {"overrides": [
        {"equation.alpha": 0.5},
        {"equation.alpha": 1.5},
    ]}
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", path, "--out", out, "--jobs", "2"]) == 0
    printed = capsys.readouterr().out
    assert "job_000: pass" in printed and "job_001: pass" in printed
    assert os.path.exists(os.path.join(out, "job_001", "report.txt"))


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_is_exit_2_before_any_job(tmp_path, capsys, jobs):
    cfg = dict(BASE_CFG, sweep={"overrides": [{"equation.alpha": 0.5}]})
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", path, "--out", out, "--jobs", jobs]) == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("kind", ["gaussian", "modulated_gaussian"])
def test_zero_width_is_exit_2(tmp_path, capsys, kind):
    # before: two RuntimeWarnings, then "coeffs contain non-finite entries"
    cfg = dict(BASE_CFG, initial_data={"kind": kind, "params": {"amplitude": 1.0, "width": 0.0}})
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "run")
    assert main(["solve", "--config", path, "--out", out]) == 2
    assert "width must be positive, got 0.0" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_non_integral_mode_count_is_exit_2(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE_CFG)
    out = str(tmp_path / "run")
    assert main(["solve", "--config", path, "--out", out,
                 "--override", "grid.n_modes=300.7"]) == 2
    assert "grid.n_modes must be an integer" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_integral_float_mode_count_is_accepted():
    assert build_grid(dict(BASE_CFG, grid={"n_modes": 256.0, "length": 40.0})).n_modes == 256


def test_override_through_a_value_is_exit_2(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE_CFG)
    assert main(["solve", "--config", path, "--override", "grid.n_modes.x.y=1"]) == 2
    assert "crosses a non-mapping" in capsys.readouterr().err


def test_non_integral_bump_frequency_is_exit_2(capsys):
    config = os.path.join(CONFIGS, "norm_inflation.yaml")
    assert main(["experiment", "norm_inflation", "--config", config,
                 "--override", "experiment.k_list=[4.5,8]"]) == 2
    assert "k must be a positive integer" in capsys.readouterr().err


def test_norm_inflation_weight_overflow_is_exit_2_before_any_quadrature(monkeypatch, capsys):
    # before: the run leaked numpy's "overflow encountered in power" warning
    def no_quadrature(*args, **kwargs):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(experiments, "third_derivative_field", no_quadrature)
    config = os.path.join(CONFIGS, "norm_inflation.yaml")
    assert main(["experiment", "norm_inflation", "--config", config,
                 "--override", "experiment.sprime=1e4"]) == 2
    assert "overflows at s = 10000.0, sigma = 0.0" in capsys.readouterr().err


def test_zero_field_scaling_check_is_exit_2(tmp_path, capsys):
    # the bound of a zero field is 0: refused, not a division by zero
    config = os.path.join(CONFIGS, "scaling_global.yaml")
    assert main(["experiment", "scaling_global", "--config", config, "--out", str(tmp_path),
                 "--override", "initial_data.params.amplitude=0.0"]) == 2
    assert "scaling check requires a nonzero field" in capsys.readouterr().err


def test_positive_s_scaling_is_exit_2_before_any_solve(tmp_path, capsys, monkeypatch):
    # before: the check of every lam > 1 refused s = 5, each lam was skipped
    # and the run passed
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(experiments, "solve", no_solve)
    monkeypatch.setattr(experiments, "solve_batch", no_solve)
    config = os.path.join(CONFIGS, "scaling_global.yaml")
    assert main(["experiment", "scaling_global", "--config", config, "--out", str(tmp_path),
                 "--override", "experiment.s=5"]) == 2
    assert "s must be <= 0, got 5" in capsys.readouterr().err


def test_scaling_without_a_checked_lambda_fails(tmp_path):
    # before: lambdas [1] checked no ratio and passed
    config = os.path.join(CONFIGS, "scaling_global.yaml")
    assert main(["experiment", "scaling_global", "--config", config, "--out", str(tmp_path),
                 "--override", "experiment.lambdas=[1]"]) == 1
    assert "passed=False" in (tmp_path / "report.txt").read_text().splitlines()


@pytest.mark.parametrize("entry", [{"grid.n_modes.x.y": 1}, "equation.alpha=0.5",
                                   {"evolutoin.T": 0.01}])
def test_bad_sweep_entry_is_exit_2(tmp_path, capsys, entry):
    # sweep entries go through the same override applier as --override, and
    # every job's sections are checked before the first one runs
    cfg = dict(BASE_CFG)
    cfg["sweep"] = {"overrides": [{"equation.alpha": 0.5}, entry]}
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", path, "--out", out]) == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not os.path.exists(out)  # rejected before any job ran


def _report(path):
    return dict(line.split("=", 1) for line in path.read_text().strip().splitlines())


@pytest.mark.parametrize("config", sorted(glob.glob(os.path.join(CONFIGS, "*.yaml"))),
                         ids=lambda p: os.path.basename(p)[:-len(".yaml")])
def test_every_shipped_config_runs(tmp_path, config):
    # each runner must accept what its config gives it; a short horizon keeps it cheap
    cfg = load_config(config)
    argv = ["experiment", cfg["experiment"]["name"], "--config", config,
            "--out", str(tmp_path)]
    if "evolution" in cfg:
        argv += ["--override", "evolution.T=0.1"]
    assert main(argv) == 0
    # the claim strings live in two files: the CLI table and each report
    claim = EXPERIMENTS[cfg["experiment"]["name"]].claim
    assert _report(tmp_path / "report.txt")["claim_id"] == claim


@pytest.mark.parametrize("config", sorted(glob.glob(os.path.join(CONFIGS, "*.yaml"))),
                         ids=lambda p: os.path.basename(p)[:-len(".yaml")])
def test_shipped_configs_load_as_with_safe_load(config):
    with open(config) as fh:
        assert load_config(config) == yaml.safe_load(fh)


def test_exponent_floats_are_floats(tmp_path):
    # YAML 1.1 (PyYAML's safe_load) reads 1e-3 as the string '1e-3'
    path = tmp_path / "run.yaml"
    path.write_text("evolution: {dt: 1e-3}\nsweep:\n  overrides:\n  - {evolution.dt: 2E-3}\n")
    cfg = load_config(str(path), ["equation.alpha=5e+1"])
    assert cfg["evolution"]["dt"] == 1e-3
    assert cfg["sweep"]["overrides"][0]["evolution.dt"] == 2e-3
    assert cfg["equation"]["alpha"] == 50.0


def test_exponent_float_override_runs(tmp_path):
    # before: the string '5e-1' reached numpy and the run exited 2
    path = write_cfg(tmp_path, BASE_CFG)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "out"),
                 "--override", "initial_data.params.amplitude=5e-1"]) == 0


@pytest.mark.parametrize("command", [["solve"], ["experiment", "conservation"]])
@pytest.mark.parametrize("section", ["experiment", "evolution", "equation", "initial_data",
                                     "initial_data.params"])
def test_non_mapping_section_is_exit_2(tmp_path, capsys, command, section):
    # before: AttributeError: 'int' object has no attribute 'get', exit 1
    path = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    assert main(command + ["--config", path, "--out", str(out), "--override", section + "=5"]) == 2
    assert "must be a mapping, got 5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override, named", [
    ("experiment.tolerence=1e-30", "experiment.tolerence"),
    ("experiment.T=0.5", "experiment.T"),
    ("equation.alfa=2.0", "equation.alfa"),
    ("initial_data.params.widht=3.0", "'widht'"),
    ("evolution.t=0.01", "unknown key 'evolution.t'"),
    ("grid.lenght=5", "unknown key 'grid.lenght'"),
])
def test_misspelt_key_is_exit_2(tmp_path, capsys, override, named):
    # before: each of these ran on the default and printed pass
    path = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    assert main(["experiment", "conservation", "--config", path, "--out", str(out),
                 "--override", override]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, override, named", [
    ("picard_window", "evolution.t=0.01", "unknown key 'evolution.t'"),
    ("norm_inflation", "grid.lenght=5", "unknown key 'grid.lenght'"),
    ("norm_inflation", "evolution=5", "key 'evolution' in section 'root' must be a mapping"),
])
def test_misspelt_key_of_an_unread_section_is_exit_2(tmp_path, capsys, monkeypatch, name,
                                                     override, named):
    # before: picard_window never read evolution and norm_inflation never read
    # grid, so both ran on and exited 0
    def no_run(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(experiments, "picard_solve", no_run)
    monkeypatch.setattr(experiments, "third_derivative_field", no_run)
    config = os.path.join(CONFIGS, name + ".yaml")
    out = tmp_path / "out"
    assert main(["experiment", name, "--config", config, "--out", str(out),
                 "--override", override]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_valid_key_of_an_unread_section_is_accepted(tmp_path, monkeypatch):
    # picard_window reads no evolution section, but a valid key there is no error
    monkeypatch.setattr(experiments, "largest_contracting_time", lambda u0, spec: 1.0)
    config = os.path.join(CONFIGS, "picard_window.yaml")
    assert main(["experiment", "picard_window", "--config", config, "--out", str(tmp_path),
                 "--override", "evolution.T=0.01"]) == 1  # equal windows fit no slope
    assert (tmp_path / "report.txt").exists()


@pytest.mark.parametrize("command, override, named", [
    (["solve", "--config", os.path.join(CONFIGS, "conservation.yaml"),
      "--override", "grid.n_modes=256"], "evolutoin.T=0.01", "unknown section 'evolutoin'"),
    (["experiment", "norm_inflation", "--config", os.path.join(CONFIGS, "norm_inflation.yaml")],
     "experimnt.kappa=0.05", "unknown section 'experimnt'"),
    (["experiment", "support_invariance",
      "--config", os.path.join(CONFIGS, "support_invariance.yaml")],
     "initial_data.prams.amplitude=500", "unknown key 'initial_data.prams'"),
], ids=["solve", "norm_inflation", "support_invariance"])
def test_misspelt_section_or_initial_data_key_is_exit_2(tmp_path, capsys, command, override,
                                                        named):
    # before: each ran on the defaults and exited 0 (solve stepped to t = 1,
    # norm_inflation passed at kappa = 0.1 and support_invariance at amplitude 0.5)
    out = tmp_path / "out"
    assert main(command + ["--out", str(out), "--override", override]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", sorted(glob.glob(os.path.join(CONFIGS, "*.yaml"))),
                         ids=lambda p: os.path.basename(p)[:-len(".yaml")])
def test_every_shipped_config_passes_the_section_check(config):
    _check_sections(load_config(config))


def test_scaling_checks_a_repeated_factor_once(tmp_path):
    # before: the decay check compared lam = 2 with itself, and the run
    # printed FAIL and exited 1 with monotone_decay=False
    config = os.path.join(CONFIGS, "scaling_global.yaml")
    assert main(["experiment", "scaling_global", "--config", config, "--out", str(tmp_path),
                 "--override", "experiment.lambdas=[1, 2, 2, 4]"]) == 0
    report = _report(tmp_path / "report.txt")
    assert report["measurements.monotone_decay"] == "True"
    assert report["parameters.lambdas"] == "1 2 2 4"
    assert [k for k in report if k.startswith("measurements.sup_norms.")] == [
        "measurements.sup_norms.%d" % lam for lam in (1, 2, 4)]


@pytest.mark.parametrize("kind, reads_beta", [("NNLS", False), ("NdNLS", False),
                                              ("GaugedNdNLS", False), ("gNdNLS", True),
                                              ("GaugedGNdNLS", True)])
def test_nonzero_beta_needs_a_kind_that_reads_it(kind, reads_beta):
    # before: every kind took beta 0.5, and NNLS, NdNLS and GaugedNdNLS dropped it
    cfg = dict(BASE_CFG, equation={"kind": kind, "beta": 0.5})
    if reads_beta:
        assert build_equation(cfg).beta == 0.5
    else:
        with pytest.raises(ConfigError, match="equation.beta 0.5 is read only by"):
            build_equation(cfg)
    assert build_equation(dict(BASE_CFG, equation={"kind": kind, "beta": 0.0})).kind == kind


def test_gauge_equivalence_with_ndnls_and_beta_is_exit_2(tmp_path, capsys):
    config = os.path.join(CONFIGS, "gauge_equivalence.yaml")
    assert main(["experiment", "gauge_equivalence", "--config", config, "--out", str(tmp_path),
                 "--override", "equation.beta=0.5"]) == 2
    assert "equation.beta" in capsys.readouterr().err


@pytest.mark.parametrize("amplitude", ["100", "1e160"])
def test_gauge_overflow_is_a_failed_run_with_report(tmp_path, capsys, amplitude):
    # G(u0) overflows at amplitude 100, and the density u u* already at 1e160:
    # a numerical failure, exit 1 with the report written, not an invalid
    # configuration, and no numpy warning
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["experiment", "gauge_equivalence", "--config",
                     os.path.join(CONFIGS, "gauge_equivalence.yaml"), "--out", str(out),
                     "--override", "initial_data.params.amplitude=" + amplitude]) == 1
    assert "invalid configuration" not in capsys.readouterr().err
    lines = dict(l.split("=", 1) for l in (out / "report.txt").read_text().splitlines())
    assert lines["passed"] == "False"
    assert lines["measurements.gauge_overflow"] == "True"
    assert lines["measurements.max_relative_residual"] == "inf"


def test_gauge_equivalence_reports_the_earlier_blowup_time(tmp_path):
    config = os.path.join(CONFIGS, "gauge_equivalence.yaml")
    out = tmp_path / "out"
    assert main(["experiment", "gauge_equivalence", "--config", config, "--out", str(out),
                 "--override", "initial_data.params.amplitude=10"]) == 1
    lines = dict(l.split("=", 1) for l in (out / "report.txt").read_text().splitlines())
    cfg = load_config(config, ["initial_data.params.amplitude=10"])
    u0 = build_initial_data(cfg, build_grid(cfg))
    trajs = [solve(u0, 0.5, 1e-3, EquationSpec("NdNLS")),
             solve(gauge_forward(u0, -0.5), 0.5, 1e-3, EquationSpec("GaugedNdNLS"))]
    first = min(tr.blowup_time for tr in trajs if tr.blown_up)
    assert lines["measurements.blown_up"] == "True"
    assert float(lines["measurements.blowup_time"]) == first


@pytest.mark.parametrize("name, reported", [
    ("support_invariance", {"eps0": "parameters.eps0", "tolerance": "tolerance"}),
    ("scaling_global", {key: "parameters." + key for key in ("s", "sigma", "eps0", "lambdas")}),
])
def test_an_experiment_without_keys_reports_its_signature_defaults(tmp_path, name, reported):
    # before: the command line kept its own defaults for these keys, and
    # exp_support_invariance and exp_scaling_global had none
    cfg = load_config(os.path.join(CONFIGS, name + ".yaml"), ["evolution.T=0.02"])
    cfg["experiment"] = {"name": name}
    out = tmp_path / "out"
    assert main(["experiment", name, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    lines = _report(out / "report.txt")
    params = inspect.signature(getattr(experiments, "exp_" + name)).parameters
    for key, line in reported.items():
        assert ([float(v) for v in lines[line].split()]
                == list(np.atleast_1d(params[key].default)))


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_the_runner_calls_the_experiment_bound_at_run_time(tmp_path, monkeypatch, name):
    # a rebound experiments.exp_<name> is the one that runs, so a wrapper
    # installed after import (a tracer, a test double) sees every run
    class Ran(Exception):
        pass

    @functools.wraps(getattr(experiments, "exp_" + name))
    def ran(*args, **kwargs):
        raise Ran

    monkeypatch.setattr(experiments, "exp_" + name, ran)
    with pytest.raises(Ran):
        run_experiment(name, load_config(os.path.join(CONFIGS, name + ".yaml")),
                       str(tmp_path / "out"))


def test_norm_inflation_reads_alpha(tmp_path):
    # before: equation.alpha never reached the third derivative, so both runs matched
    config = os.path.join(CONFIGS, "norm_inflation.yaml")
    small = ["--override", "experiment.k_list=[4,8]", "--override", "experiment.n_nodes=8"]
    for alpha in ("1.0", "2.0"):
        assert main(["experiment", "norm_inflation", "--config", config,
                     "--out", str(tmp_path / alpha), "--override", "equation.alpha=" + alpha]
                    + small) == 0
    one, two = _report(tmp_path / "1.0" / "report.txt"), _report(tmp_path / "2.0" / "report.txt")
    assert two["parameters.alpha"] == "2"
    # alpha enters as a prefactor, so doubling it doubles every norm exactly
    assert ([2.0 * float(v) for v in one["measurements.norms"].split()]
            == [float(v) for v in two["measurements.norms"].split()])
    assert float(two["measurements.slope"]) == pytest.approx(
        float(one["measurements.slope"]), rel=1e-12)


def test_norm_inflation_zero_alpha_is_exit_2(capsys):
    config = os.path.join(CONFIGS, "norm_inflation.yaml")
    assert main(["experiment", "norm_inflation", "--config", config,
                 "--override", "equation.alpha=0.0"]) == 2
    assert "alpha must be nonzero" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["NNLS", "GaugedNdNLS", "GaugedGNdNLS"])
def test_gauge_equivalence_rejects_other_kinds(tmp_path, capsys, kind):
    # before: any kind ran the NdNLS pair and reported pass
    config = os.path.join(CONFIGS, "gauge_equivalence.yaml")
    out = tmp_path / "run"
    assert main(["experiment", "gauge_equivalence", "--config", config, "--out", str(out),
                 "--override", "equation.kind=" + kind]) == 2
    assert "not equation.kind %r" % kind in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, reads_mode", [("NNLS", False), ("NdNLS", False),
                                              ("GaugedNdNLS", False), ("gNdNLS", True),
                                              ("GaugedGNdNLS", True)])
def test_non_default_mode_needs_a_kind_that_reads_it(kind, reads_mode):
    # before: NNLS, NdNLS and GaugedNdNLS took mode 'printed' and dropped it
    cfg = dict(BASE_CFG, equation={"kind": kind, "gauged_coefficient_mode": "printed"})
    if reads_mode:
        assert build_equation(cfg).gauged_coefficient_mode == "printed"
    else:
        with pytest.raises(ConfigError, match="equation.gauged_coefficient_mode 'printed' is read"):
            build_equation(cfg)
    default = dict(BASE_CFG, equation={"kind": kind, "gauged_coefficient_mode": "rederived"})
    assert build_equation(default).kind == kind


def test_unread_mode_is_exit_2(tmp_path, capsys):
    config = os.path.join(CONFIGS, "conservation.yaml")
    out = tmp_path / "run"
    assert main(["solve", "--config", config, "--out", str(out),
                 "--override", "equation.kind=NdNLS",
                 "--override", "equation.gauged_coefficient_mode=printed"]) == 2
    assert "equation.gauged_coefficient_mode" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override, message", [
    ("experiment.tolerance=abc", "experiment.tolerance must be a number, got 'abc'"),
    ("experiment.tolerance=true", "experiment.tolerance must be a number, got True"),
    ("equation.alpha=abc", "equation.alpha must be a number, got 'abc'"),
    ("equation.alpha='2.0'", "equation.alpha must be a number, got '2.0'"),
    ("initial_data.params.width=true", "initial_data.params.width must be a number, got True"),
    ("initial_data.params.amplitude=abc",
     "initial_data.params.amplitude must be a number, got 'abc'"),
    ("grid.length=true", "grid.length must be a number, got True"),
    ("grid.length='40'", "grid.length must be a number, got '40'"),
    ("grid.n_modes=true", "grid.n_modes must be a number, got True"),
    ("grid.n_modes=abc", "grid.n_modes must be a number, got 'abc'"),
    ("evolution.T=true", "evolution.T must be a number, got True"),
    ("evolution.dt=abc", "evolution.dt must be a number, got 'abc'"),
    ("evolution.dt='0.001'", "evolution.dt must be a number, got '0.001'"),
    ("evolution.norms=[[true,0.0]]", "evolution.norms[0][0] must be a number, got True"),
    ("evolution.norms=[[-1.0]]", "evolution.norms must be a list of [s, sigma] pairs"),
    ("evolution.norms=abc", "evolution.norms must be a list of [s, sigma] pairs"),
])
def test_non_number_is_exit_2_before_any_solve(tmp_path, capsys, monkeypatch, override, message):
    # before: tolerance=abc ran the whole solve and then failed on '<=', and
    # alpha=abc failed inside numpy; neither error named the key.  A bool ran
    # as 1.0 (width, T) or was refused only through another check (length)
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(experiments, "solve", no_solve)
    path = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    assert main(["experiment", "conservation", "--config", path, "--out", str(out),
                 "--override", override]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override, message", [
    ("experiment.amplitudes=[4.0,true,40.0]",
     "experiment.amplitudes[1] must be a number, got True"),
    ("experiment.amplitudes=[4.0,abc]", "experiment.amplitudes[1] must be a number, got 'abc'"),
    ("experiment.amplitudes=abc", "experiment.amplitudes must be a list of numbers, got 'abc'"),
    ("initial_data.params.carrier=true",
     "initial_data.params.carrier must be a number, got True"),
])
def test_non_number_in_picard_window_is_exit_2_before_any_solve(tmp_path, capsys, monkeypatch,
                                                                 override, message):
    # before: a bool amplitude ran as 1.0 and 'abc' ran one datum per character
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(experiments, "picard_solve", no_solve)
    config = os.path.join(CONFIGS, "picard_window.yaml")
    out = tmp_path / "out"
    assert main(["experiment", "picard_window", "--config", config, "--out", str(out),
                 "--override", override]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, override, message", [
    (["experiment", "picard_window"], "experiment.amplitudes=[4.0,12.6,40.0,1e309]",
     "experiment.amplitudes[3] must be finite, got inf"),
    (["experiment", "support_invariance"], "experiment.tolerance=.nan",
     "experiment.tolerance must be finite, got nan"),
    (["experiment", "support_invariance"], "initial_data.params.amplitude=.inf",
     "initial_data.params.amplitude must be finite, got inf"),
    (["experiment", "scaling_global"], "experiment.lambdas=[1.0,.nan]",
     "experiment.lambdas[1] must be finite, got nan"),
    (["solve"], "experiment.eps0=.nan", "experiment.eps0 must be finite, got nan"),
    (["solve"], "evolution.norms=[[.nan,0.0]]", "evolution.norms[0][0] must be finite, got nan"),
])
def test_non_finite_number_is_exit_2_before_any_solve(tmp_path, capsys, monkeypatch, command,
                                                      override, message):
    # before: the infinite amplitude warned from numpy and was refused as
    # non-finite coefficients, naming no key, and a nan tolerance ran the
    # whole solve and reported a failed claim with exit 1
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    for name in ("solve", "solve_batch", "picard_solve"):
        monkeypatch.setattr(experiments, name, no_solve)
    monkeypatch.setattr(cli, "stream", no_solve)
    name = command[-1] if command[0] == "experiment" else "conservation"
    config = os.path.join(CONFIGS, name + ".yaml")
    out = tmp_path / "out"
    assert main(command + ["--config", config, "--out", str(out), "--override", override]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_picard_window_without_amplitudes_runs_the_signature_defaults(tmp_path, monkeypatch):
    # before: the command line kept its own copy of the five amplitudes
    seen = []

    def no_window(u0, spec):
        seen.append(u0.coeffs)
        return None

    monkeypatch.setattr(experiments, "largest_contracting_time", no_window)
    cfg = load_config(os.path.join(CONFIGS, "picard_window.yaml"))
    del cfg["experiment"]["amplitudes"]
    report = run_experiment("picard_window", cfg, str(tmp_path))
    defaults = inspect.signature(experiments.exp_picard_window).parameters["amplitudes"].default
    grid = build_grid(cfg)
    assert len(defaults) == 5 and report.measurements["excluded"] == (0, 1, 2, 3, 4)
    for coeffs, a in zip(seen, defaults, strict=True):
        assert np.array_equal(coeffs, build_initial_data(cfg, grid, amplitude=a).coeffs)


@pytest.mark.parametrize("override, message", [
    ("experiment.n_nodes=true", "experiment.n_nodes must be a number, got True"),
    ("experiment.n_nodes=abc", "experiment.n_nodes must be a number, got 'abc'"),
    ("experiment.k_list=[true,16,32]", "experiment.k_list[0] must be a number, got True"),
    ("experiment.k_list=[8,abc]", "experiment.k_list[1] must be a number, got 'abc'"),
    ("experiment.k_list=abc", "experiment.k_list must be a list of integers, got 'abc'"),
])
def test_non_integer_in_norm_inflation_is_exit_2_before_any_quadrature(tmp_path, capsys,
                                                                       monkeypatch, override,
                                                                       message):
    # before: n_nodes=true ran one node and failed, k_list=[true,16,32] ran k = 1
    # and passed, and 'abc' failed in float() without naming the key
    def no_quadrature(*args, **kwargs):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(experiments, "third_derivative_field", no_quadrature)
    config = os.path.join(CONFIGS, "norm_inflation.yaml")
    out = tmp_path / "out"
    assert main(["experiment", "norm_inflation", "--config", config, "--out", str(out),
                 "--override", override]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, override, message", [
    (["solve"], "evolution.norms=[[-1.0, 300.0]]", "overflows at s = -1.0, sigma = 300.0"),
    (["experiment", "scaling_global"], "experiment.sigma=300.0",
     "overflows at s = -1.0, sigma = 300.0"),
    (["experiment", "picard_window"], "experiment.sigma=400.0",
     "overflows at s = -1.0, sigma = 400.0"),
    (["experiment", "norm_inflation"], "experiment.k_list=[8,16,5000]",
     "k = 5000: the amplitude 2^(-s k/2) overflows"),
    (["experiment", "norm_inflation"], "experiment.k_list=[8,16,700]",
     "k = 700: the cubed amplitude 2^(-3 s k/2) overflows"),
    (["solve"], "initial_data={kind: two_bump, params: {k: 3000, s: -1.0}}",
     "k = 3000: the amplitude 2^(-s k/2) overflows"),
])
def test_overflowing_weight_or_amplitude_is_exit_2_before_any_solve(tmp_path, capsys, monkeypatch,
                                                                    command, override, message):
    # before: the solve printed a numpy RuntimeWarning and wrote a nan norm
    # with exit 0, scaling_global solved and then failed its claim on nan
    # ratios, picard_window bisected and then failed in np.polyfit, and each
    # overflowing k ended in an OverflowError traceback
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    for name in ("solve", "solve_batch", "picard_solve", "third_derivative_field"):
        monkeypatch.setattr(experiments, name, no_solve)
    monkeypatch.setattr(cli, "stream", no_solve)
    name = command[-1] if command[0] == "experiment" else "conservation"
    config = os.path.join(CONFIGS, name + ".yaml")
    out = tmp_path / "out"
    assert main(command + ["--config", config, "--out", str(out), "--override", override]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_strongly_negative_s_gives_a_finite_norm_column(tmp_path):
    # before: the weight guard bounded |s| xi_max ln 2 and exited 2 at
    # s = -60, whose weight 2^(s|xi|) is at most 1
    config = os.path.join(CONFIGS, "conservation.yaml")
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out", str(out),
                 "--override", "evolution.norms=[[-60.0, 0.0]]",
                 "--override", "evolution.T=0.01"]) == 0
    with open(out / "timeseries.csv") as fh:
        rows = list(csv.reader(fh))
    column = [name for name in rows[0] if name.startswith("Es(")]
    assert column == ["Es(-60,0)"]
    values = [float(row[rows[0].index(column[0])]) for row in rows[1:]]
    assert values and all(0 < v < np.inf for v in values)


def test_norm_whose_squares_overflow_gives_a_finite_column(tmp_path):
    # before: the weighted roundoff tail near xi_max squared past the float
    # range, and every row of the column read inf
    config = os.path.join(CONFIGS, "conservation.yaml")
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out", str(out),
                 "--override", "evolution.norms=[[30.0, -100.0]]",
                 "--override", "evolution.T=0.1"]) == 0
    with open(out / "timeseries.csv") as fh:
        rows = list(csv.reader(fh))
    values = [float(row[rows[0].index("Es(30,-100)")]) for row in rows[1:]]
    assert len(values) == 3 and all(0 < v < np.inf for v in values)


def test_cfl_refusal_is_exit_2_before_any_output(tmp_path, capsys):
    config = os.path.join(CONFIGS, "conservation.yaml")
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out", str(out),
                 "--override", "evolution.dt=1.0"]) == 2
    assert "exceeds the guard" in capsys.readouterr().err
    assert not out.exists()


def test_norm_inflation_of_a_large_k_is_finite(tmp_path):
    # before: the band norm squared the unweighted third derivative, which
    # overflows at k = 500 although the weighted norm is finite: norms read
    # inf, the slope nan, and numpy warned on the way
    config = os.path.join(CONFIGS, "norm_inflation.yaml")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["experiment", "norm_inflation", "--config", config, "--out", str(out),
                     "--override", "experiment.k_list=[8,16,500]"]) == 0
    report = _report(out / "report.txt")
    norms = [float(v) for v in report["measurements.norms"].split()]
    assert len(norms) == 3 and all(0 < v < np.inf for v in norms)
    assert np.isfinite(float(report["measurements.slope"]))


@pytest.mark.parametrize("command, override, message", [
    (["experiment", "scaling_global"], "experiment.lambdas=5",
     "experiment.lambdas must be a list of numbers, got 5"),
    (["experiment", "scaling_global"], "experiment.lambdas=[abc]",
     "experiment.lambdas[0] must be a number, got 'abc'"),
    (["experiment", "scaling_global"], "experiment.s=abc", "experiment.s must be a number"),
    (["experiment", "scaling_global"], "experiment.eps0=true", "experiment.eps0 must be a number"),
    (["experiment", "support_invariance"], "experiment.eps0=[1]",
     "experiment.eps0 must be a number, got [1]"),
    (["experiment", "conservation"], "initial_data.kind=[1]", "initial_data.kind [1] not one of"),
    (["solve"], "experiment.eps0=abc", "experiment.eps0 must be a number, got 'abc'"),
    (["sweep"], "sweep.overrides=5", "sweep.overrides must be a list of mappings, got 5"),
    (["sweep"], "experiment.name=[1]", "unknown experiment [1]"),
])
def test_mistyped_value_is_exit_2_not_a_traceback(tmp_path, capsys, command, override, message):
    # before: each ended in a TypeError inside the library, which main caught
    # only because it turned every TypeError, bugs included, into exit 2
    if command[0] == "experiment":
        config = os.path.join(CONFIGS, "%s.yaml" % command[1])
    else:
        config = write_cfg(tmp_path, dict(BASE_CFG, sweep={"overrides": [{}]}))
    out = tmp_path / "out"
    assert main(command + ["--config", config, "--out", str(out), "--override", override]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_a_library_type_error_is_not_relabelled_invalid_configuration(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise TypeError("a bug")

    monkeypatch.setattr(experiments, "solve", broken)
    with pytest.raises(TypeError, match="a bug"):
        main(["experiment", "conservation", "--config", write_cfg(tmp_path, BASE_CFG),
              "--out", str(tmp_path / "out")])
