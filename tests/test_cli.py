"""Tests for the command-line interface."""

import csv
import os

import numpy as np
import pytest
import yaml

from nnlslab.cli import EXPERIMENTS, load_config, main

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
    for info in EXPERIMENTS.values():
        assert info["claim"]


def test_missing_config_is_exit_2(capsys):
    assert main(["solve"]) == 2


def test_invalid_config_is_exit_2(tmp_path, capsys):
    cfg = dict(BASE_CFG)
    cfg = {k: v for k, v in cfg.items() if k != "grid"}
    path = write_cfg(tmp_path, cfg)
    assert main(["solve", "--config", path]) == 2
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["evolution.dt=nan", "evolution.dt=0"])
def test_bad_dt_is_exit_2(tmp_path, capsys, override):
    path = write_cfg(tmp_path, BASE_CFG)
    assert main(["solve", "--config", path, "--override", override]) == 2
    assert "evolution.dt must be finite and > 0" in capsys.readouterr().err


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


def test_experiment_pass_and_report(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE_CFG)
    out = str(tmp_path / "out")
    assert main(["experiment", "conservation", "--config", path, "--out", out]) == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    lines = dict(l.split("=", 1) for l in report.strip().splitlines())
    assert lines["claim_id"] == "mass-energy-conservation"
    assert lines["passed"] == "True"
    assert float(lines["measurements.mass_drift"]) <= 1e-6


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
