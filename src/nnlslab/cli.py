"""Command-line entry point: config parsing, experiment dispatch, output files.

Subcommands: solve, experiment <name>, sweep, list.  Exit status 0 means the
run passed, 1 means an experiment failed (the report is still written), and
2 means the configuration was invalid.
"""

from __future__ import annotations

import argparse
import copy
import csv
import math
import multiprocessing
import os
import sys

import yaml

from .equations import EquationSpec, KINDS, NNLS, energy, mass
from .evolve import solve
from .experiments import (
    exp_conservation,
    exp_gauge_equivalence,
    exp_norm_inflation,
    exp_picard_window,
    exp_scaling_global,
    exp_support_invariance,
    make_initial_data,
)
from .grid import FrequencyGrid

EXPERIMENTS = {
    "conservation": {
        "claim": "mass-energy-conservation",
        "about": "mass (and energy for the cubic equation) stay constant along the flow",
        "csv": "t, Re M, Im M, Re E, Im E, leakage, plus one column per requested (s, sigma) norm",
    },
    "gauge_equivalence": {
        "claim": "gauge-equivalence",
        "about": "evolving the gauged data by the gauged equation matches gauging the evolved data",
        "csv": "report only",
    },
    "support_invariance": {
        "claim": "halfline-support-invariance",
        "about": "spectral support above a positive frequency threshold is preserved",
        "csv": "t, Re M, Im M, Re E, Im E, leakage",
    },
    "scaling_global": {
        "claim": "dilation-scaling-bound",
        "about": "dilation norm bound holds and the dilation-weighted norm decays along solves",
        "csv": "report only",
    },
    "picard_window": {
        "claim": "contraction-window-scaling",
        "about": "the contracting horizon of the fixed-point map shrinks as a power of the data norm",
        "csv": "report only",
    },
    "norm_inflation": {
        "claim": "third-derivative-norm-inflation",
        "about": "the third derivative of the data-to-solution map grows geometrically in the bump frequency",
        "csv": "report only",
    },
}


class ConfigError(ValueError):
    """Invalid run configuration."""


def _require(cfg, key, where):
    if key not in cfg:
        raise ConfigError("missing key '%s' in section '%s'" % (key, where))
    return cfg[key]


def load_config(path, overrides=()):
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    except yaml.YAMLError as exc:
        raise ConfigError("malformed config %s: %s" % (path, exc))
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    for item in overrides:
        if "=" not in item:
            raise ConfigError("override %r is not of the form key=value" % item)
        key, _, raw = item.partition("=")
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError("override path %r crosses a non-mapping" % key)
        node[parts[-1]] = yaml.safe_load(raw)
    return cfg


def build_grid(cfg):
    sec = _require(cfg, "grid", "root")
    return FrequencyGrid(int(_require(sec, "n_modes", "grid")),
                         float(_require(sec, "length", "grid")))


def build_equation(cfg):
    sec = cfg.get("equation", {})
    kind = sec.get("kind", NNLS)
    if kind not in KINDS:
        raise ConfigError("equation.kind %r not one of %s" % (kind, (KINDS,)))
    return EquationSpec(kind, alpha=float(sec.get("alpha", 1.0)),
                        beta=float(sec.get("beta", 0.0)),
                        gauged_coefficient_mode=sec.get("gauged_coefficient_mode", "rederived"))


def build_initial_data(cfg, grid):
    sec = _require(cfg, "initial_data", "root")
    return make_initial_data(_require(sec, "kind", "initial_data"), grid,
                             **sec.get("params", {}))


def _evolution(cfg):
    sec = cfg.get("evolution", {})
    T = float(sec.get("T", 1.0))
    dt = float(sec.get("dt", 1e-3))
    sample_every = sec.get("sample_every", 50)
    if not (math.isfinite(T) and T >= 0):
        raise ConfigError("evolution.T must be finite and >= 0, got %r" % T)
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigError("evolution.dt must be finite and > 0, got %r" % dt)
    if isinstance(sample_every, bool) or not isinstance(sample_every, int) or sample_every < 1:
        raise ConfigError("evolution.sample_every must be an integer >= 1, got %r"
                          % (sample_every,))
    norms = [tuple(map(float, pair)) for pair in sec.get("norms", [])]
    return T, dt, sample_every, norms


def _fmt(x):
    return "%.17g" % x


def write_timeseries(path, traj, norms):
    header = ["t", "Re M", "Im M", "Re E", "Im E", "leakage"]
    pairs = [p for p in norms if "esigma(%g,%g)" % p in traj.diagnostics[0]]
    keys = ["esigma(%g,%g)" % p for p in pairs]
    header += ["Es(%g,%g)" % p for p in pairs]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for t, d in zip(traj.times, traj.diagnostics):
            row = [_fmt(t), _fmt(d["mass"].real), _fmt(d["mass"].imag),
                   _fmt(d["energy"].real), _fmt(d["energy"].imag), _fmt(d["leakage"])]
            row += [_fmt(d[k]) for k in keys]
            w.writerow(row)


def _flat(prefix, value, out):
    if isinstance(value, dict):
        for k, v in value.items():
            _flat("%s.%s" % (prefix, k) if prefix else str(k), v, out)
    elif isinstance(value, (list, tuple)):
        out[prefix] = " ".join(_fmt(v) if isinstance(v, float) else str(v) for v in value)
    elif isinstance(value, float):
        out[prefix] = _fmt(value)
    else:
        out[prefix] = str(value)


def write_report(path, report):
    flat = {}
    _flat("", {
        "claim_id": report.claim_id,
        "passed": report.passed,
        "tolerance": report.tolerance,
        "runtime_seconds": report.runtime_seconds,
        "parameters": report.parameters,
        "measurements": report.measurements,
    }, flat)
    with open(path, "w") as fh:
        for k in sorted(flat):
            fh.write("%s=%s\n" % (k, flat[k]))


def run_experiment(name, cfg, out_dir):
    grid = build_grid(cfg)
    spec = build_equation(cfg)
    T, dt, sample_every, norms = _evolution(cfg)
    exp = cfg.get("experiment", {})
    if name == "conservation":
        u0 = build_initial_data(cfg, grid)
        report = exp_conservation(spec, u0, T, dt,
                                  tolerance=float(exp.get("tolerance", 1e-6)),
                                  sample_every=sample_every, norm_params=norms)
    elif name == "gauge_equivalence":
        u0 = build_initial_data(cfg, grid)
        report = exp_gauge_equivalence(spec.alpha, spec.beta, u0, T, dt,
                                       mode=spec.gauged_coefficient_mode,
                                       tolerance=float(exp.get("tolerance", 1e-4)),
                                       sample_every=sample_every)
    elif name == "support_invariance":
        u0 = build_initial_data(cfg, grid)
        report = exp_support_invariance(spec, float(exp.get("eps0", 1.0)), u0, T, dt,
                                        tolerance=float(exp.get("tolerance", 1e-10)),
                                        sample_every=sample_every)
    elif name == "scaling_global":
        u0 = build_initial_data(cfg, grid)
        report = exp_scaling_global(u0, float(exp.get("s", -1.0)), float(exp.get("sigma", 0.0)),
                                    float(exp.get("eps0", 1.0)),
                                    tuple(exp.get("lambdas", (1, 2, 4, 8))),
                                    spec=spec, T_max=T, dt=dt, sample_every=sample_every)
    elif name == "picard_window":
        sec = _require(cfg, "initial_data", "root")
        params = dict(sec.get("params", {}))
        family = []
        for a in exp.get("amplitudes", (4.0, 12.6, 40.0, 126.0, 400.0)):
            params["amplitude"] = float(a)
            family.append(make_initial_data(_require(sec, "kind", "initial_data"), grid, **params))
        report = exp_picard_window(family, spec, s=float(exp.get("s", -1.0)),
                                   sigma=float(exp.get("sigma", 0.0)))
    elif name == "norm_inflation":
        report = exp_norm_inflation(s=float(exp.get("s", -1.0)),
                                    k_list=tuple(exp.get("k_list", (8, 16, 32))),
                                    kappa=float(exp.get("kappa", 0.1)),
                                    sprime=float(exp.get("sprime", -1.0)),
                                    sigmaprime=float(exp.get("sigmaprime", 0.0)),
                                    equation=spec.kind,
                                    n_nodes=int(exp.get("n_nodes", 16)))
    else:
        raise ConfigError("unknown experiment %r; see the list subcommand" % name)
    os.makedirs(out_dir, exist_ok=True)
    write_report(os.path.join(out_dir, "report.txt"), report)
    if report.trajectory is not None:
        write_timeseries(os.path.join(out_dir, "timeseries.csv"), report.trajectory, norms)
    return report


def cmd_solve(cfg, out_dir):
    grid = build_grid(cfg)
    spec = build_equation(cfg)
    u0 = build_initial_data(cfg, grid)
    T, dt, sample_every, norms = _evolution(cfg)
    eps0 = float(cfg.get("experiment", {}).get("eps0", 0.0))
    traj = solve(u0, T, dt, spec, sample_every=sample_every, eps0=eps0, norm_params=norms)
    os.makedirs(out_dir, exist_ok=True)
    write_timeseries(os.path.join(out_dir, "timeseries.csv"), traj, norms)
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write("blown_up=%s\n" % traj.blown_up)
        fh.write("final_time=%s\n" % _fmt(traj.times[-1]))
        fh.write("final_mass_re=%s\n" % _fmt(mass(traj.states[-1]).real))
        fh.write("final_energy_re=%s\n" % _fmt(energy(traj.states[-1], spec.alpha).real))
    return 0 if not traj.blown_up else 1


def _sweep_job(args):
    name, cfg, out_dir = args
    report = run_experiment(name, cfg, out_dir)
    return report.passed


def cmd_sweep(cfg, out_dir, jobs):
    sec = _require(cfg, "sweep", "root")
    name = _require(cfg.get("experiment", {}), "name", "experiment")
    tasks = []
    for i, entry in enumerate(_require(sec, "overrides", "sweep")):
        sub = copy.deepcopy(cfg)
        for key, value in entry.items():
            node = sub
            parts = key.split(".")
            for p in parts[:-1]:
                node = node.setdefault(p, {})
            node[parts[-1]] = value
        tasks.append((name, sub, os.path.join(out_dir, "job_%03d" % i)))
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_sweep_job, tasks)
    else:
        results = [_sweep_job(t) for t in tasks]
    for i, ok in enumerate(results):
        print("job_%03d: %s" % (i, "pass" if ok else "FAIL"))
    return 0 if all(results) else 1


def cmd_list():
    for name, info in EXPERIMENTS.items():
        print("%-20s claim=%s" % (name, info["claim"]))
        print("    %s" % info["about"])
        print("    csv: %s" % info["csv"])
    return 0


def main(argv=None):
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the YAML run configuration")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--jobs", type=int, default=1, help="worker processes for sweep")
    common.add_argument("--override", action="append", default=[],
                        help="dotted-path config override, e.g. equation.alpha=2.0")
    parser = argparse.ArgumentParser(prog="nnlslab",
                                     description="simulation and verification lab for the nonlocal NLS family")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[common], help="run one solve and write the time series")
    p_exp = sub.add_parser("experiment", parents=[common], help="run one named experiment")
    p_exp.add_argument("name", help="experiment name (see list)")
    sub.add_parser("sweep", parents=[common], help="run the configured experiment over a list of overrides")
    sub.add_parser("list", help="list available experiments")
    args = parser.parse_args(argv)

    if args.command == "list":
        return cmd_list()
    if not args.config:
        print("error: --config is required for this subcommand", file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.config, args.override)
        if args.command == "solve":
            return cmd_solve(cfg, args.out)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out, args.jobs)
        report = run_experiment(args.name, cfg, args.out)
        print("%s: %s" % (args.name, "pass" if report.passed else "FAIL"))
        return 0 if report.passed else 1
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        print("invalid configuration: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
