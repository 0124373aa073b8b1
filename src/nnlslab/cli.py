"""Command-line entry point: config parsing, experiment dispatch, output files.

Subcommands: solve, experiment <name>, sweep, list.  Exit status 0 means the
run passed, 1 means an experiment failed (the report is still written), and
2 means the configuration was invalid.
"""

from __future__ import annotations

import argparse
import collections
import copy
import csv
import inspect
import math
import multiprocessing
import numbers
import os
import re
import sys
import time

import yaml

from .equations import EquationSpec, GAUGED_GNDNLS, GNDNLS, KINDS, NDNLS, NNLS, energy, mass
from .evolve import norm_key, solve
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


class ConfigError(ValueError):
    """Invalid run configuration."""


def _require(cfg, key, where):
    if key not in cfg:
        raise ConfigError("missing key '%s' in section '%s'" % (key, where))
    return cfg[key]


def _section(cfg, key, where="root", required=False):
    """The mapping ``cfg[key]``; {} when it is absent and not ``required``."""
    sec = _require(cfg, key, where) if required else cfg.get(key, {})
    if not isinstance(sec, dict):
        raise ConfigError("key '%s' in section '%s' must be a mapping, got %r" % (key, where, sec))
    return sec


def _call(fn, where, section, *args, **kwargs):
    """``fn(*args, **kwargs, **section)``; a key of config ``section`` that is not a
    parameter of ``fn`` left free by ``args`` and ``kwargs`` raises ConfigError, and
    so does a value that is not a number, or is a bool, for a float default."""
    params = inspect.signature(fn).parameters
    free = [p for p in list(params)[len(args):] if p not in kwargs]
    for key, value in section.items():
        if key not in free:
            raise ConfigError("unknown key '%s.%s'; %s takes %s"
                              % (where, key, where, ", ".join(free)))
        if isinstance(params[key].default, float) and (
                isinstance(value, bool) or not isinstance(value, numbers.Real)):
            raise ConfigError("%s.%s must be a number, got %r" % (where, key, value))
    return fn(*args, **kwargs, **section)


class _Loader(yaml.SafeLoader):
    """SafeLoader that reads a number with an exponent, e.g. ``1e-3``, as a float
    (YAML 1.2); PyYAML follows YAML 1.1, which reads it as a string."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def load_config(path, overrides=()):
    try:
        with open(path) as fh:
            cfg = yaml.load(fh, Loader=_Loader)
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
        try:
            value = yaml.load(raw, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError("override %r has a malformed value: %s" % (item, exc))
        _apply_override(cfg, key, value)
    return cfg


def _apply_override(cfg, key, value):
    """Set the dotted path ``key`` of ``cfg`` to ``value``, making missing mappings."""
    node = cfg
    parts = str(key).split(".")
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError("override path %r crosses a non-mapping" % key)
    node[parts[-1]] = value


def build_grid(cfg):
    sec = _section(cfg, "grid", required=True)
    n_modes = _require(sec, "n_modes", "grid")
    if not float(n_modes).is_integer():
        raise ConfigError("grid.n_modes must be an integer, got %r" % (n_modes,))
    return FrequencyGrid(int(n_modes), float(_require(sec, "length", "grid")))


def build_equation(cfg):
    rest = dict(_section(cfg, "equation"))
    kind = rest.pop("kind", NNLS)
    if kind not in KINDS:
        raise ConfigError("equation.kind %r not one of %s" % (kind, (KINDS,)))
    for key in ("beta", "gauged_coefficient_mode"):
        if key in rest and rest[key] != getattr(EquationSpec, key) and kind not in (
                GNDNLS, GAUGED_GNDNLS):
            raise ConfigError("equation.%s %r is read only by kinds %s and %s, not %r"
                              % (key, rest[key], GNDNLS, GAUGED_GNDNLS, kind))
    return _call(EquationSpec, "equation", rest, kind)


def build_initial_data(cfg, grid, **params):
    """The configured initial data; keyword ``params`` override ``initial_data.params``."""
    sec = _section(cfg, "initial_data", required=True)
    return make_initial_data(_require(sec, "kind", "initial_data"), grid,
                             **dict(_section(sec, "params", "initial_data"), **params))


def _evolution(cfg):
    sec = _section(cfg, "evolution")
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


def write_timeseries(path, traj):
    header = ["t", "Re M", "Im M", "Re E", "Im E", "leakage"]
    header += ["Es(%g,%g)" % p for p in traj.norm_params]
    keys = [norm_key(*p) for p in traj.norm_params]
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


def write_report(path, fields):
    """Write the mapping ``fields`` as sorted key=value lines, nested keys dotted."""
    flat = {}
    _flat("", fields, flat)
    with open(path, "w") as fh:
        for k in sorted(flat):
            fh.write("%s=%s\n" % (k, flat[k]))


def _trajectory_inputs(cfg):
    """(spec, u0, T, dt, sample_every, norms) of a run that steps a trajectory."""
    grid = build_grid(cfg)
    return (build_equation(cfg), build_initial_data(cfg, grid)) + _evolution(cfg)


def _run_conservation(cfg, exp):
    spec, u0, T, dt, sample_every, norms = _trajectory_inputs(cfg)
    return _call(exp_conservation, "experiment", exp, spec, u0, T, dt,
                 sample_every=sample_every, norm_params=norms)


def _run_gauge_equivalence(cfg, exp):
    spec, u0, T, dt, sample_every, _ = _trajectory_inputs(cfg)
    if spec.kind not in (NDNLS, GNDNLS):
        raise ConfigError("gauge_equivalence runs the %s or %s pair, not equation.kind %r"
                          % (NDNLS, GNDNLS, spec.kind))
    return _call(exp_gauge_equivalence, "experiment", exp, spec.alpha, spec.beta, u0, T, dt,
                 mode=spec.gauged_coefficient_mode, sample_every=sample_every)


def _run_support_invariance(cfg, exp):
    spec, u0, T, dt, sample_every, _ = _trajectory_inputs(cfg)
    return _call(exp_support_invariance, "experiment", dict({"eps0": 1.0}, **exp), spec,
                 u0=u0, T=T, dt=dt, sample_every=sample_every)


def _run_scaling_global(cfg, exp):
    spec, u0, T, dt, sample_every, _ = _trajectory_inputs(cfg)
    exp = dict({"s": -1.0, "sigma": 0.0, "eps0": 1.0, "lambdas": (1, 2, 4, 8)}, **exp)
    return _call(exp_scaling_global, "experiment", exp, u0,
                 spec=spec, T_max=T, dt=dt, sample_every=sample_every)


def _run_picard_window(cfg, exp):
    grid = build_grid(cfg)
    spec = build_equation(cfg)
    exp = dict(exp)
    family = [build_initial_data(cfg, grid, amplitude=a)
              for a in exp.pop("amplitudes", (4.0, 12.6, 40.0, 126.0, 400.0))]
    return _call(exp_picard_window, "experiment", exp, family, spec)


def _run_norm_inflation(cfg, exp):
    return _call(exp_norm_inflation, "experiment", exp, spec=build_equation(cfg))


# name -> (claim, runner(cfg, experiment section) -> ExperimentReport, description, CSV columns)
Experiment = collections.namedtuple("Experiment", "claim run about csv", defaults=("report only",))

EXPERIMENTS = {
    "conservation": Experiment(
        "mass-energy-conservation", _run_conservation,
        "mass (and energy for the cubic equation) stay constant along the flow",
        "t, Re M, Im M, Re E, Im E, leakage, plus one column per requested (s, sigma) norm"),
    "gauge_equivalence": Experiment(
        "gauge-equivalence", _run_gauge_equivalence,
        "evolving the gauged data by the gauged equation matches gauging the evolved data"),
    "support_invariance": Experiment(
        "halfline-support-invariance", _run_support_invariance,
        "spectral support above a positive frequency threshold is preserved",
        "t, Re M, Im M, Re E, Im E, leakage"),
    "scaling_global": Experiment(
        "dilation-scaling-bound", _run_scaling_global,
        "dilation norm bound holds and the dilation-weighted norm decays along solves"),
    "picard_window": Experiment(
        "contraction-window-scaling", _run_picard_window,
        "the contracting horizon of the fixed-point map shrinks as a power of the data norm"),
    "norm_inflation": Experiment(
        "third-derivative-norm-inflation", _run_norm_inflation,
        "the third derivative of the data-to-solution map grows geometrically in the bump frequency"),
}


def _experiment(name):
    if name not in EXPERIMENTS:
        raise ConfigError("unknown experiment %r; see the list subcommand" % (name,))
    return EXPERIMENTS[name]


def run_experiment(name, cfg, out_dir):
    t0 = time.perf_counter()
    run = _experiment(name).run
    exp = {k: v for k, v in _section(cfg, "experiment").items() if k != "name"}
    report = run(cfg, exp)
    runtime = time.perf_counter() - t0
    os.makedirs(out_dir, exist_ok=True)
    fields = {k: v for k, v in vars(report).items() if k != "trajectory"}
    write_report(os.path.join(out_dir, "report.txt"), dict(fields, runtime_seconds=runtime))
    if report.trajectory is not None:
        write_timeseries(os.path.join(out_dir, "timeseries.csv"), report.trajectory)
    return report


def cmd_solve(cfg, out_dir):
    spec, u0, T, dt, sample_every, norms = _trajectory_inputs(cfg)
    exp = _section(cfg, "experiment")
    eps0 = {"eps0": exp["eps0"]} if "eps0" in exp else {}
    traj = solve(u0, T, dt, spec, sample_every=sample_every, norm_params=norms, **eps0)
    os.makedirs(out_dir, exist_ok=True)
    write_timeseries(os.path.join(out_dir, "timeseries.csv"), traj)
    write_report(os.path.join(out_dir, "report.txt"), {
        "blown_up": traj.blown_up,
        "final_time": traj.times[-1],
        "final_mass_re": mass(traj.states[-1]).real,
        "final_energy_re": energy(traj.states[-1], spec.alpha).real,
    })
    return 0 if not traj.blown_up else 1


def _sweep_job(args):
    return run_experiment(*args).passed


def cmd_sweep(cfg, out_dir, jobs):
    if jobs < 1:
        raise ConfigError("--jobs must be >= 1, got %d" % jobs)
    sec = _section(cfg, "sweep", required=True)
    name = _require(_section(cfg, "experiment"), "name", "experiment")
    _experiment(name)
    tasks = []
    for i, entry in enumerate(_require(sec, "overrides", "sweep")):
        if not isinstance(entry, dict):
            raise ConfigError("sweep.overrides entry %d is not a mapping" % i)
        sub = copy.deepcopy(cfg)
        for key, value in entry.items():
            _apply_override(sub, key, value)
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
    for name, experiment in EXPERIMENTS.items():
        print("%-20s claim=%s" % (name, experiment.claim))
        print("    %s" % experiment.about)
        print("    csv: %s" % experiment.csv)
    return 0


def main(argv=None):
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the YAML run configuration")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--override", action="append", default=[],
                        help="dotted-path config override, e.g. equation.alpha=2.0")
    parser = argparse.ArgumentParser(prog="nnlslab",
                                     description="simulation and verification lab for the nonlocal NLS family")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[common], help="run one solve and write the time series")
    p_exp = sub.add_parser("experiment", parents=[common], help="run one named experiment")
    p_exp.add_argument("name", help="experiment name (see list)")
    p_sweep = sub.add_parser("sweep", parents=[common], help="run the configured experiment over a list of overrides")
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
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
