"""Command-line entry point: config parsing, experiment dispatch, output files.

Subcommands: solve, experiment <name>, sweep, list.  Exit status 0 means the
run passed, 1 means an experiment failed (the report is still written), and
2 means the configuration was invalid: a ConfigError, or a ValueError from a
library check.  Any other exception is a bug and ends in its traceback.

A runner builds an experiment's equation, its data and, for the four
trajectory experiments, ``T``, ``dt`` and ``sample_every`` from ``evolution``;
the ``experiment`` section gives the other keywords of its ``exp_*`` function,
whose signature holds their defaults and types.
"""

from __future__ import annotations

import argparse
import collections
import copy
import csv
import functools
import inspect
import math
import numbers
import os
import re
import sys
import time

import yaml

from .equations import (EquationSpec, GAUGED_GNDNLS, GNDNLS, KINDS, NNLS, mass_energy_coeffs,
                        support_leakage)
from .evolve import stream
from . import experiments
from .experiments import DATA_KINDS, make_initial_data
from .grid import FrequencyGrid, SpectralField
from .spaces import esigma_norm


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


def _number(name, value):
    """``value``; ConfigError naming the config key ``name`` if it is a bool or not a
    real number (YAML reads ``true`` as a bool and ``abc`` as a string)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError("%s must be a number, got %r" % (name, value))
    return value


def _finite(name, value):
    """``value``; ConfigError naming the config key ``name`` unless ``_number`` accepts
    it and it is a finite float (YAML reads ``.nan`` as nan and ``1e309`` as inf)."""
    if not abs(_number(name, value)) <= sys.float_info.max:  # nan compares false
        raise ConfigError("%s must be finite, got %r" % (name, value))
    return value


def _numbers(name, value, what="numbers"):
    """``value``; ConfigError naming the config key ``name`` unless it is a list of
    finite numbers, or naming the entry that is not one."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError("%s must be a list of %s, got %r" % (name, what, value))
    for i, v in enumerate(value):
        _finite("%s[%d]" % (name, i), v)
    return value


def _float(name, value):
    """``float(value)`` of a value that ``_number`` accepts for the config key ``name``."""
    try:
        return float(_number(name, value))
    except OverflowError:  # an int beyond the float range
        raise ConfigError("%s must be finite, got %r" % (name, value)) from None


def _known(section, where, keys):
    """``section``; ConfigError naming the first key of config section ``where``
    that is not in ``keys`` (a misspelt key would otherwise run on the default)."""
    for key in section:
        if key not in keys:
            raise ConfigError("unknown key '%s.%s'; %s takes %s"
                              % (where, key, where, ", ".join(keys)))
    return section


def _call(fn, where, section, *args, **kwargs):
    """``fn(*args, **kwargs, **section)``; a key of config ``section`` that is not a
    parameter of ``fn`` left free by ``args`` and ``kwargs`` raises ConfigError, and
    so does a value that does not match its parameter's default: a number default
    (not a bool) takes a finite number, and a tuple default a list of them, of
    integers when every entry of the default is one."""
    params = inspect.signature(fn).parameters
    free = [p for p in list(params)[len(args):] if p not in kwargs]
    for key, value in _known(section, where, free).items():
        default, name = params[key].default, "%s.%s" % (where, key)
        if isinstance(default, tuple):
            ints = all(isinstance(v, int) for v in default)
            _numbers(name, value, "integers" if ints else "numbers")
        elif isinstance(default, numbers.Real) and not isinstance(default, bool):
            _finite(name, value)
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


# the sections of a config, with the keys of each that no signature describes;
# the keys of equation and experiment are the parameters of their functions
_SECTIONS = {
    "grid": ("n_modes", "length"),
    "equation": None,
    "initial_data": ("kind", "params"),
    "evolution": ("T", "dt", "sample_every", "norms"),
    "experiment": None,
    "sweep": ("overrides",),
}


def _check_sections(cfg):
    """ConfigError naming the first section of ``cfg`` that ``_SECTIONS`` does not
    list, or the first key that its entry does not (a misspelt section or key would
    otherwise run on the defaults)."""
    for where in cfg:
        if where not in _SECTIONS:
            raise ConfigError("unknown section '%s'; a config takes %s"
                              % (where, ", ".join(_SECTIONS)))
    for where, keys in _SECTIONS.items():
        if keys is not None:
            _known(_section(cfg, where), where, keys)


def build_grid(cfg):
    sec = _section(cfg, "grid", required=True)
    n_modes = _float("grid.n_modes", _require(sec, "n_modes", "grid"))
    length = _float("grid.length", _require(sec, "length", "grid"))
    if not n_modes.is_integer():
        raise ConfigError("grid.n_modes must be an integer, got %r" % (n_modes,))
    return FrequencyGrid(int(n_modes), length)


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
    given = _section(sec, "params", "initial_data")
    for key, value in given.items():
        # every data kind's parameters are finite numbers
        _finite("initial_data.params.%s" % key, value)
    kind = _require(sec, "kind", "initial_data")
    if kind not in DATA_KINDS:
        raise ConfigError("initial_data.kind %r not one of %s" % (kind, (DATA_KINDS,)))
    return make_initial_data(kind, grid, **dict(given, **params))


def _evolution(cfg):
    sec = _section(cfg, "evolution")
    T = _float("evolution.T", sec.get("T", 1.0))
    dt = _float("evolution.dt", sec.get("dt", 1e-3))
    sample_every = sec.get("sample_every", 50)
    if not (math.isfinite(T) and T >= 0):
        raise ConfigError("evolution.T must be finite and >= 0, got %r" % T)
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigError("evolution.dt must be finite and > 0, got %r" % dt)
    if isinstance(sample_every, bool) or not isinstance(sample_every, int) or sample_every < 1:
        raise ConfigError("evolution.sample_every must be an integer >= 1, got %r"
                          % (sample_every,))
    norms = sec.get("norms", [])
    if not isinstance(norms, (list, tuple)) or not all(
            isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in norms):
        raise ConfigError("evolution.norms must be a list of [s, sigma] pairs, got %r"
                          % (norms,))
    norms = [tuple(float(_finite("evolution.norms[%d][%d]" % (i, j), v))
                   for j, v in enumerate(pair)) for i, pair in enumerate(norms)]
    # %g keeps six significant digits: two such pairs would share a CSV column
    if len({"%g,%g" % p for p in norms}) < len(norms):
        raise ConfigError("evolution.norms %r repeat a diagnostics key" % (norms,))
    return T, dt, sample_every, norms


def _fmt(x):
    return "%.17g" % x


def _timeseries_writer(fh, norms):
    """A CSV writer on ``fh`` that has written the time series header for ``norms``."""
    writer = csv.writer(fh)
    writer.writerow(list(_TIMESERIES_COLUMNS) + ["Es(%g,%g)" % p for p in norms])
    return writer


def _timeseries_row(t, u, alpha, eps0, norms):
    """The time series row of the state ``u`` at time ``t``, as numbers: t, the mass and
    energy for ``alpha``, the leakage below ``eps0`` and the E^s_sigma norm of each
    (s, sigma) in ``norms``."""
    m, e = mass_energy_coeffs(u.coeffs, u.grid, alpha)
    row = [t, m.real, m.imag, e.real, e.imag, support_leakage(u, eps0)]
    return row + [esigma_norm(u, s, sigma) for s, sigma in norms]


def write_timeseries(path, traj, alpha, eps0, norms):
    """One CSV row per recorded state of ``traj``, as ``_timeseries_row`` computes it."""
    with open(path, "w", newline="") as fh:
        writer = _timeseries_writer(fh, norms)
        for t, u in zip(traj.times, traj.states):
            writer.writerow([_fmt(v) for v in _timeseries_row(t, u, alpha, eps0, norms)])


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
    """(spec, u0, T, dt, sample_every, norms) of a run that steps a trajectory; a
    norm whose weight overflows on the grid is refused before any solve."""
    grid = build_grid(cfg)
    inputs = (build_equation(cfg), build_initial_data(cfg, grid)) + _evolution(cfg)
    for s, sigma in inputs[-1]:
        esigma_norm(inputs[1], s, sigma)
    return inputs


def _run_trajectory(name):
    """The runner of the trajectory experiment ``exp_<name>(spec, u0, T, dt, ...)``."""
    def run(cfg, exp):
        spec, u0, T, dt, sample_every, _ = _trajectory_inputs(cfg)
        # looked up per call, so that a rebound experiments.exp_<name> is the one run
        return _call(getattr(experiments, "exp_" + name), "experiment", exp, spec, u0, T, dt,
                     sample_every=sample_every)
    return run


def _run_picard_window(cfg, exp):
    make_u0 = functools.partial(build_initial_data, cfg, build_grid(cfg))
    return _call(experiments.exp_picard_window, "experiment", exp, build_equation(cfg), make_u0)


def _run_norm_inflation(cfg, exp):
    return _call(experiments.exp_norm_inflation, "experiment", exp, build_equation(cfg))


# name -> (claim, runner(cfg, experiment section) -> ExperimentReport, description, CSV columns)
Experiment = collections.namedtuple("Experiment", "claim run about csv", defaults=("report only",))
_TIMESERIES_COLUMNS = ("t", "Re M", "Im M", "Re E", "Im E", "leakage")  # then the norms
_TIMESERIES_CSV = ", ".join(_TIMESERIES_COLUMNS) + ", plus one column per requested (s, sigma) norm"

EXPERIMENTS = {
    "conservation": Experiment(
        "mass-energy-conservation", _run_trajectory("conservation"),
        "mass (and energy for the cubic equation) stay constant along the flow", _TIMESERIES_CSV),
    "gauge_equivalence": Experiment(
        "gauge-equivalence", _run_trajectory("gauge_equivalence"),
        "evolving the gauged data by the gauged equation matches gauging the evolved data"),
    "support_invariance": Experiment(
        "halfline-support-invariance", _run_trajectory("support_invariance"),
        "spectral support above a positive frequency threshold is preserved", _TIMESERIES_CSV),
    "scaling_global": Experiment(
        "dilation-scaling-bound", _run_trajectory("scaling_global"),
        "dilation norm bound holds and the dilation-weighted norm decays along solves"),
    "picard_window": Experiment(
        "contraction-window-scaling", _run_picard_window,
        "the contracting horizon of the fixed-point map shrinks as a power of the data norm"),
    "norm_inflation": Experiment(
        "third-derivative-norm-inflation", _run_norm_inflation,
        "the third derivative of the data-to-solution map grows geometrically in the bump frequency"),
}


def _experiment(name):
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ConfigError("unknown experiment %r; see the list subcommand" % (name,))
    return EXPERIMENTS[name]


def run_experiment(name, cfg, out_dir):
    t0 = time.perf_counter()
    run = _experiment(name).run
    # checked even where the runner does not read them: picard_window reads
    # no evolution and norm_inflation no grid
    _check_sections(cfg)
    exp = {k: v for k, v in _section(cfg, "experiment").items() if k != "name"}
    report = run(cfg, exp)
    runtime = time.perf_counter() - t0
    os.makedirs(out_dir, exist_ok=True)
    fields = {k: v for k, v in vars(report).items() if k != "trajectory"}
    write_report(os.path.join(out_dir, "report.txt"), dict(fields, runtime_seconds=runtime))
    if report.trajectory is not None:
        write_timeseries(os.path.join(out_dir, "timeseries.csv"), report.trajectory,
                         build_equation(cfg).alpha, report.parameters.get("eps0", 0.0),
                         _evolution(cfg)[3])
    return report


def cmd_solve(cfg, out_dir):
    """Run one solve, writing ``timeseries.csv`` while it steps, then ``report.txt``.

    Every input is checked, by the config readers and by ``stream``, before
    the output directory is made, so a refused run writes nothing.  Each row
    is written as ``stream`` yields its state, so memory holds one state,
    not one per sample.  The report repeats the time, mass and energy of the
    last row.
    """
    _check_sections(cfg)  # any experiment key passes: solve shares the experiments' configs
    spec, u0, T, dt, sample_every, norms = _trajectory_inputs(cfg)
    eps0 = _finite("experiment.eps0", _section(cfg, "experiment").get("eps0", 0.0))
    support_leakage(u0, eps0)  # refuses a negative eps0 before the solve
    events = stream([u0], T, dt, spec, sample_every=sample_every)
    os.makedirs(out_dir, exist_ok=True)
    blown_up = False
    with open(os.path.join(out_dir, "timeseries.csv"), "w", newline="") as fh:
        writer = _timeseries_writer(fh, norms)
        for _, t, coeffs in events:
            if coeffs is None:  # the last event of a blown-up solve
                blown_up = True
            else:
                row = _timeseries_row(t, SpectralField(u0.grid, coeffs), spec.alpha, eps0, norms)
                writer.writerow([_fmt(v) for v in row])
    write_report(os.path.join(out_dir, "report.txt"), {
        "blown_up": blown_up,
        "final_time": row[0],
        "final_mass_re": row[1],
        "final_energy_re": row[3],
    })
    return 0 if not blown_up else 1


def _sweep_job(args):
    return run_experiment(*args).passed


def cmd_sweep(cfg, out_dir, jobs):
    if jobs < 1:
        raise ConfigError("--jobs must be >= 1, got %d" % jobs)
    sec = _section(cfg, "sweep", required=True)
    name = _require(_section(cfg, "experiment"), "name", "experiment")
    _experiment(name)
    overrides = _require(sec, "overrides", "sweep")
    if not isinstance(overrides, list):
        raise ConfigError("sweep.overrides must be a list of mappings, got %r" % (overrides,))
    tasks = []
    for i, entry in enumerate(overrides):
        if not isinstance(entry, dict):
            raise ConfigError("sweep.overrides entry %d is not a mapping" % i)
        sub = copy.deepcopy(cfg)
        for key, value in entry.items():
            _apply_override(sub, key, value)
        _check_sections(sub)
        tasks.append((name, sub, os.path.join(out_dir, "job_%03d" % i)))
    if jobs > 1:
        import multiprocessing  # about 11 ms of import that only parallel sweeps use

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
    except (ConfigError, ValueError) as exc:
        print("invalid configuration: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
