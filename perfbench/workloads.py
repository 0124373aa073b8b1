"""The benchmark's workloads, seed jitter, operations and checked outputs.

A workload is a list of operations, each one call of a public nnlslab entry
point (``cli.run_experiment`` or ``cli.cmd_solve``) on a canonical config
from ``configs/`` with dotted overrides.  One pass runs every operation of
the workload once.

Seeds map to one of ``N_VARIANTS`` input variants (``seed % N_VARIANTS``).
Variant 0 is the canonical configs unchanged.  Every other variant scales the
initial-data ``amplitude``, ``width`` and ``carrier`` present in a config by
independent factors in [1 - JITTER, 1 + JITTER].  ``picard_window`` replaces
the initial-data amplitude by each of its ``experiment.amplitudes``, so there
every listed amplitude is jittered instead.  ``norm_inflation`` has no
initial-data parameters, so its ``kappa`` is scaled by a factor in
[1 - JITTER, 1] instead (the experiment requires kappa <= 0.1).  Every
variant passes its claim, and ``reference.json`` holds each variant's key
outputs as computed by the program when the benchmark was defined.

The checked outputs include values that depend on the computed states, not
only on the initial data or on conserved quantities: the final state's
departure from the free flow of its initial data (``final_state``), the
change of the weighted norms over the time series (``norm_change``), and for
the Picard workload the iterate distances of one Picard solve on the
workload's own data (``picard_distances``, a spot check run outside the timed
pass).
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

import numpy as np

JITTER = 0.03
N_VARIANTS = 8
JITTERED_PARAMS = ("amplitude", "width", "carrier")

# one-line rationale for each workload; BENCHMARK.json repeats it
WHY = {
    "trajectory": "Lawson stepping of the cubic, derivative and quintic products at n=1024 and "
                  "n=256; step -> nonlinear_term -> dealiased_product dominates, Picard idle",
    "picard": "Duhamel/Picard fixed-point bisection on n=256 arrays; per-call overhead of "
              "picard_map and SpectralField dominates and step is idle",
    "wideband": "n=4096 solve with diagnostics and CSV rows after every step, then "
                "dilation scaling; raw FFT bound and O(n^2) dilate on the path",
    "quadrature": "oscillatory-kernel quadrature of the norm-inflation claim; no grid, "
                  "stepper or Picard call, so only quadrature changes move it",
}

WIDEBAND = ["grid.n_modes=4096", "grid.length=80.0", "evolution.T=0.2",
            "evolution.dt=0.001", "evolution.sample_every=1",
            "evolution.norms=[[-1.0, 0.0], [0.0, 1.0]]"]

# workload -> [(operation id, entry point, experiment name, config file, overrides)]
OPERATIONS = {
    "trajectory": [
        ("conservation", "experiment", "conservation", "conservation.yaml", []),
        ("support_invariance", "experiment", "support_invariance", "support_invariance.yaml", []),
        ("gauge_equivalence", "experiment", "gauge_equivalence", "gauge_equivalence.yaml", []),
    ],
    "picard": [
        ("picard_window", "experiment", "picard_window", "picard_window.yaml", []),
    ],
    "wideband": [
        ("solve_4096", "solve", None, "conservation.yaml", WIDEBAND),
        ("scaling_global", "experiment", "scaling_global", "scaling_global.yaml", []),
    ],
    "quadrature": [
        ("norm_inflation", "experiment", "norm_inflation", "norm_inflation.yaml",
         ["experiment.n_nodes=32"]),
    ],
}

# outputs compared with the reference; drifts and leakage sit near roundoff,
# so they get an absolute floor three orders below their claim's tolerance
CHECKED_KEYS = ("mass_drift", "energy_drift", "max_leakage", "max_relative_residual",
                "ratios", "windows", "slope", "norms", "final_mass_re", "final_energy_re")
RTOL = 1e-6
ATOL = {"mass_drift": 1e-9, "energy_drift": 1e-9, "max_leakage": 1e-13}
# the spot check stops while the iterate distances are still far above roundoff
PICARD_NODES, PICARD_ITERATIONS = 33, 5
# traced-pass counts compared exactly with the reference: the outcome of every
# Picard solve, which the Picard workload's outputs show only through thresholds
TRACE_CHECKED = ("evolve.picard_solve.calls", "evolve.picard_solve.iterations",
                 "evolve.picard_solve.converged")

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def variant(seed):
    return seed % N_VARIANTS


def jitter_overrides(op_id, config, var):
    """Dotted overrides that jitter the initial data of one operation."""
    if var == 0:
        return []
    rng = random.Random("%s/%d" % (op_id, var))
    out = []
    if config.get("experiment", {}).get("name") == "norm_inflation":
        kappa = float(config["experiment"]["kappa"]) * (1.0 - JITTER * rng.random())
        return ["experiment.kappa=%r" % kappa]
    params = config.get("initial_data", {}).get("params", {})
    for key in JITTERED_PARAMS:
        if key in params:
            out.append("initial_data.params.%s=%r" % (key, float(params[key]) * _factor(rng)))
    if config.get("experiment", {}).get("name") == "picard_window":
        amplitudes = [float(a) * _factor(rng) for a in config["experiment"]["amplitudes"]]
        out.append("experiment.amplitudes=%r" % amplitudes)
    return out


def _factor(rng):
    return 1.0 + JITTER * (2.0 * rng.random() - 1.0)


def load_configs(cli, root, workload, seed):
    """The generated config of each operation, as (operation, config) pairs."""
    out = []
    for op in OPERATIONS[workload]:
        op_id, _, _, filename, overrides = op
        path = os.path.join(root, "configs", filename)
        base = cli.load_config(path, overrides)
        out.append((op, cli.load_config(path, overrides + jitter_overrides(op_id, base, variant(seed)))))
    return out


def build_inputs(cli, configs):
    """Build every grid, equation and initial datum the configs describe."""
    for _, cfg in configs:
        grid = cli.build_grid(cfg)
        cli.build_equation(cfg)
        if "initial_data" in cfg:
            cli.build_initial_data(cfg, grid)


def _flatten(value):
    if isinstance(value, dict):
        return [float(value[k]) for k in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    return [float(value)]


def _read_report(path):
    with open(path) as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def norm_change(path):
    """Last minus first row of the Es(s,sigma) columns of a timeseries.csv."""
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return [float(b) - float(a) for h, a, b in zip(rows[0], rows[1], rows[-1]) if h.startswith("Es(")]


def final_state(traj):
    """|c - f| / |c0|: how far the last state c is from the free flow f.

    f = e^{-i t xi^2} c0 is the free flow of the initial state c0 to the last
    sample time t, so the value is set by the nonlinear part of the
    evolution alone, phase included.
    """
    c0, c = traj.states[0].coeffs, traj.states[-1].coeffs
    xi = traj.states[0].grid.frequencies
    d = c - np.exp(-1j * traj.times[-1] * xi ** 2) * c0
    return [float(np.linalg.norm(d) / np.linalg.norm(c0))]


def run_operation(cli, op, cfg, out_dir):
    """Run one operation; return (passed, key outputs as lists of floats)."""
    op_id, entry, name, _, _ = op
    if entry == "solve":
        code = cli.cmd_solve(cfg, out_dir)
        report = _read_report(os.path.join(out_dir, "report.txt"))
        outputs = {k: [float(report[k])] for k in ("final_mass_re", "final_energy_re")}
        outputs["norm_change"] = norm_change(os.path.join(out_dir, "timeseries.csv"))
        return code == 0, outputs
    report = cli.run_experiment(name, cfg, out_dir)
    outputs = {k: _flatten(v) for k, v in report.measurements.items() if k in CHECKED_KEYS}
    if report.trajectory is not None:
        outputs["final_state"] = final_state(report.trajectory)
        change = norm_change(os.path.join(out_dir, "timeseries.csv"))
        if change:
            outputs["norm_change"] = change
    return bool(report.passed), outputs


def spot_check(nnlslab, op, cfg, outputs):
    """Outputs of an extra, untimed check of one operation, or {}.

    For ``picard_window``: the iterate distances of a Picard solve of the
    family's first member up to its computed contraction window: the call
    the experiment's bisection makes there, cut to ``PICARD_ITERATIONS``.
    """
    if op[2] != "picard_window" or not outputs.get("windows"):
        return {}
    sec = cfg["initial_data"]
    params = dict(sec.get("params", {}), amplitude=float(cfg["experiment"]["amplitudes"][0]))
    grid = nnlslab.FrequencyGrid(int(cfg["grid"]["n_modes"]), float(cfg["grid"]["length"]))
    u0 = nnlslab.make_initial_data(sec["kind"], grid, **params)
    spec = nnlslab.EquationSpec(cfg["equation"]["kind"], alpha=float(cfg["equation"]["alpha"]))
    _, report = nnlslab.picard_solve(u0, outputs["windows"][0], spec, n_nodes=PICARD_NODES,
                                     n_iter=PICARD_ITERATIONS, tol=0.0)
    return {"picard_distances": [float(d) for d in report.iterates_distances]}


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def mismatches(outputs, reference):
    """Keys whose values are off the reference by more than RTOL (+ ATOL)."""
    bad = sorted(set(outputs) ^ set(reference))
    for key in sorted(set(outputs) & set(reference)):
        got, ref = outputs[key], reference[key]
        tol = ATOL.get(key, 0.0)
        if len(got) != len(ref) or not all(
                math.isfinite(g) and abs(g - r) <= RTOL * abs(r) + tol for g, r in zip(got, ref)):
            bad.append(key)
    return bad
