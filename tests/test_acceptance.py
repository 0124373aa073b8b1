"""Acceptance suite: one test per verification claim, at full tolerances.

Each test prints a single pass/fail line so the suite output doubles as a
checklist of the claims the package is built to verify.
"""

import time

import numpy as np
from scipy.special import erf

from nnlslab.equations import EquationSpec, mass_energy_coeffs
from nnlslab.evolve import picard_solve, solve
from nnlslab.experiments import (
    exp_conservation,
    exp_gauge_equivalence,
    exp_norm_inflation,
    exp_picard_window,
    exp_scaling_global,
    exp_support_invariance,
    make_initial_data,
)
from nnlslab.gauge import gauge_forward
from nnlslab.grid import (
    FrequencyGrid,
    SpectralField,
    antiderivative_symmetric,
    forward_transform,
    inverse_transform,
    l2_distance,
    l2_norm,
)
from nnlslab.spaces import dilate, esigma_norm

from conftest import random_field
from reference import reference_gauge_taylor, reference_rhs


def _verdict(label, ok):
    print("%s: %s" % (label, "PASS" if ok else "FAIL"))
    assert ok, label


def test_criterion_1_conservation():
    g = FrequencyGrid(1024, 80.0)
    u0 = make_initial_data("gaussian", g)
    t0 = time.perf_counter()
    rep_c = exp_conservation(EquationSpec("NNLS", alpha=1.0), u0, 1.0, 1e-3)
    el_c = time.perf_counter() - t0
    t0 = time.perf_counter()
    rep_d = exp_conservation(EquationSpec("NdNLS", alpha=1.0), u0, 1.0, 1e-3)
    el_d = time.perf_counter() - t0
    ok = (rep_c.passed and rep_d.passed
          and rep_c.measurements["mass_drift"] <= 1e-6
          and rep_c.measurements["energy_drift"] <= 1e-6
          and rep_d.measurements["mass_drift"] <= 1e-6
          and el_c <= 30.0 and el_d <= 30.0)
    _verdict("criterion 1 mass/energy conservation (drift <= 1e-6, <= 30 s each)", ok)


def test_criterion_2_gauge_equivalence():
    g = FrequencyGrid(256, 40.0)
    u0 = make_initial_data("modulated_gaussian", g, amplitude=0.3, width=1.0, carrier=3.0)
    t0 = time.perf_counter()
    rep = exp_gauge_equivalence(EquationSpec("NdNLS", alpha=1.0), u0, 0.5, 2e-3)
    elapsed = time.perf_counter() - t0
    ok = (rep.passed and rep.measurements["max_relative_residual"] <= 1e-4
          and elapsed <= 60.0)
    _verdict("criterion 2 gauge equivalence (residual <= 1e-4 over T = 0.5, <= 60 s)", ok)


def test_criterion_3_coefficient_adjudication():
    g = FrequencyGrid(256, 40.0)
    f = random_field(g, 4, decay=3.0)
    a = 1.5
    base = reference_rhs(f, EquationSpec("GaugedNdNLS", alpha=a))
    red = reference_rhs(f, EquationSpec("GaugedGNdNLS", alpha=a, beta=0.0,
                                        gauged_coefficient_mode="rederived"))
    scale = np.max(np.abs(base.coeffs))
    beta0_ok = np.max(np.abs(red.coeffs - base.coeffs)) <= 1e-14 * scale

    # alpha != 1 so the two candidate coefficients actually differ
    u0 = make_initial_data("modulated_gaussian", g, amplitude=0.3, width=1.0, carrier=3.0)
    residuals = {}
    for mode in ("printed", "rederived"):
        spec = EquationSpec("gNdNLS", alpha=1.5, beta=0.5, gauged_coefficient_mode=mode)
        rep = exp_gauge_equivalence(spec, u0, 0.5, 2e-3)
        residuals[mode] = rep.measurements["max_relative_residual"]
    print("  beta = 1/2 residuals: printed %.3e, rederived %.3e"
          % (residuals["printed"], residuals["rederived"]))
    ok = beta0_ok and min(residuals.values()) <= 1e-4
    _verdict("criterion 3 quintic-coefficient adjudication (beta = 0 match 1e-14, "
             "one mode passes 1e-4 at beta = 1/2)", ok)


def test_criterion_4_support_invariance():
    g = FrequencyGrid(256, 40.0)
    u0 = make_initial_data("halfline_bump", g, amplitude=0.5, lo=1.0, hi=2.0)
    oks = []
    for kind in ("NNLS", "NdNLS"):
        rep = exp_support_invariance(EquationSpec(kind, alpha=1.0), u0, 1.0, 2e-3, 1.0)
        oks.append(rep.passed and rep.measurements["max_leakage"] <= 1e-10)
    _verdict("criterion 4 half-line support invariance (leakage <= 1e-10, T = 1)", all(oks))


def test_criterion_5_scaling_law():
    g = FrequencyGrid(1024, 40.0)
    u0 = make_initial_data("modulated_gaussian", g, amplitude=1.0, width=2.0, carrier=4.5)
    rep = exp_scaling_global(EquationSpec("NNLS", alpha=1.0), u0, 0.3, 2e-3, -1.0, 0.5, 1.0,
                             [1, 2, 4, 8])
    ratios = rep.measurements["ratios"]
    # exact answer: u = e^{-x^2/2} dilates to sqrt(2 pi) e^{-(xi/lam)^2/2} / lam
    x, xi = g.points, g.frequencies
    gauss = forward_transform(np.exp(-x * x / 2.0).astype(complex), g)
    worst = 0.0
    for lam in (1.5, 2.0, 3.7, 8.0):
        exact = np.sqrt(2 * np.pi) * np.exp(-((xi / lam) ** 2) / 2.0) / lam
        err = np.max(np.abs(dilate(gauss, lam).coeffs - exact)) / np.max(np.abs(exact))
        worst = max(worst, err)
    ok = (rep.passed
          and all(lam in ratios and ratios[lam] <= 10.0 for lam in (2, 4, 8))
          and abs(rep.measurements["l2_identity_ratio"] - 1.0) <= 1e-10
          and rep.measurements["monotone_decay"]
          and worst <= 1e-14)
    print("  ratios %s, monotone decay of sup-norms in lambda: %s"
          % ({k: round(v, 3) for k, v in ratios.items()}, rep.measurements["monotone_decay"]))
    print("  analytic Gaussian dilation, worst relative error %.2e" % worst)
    _verdict("criterion 5 dilation scaling bound (ratio <= 10, L2 identity 1e-10, "
             "monotone decay substitute, analytic Gaussian dilation 1e-14)", ok)


def test_criterion_6_picard_window():
    g = FrequencyGrid(256, 40.0)
    spec = EquationSpec("NNLS", alpha=1.0)
    fam = [make_initial_data("modulated_gaussian", g, amplitude=a, width=1.0, carrier=3.0)
           for a in (4.0, 12.6, 40.0, 126.0, 400.0)]
    rep = exp_picard_window(spec, fam, s=-1.0, sigma=0.0)
    # the converged fixed point must also match the independent stepper
    u0 = make_initial_data("modulated_gaussian", g, amplitude=0.5, width=1.0, carrier=3.0)
    states, prep = picard_solve(u0, 0.2, spec, n_nodes=65)
    traj = solve(u0, 0.2, 1e-3, spec)
    agree = l2_distance(states[-1], traj.states[-1]) <= 1e-5 * l2_norm(traj.states[-1])
    print("  slope %.3f, R^2 %.3f" % (rep.measurements["slope"], rep.measurements["r_squared"]))
    ok = (rep.passed and rep.measurements["slope"] < 0
          and rep.measurements["r_squared"] >= 0.9 and prep.converged and agree)
    _verdict("criterion 6 contraction window scaling (slope < 0, R^2 >= 0.9, "
             "fixed point matches stepper to 1e-5)", ok)


def test_criterion_7_norm_inflation():
    t0 = time.perf_counter()
    rep = exp_norm_inflation(EquationSpec("NNLS", alpha=1.0), s=-1.0, k_list=(8, 16, 32), kappa=0.1,
                             n_nodes=16)
    elapsed = time.perf_counter() - t0
    m = rep.measurements
    print("  slope %.3f (target 0.5, lower bound 0.4), quad converged %s, "
          "rho bound %s" % (m["slope"], m["quad_converged"], m["rho_bound_ok"]))
    ok = (rep.passed and m["slope"] >= 0.4 and m["quad_converged"]
          and m["rho_bound_ok"] and m["monotone"] and elapsed <= 120.0)
    _verdict("criterion 7 third-derivative norm inflation (slope >= 0.4, quadrature "
             "1e-6, rho bound at all nodes, <= 120 s)", ok)


def test_criterion_8_oracle_equivalence():
    oks = []
    # weighted-norm oracle on a fine band against adaptive quadrature
    g_fine = FrequencyGrid(262144, 80000.0)
    xi = g_fine.frequencies
    f = SpectralField(g_fine, np.sqrt(2 * np.pi) * np.exp(-xi * xi / 2.0) + 0j)
    oks.append(abs(esigma_norm(f, -1.0, 1.0) - 2.7026044431988776) <= 1e-8 * 2.7026044431988776)
    # mass and energy against closed forms for Gaussian data
    g = FrequencyGrid(256, 40.0)
    x = g.points
    u = forward_transform(np.exp(-x * x / 2.0).astype(complex), g)
    m, e = mass_energy_coeffs(u.coeffs, g, 2.0)
    oks.append(abs(m - np.sqrt(np.pi)) <= 1e-12)
    oks.append(abs(e - 0.36708721186274174) <= 1e-12)
    # antiderivative against the error function and a frozen oscillatory value
    dens = forward_transform(np.exp(-x * x).astype(complex), g)
    F = inverse_transform(antiderivative_symmetric(dens))
    interior = np.abs(x) <= 0.4 * g.length
    oks.append(np.max(np.abs(F[interior] - np.sqrt(np.pi) / 2.0 * erf(x[interior]))) <= 1e-8)
    osc = forward_transform(np.exp(2j * x) * np.exp(-x * x), g)
    F2 = inverse_transform(antiderivative_symmetric(osc))
    oks.append(abs(F2[np.argmin(np.abs(x))] - (-0.5380795069127684j)) <= 1e-8)
    # gauge exponential against its truncated series
    w = forward_transform(0.3 * np.exp(-x * x / 2.0) * np.exp(1.5j * x), g)
    exact = gauge_forward(w, 0.05)
    series = reference_gauge_taylor(w, 0.05, 8)
    oks.append(l2_distance(exact, series) <= 1e-12 * l2_norm(exact))
    _verdict("criterion 8 oracle equivalence (norms, invariants, primitive, gauge)", all(oks))


def test_criterion_9_integrator_order():
    g = FrequencyGrid(256, 40.0)
    x = g.points
    u0 = forward_transform(np.exp(-x * x / 2.0).astype(complex), g)
    spec = EquationSpec("NNLS", alpha=1.0)
    T = 0.1

    def run(n):
        return solve(u0, T, T / n, spec, sample_every=n).states[-1]

    ref = run(256)
    errs = [l2_distance(run(n), ref) for n in (8, 16, 32)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    print("  measured orders %s" % np.round(orders, 3).tolist())
    _verdict("criterion 9 integrator self-convergence order >= 3.9", float(np.min(orders)) >= 3.9)
