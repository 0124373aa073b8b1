"""Tests for the Lawson stepper and the Duhamel iteration engine."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nnlslab
from conftest import random_field
from reference import reference_cumulative_simpson, reference_picard_map, reference_picard_solve
from nnlslab.equations import EquationSpec, mass
from nnlslab.evolve import (
    _simpson_weights,
    cumulative_simpson,
    linear_propagator,
    picard_map,
    picard_solve,
    solve,
    step,
)
from nnlslab.grid import (
    FrequencyGrid,
    SpectralField,
    forward_transform,
    inverse_transform,
    l2_distance,
    l2_norm,
)

NNLS = EquationSpec("NNLS", alpha=1.0)
FREE = EquationSpec("NNLS", alpha=0.0)


def even_gaussian(grid, amp=1.0):
    x = grid.points
    return forward_transform(amp * np.exp(-x * x / 2.0).astype(complex), grid)


def test_linear_propagator_trivial(grid, gaussian):
    same = linear_propagator(gaussian, 0.0)
    assert np.array_equal(same.coeffs, gaussian.coeffs)


def test_linear_propagator_unitary(grid, gaussian):
    out = linear_propagator(gaussian, 1.7)
    assert abs(l2_norm(out) - l2_norm(gaussian)) <= 1e-12


def test_linear_propagator_group(grid, gaussian):
    a = linear_propagator(linear_propagator(gaussian, 0.3), 0.9)
    b = linear_propagator(gaussian, 1.2)
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13


def test_step_validation(grid, gaussian):
    with pytest.raises(ValueError):
        step(gaussian, -0.1, NNLS)
    with pytest.raises(ValueError):
        step(gaussian, 1.0, NNLS)  # dt * xi_max^2 far beyond the guard


def test_step_free_equation_is_exact(grid, gaussian):
    dt = 0.01
    got = step(gaussian, dt, FREE)
    exact = linear_propagator(gaussian, dt)
    assert np.max(np.abs(got.coeffs - exact.coeffs)) <= 1e-14 * np.max(np.abs(exact.coeffs))


def test_step_convergence_order(grid):
    u0 = even_gaussian(grid)
    T = 0.1

    def run(dt):
        u = u0
        for _ in range(int(round(T / dt))):
            u = step(u, dt, NNLS)
        return u

    ref = run(T / 256)
    errs = [l2_distance(run(T / n), ref) for n in (8, 16, 32)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.min(orders) >= 3.9


def test_solve_zero_horizon(grid, gaussian):
    traj = solve(gaussian, 0.0, 0.01, NNLS)
    assert traj.times == [0.0]
    assert not traj.blown_up
    with pytest.raises(ValueError):
        solve(gaussian, -1.0, 0.01, NNLS)


@pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -0.01])
def test_solve_rejects_bad_dt(gaussian, dt):
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        solve(gaussian, 0.1, dt, NNLS)


@pytest.mark.parametrize("T", [np.nan, np.inf, -1.0])
def test_solve_rejects_bad_horizon(gaussian, T):
    with pytest.raises(ValueError, match="T must be finite and nonnegative"):
        solve(gaussian, T, 0.01, NNLS)


@pytest.mark.parametrize("sample_every", [0, -3, 2.5])
def test_solve_rejects_bad_sample_every(gaussian, sample_every):
    with pytest.raises(ValueError, match="sample_every must be an integer >= 1"):
        solve(gaussian, 0.1, 0.01, NNLS, sample_every=sample_every)


def coarse_gaussian():
    # coarse enough that dt = 0.3 passes the CFL guard
    return even_gaussian(FrequencyGrid(32, 40.0))


def test_solve_ends_exactly_at_T():
    gaussian = coarse_gaussian()
    traj = solve(gaussian, 1.0, 0.3, NNLS)
    # three whole steps to 0.8999999999999999, then one of 0.1000000000000001
    assert traj.times == [0.0, 0.3, 2 * 0.3, 3 * 0.3, 1.0]
    u = gaussian
    for _ in range(3):
        u = step(u, 0.3, NNLS)
    u = step(u, 1.0 - 3 * 0.3, NNLS)
    assert np.array_equal(traj.states[-1].coeffs, u.coeffs)


def test_solve_horizon_shorter_than_dt():
    gaussian = coarse_gaussian()
    traj = solve(gaussian, 0.01, 0.03, NNLS)
    assert traj.times == [0.0, 0.01]
    assert np.array_equal(traj.states[-1].coeffs, step(gaussian, 0.01, NNLS).coeffs)


def test_solve_commensurate_horizon_keeps_whole_steps():
    gaussian = coarse_gaussian()
    # 0.3 / 0.1 is 3 to rounding: three whole steps, times i * dt as before
    traj = solve(gaussian, 0.3, 0.1, NNLS)
    assert traj.times == [0.0, 0.1, 0.2, 3 * 0.1]
    u = gaussian
    for _ in range(3):
        u = step(u, 0.1, NNLS)
    assert np.array_equal(traj.states[-1].coeffs, u.coeffs)


def test_solve_linear_composition(grid, gaussian):
    traj = solve(gaussian, 0.5, 0.005, FREE)
    exact = linear_propagator(gaussian, 0.5)
    assert l2_distance(traj.states[-1], exact) <= 1e-12 * l2_norm(exact)


def test_solve_mass_drift(grid):
    u0 = even_gaussian(grid)
    traj = solve(u0, 0.5, 0.002, NNLS, sample_every=50)
    m0 = traj.diagnostics[0]["mass"]
    drift = max(abs(d["mass"] - m0) for d in traj.diagnostics)
    assert drift <= 1e-8 * abs(m0)


def test_solve_reports_norms(grid, gaussian):
    traj = solve(gaussian, 0.05, 0.005, NNLS, norm_params=[(-1.0, 0.0)])
    series = traj.diagnostic_series("esigma(-1,0)")
    assert np.all(series > 0)


def test_solve_rejects_norm_params_sharing_a_key(gaussian):
    # %g keeps six significant digits, so both pairs would be "esigma(-1,0)"
    with pytest.raises(ValueError, match="repeat a diagnostics key"):
        solve(gaussian, 0.01, 0.005, NNLS, norm_params=[(-1.0, 0.0), (-1.0000001, 0.0)])


def test_solve_blowup_flag(grid):
    # absurd amplitude overflows within a few steps; the trajectory reports
    # it instead of raising
    u0 = even_gaussian(grid, amp=1e150)
    traj = solve(u0, 0.5, 0.01, NNLS)
    assert traj.blown_up
    assert traj.blowup_time is not None and traj.blowup_time <= 0.5


def test_even_data_matches_local_cubic_reference(grid):
    # for even data the conjugate u*(x) = conj(u(-x)) equals conj(u), so the
    # flow coincides with the local cubic equation; cross-check against an
    # independently coded Strang split-step integrator
    u0 = even_gaussian(grid)
    T, dt = 0.25, 1e-3
    traj = solve(u0, T, dt, NNLS)

    xi = grid.frequencies
    s = inverse_transform(u0)
    n_steps = int(round(T / dt))
    half_phase = np.exp(-1j * (dt / 2.0) * xi ** 2)
    for _ in range(n_steps):
        c = forward_transform(s, grid).coeffs * half_phase
        s = inverse_transform(SpectralField(grid, c))
        s = s * np.exp(1j * dt * np.abs(s) ** 2)
        c = forward_transform(s, grid).coeffs * half_phase
        s = inverse_transform(SpectralField(grid, c))
    ref = forward_transform(s, grid)
    assert l2_distance(traj.states[-1], ref) <= 1e-6 * l2_norm(ref)


def _soliton(grid, t, b=1.0):
    # even data make u* = conj(u), so NNLS with alpha = 1 is the focusing
    # cubic NLS, whose exact soliton is sqrt(2) b sech(b x) e^{i b^2 t}
    x = grid.points
    return forward_transform(np.sqrt(2.0) * b / np.cosh(b * x) * np.exp(1j * b * b * t), grid)


def _orders(errors, ratio=2.0):
    return [np.log(e0 / e1) / np.log(ratio) for e0, e1 in zip(errors, errors[1:])]


def test_lawson_order_against_exact_soliton():
    g = FrequencyGrid(256, 40.0)
    T = 2.0
    exact = _soliton(g, T)
    errors = []
    for dt in (0.04, 0.02, 0.01):
        u = solve(_soliton(g, 0.0), T, dt, NNLS, sample_every=10 ** 6).states[-1]
        errors.append(l2_distance(u, exact) / l2_norm(exact))
    assert errors[-1] <= 1e-6
    assert min(_orders(errors)) >= 3.9


def test_picard_order_against_exact_soliton():
    g = FrequencyGrid(256, 40.0)
    T = 0.5
    exact = _soliton(g, T)
    errors = []
    for n_nodes in (17, 33, 65):
        states, report = picard_solve(_soliton(g, 0.0), T, NNLS, n_nodes=n_nodes)
        assert report.converged
        errors.append(l2_distance(states[-1], exact) / l2_norm(exact))
    assert errors[-1] <= 1e-6
    # node spacing halves from 17 to 33 to 65 nodes
    assert min(_orders(errors)) >= 3.5


def test_picard_node_validation(grid, gaussian):
    with pytest.raises(ValueError):
        picard_map([gaussian] * 5, gaussian, 0.1, NNLS)
    with pytest.raises(ValueError):
        picard_map([gaussian] * 10, gaussian, 0.1, NNLS)


@pytest.mark.parametrize("n_nodes", [5, 8, 10, 9.0])
def test_picard_solve_rejects_bad_node_count(gaussian, n_nodes):
    # an error, not the free flow with no iterate
    with pytest.raises(ValueError, match="time nodes|odd node count"):
        picard_solve(gaussian, 0.1, NNLS, n_nodes=n_nodes)


@pytest.mark.parametrize("T", [0.0, -1.0, np.nan, np.inf])
def test_picard_solve_rejects_bad_horizon(gaussian, T):
    with pytest.raises(ValueError, match="T must be finite and positive"):
        picard_solve(gaussian, T, NNLS)


@pytest.mark.parametrize("T", [0.0, -1.0, np.nan, np.inf])
def test_picard_map_rejects_bad_horizon(gaussian, T):
    with pytest.raises(ValueError, match="T must be finite and positive"):
        picard_map([gaussian] * 9, gaussian, T, NNLS)


@pytest.mark.parametrize("n_iter", [0, 2.5])
def test_picard_solve_rejects_bad_iteration_count(gaussian, n_iter):
    with pytest.raises(ValueError, match="n_iter must be an integer >= 1"):
        picard_solve(gaussian, 0.1, NNLS, n_iter=n_iter)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 64).map(lambda k: 2 * k + 1),
    T=st.floats(1e-3, 256.0),
    columns=st.integers(1, 256),
    seed=st.integers(0, 10 ** 6),
)
@example(n=33, T=0.2, columns=256, seed=0)
@example(n=35, T=1e-3, columns=1, seed=1)
@example(n=65, T=256.0, columns=17, seed=2)
@example(n=129, T=3.7, columns=256, seed=3)
def test_cumulative_simpson_matches_scipy_bit_for_bit(n, T, columns, seed):
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, T, n)
    y = rng.standard_normal((n, columns)) + 1j * rng.standard_normal((n, columns))
    got = cumulative_simpson(y, _simpson_weights(times))
    assert np.array_equal(got, reference_cumulative_simpson(y, times))


@pytest.mark.parametrize("n", [1, 2, 8])
def test_simpson_weights_need_an_odd_node_count(n):
    with pytest.raises(ValueError, match="odd node count"):
        _simpson_weights(np.linspace(0.0, 1.0, n))


def test_cli_import_leaves_scipy_integrate_out():
    # scipy.integrate pulls in linalg, optimize, sparse and spatial: about
    # 25 MB of resident memory and 0.4 s of import time on a 2-core host
    src = os.path.dirname(os.path.dirname(nnlslab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import nnlslab.cli, sys; assert 'scipy.integrate' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_picard_map_rejects_non_finite_iterate(grid, gaussian):
    huge = SpectralField(grid, 1e200 * gaussian.coeffs)
    with pytest.raises(ValueError, match="non-finite"):
        with np.errstate(over="ignore", invalid="ignore"):
            picard_map([huge] * 9, gaussian, 0.1, NNLS)


PICARD_SPECS = [
    NNLS,
    EquationSpec("NdNLS", alpha=1.0),
    EquationSpec("gNdNLS", alpha=0.8, beta=0.3),
    EquationSpec("GaugedNdNLS", alpha=1.0),
    EquationSpec("GaugedGNdNLS", alpha=0.8, beta=0.3, gauged_coefficient_mode="printed"),
    EquationSpec("GaugedGNdNLS", alpha=0.8, beta=0.3, gauged_coefficient_mode="rederived"),
]


def shifted_wave(grid, amp):
    # neither even nor real, so u* differs from conj(u) at every node
    x = grid.points
    return forward_transform(amp * np.exp(-(x - 0.5) ** 2 / 2.0 + 0.7j * x), grid)


def assert_same_picard(got, want):
    (states, report), (ref_states, ref_report) = got, want
    assert len(states) == len(ref_states)
    for a, b in zip(states, ref_states):
        assert np.array_equal(a.coeffs, b.coeffs)
    assert report.iterates_distances == ref_report.iterates_distances
    assert report.contraction_ratios == ref_report.contraction_ratios
    assert report.converged == ref_report.converged


@pytest.mark.parametrize("n_nodes", [9, 33, 65, 129])
@pytest.mark.parametrize("spec", PICARD_SPECS, ids=lambda s: "%s-%s" % (s.kind, s.gauged_coefficient_mode))
def test_picard_solve_matches_node_loop_bit_for_bit(grid, spec, n_nodes):
    # 65 and more nodes of 256 modes make temporaries large enough for numpy
    # to reuse them in place; the batch must still round as the node loop
    u0 = shifted_wave(grid, 0.3)
    got = picard_solve(u0, 0.2, spec, n_nodes=n_nodes)
    assert got[1].converged
    assert_same_picard(got, reference_picard_solve(u0, 0.2, spec, n_nodes=n_nodes))


@pytest.mark.parametrize("kind,amp,T", [
    ("NNLS", 40.0, 20.0),  # three growing distances in a row
    ("GaugedNdNLS", 40.0, 20.0),  # an overflowing distance
    ("NNLS", 1e5, 1.0),  # a non-finite fourth iterate
    ("GaugedNdNLS", 1e100, 1.0),  # a non-finite first iterate
])
def test_picard_divergence_matches_node_loop(grid, kind, amp, T):
    u0 = shifted_wave(grid, amp)
    spec = EquationSpec(kind, alpha=1.0)
    with np.errstate(over="ignore"):
        got = picard_solve(u0, T, spec)
        want = reference_picard_solve(u0, T, spec)
    assert not got[1].converged
    assert_same_picard(got, want)


def test_picard_map_matches_node_loop_bit_for_bit(grid):
    u0 = shifted_wave(grid, 1.0)
    states = [random_field(grid, seed, decay=3.0) for seed in range(33)]
    spec = EquationSpec("gNdNLS", alpha=0.8, beta=0.3)
    got = picard_map(states, u0, 0.4, spec)
    want = reference_picard_map(states, u0, 0.4, spec)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.coeffs, b.coeffs)


def test_picard_iteration_transforms_all_nodes_at_once(gaussian, fft_log):
    # NNLS: one inverse FFT of the (u, u*) block of every node and one forward
    # FFT of the products, 99 rows in 2 calls, whatever the node count
    _, report = picard_solve(gaussian, 0.1, NNLS, n_nodes=33, n_iter=1)
    assert len(report.iterates_distances) == 1
    assert fft_log == [("ifft", 66), ("fft", 33)]


def test_picard_free_equation_converges_immediately(grid, gaussian):
    states, report = picard_solve(gaussian, 0.3, FREE, n_nodes=9)
    assert report.converged
    assert len(report.iterates_distances) == 1
    exact = linear_propagator(gaussian, 0.3)
    assert l2_distance(states[-1], exact) <= 1e-13 * l2_norm(exact)


def test_picard_contracts_for_small_data(grid):
    u0 = even_gaussian(grid, amp=0.2)
    states, report = picard_solve(u0, 0.2, NNLS)
    assert report.converged
    assert report.contraction_ratios and max(report.contraction_ratios) <= 0.5


def test_picard_matches_stepper(grid):
    u0 = even_gaussian(grid, amp=0.5)
    T = 0.2
    states, report = picard_solve(u0, T, NNLS, n_nodes=65)
    assert report.converged
    traj = solve(u0, T, T / 200, NNLS)
    assert l2_distance(states[-1], traj.states[-1]) <= 1e-5 * l2_norm(traj.states[-1])


def test_picard_divergence_is_reported_not_raised(grid):
    u0 = even_gaussian(grid, amp=40.0)
    states, report = picard_solve(u0, 20.0, NNLS)
    assert not report.converged
    assert len(states) > 0
