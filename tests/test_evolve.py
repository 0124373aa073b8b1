"""Tests for the Lawson stepper and the Duhamel iteration engine."""

import numpy as np
import pytest

from nnlslab.equations import EquationSpec, mass
from nnlslab.evolve import (
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


def test_picard_node_validation(grid, gaussian):
    with pytest.raises(ValueError):
        picard_map([gaussian] * 5, gaussian, 0.1, NNLS)
    with pytest.raises(ValueError):
        picard_map([gaussian] * 10, gaussian, 0.1, NNLS)


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
