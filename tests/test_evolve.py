"""Tests for the Lawson stepper and the Duhamel iteration engine."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nnlslab
from conftest import random_field
from reference import (
    _stage_rhs,
    reference_conj_row_lawson,
    reference_cumulative_simpson,
    reference_divided_lawson,
    reference_lawson,
    reference_picard_map,
    reference_picard_solve,
    reference_solve,
    reference_step,
)
from nnlslab.equations import (
    COEFFICIENT_MODES,
    KINDS,
    EquationSpec,
    _Nonlinearity,
    mass_energy_coeffs,
    nonlinear_coeffs,
)
from nnlslab.experiments import make_initial_data
from nnlslab.evolve import (
    _duhamel,
    _duhamel_nodes,
    _free_phase,
    _LawsonStage,
    _simpson_weights,
    cumulative_simpson,
    picard_solve,
    solve,
    solve_batch,
    stream,
)
from nnlslab.grid import (
    FrequencyGrid,
    GridMismatchError,
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


def test_free_flow_trivial(grid, gaussian):
    same = gaussian.coeffs * _free_phase(grid, 0.0)
    assert np.array_equal(same, gaussian.coeffs)


def test_free_flow_unitary(grid, gaussian):
    out = SpectralField(grid, gaussian.coeffs * _free_phase(grid, 1.7))
    assert abs(l2_norm(out) - l2_norm(gaussian)) <= 1e-12


def test_free_flow_group(grid, gaussian):
    a = gaussian.coeffs * _free_phase(grid, 0.3) * _free_phase(grid, 0.9)
    b = gaussian.coeffs * _free_phase(grid, 1.2)
    assert np.max(np.abs(a - b)) <= 1e-13


def test_solve_cfl_guard(grid, gaussian):
    with pytest.raises(ValueError, match="exceeds the guard"):
        solve(gaussian, 1.0, 1.0, NNLS)  # dt * xi_max^2 far beyond the guard


def test_step_free_equation_is_exact(grid, gaussian):
    dt = 0.01
    got = solve(gaussian, dt, dt, FREE).states[-1]
    exact = gaussian.coeffs * _free_phase(grid, dt)
    assert np.max(np.abs(got.coeffs - exact)) <= 1e-14 * np.max(np.abs(exact))


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
        u = reference_step(u, 0.3, NNLS)
    u = reference_step(u, 1.0 - 3 * 0.3, NNLS)
    assert np.array_equal(traj.states[-1].coeffs, u.coeffs)


def test_solve_records_the_last_whole_step_at_T():
    # 700 * 1e-3 is 0.7000000000000001: the steps stay whole, and the last
    # one is recorded at T, not at n * dt
    gaussian = coarse_gaussian()
    traj = solve(gaussian, 0.7, 1e-3, NNLS, sample_every=700)
    assert traj.times == [0.0, 0.7]
    u = gaussian
    for _ in range(700):
        u = reference_step(u, 1e-3, NNLS)
    assert np.array_equal(traj.states[-1].coeffs, u.coeffs)


def test_solve_horizon_shorter_than_dt():
    gaussian = coarse_gaussian()
    traj = solve(gaussian, 0.01, 0.03, NNLS)
    assert traj.times == [0.0, 0.01]
    assert np.array_equal(traj.states[-1].coeffs, reference_step(gaussian, 0.01, NNLS).coeffs)


def test_solve_commensurate_horizon_keeps_whole_steps():
    gaussian = coarse_gaussian()
    # 0.3 / 0.1 is 3 to rounding: three whole steps, the last recorded at T
    # and not at 3 * 0.1 = 0.30000000000000004
    traj = solve(gaussian, 0.3, 0.1, NNLS)
    assert traj.times == [0.0, 0.1, 0.2, 0.3]
    u = gaussian
    for _ in range(3):
        u = reference_step(u, 0.1, NNLS)
    assert np.array_equal(traj.states[-1].coeffs, u.coeffs)


def test_solve_linear_composition(grid, gaussian):
    traj = solve(gaussian, 0.5, 0.005, FREE)
    exact = SpectralField(grid, gaussian.coeffs * _free_phase(grid, 0.5))
    assert l2_distance(traj.states[-1], exact) <= 1e-12 * l2_norm(exact)


def test_solve_mass_drift(grid):
    u0 = even_gaussian(grid)
    traj = solve(u0, 0.5, 0.002, NNLS, sample_every=50)
    m = np.array([mass_energy_coeffs(u.coeffs, grid, NNLS.alpha)[0] for u in traj.states])
    assert np.max(np.abs(m - m[0])) <= 1e-8 * abs(m[0])


@pytest.mark.parametrize("amp, sample_every, times", [
    (1e150, 50, [0.0]),  # overflows in the first step: u0 is its last finite state
    (1e4, 50, [0.0, 0.01]),  # the state before the second step, not a sampled one
    (10.0, 3, [0.0, 0.03, 0.06]),  # overflows in the step after a sample
])
def test_solve_blowup_flag(grid, amp, sample_every, times):
    # a large amplitude overflows within a few steps; the trajectory reports
    # it instead of raising, and ends with the state before the step that
    # overflowed, recorded once
    u0 = even_gaussian(grid, amp=amp)
    traj = solve(u0, 0.5, 0.01, NNLS, sample_every=sample_every)
    assert traj.blown_up
    assert traj.times == times and traj.blowup_time == times[-1] + 0.01
    assert_same_trajectory(traj, reference_solve(u0, 0.5, 0.01, NNLS, sample_every))


BATCH_SPECS = [
    NNLS,
    EquationSpec("NdNLS", alpha=1.0),
    EquationSpec("gNdNLS", alpha=0.8, beta=0.3),
    EquationSpec("GaugedNdNLS", alpha=1.0),
    EquationSpec("GaugedGNdNLS", alpha=0.8, beta=0.3, gauged_coefficient_mode="printed"),
]


def assert_same_trajectory(got, want):
    assert got.times == want.times
    assert [u.coeffs.tobytes() for u in got.states] == [u.coeffs.tobytes() for u in want.states]
    assert (got.blown_up, got.blowup_time) == (want.blown_up, want.blowup_time)


def batch_members(grid, k):
    # members of different size and shape, none even, so u* differs from conj(u)
    return [shifted_wave(grid, 0.4 + 0.3 * j) if j % 2 == 0 else random_field(grid, j)
            for j in range(k)]


@pytest.mark.parametrize("n, length, k, T, dt", [
    (64, 40.0, 1, 0.05, 0.01),  # five whole steps
    (128, 40.0, 3, 0.047, 0.01),  # four whole steps and a final one of 0.007
    (256, 40.0, 4, 0.03, 0.004),  # seven whole steps and a final one of 0.002
    (256, 40.0, 2, 0.0, 0.01),  # no step at all
    # a row of 16384 modes is 256 KiB, where numpy starts to reuse temporaries
    (16384, 400.0, 2, 0.005, 0.002),
])
@pytest.mark.parametrize("spec", BATCH_SPECS, ids=lambda s: s.kind)
def test_solve_batch_matches_one_solve_per_member_bit_for_bit(spec, n, length, k, T, dt):
    grid = FrequencyGrid(n, length)
    fields = batch_members(grid, k)
    trajs = solve_batch(fields, T, dt, spec, sample_every=2)
    assert len(trajs) == k
    for u0, traj in zip(fields, trajs):
        want = reference_solve(u0, T, dt, spec, sample_every=2)
        assert not want.blown_up and want.times[-1] == T
        assert_same_trajectory(traj, want)
        assert_same_trajectory(solve(u0, T, dt, spec, sample_every=2), want)


def test_solve_batch_drops_a_blown_up_member_and_steps_the_rest():
    grid = FrequencyGrid(64, 40.0)
    # the middle member overflows within a few steps of the coarse dt
    fields = [shifted_wave(grid, 0.5), even_gaussian(grid, amp=1e4), random_field(grid, 3)]
    trajs = solve_batch(fields, 0.5, 0.05, NNLS, sample_every=3)
    want = [reference_solve(u0, 0.5, 0.05, NNLS, sample_every=3) for u0 in fields]
    alone = solve(fields[1], 0.5, 0.05, NNLS, sample_every=3)
    assert [t.blown_up for t in trajs] == [False, True, False]
    assert trajs[1].blowup_time is not None and trajs[1].blowup_time < 0.5
    # the dropped member keeps its last finite state, from before the step
    # that overflowed, though that step is not a sampled one
    assert trajs[1].times[-1] + 0.05 == trajs[1].blowup_time
    assert trajs[1].times[-1] not in trajs[0].times
    for got, ref in zip(trajs + [alone], want + [want[1]]):
        assert_same_trajectory(got, ref)


@pytest.mark.parametrize("spec, rhs", [
    # u* is read from the samples of u: k rows in, k products out
    pytest.param(NNLS, [("ifft", 3), ("fft", 3)], id="NNLS"),
    # the rows u and u_x of every member
    pytest.param(EquationSpec("NdNLS", alpha=1.0), [("ifft", 6), ("fft", 3)], id="NdNLS"),
    # the cubic transforms u and (u*)_x, the quintic u alone
    pytest.param(EquationSpec("GaugedNdNLS", alpha=1.0),
                 [("ifft", 6), ("fft", 3), ("ifft", 3), ("fft", 3)], id="GaugedNdNLS"),
])
def test_solve_batch_steps_every_member_in_one_product(fft_log, spec, rhs):
    # k = 3 members: each right-hand side transforms the rows of every member
    # at once, and recording a sample transforms nothing
    grid = FrequencyGrid(64, 40.0)
    fields = batch_members(grid, 3)
    fft_log.clear()
    solve_batch(fields, 0.02, 0.01, spec, sample_every=2)
    assert fft_log == 8 * rhs


@pytest.mark.parametrize("n, length, dt", [
    (64, 40.0, 0.01),
    (256, 40.0, 0.004),
    (1024, 80.0, 0.002),
    (4096, 80.0, 0.001),
    # a row of 16384 modes is 256 KiB, where numpy starts to reuse temporaries
    (16384, 400.0, 0.002),
])
@pytest.mark.parametrize("spec", BATCH_SPECS, ids=lambda s: s.kind)
def test_lawson_stage_matches_the_expression_form_bit_for_bit(spec, n, length, dt):
    # the stage keeps its constants and buffers; the oracle is the same
    # arithmetic written as expressions, one row at a time
    grid = FrequencyGrid(n, length)
    members = [f.coeffs for f in batch_members(grid, 4)]
    for w in [members[0]] + [np.stack(members[:k]) for k in range(1, 5)]:
        want = reference_lawson(w, dt, grid, spec)
        stage = _LawsonStage(grid, spec, dt, w.shape)
        for _ in range(2):  # the second call runs on the kept buffers
            assert stage(w).tobytes() == want.tobytes()


@pytest.mark.parametrize("n, length, dt", [
    (64, 40.0, 0.01),
    (256, 40.0, 0.004),
    (1024, 80.0, 0.002),
])
@pytest.mark.parametrize("spec", BATCH_SPECS, ids=lambda s: s.kind)
def test_lawson_stage_matches_the_interaction_picture_stage_to_roundoff(spec, n, length, dt):
    # the stage in the original variables against the same method in the
    # interaction picture, whose N(u) is divided by the phases: at most
    # 3.6e-16 of max|w| after one step and 3.1e-15 relative after 50
    # (measured over these cases and at n = 4096)
    grid = FrequencyGrid(n, length)
    members = [f.coeffs for f in batch_members(grid, 3)]
    for w in (members[0], np.stack(members)):
        stage = _LawsonStage(grid, spec, dt, w.shape)
        got = stage(w)
        want = reference_divided_lawson(w, dt, grid, spec)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(w))
        for _ in range(49):
            got, want = stage(got), reference_divided_lawson(want, dt, grid, spec)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n, length, dt", [
    (64, 40.0, 0.01),
    (256, 40.0, 0.004),
    (1024, 80.0, 0.002),
    (4096, 80.0, 0.001),
])
@pytest.mark.parametrize("spec", BATCH_SPECS, ids=lambda s: s.kind)
def test_lawson_stage_matches_the_conjugate_row_stage_to_roundoff(spec, n, length, dt):
    # the stage against the Lawson stage of signed padding and u* transformed
    # as conj(coeffs): at most 2.8e-17 of max|w| after one step and 2.9e-16
    # relative after 50 (measured over these cases)
    grid = FrequencyGrid(n, length)
    members = [f.coeffs for f in batch_members(grid, 3)]
    for w in (members[0], np.stack(members)):
        stage = _LawsonStage(grid, spec, dt, w.shape)
        got = stage(w)
        want = reference_conj_row_lawson(w, dt, grid, spec)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(w))
        for _ in range(49):
            got, want = stage(got), reference_conj_row_lawson(want, dt, grid, spec)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [64, 256, 1024, 4096])
@pytest.mark.parametrize("kind", KINDS)
def test_lawson_stage_rhs_matches_nonlinear_coeffs(n, kind):
    # u* read from the samples of u, padded without signs and scaled once, is
    # the transformed row of conj(coeffs) to roundoff: at most 4.7e-16 of
    # max|N| measured over these cases; the expression form row by row gives
    # the same bits
    g = FrequencyGrid(n, 30.0)
    rows = np.stack([random_field(g, seed).coeffs for seed in range(3)])
    for mode in COEFFICIENT_MODES:
        spec = EquationSpec(kind, alpha=0.8, beta=0.3, gauged_coefficient_mode=mode)
        want = nonlinear_coeffs(rows, g, spec)
        got = np.empty_like(rows)
        _Nonlinearity(g, spec, rows.shape)(rows, got)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), spec
        exact = np.stack([_stage_rhs(row, g, spec, None) for row in rows])
        assert got.tobytes() == exact.tobytes()
        rhs = _Nonlinearity(g, spec, rows[0].shape)
        for row, got_row in zip(rows, got):
            alone = np.empty_like(row)
            rhs(row, alone)
            assert alone.tobytes() == got_row.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_lawson_stage_rhs_without_terms_is_zero(grid, kind):
    # alpha = beta = 0 leaves no term to evaluate; the output is still written
    c = random_field(grid, 4).coeffs
    rhs = _Nonlinearity(grid, EquationSpec(kind, alpha=0.0), c.shape)
    out = np.full_like(c, np.nan)
    rhs(c, out)
    assert np.all(out == 0)


@pytest.mark.parametrize("rows", [None, 3], ids=["1-D", "3-rows"])
@pytest.mark.parametrize("kind", KINDS)
def test_lawson_stage_rhs_keeps_its_zero_padding(grid, kind, rows):
    # a call writes only the heads and tails of its padded input blocks and
    # transforms them out of place, so their zero middles must survive it:
    # a second call gives the bits of a fresh evaluator
    rng = np.random.default_rng(7)
    shape = (grid.n_modes,) if rows is None else (rows, grid.n_modes)
    first, second = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                     for _ in range(2))
    spec = EquationSpec(kind, alpha=1.0, beta=0.3)
    used = _Nonlinearity(grid, spec, shape)
    used(first, np.empty(shape, dtype=np.complex128))
    got, want = np.empty(shape, dtype=np.complex128), np.empty(shape, dtype=np.complex128)
    used(second, got)
    _Nonlinearity(grid, spec, shape)(second, want)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind, log", [
    pytest.param("NNLS", [("ifft", 1), ("fft", 1)], id="NNLS-2"),
    pytest.param("NdNLS", [("ifft", 2), ("fft", 1)], id="NdNLS-3"),
    pytest.param("gNdNLS", [("ifft", 2), ("fft", 2)], id="gNdNLS-4"),
    pytest.param("GaugedNdNLS", [("ifft", 2), ("fft", 1), ("ifft", 1), ("fft", 1)],
                 id="GaugedNdNLS-5"),
])
def test_lawson_stage_rhs_transforms_u_and_u_x_only(grid, fft_log, kind, log):
    # u* is read from the samples of u and (u*)_x from those of u_x: NNLS
    # transforms u, NdNLS and gNdNLS (u, u_x) once for both cubic terms, and
    # the gauged cubic (u, u_x) and quintic u on their own padded grids
    c = random_field(grid, 12, decay=3.0).coeffs
    rhs = _Nonlinearity(grid, EquationSpec(kind, alpha=1.0, beta=0.3), c.shape)
    fft_log.clear()
    rhs(c, np.empty_like(c))
    assert fft_log == log


@pytest.mark.parametrize("spec", BATCH_SPECS, ids=lambda s: s.kind)
@pytest.mark.parametrize("k", [1, 3])
def test_warm_lawson_step_allocates_only_its_result(spec, k):
    # numpy's tracemalloc domain holds array data.  A warm step at n = 4096
    # keeps one new array, its result, and allocates nothing else of the
    # batch's size: the stage reflects strided rows one at a time and never
    # broadcasts a row over a contiguous batch, where numpy would allocate
    # iterator buffers (tracemalloc's peak also counts a few hundred bytes of
    # Python objects and numpy's small iterator allocations)
    grid = FrequencyGrid(4096, 80.0)
    w = np.stack([f.coeffs for f in batch_members(grid, k)])
    stage = _LawsonStage(grid, spec, 0.001, w.shape)
    for _ in range(2):
        stage(w)
    numpy_data = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces([numpy_data])
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = stage(w)
        _, peak = tracemalloc.get_traced_memory()
        after = tracemalloc.take_snapshot().filter_traces([numpy_data])
    finally:
        tracemalloc.stop()
    kept = sum(t.size for t in after.traces) - sum(t.size for t in before.traces)
    assert kept == out.nbytes
    assert peak - current <= w.nbytes + 8192


@pytest.mark.parametrize("spec", BATCH_SPECS, ids=lambda s: s.kind)
def test_solves_keep_only_their_trajectories(spec):
    # the stage's phases, scales and buffers go with its solve: solves with
    # distinct step sizes leave only the coefficients of their recorded states
    # in numpy's tracemalloc domain
    grid = FrequencyGrid(4096, 80.0)
    u0 = batch_members(grid, 1)[0]
    solve(u0, 0.002, 0.001, spec)  # the per-grid caches
    numpy_data = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces([numpy_data])
        trajs = [solve(u0, 2e-3 + 1e-5 * i, 1e-3 + 5e-6 * i, spec) for i in range(6)]
        after = tracemalloc.take_snapshot().filter_traces([numpy_data])
    finally:
        tracemalloc.stop()
    kept = sum(t.size for t in after.traces) - sum(t.size for t in before.traces)
    assert kept == sum(u.coeffs.nbytes for traj in trajs for u in traj.states[1:])


def test_solve_batch_keeps_only_its_states():
    # a k = 3 batch at n = 4096 leaves only the coefficients of its recorded
    # states in numpy's tracemalloc domain: no per-sample work array of the
    # batch's shape outlives the solve
    grid = FrequencyGrid(4096, 80.0)
    fields = batch_members(grid, 3)
    solve(fields[0], 0.002, 0.001, NNLS)  # the per-grid caches, which one member fills
    numpy_data = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces([numpy_data])
        trajs = solve_batch(fields, 0.003, 0.001, NNLS)
        after = tracemalloc.take_snapshot().filter_traces([numpy_data])
    finally:
        tracemalloc.stop()
    kept = sum(t.size for t in after.traces) - sum(t.size for t in before.traces)
    assert kept == sum(u.coeffs.nbytes for traj in trajs for u in traj.states[1:])


def test_solve_batch_validates_its_members(grid, gaussian):
    with pytest.raises(ValueError, match="at least one field"):
        solve_batch([], 0.1, 0.01, NNLS)
    other = even_gaussian(FrequencyGrid(128, 40.0))
    with pytest.raises(GridMismatchError):
        solve_batch([gaussian, other], 0.1, 0.01, NNLS)
    with pytest.raises(ValueError, match="exceeds the guard"):
        solve_batch([gaussian], 1.0, 1.0, NNLS)


@pytest.mark.parametrize("args, message", [
    ((1.0, 1.0, NNLS), "exceeds the guard"),
    ((np.nan, 0.01, NNLS), "T must be finite"),
    ((0.1, 0.0, NNLS), "dt must be finite and positive"),
    ((0.1, 0.01, NNLS, 0), "sample_every must be an integer"),
])
def test_stream_refuses_when_called_not_when_first_stepped(gaussian, args, message):
    # a caller opens its output only after stream has accepted the arguments
    with pytest.raises(ValueError, match=message):
        stream([gaussian], *args)


def test_stream_yields_each_recorded_state_in_time_order():
    grid = FrequencyGrid(64, 40.0)
    # the middle member overflows within a few steps of the coarse dt
    fields = [shifted_wave(grid, 0.5), even_gaussian(grid, amp=1e4), random_field(grid, 3)]
    events = list(stream(fields, 0.5, 0.05, NNLS, sample_every=3))
    assert [i for i, _, _ in events[:3]] == [0, 1, 2]
    times = [t for _, t, _ in events]
    assert times == sorted(times)
    for index, u0 in enumerate(fields):
        mine = [(t, c) for i, t, c in events if i == index]
        want = reference_solve(u0, 0.5, 0.05, NNLS, sample_every=3)
        if want.blown_up:
            assert mine[-1] == (want.blowup_time, None)
            mine = mine[:-1]
        assert [t for t, _ in mine] == want.times
        assert [c.tobytes() for _, c in mine] == [u.coeffs.tobytes() for u in want.states]
        assert not any(c.flags.writeable for _, c in mine)
    assert [i for i, _, c in events if c is None] == [1]


@pytest.mark.parametrize("kind", ["NNLS", "NdNLS", "GaugedNdNLS"])
def test_truncation_commutes_with_the_flow_for_halfline_data(kind):
    # the products of spectra on (0, inf) only add frequencies, so the modes
    # above the band never feed back below it: doubling the band leaves the
    # shared modes unchanged to roundoff (measured 6e-19 to 9.5e-19 relative)
    spec = EquationSpec(kind, alpha=1.0)
    finals = []
    for n in (256, 512):
        u0 = make_initial_data("halfline_bump", FrequencyGrid(n, 40.0), amplitude=2.0,
                               lo=1.0, hi=2.0)
        traj = solve(u0, 0.5, 1e-3, spec, sample_every=500)
        assert not traj.blown_up and traj.times[-1] == 0.5
        finals.append(traj.states[-1].coeffs)
    coarse, fine = finals
    shared = fine[128:384]  # modes m = -128 .. 127
    assert np.max(np.abs(coarse - shared)) <= 1e-15 * np.max(np.abs(fine))


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


@pytest.mark.parametrize("n_nodes", [5, 8, 10, 9.0])
def test_picard_solve_rejects_bad_node_count(gaussian, n_nodes):
    # an error, not the free flow with no iterate
    with pytest.raises(ValueError, match="time nodes|odd node count"):
        picard_solve(gaussian, 0.1, NNLS, n_nodes=n_nodes)


@pytest.mark.parametrize("T", [0.0, -1.0, np.nan, np.inf])
def test_picard_solve_rejects_bad_horizon(gaussian, T):
    with pytest.raises(ValueError, match="T must be finite and positive"):
        picard_solve(gaussian, T, NNLS)


@pytest.mark.parametrize("n_iter", [0, 2.5])
def test_picard_solve_rejects_bad_iteration_count(gaussian, n_iter):
    with pytest.raises(ValueError, match="n_iter must be an integer >= 1"):
        picard_solve(gaussian, 0.1, NNLS, n_iter=n_iter)


@pytest.mark.parametrize("tol", [np.nan, -1e-10, -np.inf])
def test_picard_solve_rejects_bad_tolerance(gaussian, tol):
    # before: tol = nan ran every iteration and reported converged=False
    with pytest.raises(ValueError, match="tol must be >= 0"):
        picard_solve(gaussian, 0.1, NNLS, tol=tol)


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
@example(n=1025, T=256.0, columns=256, seed=4)  # the node count picard_window reaches
@example(n=1025, T=0.5, columns=1, seed=5)
@example(n=9, T=1.0, columns=1, seed=6)
def test_cumulative_simpson_matches_scipy_bit_for_bit(n, T, columns, seed):
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, T, n)
    y = rng.standard_normal((n, columns)) + 1j * rng.standard_normal((n, columns))
    got = cumulative_simpson(y, _simpson_weights(times))
    assert np.array_equal(got, reference_cumulative_simpson(y, times))


@pytest.mark.parametrize("n_modes", [8, 10, 256, 4096])
@pytest.mark.parametrize("length", [2 * np.pi, 7.3, 40.0])
@pytest.mark.parametrize("t", [1e-3, 0.37, 5.0, 123.456, np.linspace(0.0, 3.1, 33)[:, None],
                               np.array([[2e-3], [256.0]])])
def test_free_phase_matches_the_direct_exponential_bit_for_bit(n_modes, length, t):
    # the formula evaluated on every mode, for a scalar time and a column of times
    xi = FrequencyGrid(n_modes, length).frequencies
    want = np.exp(-1j * t * xi ** 2)
    got = _free_phase(FrequencyGrid(n_modes, length), t)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def mirrored_free_phase(grid, t):
    """The free-flow symbol as it was once built: the modes m >= 0 and the Nyquist
    mode evaluated, and each column m < 0 copied from column -m."""
    xi = grid.frequencies
    h = len(xi) // 2  # the column of m = 0
    out = np.empty(np.broadcast_shapes(np.shape(t), xi.shape), dtype=np.complex128)
    out[..., h:] = np.exp(-1j * t * xi[h:] ** 2)
    out[..., :1] = np.exp(-1j * t * xi[:1] ** 2)
    out[..., 1:h] = out[..., :h:-1]
    return out


@pytest.mark.parametrize("n_modes", [8, 10, 62, 256, 1024, 4096])
@pytest.mark.parametrize("t", [0.0, 1e-3, 0.35, np.linspace(0.0, 0.35, 33)[:, None]],
                         ids=["0", "1e-3", "0.35", "nodes"])
def test_free_phase_matches_the_mirrored_construction_bit_for_bit(n_modes, t):
    # xi_{-m} is exactly -xi_m, so the whole-row formula rounds as the mirror did
    grid = FrequencyGrid(n_modes, 40.0)
    got = _free_phase(grid, t)
    want = mirrored_free_phase(grid, t)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 8])
def test_simpson_weights_need_an_odd_node_count(n):
    with pytest.raises(ValueError, match="odd node count"):
        _simpson_weights(np.linspace(0.0, 1.0, n))


def run_fresh(code, *args):
    """Standard output of ``code`` run with ``args`` in a fresh interpreter that
    imports the package under test."""
    src = os.path.dirname(os.path.dirname(nnlslab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args], check=True, env=env,
                          stdout=subprocess.PIPE, text=True).stdout


# after the package, scipy.fft binds the package's kernel, and both give the same bits
SAME_KERNEL = """
import numpy as np
import scipy.fft
from nnlslab.grid import pypocketfft
assert scipy.fft._pocketfft.basic.pfft is pypocketfft
rng = np.random.default_rng(0)
a = rng.standard_normal((3, 96)) + 1j * rng.standard_normal((3, 96))
assert np.array_equal(scipy.fft.fft(a), pypocketfft.c2c(a, (-1,), True, 0, None, 1))
assert np.array_equal(scipy.fft.ifft(a), pypocketfft.c2c(a, (-1,), False, 2, None, 1))
"""


LEAN_IMPORT = """
import sys
import nnlslab.cli
heavy = {"scipy.fft", "scipy.special", "scipy.integrate", "scipy._lib._array_api",
         "numpy.f2py", "multiprocessing"} & set(sys.modules)
assert not heavy, heavy
"""


def test_cli_import_loads_only_the_pocketfft_kernel():
    # scipy.fft's package import pulls in scipy's array-API layer, numpy.f2py and
    # scipy.special, and scipy.integrate also linalg, optimize, sparse and spatial:
    # about 0.3 s and 25 MB of resident memory each on a 2-core host
    run_fresh(LEAN_IMPORT + SAME_KERNEL)


# with no extension file in scipy's install, the plain import
NO_KERNEL_FILE = """
import importlib.machinery, importlib.util, sys
find_spec = importlib.util.find_spec
empty = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
empty.submodule_search_locations = [sys.argv[1]]
importlib.util.find_spec = lambda name, package=None: (
    empty if name == "scipy" else find_spec(name, package))
import nnlslab
assert "scipy.fft" in sys.modules
"""


def test_kernel_falls_back_to_scipys_import(tmp_path):
    run_fresh(NO_KERNEL_FILE + SAME_KERNEL, str(tmp_path))


PIN_FAULTS = """
import resource, sys
import numpy as np
from nnlslab import EquationSpec, picard_solve
from nnlslab.equations import mass_energy_coeffs
from nnlslab.experiments import TwoBumpData, _band_norm
from nnlslab.grid import FrequencyGrid, forward_transform

picard = sys.argv[1] == "picard"
grid = FrequencyGrid(256, 40.0) if picard else FrequencyGrid(4096, 80.0)
x = grid.points
u0 = forward_transform(np.exp(-x ** 2 / 2.0 + 0.3j * x), grid)
if picard:
    call, calls = lambda: picard_solve(u0, 0.1, EquationSpec("NNLS"), n_nodes=33), 20
elif sys.argv[1] == "quadrature":
    phi = TwoBumpData(8, -1.0)
    call, calls = lambda: _band_norm(phi, 0.1 / 64, EquationSpec("NNLS"), -1.0, 0.0, 32, True), 10
else:
    call, calls = lambda: mass_energy_coeffs(u0.coeffs, grid, 1.0), 200
for _ in range(3):
    call()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(calls):
    call()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the pin is glibc's mallopt")
def test_allocator_pin_keeps_warm_picard_quadrature_and_diagnostics_fault_free():
    # minor faults, each input in a fresh process: 20 warm Picard solves at
    # (33, 256), 10 warm norm-inflation band norms on 32 nodes and 200 warm
    # diagnostics at n = 4096 (two 256 KiB blocks a call) take 0, at most 1
    # and 0 with the pin.  Without it the band norms take 14,400 to 24,000
    # and the diagnostics 25,600 (128 a call), as glibc trims their blocks
    # and faults them in again; the Picard solves take 0, because freeing
    # their 811 KB product block raises glibc's dynamic thresholds above
    # every later temporary (2,000 while the plans kept that block).  On 16
    # nodes the band norms take 0 either way.
    assert int(run_fresh(PIN_FAULTS, "picard")) < 200
    assert int(run_fresh(PIN_FAULTS, "quadrature")) < 200
    assert int(run_fresh(PIN_FAULTS, "diagnostics")) < 200


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
    nodes = _duhamel_nodes(0.4, len(states), grid)
    got = _duhamel(np.stack([u.coeffs for u in states]), u0.coeffs, nodes, grid, spec)
    want = reference_picard_map(states, u0, 0.4, spec)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b.coeffs)


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
    exact = SpectralField(grid, gaussian.coeffs * _free_phase(grid, 0.3))
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
