"""Tests for the experiment drivers and the third-derivative quadrature."""

import functools
import inspect
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (
    reference_band_norm,
    reference_mirrored_third_derivative_field,
    reference_third_derivative_field,
    rho_kernel,
)
from nnlslab import experiments
from nnlslab.equations import EquationSpec
from nnlslab.experiments import (
    TwoBumpData,
    exp_conservation,
    exp_gauge_equivalence,
    exp_norm_inflation,
    exp_picard_window,
    exp_scaling_global,
    exp_support_invariance,
    largest_contracting_time,
    make_initial_data,
    third_derivative_field,
)
from nnlslab.evolve import Trajectory, picard_solve, solve, solve_batch
from nnlslab.grid import FrequencyGrid, SpectralField, forward_transform, inverse_transform
from nnlslab.spaces import dilate, esigma_norm


def test_two_bump_profile():
    prof = TwoBumpData(8, -1.0)
    assert prof.amplitude == 2.0 ** 4
    assert prof.upper_box == (8.125, 8.25)
    assert prof.lower_box == (-15.75, -15.5)
    with pytest.raises(ValueError):
        TwoBumpData(0, -1.0)
    with pytest.raises(ValueError):
        TwoBumpData(4, 0.5)
    assert TwoBumpData(8.0, -1.0).k == 8


@pytest.mark.parametrize("k", [4.5, np.nan, np.inf])
def test_two_bump_rejects_non_integral_k(grid, k):
    with pytest.raises(ValueError, match="k must be a positive integer"):
        TwoBumpData(k, -1.0)
    with pytest.raises(ValueError, match="k must be a positive integer"):
        make_initial_data("two_bump", grid, k=k, s=-1.0)


@pytest.mark.parametrize("flag", [True, np.True_])
@pytest.mark.parametrize("build", [
    lambda flag: TwoBumpData(flag, -1.0),
    lambda flag: make_initial_data("plemelj_derivative", FrequencyGrid(64, 20.0), k=flag),
    lambda flag: exp_norm_inflation(EquationSpec("NNLS"), k_list=(4, 8), n_nodes=flag),
    lambda flag: solve(make_initial_data("gaussian", FrequencyGrid(64, 20.0)), 0.1, 0.01,
                       EquationSpec("NNLS"), sample_every=flag),
    lambda flag: picard_solve(make_initial_data("gaussian", FrequencyGrid(64, 20.0)), 0.1,
                              EquationSpec("NNLS"), n_iter=flag),
], ids=["two_bump_k", "plemelj_derivative_k", "norm_inflation_n_nodes", "solve_sample_every",
        "picard_solve_n_iter"])
def test_bool_is_not_taken_as_the_integer_one(build, flag):
    # before: float(True).is_integer() held, so each ran as if given 1
    with pytest.raises(ValueError, match="must be an integer|must be a positive integer"):
        build(flag)


def test_make_initial_data_gaussian(grid):
    f = make_initial_data("gaussian", grid, amplitude=2.0, width=1.0)
    s = inverse_transform(f)
    i0 = np.argmin(np.abs(grid.points))
    assert abs(s[i0] - 2.0) <= 1e-10
    with pytest.raises(ValueError):
        make_initial_data("soliton", grid)


@pytest.mark.parametrize("kind, params, bad", [
    ("gaussian", {"widht": 3.0}, "widht"),
    ("modulated_gaussian", {"amplitude": 1.0, "carier": 3.0}, "carier"),
    ("halfline_bump", {"low": 0.5}, "low"),
    ("plemelj_derivative", {"order": 3}, "order"),
    ("two_bump", {"k": 8, "s": -1.0, "amplitude": 2.0}, "amplitude"),
])
def test_make_initial_data_rejects_unknown_parameters(grid, kind, params, bad):
    # before: an unknown key was ignored and the kind's default was used
    with pytest.raises(ValueError, match="kind '%s'.*'%s'" % (kind, bad)):
        make_initial_data(kind, grid, **params)


def test_make_initial_data_halfline(grid):
    f = make_initial_data("halfline_bump", grid, amplitude=1.0, lo=0.5, hi=2.0)
    xi = grid.frequencies
    assert np.all(f.coeffs[xi <= 0.5] == 0)
    assert np.all(f.coeffs[xi >= 2.0] == 0)
    with pytest.raises(ValueError):
        make_initial_data("halfline_bump", grid, lo=2.0, hi=1.0)


def test_plemelj_derivative_norm_oracle():
    g = FrequencyGrid(512, 40.0)
    f = make_initial_data("plemelj_derivative", g, amplitude=1.0, k=3)
    # frozen adaptive-quadrature value of the (s, sigma) = (-1, 1) norm
    oracle = 27.465727983843113
    assert abs(esigma_norm(f, -1.0, 1.0) - oracle) <= 1e-6 * oracle


def test_plemelj_derivative_order_must_be_integral():
    g = FrequencyGrid(64, 20.0)
    with pytest.raises(ValueError, match="derivative order k must be an integer"):
        make_initial_data("plemelj_derivative", g, k=2.5)
    with pytest.raises(ValueError, match="derivative order k must be an integer"):
        make_initial_data("plemelj_derivative", g, k=-1)
    as_float = make_initial_data("plemelj_derivative", g, k=3.0)
    assert np.array_equal(as_float.coeffs, make_initial_data("plemelj_derivative", g, k=3).coeffs)


def test_plemelj_derivative_overflow_guard():
    g = FrequencyGrid(512, 40.0)
    with pytest.raises(ValueError):
        make_initial_data("plemelj_derivative", g, k=500)


def test_two_bump_data_on_grid(grid):
    f = make_initial_data("two_bump", grid, k=8, s=-1.0)
    xi = grid.frequencies
    on = np.abs(f.coeffs) > 0
    assert np.all((xi[on] > 8.0) | (xi[on] < -15.0))
    assert np.max(np.abs(f.coeffs)) == 2.0 ** 4


def test_rho_kernel_lower_bound():
    # at t = kappa/k^2 the combination stays above t/2 across the boxes
    k, kappa = 8, 0.1
    t = kappa / k ** 2
    prof = TwoBumpData(k, -1.0)
    up = np.linspace(*prof.upper_box, 40)
    xi = np.linspace(0.5, 1.0, 21)
    rho = rho_kernel(t, xi[:, None, None], up[None, :, None], up[None, None, :])
    assert float(np.min(-rho.imag)) >= t / 2.0


def test_third_derivative_zero_time():
    prof = TwoBumpData(8, -1.0)
    band = np.linspace(0.5, 1.0, 65)
    vals, _ = third_derivative_field(prof, 0.0, EquationSpec("NNLS"), band, 24)
    assert np.all(np.isfinite(vals))
    with pytest.raises(ValueError):
        third_derivative_field(prof, -1.0, EquationSpec("NNLS"), band, 24)
    with pytest.raises(ValueError):
        third_derivative_field(prof, 0.1, EquationSpec("gNdNLS"), band, 24)


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_third_derivative_rejects_non_finite_time(t):
    with pytest.raises(ValueError, match="t must be finite and nonnegative"):
        third_derivative_field(TwoBumpData(8, -1.0), t, EquationSpec("NNLS"), [0.7], 24)


@pytest.mark.parametrize("n_nodes", [0, -3, 2.5, np.nan, True, np.True_])
def test_third_derivative_rejects_bad_node_count(monkeypatch, n_nodes):
    # before: 0 raised ZeroDivisionError, 2.5 TypeError, and True ran as 1
    monkeypatch.setattr(experiments, "_combo_integrals", _no_quadrature)
    with pytest.raises(ValueError, match="n_nodes must be an integer >= 1"):
        third_derivative_field(TwoBumpData(8, -1.0), 0.1 / 64, EquationSpec("NNLS"), [0.7],
                               n_nodes)


@pytest.mark.parametrize("xi", [[np.nan], [0.7, np.inf], [-np.inf, 0.7]])
def test_third_derivative_rejects_non_finite_frequencies(monkeypatch, xi):
    # before: nan read nan with rho inf, and inf warned "invalid value" in a multiply
    monkeypatch.setattr(experiments, "_combo_integrals", _no_quadrature)
    with pytest.raises(ValueError, match="xi must be finite"):
        third_derivative_field(TwoBumpData(8, -1.0), 0.1 / 64, EquationSpec("NNLS"), xi, 8)


def _no_quadrature(*args, **kwargs):
    raise AssertionError("a quadrature ran")


def _accurate_node_sums(A, B, n):
    # (e^{iz} - 1)/z = i e^{iz/2} S(z/2), S(x) = sin x / x: no cancellation near z = 0
    g, wg = experiments._gl(n)
    z = A[:, None] - B[:, None] * g
    f = 1j * np.exp(0.5j * z) * experiments._sinc(0.5 * z)
    return f * wg, f * (wg * g)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 7, 33, 64]),
    A=st.lists(st.floats(0.15, 4.0), min_size=1, max_size=8),
    signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=8, max_size=8),
    B=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
)
@example(n=7, A=[0.15, 4.0], signs=[1.0, -1.0] + 6 * [1.0], B=[1.0, -1.0] + 6 * [0.0])
@example(n=33, A=[1.0], signs=8 * [1.0], B=8 * [0.0])
def test_moment_sums_match_node_sums(n, A, signs, B):
    # the series over the rule's moments against the node-by-node sums it replaces,
    # for the 1 and the g columns
    A = np.array(A) * signs[:len(A)]
    B = np.array(B[:len(A)])
    got = experiments._moment_sums(A, B, n, True)
    want = experiments._node_sums(A, B, n, True)
    exact = _accurate_node_sums(A, B, n)
    g, wg = experiments._gl(n)
    z = np.abs(A[:, None] - B[:, None] * g)
    for got_col, want_col, terms, gc in zip(got, want, exact, (1.0, np.abs(g))):
        scale = np.sum(np.abs(terms), axis=1)
        assert np.all(np.abs(got_col - terms.sum(axis=1)) <= 1e-14 * scale)
        # the node sums round (e^{iz} - 1)/z to about 4 eps/|z| near z = 0
        near_zero = np.sum(wg * gc * 4.0 * np.finfo(float).eps / np.maximum(z, 1e-300), axis=1)
        assert np.all(np.abs(got_col - want_col) <= 1e-14 * scale + near_zero)


def test_large_phases_sum_node_by_node(monkeypatch):
    # at kappa = 2 the second combination's phases reach |A| = 7.5, where the
    # moment recurrence loses digits: that call sums node by node, the first
    # by moments, and the field still matches the panel oracle
    prof, n = TwoBumpData(4, -1.0), 12
    t = 2.0 / 16
    calls = []

    def spying(path):
        inner = getattr(experiments, path)

        def spy(A, B, *rest):
            calls.append((path, float(np.max(np.abs(A))), float(np.max(np.abs(B)))))
            return inner(A, B, *rest)
        return spy

    for path in ("_node_sums", "_moment_sums"):
        monkeypatch.setattr(experiments, path, spying(path))
    xi = np.linspace(0.5, 1.0, 9)
    for equation in ("NNLS", "NdNLS"):
        calls.clear()
        got, got_rho = third_derivative_field(prof, t, EquationSpec(equation), xi, n)
        _, want, want_rho = reference_mirrored_third_derivative_field(prof, t, equation, xi=xi,
                                                                      n_outer=n, n_inner=n)
        assert [path for path, *_ in calls] == ["_moment_sums", "_node_sums"]
        (_, a_moment, b_moment), (_, a_node, _) = calls
        assert a_node > experiments._MOMENT_MAX_A
        assert a_moment <= experiments._MOMENT_MAX_A and b_moment <= experiments._MOMENT_MAX_B
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert abs(got_rho - want_rho) <= 1e-14 * abs(want_rho)


def test_uncertified_rows_take_their_least_node():
    # rows 0 and 1 have zero slope at g = 0 (S'(0) = 0, and S' vanishes at the
    # first extremum 4.4934 of S): their least node is the middle one, which
    # the end nodes miss; row 2 is monotone and certified
    t, n = 0.5, 7
    g, _ = experiments._gl(n)
    A = np.array([0.0, 0.0, 0.3])
    A2 = np.array([4.493409457909064, 0.0, 0.2])
    B = np.array([1.0, 1e-3, 0.05])

    def values(i):
        S = experiments._sinc
        return t * (2.0 * S(A2[i] + B[i] * g) - S(A[i] - B[i] * g))

    assert np.argmin(values(0)) == n // 2 and values(0)[n // 2] < min(values(0)[[0, -1]])
    assert np.argmin(values(2)) in (0, n - 1)
    for i in range(3):
        assert experiments._min_rho(t, A[i:i + 1], A2[i:i + 1], B[i:i + 1], g) == min(values(i))
    assert experiments._min_rho(t, A, A2, B, g) == min(min(values(i)) for i in range(3))


def test_third_derivative_quadrature_converges():
    prof = TwoBumpData(8, -1.0)
    t = 0.1 / 64.0
    xi = np.array([0.7])
    coarse, _ = third_derivative_field(prof, t, EquationSpec("NNLS"), xi, 12)
    fine, _ = third_derivative_field(prof, t, EquationSpec("NNLS"), xi, 24)
    assert abs(coarse[0] - fine[0]) <= 1e-8 * abs(fine[0])


# kappa stays >= 0.07: below about 0.05 the NdNLS value cancels to leading
# order across the box combinations, and both quadratures carry roundoff
# of about eps/z^2 relative to it (at kappa = 0.01 each is 2-4e-14 away from
# an exactly rounded phase ratio, and they are 4e-14 apart)
@settings(max_examples=40, deadline=None)
@given(
    k=st.sampled_from([4, 8, 16, 32]),
    n=st.sampled_from([1, 2, 7, 12, 33, 64]),
    equation=st.sampled_from(["NNLS", "NdNLS"]),
    kappa=st.sampled_from([0.0, 0.07, 0.1]),
    band=st.lists(st.floats(0.5, 1.0), min_size=1, max_size=4),
)
def test_third_derivative_matches_panel_oracle(k, n, equation, kappa, band):
    prof = TwoBumpData(k, -1.0)
    t = kappa / k ** 2
    # the last two output frequencies lie outside every box combination's support
    xi = np.array(band + [-10.0 * k, 10.0 * k])
    got, got_rho = third_derivative_field(prof, t, EquationSpec(equation), xi, n)
    _, want, want_rho = reference_mirrored_third_derivative_field(prof, t, equation, xi=xi,
                                                                  n_outer=n, n_inner=n)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.all(got[-2:] == 0) and np.all(want[-2:] == 0)
    if np.isfinite(want_rho):
        assert abs(got_rho - want_rho) <= 1e-14 * abs(want_rho)
    else:  # t = 0, or no rho node: the first combination has no support
        assert got_rho == want_rho


# The band is the oracle's default, multiples of 1/128: the box edges computed
# from such an xi, like xi - hi3 - lo2 and xi - xi1 - hi3, keep all of its bits,
# so the two rules differ by quadrature error and arithmetic alone.  At a general
# xi those edges round off its low bits at the boxes' scale, about 2k, and the
# two rules round the mirror pair's edges differently: for k <= 32
# and n >= 7 they differ by up to 1.5e-14 (NNLS) and 6e-13 (NdNLS, kappa = 0.05)
# of max |want|.
@pytest.mark.parametrize("kappa", [0.0, 0.05, 0.07, 0.1])
@pytest.mark.parametrize("equation", ["NNLS", "NdNLS"])
def test_mirrored_pass_matches_the_three_combination_rule(equation, kappa):
    spec = EquationSpec(equation)
    for k in (2, 4, 8, 16, 32):
        prof = TwoBumpData(k, -1.0)
        t = kappa / k ** 2
        for n in (7, 12, 33):
            xi, want, want_rho = reference_third_derivative_field(prof, t, equation,
                                                                  n_outer=n, n_inner=n)
            got, got_rho = third_derivative_field(prof, t, spec, xi, n)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            if np.isfinite(want_rho):
                assert abs(got_rho - want_rho) <= 1e-14 * abs(want_rho)
            else:  # t = 0
                assert got_rho == want_rho


@settings(max_examples=30, deadline=None)
@given(
    k=st.sampled_from([4, 8, 16, 32]),
    n=st.sampled_from([1, 2, 7, 12, 33, 64]),
    equation=st.sampled_from(["NNLS", "NdNLS"]),
    kappa=st.sampled_from([0.0, 0.07, 0.1]),
    band=st.lists(st.floats(0.5, 1.0), min_size=1, max_size=48),
)
# at k = 2 an interior cut of the second and third combinations lands 4.4e-16
# from a panel end for xi = 1/2 + 3e-16 and 1/2 + 4e-16: that thin panel is dropped
@example(k=2, n=12, equation="NNLS", kappa=0.1, band=[0.5 + 3e-16, 0.5 + 4e-16, 0.75])
# -80 and 80 lie outside every combination's support
@example(k=8, n=7, equation="NdNLS", kappa=0.1, band=[0.7, -80.0, 0.9, 80.0])
@example(k=4, n=1, equation="NdNLS", kappa=0.07, band=[0.6, 0.8])
@example(k=4, n=12, equation="NdNLS", kappa=0.07, band=[0.6, 0.8])
# more output frequencies than one block holds at n = 64
@example(k=16, n=64, equation="NNLS", kappa=0.1, band=list(np.linspace(0.5, 1.0, 48)))
def test_third_derivative_band_matches_one_xi_at_a_time(k, n, equation, kappa, band):
    prof = TwoBumpData(k, -1.0)
    t = kappa / k ** 2
    spec = EquationSpec(equation)
    got, got_rho = third_derivative_field(prof, t, spec, band, n)
    alone = [third_derivative_field(prof, t, spec, [x], n) for x in band]
    want = np.array([vals[0] for vals, _ in alone])
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    assert got_rho == min(rho for _, rho in alone)


def test_coarse_pass_skips_rho(monkeypatch):
    # the report reads the rho bound of the fine pass (2 * n_nodes) only
    prof, t = TwoBumpData(8, -1.0), 0.1 / 64.0
    spec, band = EquationSpec("NNLS"), np.linspace(0.5, 1.0, 65)
    tracked, min_rho = third_derivative_field(prof, t, spec, band, 8)
    untracked, skipped = third_derivative_field(prof, t, spec, band, 8, track_rho=False)
    assert np.isfinite(min_rho) and skipped == np.inf
    assert np.array_equal(tracked, untracked)
    widths = []
    min_rho = experiments._min_rho

    def counting(t, A, A2, B, g):
        widths.append(g.size)
        return min_rho(t, A, A2, B, g)

    monkeypatch.setattr(experiments, "_min_rho", counting)
    rep = exp_norm_inflation(EquationSpec("NNLS"), k_list=(4, 8), n_nodes=8)
    assert rep.measurements["rho_bound_ok"]
    # one call per block of the fine pass's rho-tracking combination, none coarse
    assert widths and set(widths) == {16}


def test_band_makes_two_combination_passes_per_block(monkeypatch):
    # (up, up, dn), which alone tracks rho, then (dn, up, up) with its mirror;
    # 65 frequencies at n = 64 are two blocks of at most 8192 // 192 = 42
    prof, t = TwoBumpData(8, -1.0), 0.1 / 64.0
    up, dn = prof.upper_box, prof.lower_box
    calls = []
    combo = experiments._combo_integrals

    def counting(xi, t, b1, b2, b3, n, with_xi2_factor, rho_track, mirrored):
        calls.append((xi.size, (b1, b2, b3), rho_track, mirrored))
        return combo(xi, t, b1, b2, b3, n, with_xi2_factor, rho_track, mirrored)

    monkeypatch.setattr(experiments, "_combo_integrals", counting)
    band = np.linspace(0.5, 1.0, 65)
    for kind in ("NNLS", "NdNLS"):
        calls.clear()
        _, min_rho = third_derivative_field(prof, t, EquationSpec(kind), band, 64)
        assert np.isfinite(min_rho)
        assert [size for size, *_ in calls] == [42, 42, 23, 23]
        assert [rest for _, *rest in calls] == 2 * [[(up, up, dn), True, False],
                                                    [(dn, up, up), False, True]]


def test_conservation_experiment(grid):
    spec = EquationSpec("NNLS", alpha=1.0)
    u0 = make_initial_data("gaussian", grid)
    rep = exp_conservation(spec, u0, 0.2, 2e-3, sample_every=20)
    assert rep.passed
    assert rep.claim_id == "mass-energy-conservation"
    assert rep.measurements["mass_drift"] <= 1e-6
    assert rep.trajectory is not None
    with pytest.raises(ValueError):
        exp_conservation(EquationSpec("GaugedNdNLS"), u0, 0.1, 1e-3)


def test_conservation_failure_path(grid):
    spec = EquationSpec("NNLS", alpha=1.0)
    u0 = make_initial_data("gaussian", grid)
    rep = exp_conservation(spec, u0, 0.2, 2e-3, tolerance=0.0)
    assert not rep.passed


def test_gauge_equivalence_small(grid):
    u0 = make_initial_data("modulated_gaussian", grid, amplitude=0.3, width=1.0, carrier=3.0)
    rep = exp_gauge_equivalence(EquationSpec("NdNLS", alpha=1.0), u0, 0.1, 2e-3)
    assert rep.passed
    assert rep.measurements["max_relative_residual"] <= 1e-4


@pytest.mark.parametrize("times, first", [((0.3, 0.2), 0.2), ((0.1, None), 0.1)])
def test_gauge_equivalence_reports_the_earlier_blowup(grid, monkeypatch, times, first):
    # u's solve, then v's; the earlier blow-up of the two is reported
    blowups = iter(times)

    def blowing_up(u0, T, dt, spec, sample_every=1):
        t = next(blowups)
        return Trajectory([0.0], [u0], blowup_time=t)

    monkeypatch.setattr(experiments, "solve", blowing_up)
    u0 = make_initial_data("modulated_gaussian", grid, amplitude=0.3, width=1.0, carrier=3.0)
    rep = exp_gauge_equivalence(EquationSpec("NdNLS", alpha=1.0), u0, 0.5, 1e-3)
    assert rep.measurements == {"max_relative_residual": np.inf, "blown_up": True,
                                "blowup_time": first}
    assert not rep.passed


def test_every_experiment_takes_its_equation_first():
    # before: gauge_equivalence took (alpha, beta, u0, ...), support_invariance
    # (spec, eps0, u0, ...), scaling_global (u0, s, sigma, eps0, lambdas, spec=None,
    # T_max=0.5, dt=2e-3, ...), picard_window (u0_family, spec, ...) and
    # norm_inflation (..., spec=None, ...)
    for fn, n in [(exp_conservation, 4), (exp_gauge_equivalence, 4), (exp_support_invariance, 4),
                  (exp_scaling_global, 4), (exp_picard_window, 1), (exp_norm_inflation, 1)]:
        head = list(inspect.signature(fn).parameters.values())[:n]
        assert [p.name for p in head] == ["spec", "u0", "T", "dt"][:n]
        assert all(p.default is p.empty for p in head)


@pytest.mark.parametrize("kind", ["NNLS", "GaugedNdNLS", "GaugedGNdNLS"])
def test_gauge_equivalence_refuses_other_kinds(grid, monkeypatch, kind):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(experiments, "solve", no_solve)
    u0 = make_initial_data("modulated_gaussian", grid, amplitude=0.3, width=1.0, carrier=3.0)
    with pytest.raises(ValueError, match="runs the NdNLS or gNdNLS pair, not equation.kind %r"
                       % kind):
        exp_gauge_equivalence(EquationSpec(kind), u0, 0.1, 2e-3)


def test_cached_gauss_rules_are_read_only():
    # every caller of the cache shares the same nodes and weights
    assert not any(a.flags.writeable for a in experiments._gl(16))


def test_support_invariance_precondition(grid, gaussian):
    spec = EquationSpec("NdNLS", alpha=1.0)
    with pytest.raises(ValueError):
        exp_support_invariance(spec, gaussian, 0.1, 1e-3, 1.0)


def test_support_invariance_refuses_a_nan_eps0_before_any_solve(grid, monkeypatch):
    # before: the leakage below nan read 0.0, and the check passed
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(experiments, "solve", no_solve)
    u0 = make_initial_data("halfline_bump", grid, amplitude=0.5, lo=1.5, hi=3.0)
    with pytest.raises(ValueError, match="eps0 must be finite and nonnegative, got nan"):
        exp_support_invariance(EquationSpec("NNLS"), u0, 0.05, 1e-3, eps0=np.nan)


def test_support_invariance_runs(grid):
    spec = EquationSpec("NdNLS", alpha=1.0)
    u0 = make_initial_data("halfline_bump", grid, amplitude=0.5, lo=1.5, hi=3.0)
    rep = exp_support_invariance(spec, u0, 0.2, 2e-3, 1.0)
    assert rep.passed
    assert rep.measurements["max_leakage"] <= 1e-10


def test_scaling_skips_overflowing_lambda(grid):
    u0 = make_initial_data("modulated_gaussian", grid, amplitude=1.0, width=2.0, carrier=4.5)
    rep = exp_scaling_global(EquationSpec("NNLS"), u0, 0.05, 2e-3, -1.0, 0.5, 1.0, [1, 2, 32])
    assert 32 in rep.measurements["skipped"]
    assert 2 not in rep.measurements["skipped"]


@pytest.mark.parametrize("s, sigma, eps0, lambdas, message", [
    (5.0, 0.5, 1.0, [1, 2], "s must be <= 0, got 5.0"),
    (-1.0, np.nan, 1.0, [1, 2], "sigma must be finite, got nan"),
    (-1.0, 0.5, np.inf, [1, 2], "eps0 must be finite, got inf"),
    (-1.0, 0.5, 1.0, [1, -2], "dilation factors must be positive and finite, got -2"),
])
def test_scaling_refuses_bad_values_before_any_solve(grid, monkeypatch, s, sigma, eps0,
                                                      lambdas, message):
    # only a dilation that leaves the band is skipped
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(experiments, "solve", no_solve)
    monkeypatch.setattr(experiments, "solve_batch", no_solve)
    u0 = make_initial_data("modulated_gaussian", grid, amplitude=1.0, width=2.0, carrier=4.5)
    with pytest.raises(ValueError, match=message):
        exp_scaling_global(EquationSpec("NNLS"), u0, 0.5, 2e-3, s, sigma, eps0, lambdas)


def test_scaling_bound_modulated_bump():
    # spectrum sitting just above eps0 saturates the bound within a small factor
    g = FrequencyGrid(1024, 80.0)
    x = g.points
    s = np.exp(-x * x / 32.0) * np.exp(4.0j * x)  # tight bump centered at xi = 4
    f = forward_transform(s, g)
    rep = exp_scaling_global(EquationSpec("NNLS"), f, 0.01, 2e-3, -1.0, 0.5, 1.0, [2.0, 4.0])
    ratios = rep.measurements["ratios"]
    assert sorted(ratios) == [2.0, 4.0]
    assert all(0.0 < r <= 10.0 for r in ratios.values())


@pytest.mark.parametrize("zero, message", [
    (False, "spectrum not supported in \\[eps0, inf\\): leakage"),
    (True, "scaling check requires a nonzero field"),
], ids=["low_support", "zero_field"])
def test_scaling_refuses_low_support_and_a_zero_field_before_any_solve(grid, gaussian, monkeypatch,
                                                                       zero, message):
    # the Gaussian is centred at xi = 0, so most of its mass lies below eps0
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(experiments, "solve_batch", no_solve)
    u0 = SpectralField(grid, np.zeros(grid.n_modes)) if zero else gaussian
    with pytest.raises(ValueError, match=message):
        exp_scaling_global(EquationSpec("NNLS"), u0, 0.05, 2e-3, -1.0, 0.0, 1.0, [1, 2])


def criterion_5_data():
    g = FrequencyGrid(1024, 40.0)
    return make_initial_data("modulated_gaussian", g, amplitude=1.0, width=2.0, carrier=4.5)


def test_scaling_dilates_each_factor_once(monkeypatch):
    # before: 7 dilations for the ratios, the solves and the L2 identity check
    calls = []

    def counting(fld, lam):
        calls.append(lam)
        return dilate(fld, lam)

    monkeypatch.setattr(experiments, "dilate", counting)
    rep = exp_scaling_global(EquationSpec("NNLS"), criterion_5_data(), 0.02, 2e-3, -1.0, 0.5, 1.0,
                             [1, 2, 4, 8])
    assert sorted(calls) == [2, 4, 8]
    assert sorted(rep.measurements["ratios"]) == [2, 4, 8]


def test_scaling_solves_each_horizon_as_one_batch(grid, monkeypatch):
    batches = []

    def recording(fields, T, *args, **kwargs):
        batches.append((len(fields), T))
        return solve_batch(fields, T, *args, **kwargs)

    monkeypatch.setattr(experiments, "solve_batch", recording)
    u0 = make_initial_data("modulated_gaussian", grid, amplitude=1.0, width=2.0, carrier=4.5)
    # horizon min(T, 2^sqrt(lam)): 1.63 for lam = 0.5 and 1.8 for lam = 1
    # and 2, the 2 listed twice and solved once
    rep = exp_scaling_global(EquationSpec("NNLS"), u0, 1.8, 0.05, -1.0, 0.5, 1.0, [0.5, 1, 2, 2.0])
    assert batches == [(1, 2.0 ** np.sqrt(0.5)), (2, 1.8)]
    assert rep.measurements["skipped"] == ()
    # before: the decay check compared lam = 2 with itself and failed
    assert list(rep.measurements["sup_norms"]) == [0.5, 1, 2]
    assert rep.measurements["monotone_decay"] and rep.passed


def test_largest_contracting_time_monotone_in_amplitude(grid):
    spec = EquationSpec("NNLS", alpha=1.0)
    small = make_initial_data("modulated_gaussian", grid, amplitude=4.0, width=1.0, carrier=3.0)
    big = make_initial_data("modulated_gaussian", grid, amplitude=40.0, width=1.0, carrier=3.0)
    t_small = largest_contracting_time(small, spec)
    t_big = largest_contracting_time(big, spec)
    assert t_small is not None and t_big is not None
    assert t_big < t_small


def test_picard_window_refuses_an_overflowing_weight_before_any_search(grid, monkeypatch):
    # before: the bisections ran, and the overflowing norms then failed in np.polyfit
    def no_search(*args, **kwargs):
        raise AssertionError("a search ran")

    monkeypatch.setattr(experiments, "largest_contracting_time", no_search)
    make_u0 = functools.partial(make_initial_data, "gaussian", grid)
    with pytest.raises(ValueError, match="sigma = 400.0"):
        exp_picard_window(EquationSpec("NNLS"), make_u0, sigma=400.0)


def test_picard_window_needs_enough_points(grid):
    spec = EquationSpec("NNLS", alpha=1.0)
    make_u0 = functools.partial(make_initial_data, "gaussian", grid)
    rep = exp_picard_window(spec, make_u0, amplitudes=(0.5, 1.0))
    assert not rep.passed  # fewer than three usable points


def test_norm_inflation_small_case():
    rep = exp_norm_inflation(EquationSpec("NNLS"), k_list=(4, 8), n_nodes=8)
    assert rep.measurements["monotone"]
    assert rep.measurements["rho_bound_ok"]
    assert rep.measurements["norms"][1] > rep.measurements["norms"][0]
    with pytest.raises(ValueError):
        exp_norm_inflation(EquationSpec("NNLS"), s=0.5)
    with pytest.raises(ValueError):
        exp_norm_inflation(EquationSpec("NNLS"), kappa=0.5)


def test_two_bump_refuses_an_overflowing_amplitude():
    # before: the amplitude property raised OverflowError on first use
    assert TwoBumpData(2046, -1.0).amplitude == 2.0 ** 1023
    with pytest.raises(ValueError, match="k = 2048: the amplitude"):
        TwoBumpData(2048, -1.0)
    with pytest.raises(ValueError, match="k = 1: the amplitude"):
        TwoBumpData(1, -np.inf)


@pytest.mark.parametrize("k_list, message", [
    ((8, 16, 5000), "k = 5000: the amplitude"),
    ((8, 16, 700), "k = 700: the cubed amplitude"),
])
def test_norm_inflation_refuses_an_overflowing_amplitude_before_any_quadrature(monkeypatch, k_list,
                                                                               message):
    # before: an OverflowError traceback, for k = 700 from inside the quadrature
    def no_quadrature(*args, **kwargs):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(experiments, "third_derivative_field", no_quadrature)
    with pytest.raises(ValueError, match=message):
        exp_norm_inflation(EquationSpec("NNLS"), k_list=k_list)


@pytest.mark.parametrize("sprime, sigmaprime, message", [
    (np.nan, 0.0, "sprime must be finite, got nan"),
    (-np.inf, 0.0, "sprime must be finite, got -inf"),
    (-1.0, np.inf, "sigmaprime must be finite, got inf"),
    (-1.0, np.nan, "sigmaprime must be finite, got nan"),
])
def test_norm_inflation_refuses_a_non_finite_weight_before_any_quadrature(monkeypatch, sprime,
                                                                          sigmaprime, message):
    # before: sprime = nan read nan norms and failed, and sigmaprime = inf or
    # sprime = -inf leaked RuntimeWarnings from the weights and the log2
    def no_quadrature(*args, **kwargs):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(experiments, "third_derivative_field", no_quadrature)
    with pytest.raises(ValueError, match=message):
        exp_norm_inflation(EquationSpec("NNLS"), k_list=(4, 8), sprime=sprime,
                           sigmaprime=sigmaprime, n_nodes=8)


@pytest.mark.parametrize("weight, message", [
    ({"sprime": 1e4}, "overflows at s = 10000.0, sigma = 0.0"),
    ({"sigmaprime": 1e4}, "overflows at s = -1.0, sigma = 10000.0"),
    ({"sprime": -1e4}, "underflows everywhere at s = -10000.0, sigma = 0.0"),
])
def test_norm_inflation_refuses_an_extreme_weight_before_any_quadrature(monkeypatch, weight,
                                                                       message):
    # before: the band weight raised "overflow encountered in power" (1e4), and
    # np.log2 "divide by zero" once every weighted value underflowed (-1e4)
    calls = []
    monkeypatch.setattr(experiments, "third_derivative_field", lambda *a, **k: calls.append(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            exp_norm_inflation(EquationSpec("NNLS"), k_list=(4, 8), n_nodes=8, **weight)
    assert calls == []


def test_norm_inflation_weight_that_underflows_at_some_nodes_keeps_finite_norms():
    # before: 4^(-1500 |xi|) underflowed at every band node, the norms read 0
    # and np.log2 warned; 2^(-1500 |xi|) is normal near xi = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = exp_norm_inflation(EquationSpec("NNLS"), k_list=(4, 8), n_nodes=8,
                                    sprime=-1500.0)
    norms = report.measurements["norms"]
    assert all(np.isfinite(v) and v > 0 for v in norms)


@pytest.mark.parametrize("kind", ["NNLS", "NdNLS"])
@pytest.mark.parametrize("n_nodes", [16, 32])
@pytest.mark.parametrize("sprime, sigmaprime", [(-1.0, 0.0), (-0.5, 0.25), (1.0, 2.0)])
def test_band_norm_matches_the_squared_weight_oracle(monkeypatch, kind, n_nodes, sprime,
                                                     sigmaprime):
    # the band values are recorded as _band_norm computes them, so the oracle
    # checks the weight and the sum alone
    fields = []

    def recorded(*args):
        fields.append(third_derivative_field(*args))
        return fields[-1]

    monkeypatch.setattr(experiments, "third_derivative_field", recorded)
    spec = EquationSpec(kind)
    xi, w = experiments._band_nodes(n_nodes)
    for k in (4, 8, 16, 32):
        got, _ = experiments._band_norm(TwoBumpData(k, -1.0), 0.1 / k ** 2, spec, sprime,
                                        sigmaprime, n_nodes, False)
        want = reference_band_norm(xi, w, fields[-1][0], sprime, sigmaprime)
        assert abs(got - want) <= 1e-15 * want


def test_norm_inflation_rejects_non_integral_k():
    # before: k = 4.5 ran the k = 4 data at t = kappa/4.5^2 and passed
    with pytest.raises(ValueError, match="k must be a positive integer"):
        exp_norm_inflation(EquationSpec("NNLS"), k_list=(4.5, 8), n_nodes=8)


@pytest.mark.parametrize("k_list", [(8,), (), (16, 8), (8, 8, 16)])
def test_norm_inflation_needs_increasing_k_list(k_list):
    with pytest.raises(ValueError, match="at least two strictly increasing"):
        exp_norm_inflation(EquationSpec("NNLS"), k_list=k_list, n_nodes=8)


@pytest.mark.parametrize("kappa", [0.0, -0.05, np.nan, 0.1000001])
def test_norm_inflation_rejects_kappa_outside_range(kappa):
    with pytest.raises(ValueError, match=r"kappa must be in \(0, 0.1\]"):
        exp_norm_inflation(EquationSpec("NNLS"), k_list=(4, 8), kappa=kappa, n_nodes=8)


@pytest.mark.parametrize("n_nodes", [0, -2, 2.5, np.nan])
def test_norm_inflation_rejects_bad_node_count(n_nodes):
    with pytest.raises(ValueError, match="n_nodes must be an integer >= 1"):
        exp_norm_inflation(EquationSpec("NNLS"), k_list=(4, 8), n_nodes=n_nodes)


def test_norm_inflation_derivative_grows_faster():
    a = exp_norm_inflation(EquationSpec("NNLS"), k_list=(4, 8), n_nodes=8)
    b = exp_norm_inflation(EquationSpec("NdNLS"), k_list=(4, 8), n_nodes=8)
    assert b.measurements["slope"] > a.measurements["slope"]


def test_experiments_deterministic(grid):
    u0 = make_initial_data("gaussian", grid)
    spec = EquationSpec("NNLS", alpha=1.0)
    r1 = exp_conservation(spec, u0, 0.1, 2e-3)
    r2 = exp_conservation(spec, u0, 0.1, 2e-3)
    assert r1.measurements["mass_drift"] == r2.measurements["mass_drift"]
