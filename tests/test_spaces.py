"""Tests for the weighted-norm calculus and dilation machinery."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import nnlslab.spaces as spaces
from conftest import random_field
from nnlslab.grid import FrequencyGrid, SpectralField, forward_transform, l2_norm, zero_field
from nnlslab.spaces import (
    DyadicCutoff,
    besov_norm,
    dilate,
    embedding_check,
    esigma_norm,
    hsigma_norm,
    littlewood_paley_blocks,
    scaling_bound_check,
)
from reference import reference_dilate


def gaussian_hat(grid):
    # coefficients laid down directly: uhat(xi) = sqrt(2 pi) exp(-xi^2/2)
    xi = grid.frequencies
    return SpectralField(grid, np.sqrt(2 * np.pi) * np.exp(-xi * xi / 2.0) + 0j)


def test_esigma_zero_field(grid):
    z = SpectralField(grid, np.zeros(grid.n_modes, complex))
    assert esigma_norm(z, -1.0, 0.5) == 0.0


def test_hsigma_plancherel(grid, gaussian):
    # sigma = 0 weight is flat, so the norm reduces to sqrt(sum |c|^2 dxi)
    assert abs(hsigma_norm(gaussian, 0.0) - np.sqrt(2 * np.pi) * l2_norm(gaussian)) <= 1e-12
    assert hsigma_norm(gaussian, 0.0) == esigma_norm(gaussian, 0.0, 0.0)


def test_hsigma_gaussian_oracle():
    g = FrequencyGrid(2048, 200.0)
    f = gaussian_hat(g)
    # int 2 pi e^{-xi^2} dxi = 2 pi^{3/2}
    oracle = np.sqrt(2.0) * np.pi ** 0.75
    assert abs(hsigma_norm(f, 0.0) - oracle) <= 1e-10 * oracle


def test_hsigma_weighted_oracle():
    g = FrequencyGrid(2048, 200.0)
    f = gaussian_hat(g)
    # frozen adaptive-quadrature value of the sigma = 2 weighted integral
    oracle = 5.5340585452788975
    assert abs(hsigma_norm(f, 2.0) - oracle) <= 1e-8 * oracle


def test_esigma_negative_weight_oracle():
    # the |xi| kink in the weight costs O(dxi^2); a very fine band pins it down
    g = FrequencyGrid(262144, 80000.0)
    f = gaussian_hat(g)
    oracle = 2.7026044431988776
    assert abs(esigma_norm(f, -1.0, 1.0) - oracle) <= 1e-8 * oracle


def test_esigma_monotone_in_s(grid, gaussian):
    # heavier exponential damping can only shrink the norm
    a = esigma_norm(gaussian, -0.5, 1.0)
    b = esigma_norm(gaussian, -1.5, 1.0)
    assert b < a


def test_esigma_overflow_guard():
    g = FrequencyGrid(256, 4.0)  # xi_max ~ 100
    f = gaussian_hat(g)
    with pytest.raises(ValueError):
        esigma_norm(f, 12.0, 0.0)


def test_cutoff_partition_of_unity():
    cut = DyadicCutoff()
    xi = np.linspace(-30.0, 30.0, 4001)
    total = cut.psi(xi)
    for j in range(1, 7):
        total = total + cut.phi(j, xi)
    # telescoping sum equals psi(2^-6 xi) = 1 on the sampled band
    assert np.max(np.abs(total - 1.0)) <= 1e-14


def test_cutoff_shell_support():
    cut = DyadicCutoff()
    xi = np.linspace(-100.0, 100.0, 8001)
    vals = cut.phi(3, xi)
    inside = (np.abs(xi) >= 4.0) & (np.abs(xi) <= 16.0)
    assert np.max(np.abs(vals[~inside])) == 0.0
    with pytest.raises(ValueError):
        cut.phi(0, xi)


def test_lp_blocks_reconstruct(grid):
    f = random_field(grid, 2, decay=1.5)
    blocks = littlewood_paley_blocks(f)
    total = np.sum([b.coeffs for b in blocks], axis=0)
    assert np.max(np.abs(total - f.coeffs)) <= 1e-12 * np.max(np.abs(f.coeffs))


def test_lp_blocks_disjoint_shells(grid):
    f = random_field(grid, 2, decay=1.5)
    blocks = littlewood_paley_blocks(f)
    # shells two apart never overlap
    a, b = np.abs(blocks[1].coeffs), np.abs(blocks[3].coeffs)
    assert np.max(a * b) == 0.0


def test_besov_matches_sobolev():
    # B^0_{2,2} is equivalent to H^0; the cos^2 overlap keeps the ratio tame
    g = FrequencyGrid(256, 40.0)
    for seed in range(5):
        f = random_field(g, seed, decay=1.0)
        ratio = besov_norm(f, 0.0, 2, 2) / (hsigma_norm(f, 0.0) / np.sqrt(2 * np.pi))
        assert 0.25 <= ratio <= 4.0


def test_besov_validation(grid, gaussian):
    with pytest.raises(ValueError):
        besov_norm(gaussian, 0.0, 0.5, 2)


def test_besov_linf_index(grid, gaussian):
    # q = inf takes the largest block term, so it never exceeds q = 1
    assert besov_norm(gaussian, 0.0, 2, np.inf) <= besov_norm(gaussian, 0.0, 2, 1) + 1e-12


def test_dilate_identity(grid, gaussian):
    same = dilate(gaussian, 1.0)
    assert np.array_equal(same.coeffs, gaussian.coeffs)


def test_dilate_single_mode(grid):
    c = np.zeros(grid.n_modes, complex)
    m0 = grid.n_modes // 2 + 10
    c[m0] = 3.0
    out = dilate(SpectralField(grid, c), 2.0)
    assert abs(out.coeffs[grid.n_modes // 2 + 20] - 1.5) <= 1e-14
    assert np.count_nonzero(out.coeffs) == 1


def test_dilate_gaussian_oracle():
    g = FrequencyGrid(1024, 80.0)  # wide band so lam * support stays on the grid
    f = gaussian_hat(g)
    lam = 3.0
    out = dilate(f, lam)
    xi = g.frequencies
    exact = np.sqrt(2 * np.pi) * np.exp(-((xi / lam) ** 2) / 2.0) / lam
    assert np.max(np.abs(out.coeffs - exact)) <= 1e-8


@pytest.mark.parametrize("lam", [1.5, 2.0, 3.7, 8.0])
def test_dilate_gaussian_matches_analytic_dilation(lam):
    # u(lam x) with u = e^{-x^2/2} has the transform sqrt(2 pi) e^{-(xi/lam)^2/2} / lam
    g = FrequencyGrid(1024, 40.0)
    x = g.points
    out = dilate(forward_transform(np.exp(-x * x / 2.0).astype(complex), g), lam)
    exact = np.sqrt(2 * np.pi) * np.exp(-((g.frequencies / lam) ** 2) / 2.0) / lam
    assert np.max(np.abs(out.coeffs - exact)) <= 1e-14 * np.max(np.abs(exact))


def test_dilate_roundtrip(grid):
    x = grid.points
    f = forward_transform(np.exp(-x * x / 2.0) * np.exp(1j * x), grid)
    back = dilate(dilate(f, 2.0), 0.5)
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-10 * np.max(np.abs(f.coeffs))


def test_dilate_l2_identity(grid):
    # lam^{1/2} || u(lam x) ||_2 = || u ||_2
    x = grid.points
    f = forward_transform(np.exp(-x * x / 2.0).astype(complex), grid)
    lam = 2.0
    ratio = np.sqrt(lam) * l2_norm(dilate(f, lam)) / l2_norm(f)
    assert abs(ratio - 1.0) <= 1e-10


def test_dilate_band_guard(grid):
    c = np.zeros(grid.n_modes, complex)
    c[-1] = 1.0  # top of the band
    with pytest.raises(ValueError):
        dilate(SpectralField(grid, c), 4.0)
    with pytest.raises(ValueError):
        dilate(SpectralField(grid, c), -1.0)


@pytest.mark.parametrize("lam", [np.inf, -np.inf, np.nan, 0.0])
def test_dilate_rejects_non_finite_or_non_positive_factor(grid, lam):
    # a zero field passes the band guard, so the factor itself must be refused
    with pytest.raises(ValueError, match="positive and finite"):
        dilate(zero_field(grid), lam)


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([8, 10, 62, 256, 1024, 4096]),
    lam=st.sampled_from([1 / 3, 0.5, 1.5, 2.0, 3.7, 8.0, np.pi]) | st.floats(0.25, 8.0),
    spread=st.floats(0.03, 0.09),
    carrier=st.sampled_from([0.0]) | st.floats(-0.25, 0.25),
)
@example(n=4096, lam=np.pi, spread=0.05, carrier=0.2)
@example(n=8, lam=1 / 3, spread=0.05, carrier=0.0)
def test_dilate_matches_dense_reference(n, lam, spread, carrier):
    # a Gaussian spectrum centred at carrier * reach inside the band that the
    # dilation leaves; its width keeps the samples decayed across the period,
    # where the dense oracle's float phases xi*x stay accurate
    g = FrequencyGrid(n, 40.0)
    reach = g.xi_max / max(lam, 1.0)
    width = max(4.0 / g.length, spread * reach)
    f = SpectralField(g, np.exp(-(((g.frequencies - carrier * reach) / width) ** 2) / 2.0) + 0j)
    try:
        want = reference_dilate(f, lam).coeffs
    except ValueError:
        reject()  # band guard: the dilated spectrum leaves the grid
    got = dilate(f, lam).coeffs
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.all(got[np.abs(g.frequencies / lam) > g.xi_max] == 0.0)


def test_dilate_is_one_inverse_transform_and_three_ffts(monkeypatch, fft_log):
    # the chirp-z path is O(n log n): no (n, n) or (256, n) phase matrix
    g = FrequencyGrid(4096, 40.0)
    x = g.points
    f = forward_transform(np.exp(-x * x / 2.0).astype(complex), g)
    inverse = []

    def counting(fn, log, name):
        def counted(*args, **kwargs):
            log.append(name)
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(spaces, "inverse_transform",
                        counting(spaces.inverse_transform, inverse, "inverse"))
    fft_log.clear()  # the forward transform above
    tracemalloc.start()
    try:
        dilate(f, np.pi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inverse == ["inverse"]
    assert sorted(name for name, _ in fft_log) == ["fft", "fft", "ifft", "ifft"]
    assert peak < 64 * g.n_modes * 16  # well under a (64, n) complex block


def test_scaling_bound_modulated_bump():
    # spectrum sitting just above eps0 saturates the bound within a small factor
    g = FrequencyGrid(1024, 80.0)
    x = g.points
    s = np.exp(-x * x / 32.0) * np.exp(4.0j * x)  # tight bump centered at xi = 4
    f = forward_transform(s, g)
    for lam in (2.0, 4.0):
        ratio = scaling_bound_check(f, -1.0, 0.5, lam, 1.0)
        assert 0.0 < ratio <= 10.0


def test_scaling_bound_rejects_low_support(grid, gaussian):
    with pytest.raises(ValueError):
        scaling_bound_check(gaussian, -1.0, 0.0, 2.0, 1.0)


def test_scaling_bound_validation(grid, gaussian):
    with pytest.raises(ValueError):
        scaling_bound_check(gaussian, -1.0, 0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        scaling_bound_check(gaussian, 0.5, 0.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="nonzero field"):
        scaling_bound_check(zero_field(grid), -1.0, 0.0, 2.0, 1.0)


def test_embedding_single_mode(grid):
    c = np.zeros(grid.n_modes, complex)
    m0 = grid.n_modes // 2
    xi0 = 10.0
    idx = m0 + int(round(xi0 / grid.dxi))
    c[idx] = 1.0
    xi_exact = grid.frequencies[idx]
    ratio = embedding_check(SpectralField(grid, c), 0.0, -1.0, 0.0)
    assert abs(ratio - 2.0 ** (-abs(xi_exact))) <= 1e-12


def test_embedding_validation(grid, gaussian):
    with pytest.raises(ValueError):
        embedding_check(gaussian, 0.0, 0.5, 0.0)
    z = SpectralField(grid, np.zeros(grid.n_modes, complex))
    with pytest.raises(ValueError):
        embedding_check(z, 0.0, -1.0, 0.0)
