"""Tests for the spectral discretization layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_field
from reference import reference_product
from nnlslab.grid import (
    Band,
    EndpointDecayWarning,
    FrequencyGrid,
    GridMismatchError,
    SpectralField,
    antiderivative_symmetric,
    apply_multiplier,
    dealiased_product,
    derivative,
    forward_transform,
    inverse_transform,
    l2_distance,
    l2_norm,
    nonlocal_conjugate,
    project_band,
    spectral_mass,
    zero_field,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        FrequencyGrid(7, 10.0)
    with pytest.raises(ValueError):
        FrequencyGrid(6, 10.0)
    with pytest.raises(ValueError):
        FrequencyGrid(64, -1.0)
    g = FrequencyGrid(64, 10.0)
    assert abs(g.dxi * g.dx * g.n_modes - 2 * np.pi) < 1e-14


def test_field_validation(grid):
    with pytest.raises(ValueError):
        SpectralField(grid, np.zeros(10, complex))
    bad = np.zeros(grid.n_modes, complex)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        SpectralField(grid, bad)


def test_forward_zero(grid):
    f = forward_transform(np.zeros(grid.n_modes, complex), grid)
    assert np.all(f.coeffs == 0)


def test_forward_single_mode():
    g = FrequencyGrid(64, 2 * np.pi)
    x = g.points
    f = forward_transform(np.exp(1j * x), g)
    m = np.argmax(np.abs(f.coeffs))
    assert abs(g.frequencies[m] - 1.0) < 1e-14
    assert abs(f.coeffs[m] - 2 * np.pi) < 1e-12
    others = np.abs(np.delete(f.coeffs, m))
    assert others.max() < 1e-11


def test_forward_gaussian_oracle():
    g = FrequencyGrid(1024, 80.0)
    x = g.points
    f = forward_transform(np.exp(-x * x / 2.0).astype(complex), g)
    exact = np.sqrt(2 * np.pi) * np.exp(-g.frequencies ** 2 / 2.0)
    assert np.max(np.abs(f.coeffs - exact)) <= 1e-10


def test_roundtrip(grid):
    rng = np.random.default_rng(7)
    s = rng.standard_normal(grid.n_modes) + 1j * rng.standard_normal(grid.n_modes)
    back = inverse_transform(forward_transform(s, grid))
    assert np.max(np.abs(back - s)) / np.max(np.abs(s)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_roundtrip_property(seed):
    g = FrequencyGrid(64, 17.0)
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    back = inverse_transform(forward_transform(s, g))
    assert np.max(np.abs(back - s)) <= 1e-12 * max(1.0, np.max(np.abs(s)))


def test_single_mode_inverse(grid):
    c = np.zeros(grid.n_modes, complex)
    c[grid.n_modes // 2 + 3] = 2.0
    xi = grid.frequencies[grid.n_modes // 2 + 3]
    s = inverse_transform(SpectralField(grid, c))
    expect = 2.0 / grid.length * np.exp(1j * xi * grid.points)
    assert np.max(np.abs(s - expect)) < 1e-14


def test_apply_multiplier(grid, gaussian):
    same = apply_multiplier(gaussian, lambda xi: np.ones_like(xi))
    assert np.array_equal(same.coeffs, gaussian.coeffs)
    g2 = FrequencyGrid(64, 2 * np.pi * 10)  # xi = 2 lies on this lattice
    c = np.zeros(64, complex)
    m = 32 + 20
    c[m] = 1.0
    assert abs(g2.frequencies[m] - 2.0) < 1e-12
    halved = apply_multiplier(SpectralField(g2, c), lambda xi: 2.0 ** (-np.abs(xi)))
    assert abs(halved.coeffs[m] - 0.25) < 1e-14
    with pytest.raises(ValueError):
        apply_multiplier(gaussian, lambda xi: 1.0 / xi)


def test_project_band(grid, gaussian):
    assert np.array_equal(project_band(gaussian, Band(-np.inf, np.inf)).coeffs, gaussian.coeffs)
    low = project_band(gaussian, Band(-np.inf, 1.0))
    high = project_band(low, Band(1.0, np.inf))
    assert np.all(high.coeffs == 0)
    twice = project_band(low, Band(-np.inf, 1.0))
    assert np.array_equal(twice.coeffs, low.coeffs)
    with pytest.raises(ValueError):
        Band(2.0, 1.0)


def test_band_separation(grid):
    k = 16
    xi = grid.frequencies
    c = ((xi >= k + 0.125) & (xi <= k + 0.25)).astype(complex)
    f = SpectralField(grid, c)
    assert np.all(project_band(f, Band(0.5, 1.0)).coeffs == 0)


def test_nonlocal_conjugate_fixed_points(grid, gaussian):
    # real even profile and its modulated version are both fixed points
    assert np.max(np.abs(nonlocal_conjugate(gaussian).coeffs - gaussian.coeffs)) < 1e-12
    x = grid.points
    f = forward_transform(np.exp(1j * x) * np.exp(-x * x / 2.0), grid)
    assert np.max(np.abs(nonlocal_conjugate(f).coeffs - f.coeffs)) < 1e-12


def test_nonlocal_conjugate_involution_and_samples(grid):
    f = random_field(grid, 3)
    twice = nonlocal_conjugate(nonlocal_conjugate(f))
    assert np.max(np.abs(twice.coeffs - f.coeffs)) <= 1e-15
    # physical meaning: samples are conj(u(-x)) up to the x = -L/2 endpoint
    s = inverse_transform(f)
    sc = inverse_transform(nonlocal_conjugate(f))
    assert np.max(np.abs(sc[1:] - np.conj(s[1:][::-1]))) < 1e-12


def test_dealiased_product_identity(grid, gaussian):
    one = forward_transform(np.ones(grid.n_modes, complex), grid)
    prod = dealiased_product([gaussian, one])
    assert np.max(np.abs(prod.coeffs - gaussian.coeffs)) < 1e-11


def test_dealiased_product_mode_addition():
    g = FrequencyGrid(64, 2 * np.pi)
    f = forward_transform(np.exp(1j * g.points), g)
    cube = dealiased_product([f, f, f])
    expect = forward_transform(np.exp(3j * g.points), g)
    assert np.max(np.abs(cube.coeffs - expect.coeffs)) < 1e-10


def test_dealiased_product_fine_grid_oracle(grid):
    fields = [random_field(grid, s, decay=3.0) for s in (1, 2, 3)]
    prod = dealiased_product(fields)
    fine = FrequencyGrid(4 * grid.n_modes, grid.length)
    n, nf = grid.n_modes, fine.n_modes
    off = nf // 2 - n // 2
    embedded = []
    for f in fields:
        c = np.zeros(nf, complex)
        c[off:off + n] = f.coeffs
        embedded.append(SpectralField(fine, c))
    direct = np.ones(nf, complex)
    for e in embedded:
        direct = direct * inverse_transform(e)
    oracle = forward_transform(direct, fine).coeffs[off:off + n]
    rel = np.max(np.abs(prod.coeffs - oracle)) / np.max(np.abs(oracle))
    assert rel <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from((8, 10, 62, 256, 1024, 4096)),
    pattern=st.lists(st.integers(0, 2), min_size=2, max_size=5),
    seed=st.integers(0, 2 ** 16),
)
def test_dealiased_product_matches_reference_bit_for_bit(n, pattern, seed):
    # repeated indices give repeated factors, which are transformed once
    g = FrequencyGrid(n, 30.0)
    pool = [random_field(g, seed + k) for k in range(3)]
    fields = [pool[k] for k in pattern]
    assert np.array_equal(dealiased_product(fields).coeffs, reference_product(fields).coeffs)


def test_dealiased_product_support_arithmetic(grid):
    xi = grid.frequencies
    a = SpectralField(grid, ((xi >= 1) & (xi <= 2)).astype(complex))
    b = SpectralField(grid, ((xi >= 3) & (xi <= 4)).astype(complex))
    prod = dealiased_product([a, b])
    power = np.abs(prod.coeffs) ** 2
    below = power[xi < 4.0 - grid.dxi / 2].sum()
    assert below <= 1e-12 * power.sum()


def test_dealiased_product_conjugate_morphism(grid):
    u, v = random_field(grid, 5), random_field(grid, 6)
    lhs = nonlocal_conjugate(dealiased_product([u, v]))
    rhs = dealiased_product([nonlocal_conjugate(u), nonlocal_conjugate(v)])
    assert l2_distance(lhs, rhs) <= 1e-12 * l2_norm(lhs)


def test_dealiased_product_arity(grid, gaussian):
    with pytest.raises(ValueError):
        dealiased_product([gaussian])
    with pytest.raises(GridMismatchError):
        other = zero_field(FrequencyGrid(128, 40.0))
        dealiased_product([gaussian, other])


def test_derivative(grid, gaussian):
    assert np.all(derivative(zero_field(grid)).coeffs == 0)
    g = FrequencyGrid(64, 2 * np.pi)
    f = forward_transform(np.exp(1j * g.points), g)
    d = derivative(f)
    assert np.max(np.abs(d.coeffs - 1j * f.coeffs)) < 1e-12
    x = grid.points
    ds = inverse_transform(derivative(gaussian))
    assert np.max(np.abs(ds - (-x * np.exp(-x * x / 2.0)))) <= 1e-9


def test_antiderivative_zero(grid):
    out = antiderivative_symmetric(zero_field(grid))
    assert np.max(np.abs(out.coeffs)) == 0


def test_antiderivative_gaussian_oracle(grid):
    from scipy.special import erf

    x = grid.points
    g = forward_transform(np.exp(-x * x).astype(complex), grid)
    F = inverse_transform(antiderivative_symmetric(g))
    # two-sided primitive of exp(-x^2) is (sqrt(pi)/2) erf(x)
    oracle = np.sqrt(np.pi) / 2.0 * erf(x)
    interior = np.abs(x) <= 0.4 * grid.length
    assert np.max(np.abs(F[interior] - oracle[interior])) <= 1e-8
    i0 = np.argmin(np.abs(x))
    assert abs(F[i0]) <= 1e-10
    # limit value at the right end of the interior: half the total mass
    j = np.argmin(np.abs(x - 0.4 * grid.length))
    assert abs(F[j] - np.sqrt(np.pi) / 2.0) <= 1e-8


def test_antiderivative_oscillatory_oracle(grid):
    x = grid.points
    dens = np.exp(2j * x) * np.exp(-x * x)
    g = forward_transform(dens, grid)
    F = inverse_transform(antiderivative_symmetric(g))
    # frozen adaptive-quadrature value of (1/2)(int_-inf^0 - int_0^inf) e^{2iy - y^2} dy
    oracle0 = -0.5380795069127684j
    i0 = np.argmin(np.abs(x))
    assert abs(F[i0] - oracle0) <= 1e-8


def test_antiderivative_differentiates_back(grid):
    f = random_field(grid, 11, decay=6.0)
    # make the physical profile decay by multiplying with a gaussian window
    x = grid.points
    s = inverse_transform(f) * np.exp(-(x / 4.5) ** 2)
    g = forward_transform(s, grid)
    F = antiderivative_symmetric(g)
    back = inverse_transform(derivative(F))
    interior = np.abs(x) <= 0.4 * grid.length
    scale = np.max(np.abs(s))
    assert np.max(np.abs(back[interior] - s[interior])) <= 1e-6 * scale


def test_antiderivative_endpoint_warning(grid):
    c = np.zeros(grid.n_modes, complex)
    c[grid.n_modes // 2] = 1.0  # constant density, no decay
    with pytest.warns(EndpointDecayWarning):
        antiderivative_symmetric(SpectralField(grid, c))


def test_plancherel(grid, gaussian):
    s = inverse_transform(gaussian)
    direct = np.sqrt(np.sum(np.abs(s) ** 2) * grid.dx)
    assert abs(l2_norm(gaussian) - direct) <= 1e-12
    assert spectral_mass(zero_field(grid)) == 0.0
