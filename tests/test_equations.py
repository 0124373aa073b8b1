"""Tests for the equation right-hand sides and conserved functionals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_field
from reference import (
    _conjugate,
    _derivative,
    reference_energy,
    reference_mass,
    reference_nonlinear_term,
    reference_product,
    reference_rhs,
)
from nnlslab.equations import (
    COEFFICIENT_MODES,
    KINDS,
    EquationSpec,
    mass_energy_coeffs,
    nonlinear_coeffs,
    quintic_coefficient,
    support_leakage,
)
from nnlslab.grid import (
    FrequencyGrid,
    SpectralField,
    forward_transform,
    l2_distance,
    l2_norm,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        EquationSpec("cubicNLS")
    with pytest.raises(ValueError):
        EquationSpec("NNLS", alpha=np.inf)
    with pytest.raises(ValueError):
        EquationSpec("GaugedGNdNLS", gauged_coefficient_mode="guessed")
    assert EquationSpec("NdNLS", alpha=2.0).beta == 0.0


def test_quintic_coefficient_modes():
    # the two candidate displays differ by a factor alpha; only the rederived
    # one collapses to the derivative-free gauged equation when beta = 0
    a = 1.5
    assert abs(quintic_coefficient(a, 0.0, "printed") - a ** 3 / 2.0) <= 1e-15
    assert abs(quintic_coefficient(a, 0.0, "rederived") - a ** 2 / 2.0) <= 1e-15
    b = 0.5
    printed = quintic_coefficient(a, b, "printed")
    rederived = quintic_coefficient(a, b, "rederived")
    assert abs(printed - a * rederived) <= 1e-15
    assert printed != rederived


def test_gauged_general_reduces_at_beta_zero(grid):
    # with beta = 0 the general gauged flow must coincide with the cubic-quintic
    # gauged flow for every alpha, which singles out the rederived coefficient
    f = random_field(grid, 4, decay=3.0)
    a = 1.5
    base = reference_rhs(f, EquationSpec("GaugedNdNLS", alpha=a))
    red = reference_rhs(f, EquationSpec("GaugedGNdNLS", alpha=a, beta=0.0,
                                        gauged_coefficient_mode="rederived"))
    pri = reference_rhs(f, EquationSpec("GaugedGNdNLS", alpha=a, beta=0.0,
                                        gauged_coefficient_mode="printed"))
    scale = np.max(np.abs(base.coeffs))
    assert np.max(np.abs(red.coeffs - base.coeffs)) <= 1e-14 * scale
    assert np.max(np.abs(pri.coeffs - base.coeffs)) > 1e-6 * scale


def test_cubic_term_matches_direct_product(grid):
    f = random_field(grid, 9, decay=3.0)
    a = 0.7
    direct = reference_product([f, f, _conjugate(f)])
    got = nonlinear_coeffs(f.coeffs, grid, EquationSpec("NNLS", alpha=a))
    assert np.max(np.abs(got - 1j * (a * direct.coeffs))) <= 1e-14 * np.max(np.abs(direct.coeffs))


def test_derivative_term_matches_direct_product(grid):
    f = random_field(grid, 9, decay=3.0)
    direct = SpectralField(grid, 1j * reference_product([f, _conjugate(f), _derivative(f)]).coeffs)
    got = SpectralField(grid, nonlinear_coeffs(f.coeffs, grid, EquationSpec("NdNLS", alpha=1.0)))
    assert l2_distance(got, direct) <= 1e-13 * l2_norm(direct)


def test_general_term_combines_linearly(grid):
    f = random_field(grid, 9, decay=3.0)
    a, b = 0.8, 0.3
    got = nonlinear_coeffs(f.coeffs, grid, EquationSpec("gNdNLS", alpha=a, beta=b))
    part_a = nonlinear_coeffs(f.coeffs, grid, EquationSpec("NdNLS", alpha=a))
    part_b = reference_product([f, f, _derivative(_conjugate(f))])
    expect = part_a + 1j * (b * part_b.coeffs)
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


def test_nonlinear_coeffs_match_reference_bit_for_bit(grid):
    f = random_field(grid, 11, decay=3.0)
    for kind in KINDS:
        for alpha, beta in ((1.0, 0.0), (0.0, 0.0), (0.0, 0.6), (0.8, 0.3), (-1.7, 1.2)):
            for mode in COEFFICIENT_MODES:
                spec = EquationSpec(kind, alpha=alpha, beta=beta, gauged_coefficient_mode=mode)
                got = nonlinear_coeffs(f.coeffs, grid, spec)
                assert np.array_equal(got, 1j * reference_nonlinear_term(f, spec).coeffs), spec


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from((8, 10, 62, 256)),
    batch=st.sampled_from((1, 2, 9, 65)),
    kind=st.sampled_from(KINDS),
    coeffs=st.sampled_from(((1.0, 0.0), (0.0, 0.6), (0.8, 0.3), (-1.7, 1.2))),
    mode=st.sampled_from(COEFFICIENT_MODES),
    seed=st.integers(0, 2 ** 16),
)
def test_batched_nonlinear_coeffs_match_rows_bit_for_bit(n, batch, kind, coeffs, mode, seed):
    # 65 rows of 256 modes cross numpy's in-place temporary threshold
    g = FrequencyGrid(n, 30.0)
    rows = np.stack([random_field(g, seed + k).coeffs for k in range(batch)])
    spec = EquationSpec(kind, alpha=coeffs[0], beta=coeffs[1], gauged_coefficient_mode=mode)
    got = nonlinear_coeffs(rows, g, spec)
    want = np.stack([nonlinear_coeffs(r, g, spec) for r in rows])
    assert got.shape == rows.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kind,log", [
    pytest.param("NNLS", [("ifft", 2), ("fft", 1)], id="NNLS-3"),
    pytest.param("GaugedNdNLS", [("ifft", 2), ("fft", 1), ("ifft", 2), ("fft", 1)],
                 id="GaugedNdNLS-6"),
    pytest.param("gNdNLS", [("ifft", 4), ("fft", 2)], id="gNdNLS-6"),
])
def test_nonlinear_coeffs_transform_each_distinct_factor_once(grid, fft_log, kind, log):
    # NNLS: one block (u, u*) in and u u u* out, 3 rows in 2 calls; gauged:
    # (u, (u*)_x | u u (u*)_x) and (u, u* | u u u u* u*) on their own padded
    # grids, 6 rows in 4 calls; gNdNLS: both cubic terms from one block
    # (u, u*, u_x, (u*)_x)
    f = random_field(grid, 12, decay=3.0)
    spec = EquationSpec(kind, alpha=1.0, beta=0.3)
    nonlinear_coeffs(f.coeffs, grid, spec)
    assert fft_log == log


def test_zero_alpha_is_free_equation(grid):
    f = random_field(grid, 1, decay=2.0)
    for kind in ("NNLS", "NdNLS"):
        n = nonlinear_coeffs(f.coeffs, grid, EquationSpec(kind, alpha=0.0))
        assert np.all(n == 0)


def test_nonlinear_coeffs_defined_for_all_kinds(grid):
    f = random_field(grid, 2, decay=3.0)
    for kind in KINDS:
        out = nonlinear_coeffs(f.coeffs, grid, EquationSpec(kind, alpha=1.0, beta=0.25))
        assert np.all(np.isfinite(out))


def mass_of(f):
    return mass_energy_coeffs(f.coeffs, f.grid, 1.0)[0]


def energy_of(f, alpha):
    return mass_energy_coeffs(f.coeffs, f.grid, alpha)[1]


def test_mass_gaussian_oracle(grid):
    x = grid.points
    f = forward_transform(np.exp(-x * x / 2.0).astype(complex), grid)
    # for real even data the pairing is the plain L^2 mass: int e^{-x^2} = sqrt(pi)
    assert abs(mass_of(f) - np.sqrt(np.pi)) <= 1e-12


def test_mass_real_but_not_sign_definite(grid):
    # substituting x -> -x conjugates the pairing, so M is always real,
    # but odd data makes it negative
    f = random_field(grid, 13, decay=2.0)
    m = mass_of(f)
    assert abs(m.imag) <= 1e-12 * abs(m)
    x = grid.points
    odd = forward_transform((x * np.exp(-x * x)).astype(complex), grid)
    assert mass_of(odd).real < 0


def test_energy_gaussian_oracle(grid):
    x = grid.points
    f = forward_transform(np.exp(-x * x / 2.0).astype(complex), grid)
    # (du)* = -du for real even u, so the kinetic part enters with a minus sign:
    # -sqrt(pi)/2 + (alpha/2) sqrt(pi/2) with alpha = 2
    oracle = 0.36708721186274174
    assert abs(energy_of(f, 2.0) - oracle) <= 1e-12


@pytest.mark.parametrize("n", [8, 10, 62, 256, 4096])
def test_diagnostics_match_reference_bit_for_bit(n):
    g = FrequencyGrid(n, 30.0)
    for alpha in (1.0, -2.5):
        for f in (random_field(g, seed) for seed in range(3)):
            assert mass_energy_coeffs(f.coeffs, g, alpha) == (reference_mass(f),
                                                              reference_energy(f, alpha))


def test_support_leakage(grid):
    xi = grid.frequencies
    high = SpectralField(grid, (xi >= 2.0).astype(complex))
    assert support_leakage(high, 1.0) == 0.0
    low = SpectralField(grid, (xi <= -2.0).astype(complex))
    assert support_leakage(low, 1.0) == 1.0
    zero = SpectralField(grid, np.zeros(grid.n_modes, complex))
    assert support_leakage(zero, 1.0) == 0.0
    with pytest.raises(ValueError, match="eps0 must be finite and nonnegative, got -1.0"):
        support_leakage(high, -1.0)


@pytest.mark.parametrize("eps0", [np.nan, np.inf, -np.inf])
def test_support_leakage_refuses_a_non_finite_eps0(grid, eps0):
    # before: nan selected no frequency and read 0.0, inf read 1.0
    low = SpectralField(grid, (grid.frequencies <= -2.0).astype(complex))
    with pytest.raises(ValueError, match="eps0 must be finite and nonnegative, got %r" % eps0):
        support_leakage(low, eps0)
