"""Tests for the weighted-norm calculus and dilation machinery."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import nnlslab.spaces as spaces
from nnlslab.grid import FrequencyGrid, SpectralField, forward_transform, l2_norm, pypocketfft
from nnlslab.spaces import dilate, esigma_norm
from reference import reference_dilate


def gaussian_hat(grid):
    # coefficients laid down directly: uhat(xi) = sqrt(2 pi) exp(-xi^2/2)
    xi = grid.frequencies
    return SpectralField(grid, np.sqrt(2 * np.pi) * np.exp(-xi * xi / 2.0) + 0j)


def test_esigma_zero_field(grid):
    z = SpectralField(grid, np.zeros(grid.n_modes, complex))
    assert esigma_norm(z, -1.0, 0.5) == 0.0


def test_hsigma_plancherel(grid, gaussian):
    # the s = sigma = 0 weight is flat, so the norm reduces to sqrt(sum |c|^2 dxi)
    assert abs(esigma_norm(gaussian, 0.0, 0.0) - np.sqrt(2 * np.pi) * l2_norm(gaussian)) <= 1e-12


def test_hsigma_gaussian_oracle():
    g = FrequencyGrid(2048, 200.0)
    f = gaussian_hat(g)
    # int 2 pi e^{-xi^2} dxi = 2 pi^{3/2}
    oracle = np.sqrt(2.0) * np.pi ** 0.75
    assert abs(esigma_norm(f, 0.0, 0.0) - oracle) <= 1e-10 * oracle


def test_hsigma_weighted_oracle():
    g = FrequencyGrid(2048, 200.0)
    f = gaussian_hat(g)
    # frozen adaptive-quadrature value of the sigma = 2 weighted integral
    oracle = 5.5340585452788975
    assert abs(esigma_norm(f, 0.0, 2.0) - oracle) <= 1e-8 * oracle


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


@pytest.mark.parametrize("n, length, s, sigma", [(256, 40.0, -1.0, 0.5), (1024, 80.0, 0.0, 1.0),
                                                (4096, 80.0, -4.0, 0.5)])
def test_esigma_weights_are_cached_read_only_and_bit_for_bit(n, length, s, sigma):
    g = FrequencyGrid(n, length)
    w = spaces._grid_weights(g, s, sigma)
    assert not w.flags.writeable
    assert w.tobytes() == spaces.esigma_weights(g.frequencies, s, sigma).tobytes()
    assert spaces._grid_weights(FrequencyGrid(n, length), s, sigma) is w  # an equal grid hits
    f = gaussian_hat(g)
    fresh = spaces.esigma_weights(g.frequencies, s, sigma)
    assert esigma_norm(f, s, sigma) == float(np.sqrt(np.sum(np.abs(fresh * f.coeffs) ** 2) * g.dxi))


def fsum_esigma_norm(fld, s, sigma):
    """The E^s_sigma norm with each weight from ``math.exp`` of its exponent and the
    squares summed by ``math.fsum`` after scaling by the largest weighted value."""
    values = [math.exp(s * abs(xi) * math.log(2.0) + 0.5 * sigma * math.log1p(xi * xi)) * abs(c)
              for xi, c in zip(fld.grid.frequencies.tolist(), fld.coeffs.tolist())]
    top = max(values)
    return top * math.sqrt(math.fsum((v / top) ** 2 for v in values) * fld.grid.dxi)


@pytest.mark.parametrize("floor", [1e-17, 1e-30])
def test_esigma_is_finite_where_only_the_squares_overflow(floor):
    # before: the weighted roundoff tail near xi_max, floor * e^466.7, squared
    # past the float range and the norm read inf
    g = FrequencyGrid(1024, 80.0)
    f = SpectralField(g, gaussian_hat(g).coeffs + floor)
    w = spaces._grid_weights(g, 30.0, -100.0)
    with np.errstate(over="ignore"):
        assert np.sum(np.abs(w * f.coeffs) ** 2) == np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = esigma_norm(f, 30.0, -100.0)
    want = fsum_esigma_norm(f, 30.0, -100.0)
    assert np.isfinite(norm) and abs(norm - want) <= 1e-14 * want


def test_esigma_is_inf_where_a_weighted_value_overflows():
    g = FrequencyGrid(1024, 80.0)
    f = SpectralField(g, np.full(g.n_modes, 1e300 + 0j))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert esigma_norm(f, 30.0, -100.0) == np.inf


@pytest.mark.parametrize("s, sigma", [(-1.0, 300.0), (0.0, 400.0)])
def test_esigma_refuses_a_weight_that_overflows_through_sigma(s, sigma):
    # before: |s| xi_max ln 2 passed the guard, and the norm read nan with a
    # numpy RuntimeWarning (or inf once the field decayed)
    f = gaussian_hat(FrequencyGrid(256, 40.0))
    with pytest.raises(ValueError, match="overflows at s = %r, sigma = %r" % (s, sigma)):
        esigma_norm(f, s, sigma)


@pytest.mark.parametrize("s, sigma, message", [
    (np.nan, 0.0, "s must be finite, got nan"), (-np.inf, 0.0, "s must be finite, got -inf"),
    (-1.0, np.nan, "sigma must be finite, got nan"), (-1.0, np.inf, "sigma must be finite, got inf")])
def test_esigma_refuses_a_non_finite_parameter(s, sigma, message):
    # before: nan read nan with no warning, and -inf * 0 at xi = 0 raised
    # numpy's invalid-value warning
    f = gaussian_hat(FrequencyGrid(256, 40.0))
    with pytest.raises(ValueError, match=message):
        esigma_norm(f, s, sigma)


@pytest.mark.parametrize("s, sigma", [(12.0, 0.0), (1e308, 0.0), (1e308, -1e308),
                                      (-1e308, 1e308)])
def test_esigma_refusal_caches_no_weights(s, sigma):
    # the exact exponent is the only check: one that overflows to inf, or
    # reads nan from inf - inf, is refused with no numpy warning and leaves
    # nothing in the weight cache (before: (-1e308, 1e308) passed the O(1)
    # guard and raised numpy's overflow warning)
    spaces._grid_weights.cache_clear()
    f = gaussian_hat(FrequencyGrid(256, 4.0))  # xi_max ~ 100
    with pytest.raises(ValueError, match="overflows at s = "):
        esigma_norm(f, s, sigma)
    assert spaces._grid_weights.cache_info().currsize == 0


def test_esigma_weight_is_checked_by_its_exact_exponent():
    # before: the O(1) guard read s xi_max ln 2 = 836 >= 700 on this grid and
    # refused (30, -100), whose largest exponent is 466.7; the direct sum
    # squares the weight's square root, each factor representable
    f = gaussian_hat(FrequencyGrid(1024, 80.0))
    xi = f.grid.frequencies
    root = 2.0 ** (15.0 * np.abs(xi)) * (1.0 + xi * xi) ** -25.0
    want = np.sqrt(np.sum(np.abs(root * root * f.coeffs) ** 2) * f.grid.dxi)
    got = esigma_norm(f, 30.0, -100.0)
    assert np.isfinite(got)
    assert got == pytest.approx(want, rel=1e-14)


def test_esigma_of_a_strongly_negative_s_is_finite():
    # before: the O(1) guard bounded |s| xi_max ln 2 and refused s = -60,
    # whose weight 2^(s|xi|) only decays from 1 at xi = 0
    f = gaussian_hat(FrequencyGrid(256, 40.0))
    weight = 2.0 ** (-60.0 * np.abs(f.grid.frequencies))
    want = np.sqrt(np.sum(np.abs(weight * f.coeffs) ** 2) * f.grid.dxi)
    assert esigma_norm(f, -60.0, 0.0) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("s, sigma", [(0.0, 0.0), (-1.0, 0.5)])
@pytest.mark.parametrize("amplitude", [1e-160, 1e-170, 1e-300])
def test_esigma_of_a_tiny_field_scales_with_its_amplitude(s, sigma, amplitude):
    # before: the squares underflowed, and at (0, 0) the norm read 3.5e-6 off
    # at 1e-160 and 0.0 at 1e-170
    f = gaussian_hat(FrequencyGrid(256, 40.0))
    want = amplitude * esigma_norm(f, s, sigma)
    got = esigma_norm(SpectralField(f.grid, amplitude * f.coeffs), s, sigma)
    assert abs(got - want) <= 1e-15 * want


def test_weight_refuses_an_exponent_that_underflows_everywhere():
    # a band away from xi = 0 can lie wholly below exp(-700); a grid cannot
    band = np.linspace(0.5, 1.0, 9)
    with pytest.raises(ValueError, match="underflows everywhere at s = -3000.0, sigma = 0.0"):
        spaces.esigma_weights(band, -3000.0, 0.0)
    assert spaces.esigma_weights(band, -1500.0, 0.0)[0] > 0
    assert esigma_norm(gaussian_hat(FrequencyGrid(256, 40.0)), -3000.0, 0.0) > 0


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
        dilate(SpectralField(grid, np.zeros(grid.n_modes)), lam)


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


def test_chirp_z_pads_to_scipys_fast_length():
    # _czt sizes its transforms with the kernel's good_size, the function that
    # scipy.fft.next_fast_len wraps, so that it need not import scipy.fft
    import scipy.fft

    targets = [2 * n - 1 for n in range(8, 8193, 2)]
    assert ([pypocketfft.good_size(t, False) for t in targets]
            == [scipy.fft.next_fast_len(t) for t in targets])


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

