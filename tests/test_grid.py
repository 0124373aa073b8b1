"""Tests for the spectral discretization layer."""

import copy
import pickle
import tracemalloc

import numpy as np
import numpy.fft
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft._pocketfft import pypocketfft

from conftest import random_field
from reference import reference_forward_transform, reference_inverse_transform, reference_product
from nnlslab.equations import EquationSpec, mass_energy_coeffs, nonlinear_coeffs
from nnlslab.grid import (
    _BLEND_FRACTION,
    _smoothstep,
    EndpointDecayWarning,
    FrequencyGrid,
    LAST_AXIS,
    GridMismatchError,
    SpectralField,
    antiderivative_symmetric,
    derivative_symbol,
    forward_transform,
    inverse_transform,
    l2_distance,
    l2_norm,
    product_plan,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        FrequencyGrid(7, 10.0)
    with pytest.raises(ValueError):
        FrequencyGrid(6, 10.0)
    with pytest.raises(ValueError):
        FrequencyGrid(64, -1.0)
    for length in (np.inf, np.nan):
        with pytest.raises(ValueError, match="length must be finite and positive"):
            FrequencyGrid(64, length)
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


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from((8, 10, 62, 256, 1024, 4096)),
    length=st.sampled_from((2 * np.pi, 17.0, 30.0, 40.0, 160.0)),
    seed=st.integers(0, 2 ** 16),
)
def test_transforms_match_fftshift_reference_bit_for_bit(n, length, seed):
    # n = 10 and 62 have an odd n/2, where the sign vector flips
    g = FrequencyGrid(n, length)
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    ref_c = np.stack([reference_forward_transform(r, g).coeffs for r in rows])
    ref_s = np.stack([reference_inverse_transform(SpectralField(g, r)) for r in rows])
    for r, c, back in zip(rows, ref_c, ref_s):
        assert np.array_equal(forward_transform(r, g).coeffs, c)
        assert np.array_equal(inverse_transform(SpectralField(g, r)), back)
    plan = product_plan(g, 1)
    assert plan.n_fine == n
    assert np.array_equal(plan.coeffs(rows), ref_c)
    assert np.array_equal(plan.samples(rows), ref_s)


def test_frequencies_cached_and_read_only(grid):
    xi = grid.frequencies
    assert grid.frequencies is xi
    assert not xi.flags.writeable
    with pytest.raises(ValueError):
        xi[0] = 0.0
    assert np.array_equal(xi, grid.dxi * np.arange(-grid.n_modes // 2, grid.n_modes // 2))


@pytest.mark.parametrize("clone", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy])
def test_copied_grid_frequencies_stay_read_only(grid, clone):
    # equal grids share the per-grid caches, so a copy must not come back writeable
    xi = grid.frequencies
    twin = clone(grid)
    assert twin == grid
    assert not twin.frequencies.flags.writeable
    assert np.array_equal(twin.frequencies, xi)


def test_single_mode_inverse(grid):
    c = np.zeros(grid.n_modes, complex)
    c[grid.n_modes // 2 + 3] = 2.0
    xi = grid.frequencies[grid.n_modes // 2 + 3]
    s = inverse_transform(SpectralField(grid, c))
    expect = 2.0 / grid.length * np.exp(1j * xi * grid.points)
    assert np.max(np.abs(s - expect)) < 1e-14


def test_band_separation(grid):
    k = 16
    xi = grid.frequencies
    c = ((xi >= k + 0.125) & (xi <= k + 0.25)).astype(complex)
    f = SpectralField(grid, c)
    assert np.any(f.coeffs != 0)
    assert np.all(f.coeffs[(xi >= 0.5) & (xi < 1.0)] == 0)


def test_nonlocal_conjugate_fixed_points(grid, gaussian):
    # u*(x) = conj(u(-x)) has coefficients conj(uhat): a real even profile
    # and its modulated version are both fixed points
    assert np.max(np.abs(np.conj(gaussian.coeffs) - gaussian.coeffs)) < 1e-12
    x = grid.points
    f = forward_transform(np.exp(1j * x) * np.exp(-x * x / 2.0), grid)
    assert np.max(np.abs(np.conj(f.coeffs) - f.coeffs)) < 1e-12


def test_nonlocal_conjugate_samples(grid):
    # the samples of conj(uhat) are conj(u(-x)) up to the x = -L/2 endpoint
    f = random_field(grid, 3)
    s = inverse_transform(f)
    sc = inverse_transform(SpectralField(grid, np.conj(f.coeffs)))
    assert np.max(np.abs(sc[1:] - np.conj(s[1:][::-1]))) < 1e-12


def test_dealiased_product_identity(grid, gaussian):
    one = forward_transform(np.ones(grid.n_modes, complex), grid)
    prod = product_plan(grid, 2).products([gaussian.coeffs, one.coeffs], ((0, 1),))[0]
    assert np.max(np.abs(prod - gaussian.coeffs)) < 1e-11


def test_dealiased_product_mode_addition():
    g = FrequencyGrid(64, 2 * np.pi)
    c = forward_transform(np.exp(1j * g.points), g).coeffs
    cube = product_plan(g, 3).products([c], ((0, 0, 0),))[0]
    expect = forward_transform(np.exp(3j * g.points), g)
    assert np.max(np.abs(cube - expect.coeffs)) < 1e-10


def test_dealiased_product_fine_grid_oracle(grid):
    fields = [random_field(grid, s, decay=3.0) for s in (1, 2, 3)]
    prod = product_plan(grid, 3).products([f.coeffs for f in fields], ((0, 1, 2),))[0]
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
    rel = np.max(np.abs(prod - oracle)) / np.max(np.abs(oracle))
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
    prod = product_plan(g, len(fields)).products([f.coeffs for f in pool], (tuple(pattern),))[0]
    assert np.array_equal(prod, reference_product(fields).coeffs)


@pytest.mark.parametrize("n", [8, 10, 32, 62, 64, 128, 256, 512, 1024, 2048, 4096])
def test_scipy_fft_matches_numpy_fft_bit_for_bit(n):
    # the package transforms through pypocketfft.c2c, the kernel behind
    # scipy.fft, in place and out of place, and the reference oracles through
    # numpy.fft; their bitwise agreement rests on all of them running pocketfft
    rng = np.random.default_rng(n)
    # the padded sizes of degrees 1 to 5: n, 1.5n, 2n, 2.5n and 3n, made even
    sizes = {product_plan(FrequencyGrid(n, 1.0), p).n_fine for p in range(1, 6)}
    for m in sorted(sizes) + ([262144] if n == 4096 else []):
        # one row, a batch of rows, and blocks of factor rows of one row or a batch
        for shape in ((m,), (3, m), (2, m), (2, 3, m)):
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for name, forward, inorm in (("fft", True, 0), ("ifft", False, 2)):
                want = getattr(numpy.fft, name)(x).tobytes()
                got = getattr(scipy.fft, name)(x.copy(), overwrite_x=True)
                assert got.tobytes() == want, (name, shape)
                out = np.empty_like(x)
                got = pypocketfft.c2c(x, LAST_AXIS, forward, inorm, out, 1)
                assert got is out and got.tobytes() == want, (name, shape, "out of place")
                y = x.copy()
                got = pypocketfft.c2c(y, LAST_AXIS, forward, inorm, y, 1)
                assert got is y and got.tobytes() == want, (name, shape, "in place")


_EDGE = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, -1e300,
                         1.7976931348623157e308, -1.7976931348623157e308))
_VALUES = _EDGE | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from((8, 10, 62)),
    degree=st.integers(1, 5),
    length=st.sampled_from((2 * np.pi, 17.0, 30.0, 40.0, 160.0)),
    data=st.data(),
)
def test_fused_padding_matches_sign_then_divide(n, degree, length, data):
    # the plan pads coeffs * (signs / dx_fine) in one multiply where the
    # fftshift reference took (coeffs * signs) / dx_fine; zeros, -0.0 and
    # tiny and huge finite values must give the same samples
    parts = data.draw(st.lists(st.tuples(_VALUES, _VALUES), min_size=n, max_size=n))
    coeffs = np.array([complex(re, im) for re, im in parts])
    plan = product_plan(FrequencyGrid(n, length), degree)
    with np.errstate(over="ignore", invalid="ignore"):
        want = (coeffs * plan.signs) / plan.dx_fine
        fused = coeffs * plan.pad
        padded = np.zeros(plan.n_fine, dtype=np.complex128)
        padded[:n // 2], padded[-(n // 2):] = want[n // 2:], want[:n // 2]
        assert np.array_equal(fused, want)
        np.testing.assert_array_equal(plan.samples(coeffs), numpy.fft.ifft(padded))


def _batch(rng, n, rows):
    shape = (n,) if rows is None else (rows, n)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_product_work_arrays_never_leak():
    # each plan runs 1-D and batched calls of changing shapes, the quintic
    # plan twice over, and the cubic plan takes a single row and 2 or 3 rows
    # under one batch shape; no result or input may show a later call's work
    g = FrequencyGrid(256, 30.0)
    rng = np.random.default_rng(21)
    quintic = 2 * ((None, (0, 0, 0, 1, 1)), (65, (0, 1, 2, 1, 0)),
                   (33, (0, 0, 0, 1, 1)), (None, (2, 2, 1, 0, 1)))
    cubic = ((None, (0, 0, 0)), (33, (0, 0, 1)), (33, (0, 1, 2)), (33, (1, 1, 1)),
             (None, (0, 1, 2)), (None, (2, 2, 2)))
    results = []
    for plan, steps in ((product_plan(g, 5), quintic), (product_plan(g, 3), cubic)):
        for rows, pattern in steps:
            u = _batch(rng, g.n_modes, rows)
            pool = [u, np.conj(u), _batch(rng, g.n_modes, rows)]
            before = [p.copy() for p in pool]
            factors = [pool[k] for k in pattern]
            out = plan.products(pool[:max(pattern) + 1], (pattern,))[0]
            for p, b in zip(pool, before):
                assert np.array_equal(p, b)
            by_row = [np.atleast_2d(f) for f in factors]
            expected = [reference_product([SpectralField(g, f[r]) for f in by_row]).coeffs
                        for r in range(len(by_row[0]))]
            assert np.array_equal(np.atleast_2d(out), np.stack(expected))
            results.append((out, out.copy()))
            for earlier, snapshot in results:
                assert np.array_equal(earlier, snapshot)


def _warm_peak(call):
    """Result of a second ``call()``, the tracemalloc peak above its start and
    the traced memory it leaves behind."""
    call()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak - start, current - start


# numpy buffers a ufunc call that broadcasts a 1-D operand over a (33, 256)
# batch: 204,144 B for a padding multiply into the strided half rows, and
# 132,176 B for scaling the retained coefficients by the 1-D scale; each is
# transient, and the larger bounds what is live beside a block (numpy 2.4)
_ITER_BUFFER = 204_144
_OBJECT_BYTES = 1024  # array headers and views, about 200 B measured


def _block_bytes(plan, rows):
    """Bytes of the (rows, 33, n_fine) block that ``products`` pads and transforms."""
    return rows * 33 * plan.n_fine * 16


def test_batched_product_allocates_its_block_and_keeps_its_result_only():
    # a warm (33, 256) cubic product: 2 padded rows and 1 accumulator in a
    # block of its own, the result and numpy's transient buffer; measured
    # 1,078,976 B at the peak (bound 1,150,320) and 135,360 B after the call
    g = FrequencyGrid(256, 40.0)
    u = _batch(np.random.default_rng(5), g.n_modes, 33)
    rows = [u, np.conj(u)]
    plan = product_plan(g, 3)
    result, peak, kept = _warm_peak(lambda: plan.products(rows, ((0, 0, 1),))[0])
    assert peak <= _block_bytes(plan, 3) + result.nbytes + _ITER_BUFFER
    assert kept <= result.nbytes + _OBJECT_BYTES


@pytest.mark.parametrize("kind, arrays, degree, rows", [
    ("NNLS", 2, 3, 3), ("NdNLS", 3, 3, 4), ("GaugedNdNLS", 3, 5, 3)])
def test_batched_nonlinear_coeffs_allocates_per_call_and_keeps_its_result_only(
        kind, arrays, degree, rows):
    # the Picard shape: at its peak N(u) holds ``arrays`` (33, 256) arrays
    # (the rows it builds, such as u_x and conj(u), the first term's result
    # and the fresh products), the block of its largest ``degree`` with
    # ``rows`` rows and numpy's transient buffer; measured 70-71 KB under
    # each bound
    g = FrequencyGrid(256, 40.0)
    u = _batch(np.random.default_rng(5), g.n_modes, 33)
    spec = EquationSpec(kind)
    result, peak, kept = _warm_peak(lambda: nonlinear_coeffs(u, g, spec))
    block = _block_bytes(product_plan(g, degree), rows)
    assert peak <= arrays * result.nbytes + block + _ITER_BUFFER
    assert kept <= result.nbytes + _OBJECT_BYTES


def test_cached_plans_hold_read_only_constants_only():
    # after the Picard batch at _T_CAP (1025 nodes), 1-D and batched rows of
    # degree-3 and degree-5 kinds and the diagnostics, every array a cached
    # plan holds is read-only, and its bytes are those of signs, pad and
    # scale; the degree-3 plan used to keep a 25.2 MB work buffer and a
    # writeable 4.2 MB repeated scale after the 1025-node call
    g = FrequencyGrid(256, 40.0)
    rng = np.random.default_rng(8)
    for kind in ("NNLS", "GaugedNdNLS"):
        for rows in (None, 33, 65):
            nonlinear_coeffs(_batch(rng, g.n_modes, rows), g, EquationSpec(kind))
    nonlinear_coeffs(_batch(rng, g.n_modes, 1025), g, EquationSpec("NNLS"))
    mass_energy_coeffs(_batch(rng, g.n_modes, None), g, 1.0)
    for degree in (1, 3, 5):
        arrays = [a for a in vars(product_plan(g, degree)).values() if isinstance(a, np.ndarray)]
        assert not any(a.flags.writeable for a in arrays), degree
        assert sum(a.nbytes for a in arrays) == 3 * g.n_modes * 16, degree


def test_dealiased_product_support_arithmetic(grid):
    xi = grid.frequencies
    a = SpectralField(grid, ((xi >= 1) & (xi <= 2)).astype(complex))
    b = SpectralField(grid, ((xi >= 3) & (xi <= 4)).astype(complex))
    prod = product_plan(grid, 2).products([a.coeffs, b.coeffs], ((0, 1),))[0]
    power = np.abs(prod) ** 2
    below = power[xi < 4.0 - grid.dxi / 2].sum()
    assert below <= 1e-12 * power.sum()


def test_dealiased_product_conjugate_morphism(grid):
    u, v = random_field(grid, 5).coeffs, random_field(grid, 6).coeffs
    pair = product_plan(grid, 2)
    lhs = SpectralField(grid, np.conj(pair.products([u, v], ((0, 1),))[0]))
    rhs = SpectralField(grid, pair.products([np.conj(u), np.conj(v)], ((0, 1),))[0])
    assert l2_distance(lhs, rhs) <= 1e-12 * l2_norm(lhs)


def test_l2_distance_grid_mismatch(gaussian):
    other = SpectralField(FrequencyGrid(128, 40.0), np.zeros(128))
    with pytest.raises(GridMismatchError):
        l2_distance(gaussian, other)


def test_derivative(grid, gaussian):
    assert np.all(np.zeros(grid.n_modes) * derivative_symbol(grid) == 0)
    g = FrequencyGrid(64, 2 * np.pi)
    f = forward_transform(np.exp(1j * g.points), g)
    d = f.coeffs * derivative_symbol(g)
    assert np.max(np.abs(d - 1j * f.coeffs)) < 1e-12
    x = grid.points
    ds = inverse_transform(SpectralField(grid, gaussian.coeffs * derivative_symbol(grid)))
    assert np.max(np.abs(ds - (-x * np.exp(-x * x / 2.0)))) <= 1e-9


def test_antiderivative_zero(grid):
    out = antiderivative_symmetric(SpectralField(grid, np.zeros(grid.n_modes)))
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
    back = inverse_transform(SpectralField(grid, F.coeffs * derivative_symbol(grid)))
    interior = np.abs(x) <= 0.4 * grid.length
    scale = np.max(np.abs(s))
    assert np.max(np.abs(back[interior] - s[interior])) <= 1e-6 * scale


@pytest.mark.parametrize("n, length", [(256, 40.0), (1024, 80.0)])
def test_smooth_step_matches_scipy_erf_and_keeps_its_ends(n, length):
    # math.erf elementwise stands in for scipy.special.erf, which costs 0.3 s
    # of import; the two agree to an ulp or so, and the ends stay exact
    from scipy.special import erf

    g = FrequencyGrid(n, length)
    w = _BLEND_FRACTION * length
    center, x_lo, x_hi = length / 2 - w / 2, -length / 2, length / 2
    sigma = np.sqrt(w / g.xi_max)
    e0, e1 = erf((x_lo - center) / sigma), erf((x_hi - center) / sigma)
    want = (erf((g.points - center) / sigma) - e0) / (e1 - e0)
    got = _smoothstep(g.points, center, w, g.xi_max, x_lo, x_hi)
    assert np.max(np.abs(got - want)) <= 4.5e-16
    ends = _smoothstep(np.array([x_lo, x_hi]), center, w, g.xi_max, x_lo, x_hi)
    assert ends[0] == 0.0 and ends[1] == 1.0


def test_antiderivative_endpoint_warning(grid):
    c = np.zeros(grid.n_modes, complex)
    c[grid.n_modes // 2] = 1.0  # constant density, no decay
    with pytest.warns(EndpointDecayWarning):
        antiderivative_symmetric(SpectralField(grid, c))


def test_plancherel(grid, gaussian):
    s = inverse_transform(gaussian)
    direct = np.sqrt(np.sum(np.abs(s) ** 2) * grid.dx)
    assert abs(l2_norm(gaussian) - direct) <= 1e-12
