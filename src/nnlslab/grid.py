"""Spectral discretization layer: grids, transforms, projections, products.

The whole line is approximated by a periodic interval of length ``L``
centred at the origin, with ``n`` uniformly spaced sample points
``x_j = -L/2 + j*L/n``.  Fields are stored as Fourier coefficients on the
uniform frequency grid ``xi_m = m * 2*pi/L`` for
``m = -n/2, ..., n/2 - 1`` (ascending order), in the continuum convention

    coeffs[m]  ~  uhat(xi_m) = int u(x) exp(-i xi_m x) dx,

so that ``u(x_j) = (1/L) * sum_m coeffs[m] exp(i xi_m x_j)``.

:class:`ProductPlan` is the one place that spells this convention out, as
index slices and sign and ``dx`` vectors: the plan of degree 1 has no
padding, and its ``coeffs`` and ``samples`` are :func:`forward_transform`
and :func:`inverse_transform`.  Higher degrees pad for dealiased products,
each of which is two FFT calls whatever its degree: one inverse transform of
a block holding every distinct factor and one forward transform of their
product.  The transforms are ``scipy.fft``'s, which keeps its plans between
calls where ``numpy.fft`` sets one up on every call; the two agree bit for
bit (both run pocketfft, as a unit test checks).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.fft


class GridMismatchError(ValueError):
    """Raised when an operation mixes fields living on different grids."""


class EndpointDecayWarning(UserWarning):
    """Density handed to the two-sided antiderivative has not decayed."""


@dataclass(frozen=True)
class FrequencyGrid:
    """Shared discretization contract: mode count and spatial period."""

    n_modes: int
    length: float

    def __post_init__(self):
        if self.n_modes < 8 or self.n_modes % 2 != 0:
            raise ValueError("n_modes must be even and >= 8, got %r" % (self.n_modes,))
        if not (self.length > 0):
            raise ValueError("length must be positive, got %r" % (self.length,))

    def __getstate__(self):
        # drop the cached frequencies: a copy recomputes them read-only, where
        # an unpickled array would come back writeable
        state = dict(self.__dict__)
        state.pop("frequencies", None)
        return state

    @property
    def dx(self):
        return self.length / self.n_modes

    @property
    def dxi(self):
        return 2 * np.pi / self.length

    @functools.cached_property
    def frequencies(self):
        """The read-only ascending frequencies xi_m, computed once per grid."""
        n = self.n_modes
        xi = self.dxi * np.arange(-n // 2, n // 2)
        xi.flags.writeable = False
        return xi

    @property
    def points(self):
        n = self.n_modes
        return -self.length / 2 + self.dx * np.arange(n)

    @property
    def xi_max(self):
        return self.dxi * (self.n_modes // 2)


@dataclass(frozen=True)
class SpectralField:
    """A complex field on the truncated line, stored by Fourier coefficients."""

    grid: FrequencyGrid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.grid.n_modes,):
            raise ValueError(
                "coeffs length %d does not match n_modes %d"
                % (c.size, self.grid.n_modes)
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs contain non-finite entries")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True)
class Band:
    """Half-open frequency band [lo, hi); hi may be +inf."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError("band requires lo < hi, got [%r, %r)" % (self.lo, self.hi))

    def indicator(self, xi):
        return (xi >= self.lo) & (xi < self.hi)


def forward_transform(samples, grid):
    """Trapezoid approximation of uhat(xi) = int u exp(-i xi x) dx."""
    s = np.asarray(samples, dtype=np.complex128)
    if s.shape != (grid.n_modes,):
        raise ValueError(
            "samples length %d does not match n_modes %d" % (s.size, grid.n_modes)
        )
    return SpectralField(grid, product_plan(grid, 1).coeffs(s))


def inverse_transform(fld):
    """Exact discrete inverse of :func:`forward_transform`."""
    return product_plan(fld.grid, 1).samples(fld.coeffs)


def apply_multiplier(fld, multiplier):
    """Apply a Fourier multiplier xi -> m(xi) coefficient-wise."""
    xi = fld.grid.frequencies
    m = multiplier(xi) if callable(multiplier) else np.asarray(multiplier)
    m = np.broadcast_to(m, xi.shape)
    if not np.all(np.isfinite(m)):
        raise ValueError("multiplier is non-finite at some grid frequency")
    return SpectralField(fld.grid, fld.coeffs * m)


def project_band(fld, band):
    """Sharp projection: zero all coefficients outside [lo, hi)."""
    keep = band.indicator(fld.grid.frequencies)
    return SpectralField(fld.grid, np.where(keep, fld.coeffs, 0.0))


def nonlocal_conjugate(fld):
    """The reversed conjugate u*(x) = conj(u(-x)); conjugation in Fourier space."""
    return SpectralField(fld.grid, np.conj(fld.coeffs))


class ProductPlan:
    """Per-(grid, degree) constants of the transforms and the padded product.

    The padded size is at least (p+1)/2 times the base mode count for a
    p-fold product, so no aliased contribution can reach the retained band;
    degree 1 pads nothing.  The slices ``head``, ``tail`` and ``upper`` place
    the n ascending coefficients in the unshifted fine array: modes m >= 0
    (the upper half) lead it and modes m < 0 end it.  ``signs`` holds
    (-1)^m = exp(-i xi_m x_0), ``pad`` is ``signs / dx_fine`` and ``scale``
    is ``dx_fine * signs``: a coefficient is padded as ``coeffs * pad``,
    which equals ``(coeffs * signs) / dx_fine`` value for value, and a
    retained coefficient is ``scale * fft``.

    Coefficient arrays are ``(n,)`` or ``(batch, n)``; every transform runs
    along the last axis, row by row, so a batch rounds exactly as its rows.
    The transforms are ``scipy.fft``'s and are called as module attributes
    (``scipy.fft.ifft``), looked up at each call, so that a profiler or a
    test that rebinds them, such as ``perfbench/tracer.py``, sees every one.
    ``samples`` and ``product`` transform their own arrays in place
    (``overwrite_x=True``); ``coeffs`` leaves the caller's samples alone.

    The plan owns a grow-only work buffer.  ``product`` pads its k distinct
    factors into one ``(k,) + lead + (n_fine,)`` block of it, transforms the
    whole block with one inverse FFT, multiplies the samples left to right
    into an accumulator behind the block and forward transforms that: two
    FFT calls whatever the degree, and a repeated product allocates only
    its result.  The buffer keeps the size of the largest product made so
    far, and ``product`` is not reentrant across threads.  Every array the
    plan returns is freshly allocated; no caller ever holds a view of the
    buffer.
    """

    def __init__(self, grid, degree):
        n = grid.n_modes
        n_fine = int(np.ceil((degree + 1) * n / 2))
        if n_fine % 2:
            n_fine += 1
        self.n, self.n_fine = n, n_fine
        h = n // 2
        self.head, self.tail, self.upper = np.s_[..., :h], np.s_[..., -h:], np.s_[..., h:]
        self.middle = np.s_[..., h:n_fine - h]
        self.dx_fine = grid.length / n_fine
        # complex, as the arrays they multiply: a mixed-type ufunc casts
        self.signs = np.where(np.arange(-h, h) % 2, -1.0, 1.0).astype(np.complex128)
        self.pad = self.signs / self.dx_fine
        self.scale = self.dx_fine * self.signs
        for a in (self.signs, self.pad, self.scale):
            a.flags.writeable = False  # shared by every caller of the cache
        self._buffer = np.empty(0, dtype=np.complex128)
        self._work = None

    def _pad_into(self, coeffs, pad, f):
        """Write ``coeffs * pad`` into the head and tail of the fine array ``f``."""
        np.multiply(coeffs[self.upper], pad[self.upper], out=f[self.head])
        np.multiply(coeffs[self.head], pad[self.head], out=f[self.tail])

    def _retained(self, fine, scale):
        """Fresh retained coefficients of the forward-transformed ``fine``."""
        out = np.empty(fine.shape[:-1] + (self.n,), dtype=np.complex128)
        out[self.head] = fine[self.tail]
        out[self.upper] = fine[self.head]
        return np.multiply(scale, out, out=out)

    def _work_arrays(self, lead, count):
        """``(pad, scale, block, acc)`` for ``count`` factors of shape ``lead + (n,)``.

        ``pad`` and ``scale`` are repeated to that shape, since numpy
        allocates an iterator buffer for every ufunc call that broadcasts.
        ``block`` of shape ``(count,) + lead + (n_fine,)`` and the
        accumulator ``acc`` of shape ``lead + (n_fine,)`` are views of the
        flat buffer.  All four are kept for the next call with the same
        ``lead`` and at most as many factors.
        """
        if (self._work is None or self._work[0].shape[:-1] != lead
                or len(self._work[2]) < count):
            size = math.prod(lead) * self.n_fine
            if self._buffer.size < (count + 1) * size:
                self._buffer = np.empty((count + 1) * size, dtype=np.complex128)
            fine = lead + (self.n_fine,)
            block = self._buffer[:count * size].reshape((count,) + fine)
            acc = self._buffer[count * size:(count + 1) * size].reshape(fine)
            # the rows are arrays of their own; folded into the flat buffer,
            # they left glibc trimming the heap (17,500-20,400 minor faults
            # per picard_window pass against under 10; numpy 2.4, glibc)
            shape = lead + (self.n,)
            self._work = (np.broadcast_to(self.pad, shape).copy(),
                          np.broadcast_to(self.scale, shape).copy(), block, acc)
        pad, scale, block, acc = self._work
        return pad, scale, block[:count], acc

    def samples(self, coeffs):
        """Fine-grid samples of the field(s) with ``coeffs`` zero padded."""
        f = np.empty(coeffs.shape[:-1] + (self.n_fine,), dtype=np.complex128)
        self._pad_into(coeffs, self.pad, f)
        f[self.middle] = 0.0
        return scipy.fft.ifft(f, overwrite_x=True)

    def coeffs(self, samples):
        """Retained coefficients of the fine-grid ``samples``."""
        return self._retained(scipy.fft.fft(samples), self.scale)

    def product(self, factors):
        """Retained coefficients of the product of coefficient arrays.

        The factors share one shape.  Each distinct array (by identity) takes
        one row of the block; the samples are multiplied left to right.
        """
        distinct = {}
        for c in factors:
            distinct.setdefault(id(c), c)
        pad, scale, block, acc = self._work_arrays(factors[0].shape[:-1], len(distinct))
        for f, c in zip(block, distinct.values()):
            self._pad_into(c, pad, f)
        block[self.middle] = 0.0
        block = scipy.fft.ifft(block, overwrite_x=True)
        samples = dict(zip(distinct, block))
        prod = None
        for c in factors:
            s = samples[id(c)]
            prod = s if prod is None else np.multiply(prod, s, out=acc)
        return self._retained(scipy.fft.fft(prod, overwrite_x=True), scale)


@functools.lru_cache(maxsize=64)
def product_plan(grid, degree):
    """The cached :class:`ProductPlan` of ``degree``-fold products on ``grid``."""
    return ProductPlan(grid, degree)


def dealiased_product(fields):
    """Pointwise product of 2-5 fields, exact for the retained modes."""
    p = len(fields)
    if not (2 <= p <= 5):
        raise ValueError("dealiased_product takes 2 to 5 fields, got %d" % p)
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise GridMismatchError("all factors must share one grid")
    return SpectralField(grid, product_plan(grid, p).product([f.coeffs for f in fields]))


@functools.lru_cache(maxsize=64)
def derivative_symbol(grid):
    """The read-only multiplier i*xi of :func:`derivative`, cached per grid."""
    m = 1j * grid.frequencies
    m[0] = 0.0  # asymmetric Nyquist mode
    m.flags.writeable = False
    return m


def derivative(fld):
    """Spectral derivative: multiply by i*xi, Nyquist mode zeroed."""
    return SpectralField(fld.grid, fld.coeffs * derivative_symbol(fld.grid))


def _smoothstep(x, center, width, xi_max, x_lo, x_hi):
    # erf ramp pinned to exactly 0 at x_lo and 1 at x_hi; the width is chosen
    # so the Gaussian spectral tail beyond xi_max balances the endpoint
    # derivative residual, keeping differentiation ringing near roundoff
    from scipy.special import erf

    sigma = np.sqrt(width / xi_max)
    e0 = erf((x_lo - center) / sigma)
    e1 = erf((x_hi - center) / sigma)
    return (erf((x - center) / sigma) - e0) / (e1 - e0)


_BLEND_FRACTION = 0.08  # share of each domain end given to the smooth step


def antiderivative_symmetric(fld):
    """Two-sided primitive F(x) = (1/2) (int_{-inf}^x - int_x^{inf}) g dy.

    Domain endpoints stand in for +-infinity.  The mean-free part of g is
    integrated spectrally and the total mass enters through an exact linear
    ramp; a smooth step confined to the outer ``_BLEND_FRACTION`` of each
    domain end absorbs the ramp's periodic mismatch so that the returned
    field differentiates back to g away from the boundary.
    """
    grid = fld.grid
    plan = product_plan(grid, 1)
    g = plan.samples(fld.coeffs)
    peak = np.max(np.abs(g))
    if peak > 0 and max(abs(g[0]), abs(g[-1])) > 1e-8 * peak:
        warnings.warn(
            "density has not decayed at the domain endpoints; the two-sided "
            "primitive treats them as +-infinity",
            EndpointDecayWarning,
            stacklevel=2,
        )
    total = complex(fld.coeffs[grid.n_modes // 2])  # zero mode: uhat(0) = int g dx
    xi = grid.frequencies
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(xi != 0, fld.coeffs / (1j * xi), 0.0)
    h[grid.n_modes // 2] = 0.0
    mean_free = plan.samples(h)
    x = grid.points
    x_min = -grid.length / 2
    cumulative = (mean_free - mean_free[0]) + (total / grid.length) * (x - x_min)
    f_vals = cumulative - total / 2
    w = _BLEND_FRACTION * grid.length
    step = _smoothstep(x, grid.length / 2 - w / 2, w, grid.xi_max, x_min, grid.length / 2)
    f_vals = f_vals - total * step
    return SpectralField(grid, plan.coeffs(f_vals))


def l2_norm(fld):
    """Continuum L^2 norm via Plancherel in the fixed convention."""
    return float(np.sqrt(np.sum(np.abs(fld.coeffs) ** 2) / fld.grid.length))


def l2_distance(a, b):
    if a.grid != b.grid:
        raise GridMismatchError("fields live on different grids")
    return float(np.sqrt(np.sum(np.abs(a.coeffs - b.coeffs) ** 2) / a.grid.length))


def spectral_mass(fld):
    """Total squared spectral mass sum |uhat|^2 dxi."""
    return float(np.sum(np.abs(fld.coeffs) ** 2) * fld.grid.dxi)


def zero_field(grid):
    return SpectralField(grid, np.zeros(grid.n_modes, dtype=np.complex128))
