"""Spectral discretization layer: grids, transforms, projections, products.

The whole line is approximated by a periodic interval of length ``L``
centred at the origin, with ``n`` uniformly spaced sample points
``x_j = -L/2 + j*L/n``.  Fields are stored as Fourier coefficients on the
uniform frequency grid ``xi_m = m * 2*pi/L`` for
``m = -n/2, ..., n/2 - 1`` (ascending order), in the continuum convention

    coeffs[m]  ~  uhat(xi_m) = int u(x) exp(-i xi_m x) dx,

so that ``u(x_j) = (1/L) * sum_m coeffs[m] exp(i xi_m x_j)``.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np


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

    @property
    def dx(self):
        return self.length / self.n_modes

    @property
    def dxi(self):
        return 2 * np.pi / self.length

    @property
    def frequencies(self):
        n = self.n_modes
        return self.dxi * np.arange(-n // 2, n // 2)

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

    def samples(self):
        return inverse_transform(self)


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


def _signs(n):
    # (-1)^m for m = -n/2 .. n/2-1, i.e. exp(-i xi_m x_0) with x_0 = -L/2
    s = np.ones(n)
    s[1::2] = -1.0
    if (n // 2) % 2 == 1:
        s = -s
    return s


def forward_transform(samples, grid):
    """Trapezoid approximation of uhat(xi) = int u exp(-i xi x) dx."""
    s = np.asarray(samples, dtype=np.complex128)
    if s.shape != (grid.n_modes,):
        raise ValueError(
            "samples length %d does not match n_modes %d" % (s.size, grid.n_modes)
        )
    n = grid.n_modes
    c = grid.dx * _signs(n) * np.fft.fftshift(np.fft.fft(s))
    return SpectralField(grid, c)


def inverse_transform(fld):
    """Exact discrete inverse of :func:`forward_transform`."""
    grid = fld.grid
    n = grid.n_modes
    f = np.fft.ifftshift(fld.coeffs * _signs(n)) / grid.dx
    return np.fft.ifft(f)


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
    """Per-(grid, degree) constants of the zero-padded pointwise product.

    The padded size is at least (p+1)/2 times the base mode count for a
    p-fold product, so no aliased contribution can reach the retained band.
    ``index`` maps the n ascending coefficients to their places in the
    unshifted fine array; ``signs`` and ``scale`` are the fine-grid sign and
    ``dx * sign`` vectors of the inverse and forward transforms on that band.
    """

    def __init__(self, grid, degree):
        n = grid.n_modes
        n_fine = int(np.ceil((degree + 1) * n / 2))
        if n_fine % 2:
            n_fine += 1
        off = n_fine // 2 - n // 2
        fine_signs = _signs(n_fine)
        self.n_fine = n_fine
        self.dx_fine = grid.length / n_fine
        self.index = (np.arange(n) - n // 2) % n_fine
        self.signs = fine_signs[off:off + n]
        self.scale = (self.dx_fine * fine_signs)[off:off + n]
        for a in (self.index, self.signs, self.scale):
            a.flags.writeable = False  # shared by every caller of the cache

    def samples(self, coeffs):
        """Fine-grid samples of the field with ``coeffs`` zero padded."""
        f = np.zeros(self.n_fine, dtype=np.complex128)
        # sign first, then divide by dx, as inverse_transform does, so the
        # samples round exactly as the transform of the padded field would
        f[self.index] = coeffs * self.signs / self.dx_fine
        return np.fft.ifft(f)

    def product(self, factors):
        """Retained coefficients of the product of coefficient arrays.

        Each distinct array (by identity) is transformed once; the samples
        are multiplied left to right.
        """
        samples = {}
        prod = None
        for c in factors:
            s = samples.get(id(c))
            if s is None:
                s = samples[id(c)] = self.samples(c)
            prod = s if prod is None else prod * s
        return self.scale * np.fft.fft(prod)[self.index]


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


def antiderivative_symmetric(fld, blend_fraction=0.08):
    """Two-sided primitive F(x) = (1/2) (int_{-inf}^x - int_x^{inf}) g dy.

    Domain endpoints stand in for +-infinity.  The mean-free part of g is
    integrated spectrally and the total mass enters through an exact linear
    ramp; a smooth step confined to the outer ``blend_fraction`` of each
    domain end absorbs the ramp's periodic mismatch so that the returned
    field differentiates back to g away from the boundary.
    """
    grid = fld.grid
    g = inverse_transform(fld)
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
    mean_free = inverse_transform(SpectralField(grid, h))
    x = grid.points
    x_min = -grid.length / 2
    cumulative = (mean_free - mean_free[0]) + (total / grid.length) * (x - x_min)
    f_vals = cumulative - total / 2
    w = blend_fraction * grid.length
    xi_max = np.max(np.abs(xi))
    step = _smoothstep(x, grid.length / 2 - w / 2, w, xi_max, x_min, grid.length / 2)
    f_vals = f_vals - total * step
    return forward_transform(f_vals, grid)


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
