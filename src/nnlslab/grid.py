"""Spectral discretization layer: grids, transforms, derivatives, products.

The whole line is approximated by a periodic interval of length ``L``
centred at the origin, with ``n`` uniformly spaced sample points
``x_j = -L/2 + j*L/n``.  Fields are stored as Fourier coefficients on the
uniform frequency grid ``xi_m = m * 2*pi/L`` for
``m = -n/2, ..., n/2 - 1`` (ascending order), in the continuum convention

    coeffs[m]  ~  uhat(xi_m) = int u(x) exp(-i xi_m x) dx,

so that ``u(x_j) = (1/L) * sum_m coeffs[m] exp(i xi_m x_j)``.

:class:`ProductPlan` spells this convention out as index slices and sign and
``dx`` vectors: the plan of degree 1 has no padding, and its ``coeffs`` and
``samples`` are :func:`forward_transform` and :func:`inverse_transform`.
Higher degrees pad for dealiased products: one inverse transform of a block
holding every factor and one forward transform of the products made from
it, whatever their degree and number.  A plan holds read-only constants
only and every call allocates its own arrays, so plans are reentrant.  The
Lawson stage's sign-free padding lives in ``equations._Nonlinearity``, which
takes only the padded size and ``dx_fine`` of a plan: its samples lie at
x_j = j dx_fine, it folds every constant into one output scale, and it
keeps its zero padded input blocks between calls, writing only their heads
and tails.

Every transform of the package is one call of ``pypocketfft.c2c``, the
pocketfft kernel behind ``scipy.fft.fft`` and ``ifft``, with the same plan
cache and the same bits.  Called directly it takes about 1 us, against about
5 us through ``scipy.fft``'s dispatch and Python wrappers, and a Lawson
right-hand side makes up to four of them.  ``numpy.fft`` is no alternative:
it sets a plan up on every call, about 75 us more at 8192 points.  The
kernel is called as a module attribute, ``pypocketfft.c2c(a, axes, forward,
inorm, out, nthreads)``, so that a test or a profiler that rebinds it sees
every call.  Its inputs are ``complex128`` (a real input gets a real-to-complex
transform), and an ``out`` that is not ``a`` itself must not overlap it.

The kernel is loaded from its extension file in scipy's install, not through
``import scipy.fft``: that package import pulls in scipy's array-API layer,
``numpy.f2py``, ``numpy.testing`` and ``scipy.special``, about 0.3 s and
25 MB resident on a 2-core host, while the file alone loads in about 1 ms.
It is registered in ``sys.modules`` under its canonical name,
``scipy.fft._pocketfft.pypocketfft``, so a later ``import scipy.fft`` binds
the same module object.  A module scipy has already loaded is reused, and
the plain import is the fallback where the file is not found.  Without that
import's frees, glibc's dynamic mmap and trim thresholds stay low and the
hot loops' temporaries would be mapped and trimmed on every call, so the
package pins them once (see ``nnlslab/__init__.py``).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

_KERNEL = "scipy.fft._pocketfft.pypocketfft"


def _load_kernel():
    """scipy's pocketfft extension module, loaded from its file without ``import scipy.fft``."""
    if _KERNEL in sys.modules:
        return sys.modules[_KERNEL]
    scipy_spec = importlib.util.find_spec("scipy")
    roots = scipy_spec.submodule_search_locations if scipy_spec else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "fft", "_pocketfft", "pypocketfft" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(_KERNEL, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(_KERNEL, path, loader=loader))
                loader.exec_module(module)
                sys.modules[_KERNEL] = module
                return module
    from scipy.fft._pocketfft import pypocketfft
    return pypocketfft


pypocketfft = _load_kernel()

LAST_AXIS = (-1,)  # the transformed axis of every pypocketfft.c2c call


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
        n = self.n_modes
        if isinstance(n, (bool, np.bool_)) or not (isinstance(n, numbers.Real) and float(n).is_integer()):
            raise ValueError("n_modes must be an integer, got %r" % (n,))
        # an integral float would compare and hash equal to the int grid, and
        # so share its cached plans: it is stored as the int
        object.__setattr__(self, "n_modes", int(n))
        if self.n_modes < 8 or self.n_modes % 2 != 0:
            raise ValueError("n_modes must be even and >= 8, got %r" % (self.n_modes,))
        if not (0 < self.length < np.inf):
            raise ValueError("length must be finite and positive, got %r" % (self.length,))

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
    The transforms are ``pypocketfft.c2c`` calls (see the module docstring),
    the inverse with ``inorm=2``, a division by the transform length, as
    ``scipy.fft.ifft`` has it.  ``samples`` and ``products`` transform
    arrays of their own in place; ``coeffs`` leaves the caller's samples
    alone.

    A plan holds read-only constants only, and each call allocates its own
    arrays, so one plan serves any number of callers at once.  ``products``
    pads its k coefficient rows into one fresh ``(k,) + lead + (n_fine,)``
    block, transforms it with one inverse FFT, multiplies each term's
    samples left to right into an accumulator of its own behind them and
    forward transforms every accumulator at once: two FFT calls whatever
    the degree and the number of terms.
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

    def _pad_into(self, coeffs, f):
        """Write ``coeffs * pad`` into the head and tail of the fine array ``f``."""
        np.multiply(coeffs[self.upper], self.pad[self.upper], out=f[self.head])
        np.multiply(coeffs[self.head], self.pad[self.head], out=f[self.tail])

    def _retained(self, fine):
        """Fresh retained coefficients of the forward-transformed ``fine``, times ``scale``."""
        out = np.empty(fine.shape[:-1] + (self.n,), dtype=np.complex128)
        out[self.head] = fine[self.tail]
        out[self.upper] = fine[self.head]
        return np.multiply(self.scale, out, out=out)

    def samples(self, coeffs):
        """Fine-grid samples of the field(s) with ``coeffs`` zero padded."""
        f = np.empty(coeffs.shape[:-1] + (self.n_fine,), dtype=np.complex128)
        self._pad_into(coeffs, f)
        f[self.middle] = 0.0
        return pypocketfft.c2c(f, LAST_AXIS, False, 2, f, 1)

    def coeffs(self, samples):
        """Retained coefficients of the fine-grid ``samples``."""
        return self._retained(pypocketfft.c2c(samples, LAST_AXIS, True, 0, None, 1))

    def products(self, rows, terms):
        """Retained coefficients of several products of the same sample rows.

        ``rows`` are coefficient arrays of one shape; each is padded into
        one row of the block, and one inverse FFT transforms them all.  Each
        term is a tuple of two or more indices into ``rows``, whose samples
        are multiplied left to right into an accumulator of its own, and one
        forward FFT transforms every accumulator.  The result stacks one
        coefficient array per term along a new first axis.
        """
        fine = np.empty((len(rows) + len(terms),) + rows[0].shape[:-1] + (self.n_fine,),
                        dtype=np.complex128)
        block, acc = fine[:len(rows)], fine[len(rows):]
        for c, f in zip(rows, block):
            self._pad_into(c, f)
        block[self.middle] = 0.0
        samples = pypocketfft.c2c(block, LAST_AXIS, False, 2, block, 1)
        for out, term in zip(acc, terms):
            prod = samples[term[0]]
            for i in term[1:]:
                prod = np.multiply(prod, samples[i], out=out)
        return self._retained(pypocketfft.c2c(acc, LAST_AXIS, True, 0, acc, 1))


@functools.lru_cache(maxsize=64)
def product_plan(grid, degree):
    """The cached :class:`ProductPlan` of ``degree``-fold products on ``grid``."""
    return ProductPlan(grid, degree)


@functools.lru_cache(maxsize=64)
def derivative_symbol(grid):
    """The read-only spectral derivative multiplier i*xi, Nyquist mode zeroed, per grid."""
    m = 1j * grid.frequencies
    m[0] = 0.0  # asymmetric Nyquist mode
    m.flags.writeable = False
    return m


def _smoothstep(x, center, width, xi_max, x_lo, x_hi):
    # erf ramp pinned to exactly 0 at x_lo and 1 at x_hi; the width is chosen
    # so the Gaussian spectral tail beyond xi_max balances the endpoint
    # derivative residual, keeping differentiation ringing near roundoff;
    # math.erf elementwise, since scipy.special costs 0.3 s of import
    sigma = np.sqrt(width / xi_max)
    e0 = math.erf((x_lo - center) / sigma)
    e1 = math.erf((x_hi - center) / sigma)
    z = (x - center) / sigma
    return (np.fromiter(map(math.erf, z), float, z.size) - e0) / (e1 - e0)


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

