"""Numerical norm calculus: the exponential-weight norm and dilation.

The central object is the weighted spectral norm

    || <xi>^sigma 2^{s|xi|} uhat(xi) ||_{L^2(dxi)}

computed as a Riemann sum over the frequency grid.  The L^2_xi measure is
plain dxi; every quadrature oracle in the test-suite uses the same choice.
The dilation bound that the two together satisfy on half-line data is
checked by ``experiments.exp_scaling_global``.  The norm's weight and sum
are public: the norm-inflation band norm uses both.

:func:`dilate` resamples a smooth spectrum at xi/lam with a chirp-z transform
(Rabiner, Schafer and Rader 1969; Bluestein 1970): three FFTs of about 2n
points, with every chirp phase reduced exactly in integers.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from .grid import LAST_AXIS, SpectralField, inverse_transform, pypocketfft

_LN2 = np.log(2.0)
_EXP_LIMIT = 700.0  # |exp argument| bound for the <xi>^sigma 2^{s|xi|} weight
_SUM_FLOOR = np.finfo(float).tiny / np.finfo(float).eps  # underflow is below its last bit


def esigma_weights(xi, s, sigma):
    """<xi>^sigma 2^{s|xi|} at the frequencies ``xi``, from its exact exponent
    s|xi| ln 2 + (sigma/2) ln(1 + xi^2).  A non-finite s or sigma raises ValueError,
    and so does an exponent that reaches 700 at some xi or is at most -700 at every
    xi (the weight would overflow, or underflow everywhere; on a grid the exponent
    is 0 at xi = 0)."""
    for name, value in (("s", s), ("sigma", sigma)):
        if not np.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))
    # an exponent that overflows reads inf, and inf - inf reads nan: both refused
    with np.errstate(over="ignore", invalid="ignore"):
        arg = s * np.abs(xi) * _LN2 + 0.5 * sigma * np.log1p(xi * xi)
        top = arg.max()
    if not -_EXP_LIMIT < top < _EXP_LIMIT:
        raise ValueError("weight <xi>^sigma 2^(s|xi|) %s at s = %r, sigma = %r: exponent %.3g"
                         % ("underflows everywhere" if top < 0 else "overflows", s, sigma, top))
    return np.exp(arg)


@functools.lru_cache(maxsize=64)
def _grid_weights(grid, s, sigma):
    """The read-only ``esigma_weights`` of ``grid``'s frequencies, once per (grid, s, sigma)."""
    w = esigma_weights(grid.frequencies, s, sigma)
    w.flags.writeable = False
    return w


def weighted_l2(weight, values, measure=1.0):
    """sqrt(measure * sum |weight * values|^2), with no numpy warning: inf where a
    weighted value overflows.  Wherever the plain sum of squares is finite and at
    least ``_SUM_FLOOR`` it is the result, bit for bit; outside that range, where
    squares overflow or underflow, the norm is the largest weighted value times the
    norm of the ratios to it, so a tiny field keeps its norm."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        weighted = np.abs(weight * values)
        total = np.sum(weighted ** 2) * measure
        if _SUM_FLOOR <= total < np.inf:
            return float(np.sqrt(total))
        top = weighted.max()
        if top == 0 or not np.isfinite(top):
            return float(top)
        return float(top * np.sqrt(np.sum((weighted / top) ** 2) * measure))


def esigma_norm(fld, s, sigma):
    """Exponentially weighted spectral norm with parameters (s, sigma): the
    ``weighted_l2`` of the coefficients under ``esigma_weights``, measure dxi."""
    return weighted_l2(_grid_weights(fld.grid, s, sigma), fld.coeffs, fld.grid.dxi)


_SUPPORT_REL_TOL = 1e-13  # a coefficient below this fraction of the peak is off support


def _support_indices(fld):
    a = np.abs(fld.coeffs)
    peak = a.max()
    if peak == 0:
        return np.array([], dtype=int)
    return np.nonzero(a > _SUPPORT_REL_TOL * peak)[0]


_SPARSE_MODE_LIMIT = 4  # at most this many isolated lines for the exact remap


def _chirp(p, q, n):
    """exp(-i pi (q/p) t^2 / n) for t = 0 .. n-1, for the exact rational q/p.

    Each exponent q t^2 is reduced mod 2np in integers before it becomes a
    float angle, so the phase is good to roundoff however large t^2 grows.
    """
    half = n * p
    turns = [((q * t * t + half) % (2 * half) - half) / half for t in range(n)]
    return np.exp(-1j * np.pi * np.array(turns))


def _czt(samples, p, q):
    """sum_j samples[j] exp(-2 pi i (q/p) m mu_j / n) for m, mu_j = -n/2 .. n/2-1.

    Bluestein's identity m mu = (m^2 + mu^2 - (m - mu)^2)/2 turns the sum
    into a convolution with the chirp, done by FFTs of length >= 2n - 1.
    """
    n = samples.size
    c = _chirp(p, q, n)
    c_m = np.concatenate((c[n // 2:0:-1], c[:n // 2]))  # c(|m|) in mode order
    size = pypocketfft.good_size(2 * n - 1, False)  # scipy.fft.next_fast_len(2n - 1)
    kernel = np.zeros(size, dtype=np.complex128)
    kernel[:n] = c.conj()
    kernel[size - n + 1:] = c[:0:-1].conj()  # lags -(n-1) .. -1
    padded = np.zeros(size, dtype=np.complex128)
    np.multiply(samples, c_m, out=padded[:n])
    spectrum = pypocketfft.c2c(padded, LAST_AXIS, True, 0, padded, 1)
    spectrum *= pypocketfft.c2c(kernel, LAST_AXIS, True, 0, kernel, 1)
    conv = pypocketfft.c2c(spectrum, LAST_AXIS, False, 2, spectrum, 1)
    return c_m * conv[:n]


def dilate(fld, lam):
    """Dilation u -> u(lam x), acting as uhat(xi) -> uhat(xi/lam)/lam in frequency.

    A spectrum made of a few isolated lattice lines is dilated by an exact
    index remap (a pure mode at xi0 moves to lam*xi0 with its coefficient
    divided by lam).  A smooth spectrum is treated as samples of a continuum
    transform and resampled at xi/lam by band-limited interpolation (a
    chirp-z transform of the physical samples, with lam taken as the exact
    rational value of the float), which is spectrally accurate for decayed
    fields.
    """
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError("dilation factor must be positive and finite, got %r" % (lam,))
    grid = fld.grid
    if lam == 1.0:
        return SpectralField(grid, fld.coeffs)
    n = grid.n_modes
    sup = _support_indices(fld)
    if sup.size:
        top = np.max(np.abs(grid.frequencies[sup])) * lam
        if top >= grid.xi_max:
            raise ValueError(
                "dilated spectrum exceeds the grid band (max |xi| %.3g >= %.3g)"
                % (top, grid.xi_max)
            )
    if 0 < sup.size <= _SPARSE_MODE_LIMIT:
        # a nearby small-denominator ratio: lam = 3.7 remaps mode 10 to 37
        frac = Fraction(lam).limit_denominator(1 << 20)
        tgt = (sup - n // 2) * frac.numerator
        if abs(float(frac) - lam) < 1e-14 and np.all(tgt % frac.denominator == 0):
            out = np.zeros(n, dtype=np.complex128)
            out[tgt // frac.denominator + n // 2] = fld.coeffs[sup] / lam
            return SpectralField(grid, out)
    # x_j = mu_j dx with mu_j = j - n/2, so the phase exp(-i xi_m x_j / lam)
    # is exp(-2 pi i (q/p) m mu_j / n) with lam = p/q exactly
    p, q = Fraction(lam).as_integer_ratio()
    out = grid.dx * _czt(inverse_transform(fld), p, q)
    # the source is band-limited, so targets beyond the band are exactly zero;
    # evaluating them anyway would alias on the sample lattice
    out[np.abs(grid.frequencies / lam) > grid.xi_max] = 0.0
    return SpectralField(grid, out / lam)

