"""Numerical norm calculus: exponential-weight norms, Sobolev, Besov, dilation.

The central object is the weighted spectral norm

    || <xi>^sigma 2^{s|xi|} uhat(xi) ||_{L^2(dxi)}

computed as a Riemann sum over the frequency grid.  The L^2_xi measure is
plain dxi; every quadrature oracle in the test-suite uses the same choice.

:func:`dilate` resamples a smooth spectrum at xi/lam with a chirp-z transform
(Rabiner, Schafer and Rader 1969; Bluestein 1970): three FFTs of about 2n
points, with every chirp phase reduced exactly in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.fft

from .equations import support_leakage
from .grid import (
    FrequencyGrid,
    SpectralField,
    forward_transform,
    inverse_transform,
    spectral_mass,
)

_LN2 = np.log(2.0)
_OVERFLOW_LIMIT = 700.0  # exp argument bound for the 2^{s|xi|} weight


def _weights(xi, s, sigma):
    arg = s * np.abs(xi) * _LN2 + 0.5 * sigma * np.log1p(xi * xi)
    return np.exp(arg)


def esigma_norm(fld, s, sigma):
    """Exponentially weighted spectral norm with parameters (s, sigma)."""
    xi = fld.grid.frequencies
    if abs(s) * fld.grid.xi_max * _LN2 >= _OVERFLOW_LIMIT:
        raise ValueError(
            "weight 2^(s|xi|) overflows: |s|*xi_max*ln2 = %.3g >= %.0f"
            % (abs(s) * fld.grid.xi_max * _LN2, _OVERFLOW_LIMIT)
        )
    w = _weights(xi, s, sigma)
    return float(np.sqrt(np.sum(np.abs(w * fld.coeffs) ** 2) * fld.grid.dxi))


def hsigma_norm(fld, sigma):
    """Sobolev norm: the s = 0 case of :func:`esigma_norm`."""
    return esigma_norm(fld, 0.0, sigma)


@dataclass(frozen=True)
class DyadicCutoff:
    """Smooth dyadic cutoff: psi = 1 on [-1,1], 0 outside [-2,2], cos^2 ramp."""

    def psi(self, xi):
        a = np.abs(np.asarray(xi, dtype=float))
        ramp = np.cos(np.pi * (a - 1.0) / 2.0) ** 2
        return np.where(a <= 1.0, 1.0, np.where(a >= 2.0, 0.0, ramp))

    def phi(self, j, xi):
        """Shell function phi_j(xi) = psi(2^-j xi) - psi(2^-j+1 xi), j >= 1."""
        if j < 1:
            raise ValueError("shell index must be >= 1")
        xi = np.asarray(xi, dtype=float)
        return self.psi(xi * 2.0 ** (-j)) - self.psi(xi * 2.0 ** (-j + 1))

    def n_blocks(self, grid):
        """Number of blocks (including the psi block) covering the grid band."""
        return max(2, int(np.ceil(np.log2(grid.xi_max))) + 1)


_CUTOFF = DyadicCutoff()


def littlewood_paley_blocks(fld):
    """Dyadic decomposition [psi-block, shell_1 f, shell_2 f, ...]; sums back to f."""
    xi = fld.grid.frequencies
    jmax = _CUTOFF.n_blocks(fld.grid)
    blocks = [SpectralField(fld.grid, fld.coeffs * _CUTOFF.psi(xi))]
    for j in range(1, jmax):
        blocks.append(SpectralField(fld.grid, fld.coeffs * _CUTOFF.phi(j, xi)))
    return blocks


def _lp_norm(samples, dx, p):
    a = np.abs(samples)
    if np.isinf(p):
        return float(np.max(a))
    return float((np.sum(a ** p) * dx) ** (1.0 / p))


def besov_norm(fld, sigma, p, q):
    """Besov norm: l^q over dyadic blocks of 2^{j sigma} ||block||_{L^p}."""
    if p < 1 or q < 1:
        raise ValueError("Besov indices require p, q >= 1")
    blocks = littlewood_paley_blocks(fld)
    dx = fld.grid.dx
    terms = np.array(
        [
            2.0 ** (j * sigma) * _lp_norm(inverse_transform(b), dx, p)
            for j, b in enumerate(blocks)
        ]
    )
    if np.isinf(q):
        return float(np.max(terms))
    return float(np.sum(terms ** q) ** (1.0 / q))


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
    size = scipy.fft.next_fast_len(2 * n - 1)
    kernel = np.zeros(size, dtype=np.complex128)
    kernel[:n] = c.conj()
    kernel[size - n + 1:] = c[:0:-1].conj()  # lags -(n-1) .. -1
    spectrum = scipy.fft.fft(samples * c_m, size) * scipy.fft.fft(kernel, overwrite_x=True)
    conv = scipy.fft.ifft(spectrum, overwrite_x=True)
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


def scaling_bound_check(fld, s, sigma, lam, eps0):
    """Ratio of ||D_lam u|| to the scaling-law bound lam^(-1/2+max(sigma,0)) 2^(s lam eps0/2) ||u||."""
    if not (lam > 1):
        raise ValueError("scaling check requires lam > 1")
    if s > 0:
        raise ValueError("scaling check requires s <= 0")
    # first: support_leakage reads 0 for a zero field
    if spectral_mass(fld) == 0:
        raise ValueError("scaling check requires a nonzero field")
    leakage = support_leakage(fld, eps0)
    if leakage > 1e-10:
        raise ValueError("spectrum not supported in [eps0, inf): leakage %.3g" % leakage)
    base = esigma_norm(fld, s, sigma)
    scaled = esigma_norm(dilate(fld, lam), s, sigma)
    bound = lam ** (-0.5 + max(sigma, 0.0)) * 2.0 ** (s * lam * eps0 / 2.0) * base
    return scaled / bound


def embedding_check(fld, r, s, sigma):
    """Ratio ||u||_{E^s_sigma} / ||u||_{H^r}; finite on the grid for s < 0."""
    if s >= 0:
        raise ValueError("embedding check requires s < 0")
    hr = hsigma_norm(fld, r)
    if hr == 0:
        raise ValueError("embedding check requires a nonzero field")
    return esigma_norm(fld, s, sigma) / hr
