"""Right-hand sides of the five evolution equations and their conserved functionals.

All equations are stored in evolution form

    u_t = i u_xx + i N(u),

with the nonlocal conjugate u*(x) = conj(u(-x)) entering every nonlinearity.
Products are dealiased by zero padding and derivatives are spectral.
``nonlinear_coeffs`` gives N(u) and ``mass_energy_coeffs`` the mass and
energy, both on raw coefficient arrays, one field or a batch of rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import derivative_symbol, product_plan

NNLS = "NNLS"
NDNLS = "NdNLS"
GNDNLS = "gNdNLS"
GAUGED_NDNLS = "GaugedNdNLS"
GAUGED_GNDNLS = "GaugedGNdNLS"

KINDS = (NNLS, NDNLS, GNDNLS, GAUGED_NDNLS, GAUGED_GNDNLS)
COEFFICIENT_MODES = ("printed", "rederived")


@dataclass(frozen=True)
class EquationSpec:
    """Which PDE right-hand side to evaluate, with its coefficients."""

    kind: str
    alpha: float = 1.0
    beta: float = 0.0
    gauged_coefficient_mode: str = "rederived"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown equation kind %r; expected one of %s" % (self.kind, (KINDS,)))
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if self.gauged_coefficient_mode not in COEFFICIENT_MODES:
            raise ValueError(
                "gauged_coefficient_mode must be 'printed' or 'rederived', got %r"
                % (self.gauged_coefficient_mode,)
            )


def quintic_coefficient(alpha, beta, mode):
    """Coefficient of v^3 (v*)^2 in the gauged general equation.

    'printed' follows the published display; 'rederived' is the value obtained
    by redoing the gauge computation symbolically with beta != 0 (it reduces to
    the beta = 0 gauged equation, the printed one does not).
    """
    if mode == "printed":
        return (alpha ** 2 / 2.0) * (alpha - 1.5 * beta)
    return (alpha / 2.0) * (alpha - 1.5 * beta)


def nonlinear_coeffs(coeffs, grid, spec):
    """N(u) in the evolution form u_t = i u_xx + i N(u), on raw Fourier coefficients.

    ``coeffs`` is one field ``(n_modes,)`` or a batch ``(batch, n_modes)``;
    each row of a batch gives the bits of its own 1-D call.  Neither the
    input nor the result is validated, so evolution loops can call it
    without building a :class:`SpectralField` per substep.
    """
    a, b = spec.alpha, spec.beta
    u, us = coeffs, np.conj(coeffs)
    cubic = product_plan(grid, 3)
    d = derivative_symbol(grid)
    if spec.kind == NNLS:
        if a == 0:
            return np.zeros(u.shape, dtype=np.complex128)
        return a * cubic.product([u, u, us])
    if spec.kind == NDNLS:
        if a == 0:
            return np.zeros(u.shape, dtype=np.complex128)
        return a * cubic.product([u, us, u * d])
    out = np.zeros(u.shape, dtype=np.complex128)
    if spec.kind == GNDNLS:
        if a != 0:
            out += a * cubic.product([u, us, u * d])
        if b != 0:
            out += b * cubic.product([u, u, us * d])
        return out
    if spec.kind == GAUGED_NDNLS:
        cubic_coeff, quintic = -a, -(a ** 2) / 2.0
    else:  # GAUGED_GNDNLS
        cubic_coeff = -(a - b)
        quintic = -quintic_coefficient(a, b, spec.gauged_coefficient_mode)
    if cubic_coeff != 0:
        out += cubic_coeff * cubic.product([u, u, us * d])
    if quintic != 0:
        out += quintic * product_plan(grid, 5).product([u, u, u, us, us])
    return out


def mass_energy_coeffs(coeffs, grid, alpha):
    """``[(mass, energy)]`` of each row of the raw ``(batch, n_modes)`` coefficients.

    M(u) = int u u* dx, complex-valued in general, and
    E(u) = int (du)(du)* + (alpha/2) u^2 (u*)^2 dx.  One inverse FFT
    transforms u, u*, du and (du)* of every row.
    """
    dx = grid.dx
    dc = coeffs * derivative_symbol(grid)
    samples = product_plan(grid, 1).samples(np.stack([coeffs, np.conj(coeffs), dc, np.conj(dc)]))
    out = []
    for u, us, du, dus in zip(*samples):
        integrand = du * dus + (alpha / 2.0) * (u * us) ** 2
        out.append((complex(np.sum(u * us) * dx), complex(np.sum(integrand) * dx)))
    return out


def support_leakage(fld, eps0):
    """Fraction of squared spectral mass at frequencies below eps0."""
    if eps0 < 0:
        raise ValueError("eps0 must be nonnegative")
    power = np.abs(fld.coeffs) ** 2
    total = power.sum()
    if total == 0:
        return 0.0
    below = power[fld.grid.frequencies < eps0].sum()
    return float(below / total)
