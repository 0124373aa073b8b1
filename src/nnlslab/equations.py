"""Right-hand sides of the five evolution equations and their conserved functionals.

All equations are stored in evolution form

    u_t = i u_xx + i N(u),

with the nonlocal conjugate u*(x) = conj(u(-x)) entering every nonlinearity.
Products are dealiased by zero padding and derivatives are spectral.
``nonlinear_coeffs`` gives N(u) and ``mass_energy_coeffs`` the mass and
energy, both on raw coefficient arrays, one field or a batch of rows.  The
terms of N(u) for every kind are listed once, in ``_terms``; ``_recipe``
turns them into transformed rows and products.  ``nonlinear_coeffs``
transforms u* as the row of conj(coeffs) through ``ProductPlan.products``;
the Lawson stage in ``evolve`` reads u* from the samples of u instead.
"""

from __future__ import annotations

import functools
import math
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


# the factors of the right-hand sides: u, its nonlocal conjugate and their
# spectral derivatives
U, US, DU, DUS = "u", "u*", "u_x", "(u*)_x"


def _terms(spec):
    """N(u) of ``spec`` as its ``(coefficient, factors)`` terms, the kind table."""
    a, b = spec.alpha, spec.beta
    if spec.kind == NNLS:
        return ((a, (U, U, US)),)
    if spec.kind == NDNLS:
        return ((a, (U, US, DU)),)
    if spec.kind == GNDNLS:
        return ((a, (U, US, DU)), (b, (U, U, DUS)))
    if spec.kind == GAUGED_NDNLS:
        cubic, quintic = -a, -(a ** 2) / 2.0
    else:  # GAUGED_GNDNLS
        cubic = -(a - b)
        quintic = -quintic_coefficient(a, b, spec.gauged_coefficient_mode)
    return ((cubic, (U, U, DUS)), (quintic, (U, U, U, US, US)))


@functools.lru_cache(maxsize=64)
def _recipe(spec, reflect):
    """``(groups, accumulate)``: how N(u) of ``spec`` is evaluated from transformed rows.

    One ``(degree, rows, reflected, terms, coefficients)`` group per product
    degree of the nonzero terms: ``rows`` names the factors transformed as
    rows of their own, and each term indexes the sample rows, ``rows`` then
    one row per index in ``reflected``.  Without ``reflect`` every factor is
    a row and ``reflected`` is empty, as ``ProductPlan.products`` takes it.
    With it, which the Lawson stage reads, u* is the reflection of the row
    u and (u*)_x = -(u_x)* that of the row u_x, its sign moved into the
    coefficient.  ``accumulate`` is set for the kinds of two terms, which
    sum into a zeroed array.
    """
    table = _terms(spec)
    groups = {}
    for coeff, factors in table:
        if coeff != 0:
            groups.setdefault(len(factors), []).append((coeff, factors))
    recipe = []
    for degree, terms in groups.items():
        names = {f for _, factors in terms for f in factors}
        # factor -> (the row it is reflected from, sign)
        mirrored = {US: (U, 1.0), DUS: (DU, -1.0)} if reflect else {}
        names |= {mirrored[f][0] for f in names if f in mirrored}
        rows = [f for f in (U, US, DU, DUS) if f in names and f not in mirrored]
        starred = [f for f in (US, DUS) if f in names and f in mirrored]
        index = {f: i for i, f in enumerate(rows + starred)}
        recipe.append((
            degree, tuple(rows), tuple(rows.index(mirrored[f][0]) for f in starred),
            tuple(tuple(index[f] for f in factors) for _, factors in terms),
            tuple(coeff * math.prod(mirrored.get(f, (U, 1.0))[1] for f in factors)
                  for coeff, factors in terms)))
    return tuple(recipe), len(table) > 1


def nonlinear_coeffs(coeffs, grid, spec):
    """N(u) in the evolution form u_t = i u_xx + i N(u), on raw Fourier coefficients.

    ``coeffs`` is one field ``(n_modes,)`` or a batch ``(batch, n_modes)``;
    each row of a batch gives the bits of its own 1-D call.  Neither the
    input nor the result is validated, so evolution loops can call it
    without building a :class:`SpectralField` per substep.  Every u* factor
    is the transformed row of conj(coeffs), bit for bit as the test
    references build it.
    """
    groups, accumulate = _recipe(spec, False)
    out = np.zeros(coeffs.shape, dtype=np.complex128) if accumulate else None
    d = derivative_symbol(grid)
    us = None
    for degree, rows, _, terms, coefficients in groups:
        arrays = []
        for f in rows:
            if f == U:
                arrays.append(coeffs)
            elif f == DU:
                arrays.append(coeffs * d)
            else:
                if us is None:
                    us = np.conj(coeffs)
                arrays.append(us if f == US else us * d)
        products = product_plan(grid, degree).products(arrays, terms)
        for coeff, p in zip(coefficients, products):
            np.multiply(coeff, p, out=p)  # coeff * p, in the fresh products array
            if out is None:
                return p
            out += p
    return np.zeros(coeffs.shape, dtype=np.complex128) if out is None else out


@functools.lru_cache(maxsize=16)
def _diagnostic_blocks(grid, shape):
    """The reused ``(4,) + shape`` coefficient and sample blocks of ``mass_energy_coeffs``.

    Every caller gets the same arrays, so ``mass_energy_coeffs`` is not
    reentrant across threads, as the product plans are not.
    """
    return (np.empty((4,) + shape, dtype=np.complex128),
            np.empty((4,) + shape, dtype=np.complex128))


def mass_energy_coeffs(coeffs, grid, alpha):
    """``[(mass, energy)]`` of each row of the raw ``(batch, n_modes)`` coefficients.

    M(u) = int u u* dx, complex-valued in general, and
    E(u) = int (du)(du)* + (alpha/2) u^2 (u*)^2 dx.  One inverse FFT
    transforms u, u*, du and (du)* of every row, in blocks kept per grid
    and batch shape.
    """
    dx = grid.dx
    block, samples = _diagnostic_blocks(grid, coeffs.shape)
    block[0] = coeffs
    np.conj(coeffs, out=block[1])
    np.multiply(coeffs, derivative_symbol(grid), out=block[2])
    np.conj(block[2], out=block[3])
    samples = product_plan(grid, 1).samples(block, out=samples)
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
