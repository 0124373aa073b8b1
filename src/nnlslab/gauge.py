"""The nonlocal gauge transform and its Taylor-series oracle.

The transform multiplies a field by the exponential of the two-sided
primitive of the (generally complex) density u u*:

    G(u) = u * exp(-delta * P(u u*)),     P = (1/2)(int_{-inf}^x - int_x^{inf}).

Because (u u*)* = u u*, the modulus identity G(u) G(u)* = u u* holds exactly,
which also makes the map invertible with the sign of delta flipped.
"""

from __future__ import annotations

import numpy as np

from .grid import (
    SpectralField,
    antiderivative_symmetric,
    forward_transform,
    inverse_transform,
    product_plan,
)


def _primitive_samples(coeffs, grid):
    """Samples of P(u u*) for the Fourier coefficients ``coeffs`` of u."""
    density = SpectralField(grid, product_plan(grid, 2).product([coeffs, np.conj(coeffs)]))
    return product_plan(grid, 1).samples(antiderivative_symmetric(density).coeffs)


def gauge_forward(fld, delta):
    """v = u exp(-delta * P(u u*)), computed pointwise in physical space."""
    if delta == 0:
        return SpectralField(fld.grid, fld.coeffs)
    prim = _primitive_samples(fld.coeffs, fld.grid)
    v = inverse_transform(fld) * np.exp(-delta * prim)
    return forward_transform(v, fld.grid)


def gauge_taylor(fld, delta, order):
    """Truncated series u * sum_{k<=order} ((-delta)^k / k!) P(u u*)^k.

    Powers are built by repeated dealiased products; serves as an independent
    oracle for the exponential form.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    grid, u = fld.grid, fld.coeffs
    acc = np.array(u, dtype=np.complex128)
    if order == 0:
        return SpectralField(grid, acc)
    pair = product_plan(grid, 2)
    prim = product_plan(grid, 1).coeffs(_primitive_samples(u, grid))
    power = None  # the coefficients of P^k
    coeff = 1.0
    for k in range(1, order + 1):
        coeff *= -delta / k
        power = prim if power is None else pair.product([power, prim])
        acc = acc + coeff * pair.product([u, power])
    return SpectralField(grid, acc)
