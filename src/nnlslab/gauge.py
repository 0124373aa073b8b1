"""The nonlocal gauge transform.

The transform multiplies a field by the exponential of the two-sided
primitive of the (generally complex) density u u*:

    G(u) = u * exp(-delta * P(u u*)),     P = (1/2)(int_{-inf}^x - int_x^{inf}).

Because (u u*)* = u u*, the modulus identity G(u) G(u)* = u u* holds exactly,
which also makes the map invertible with the sign of delta flipped.  The
truncated Taylor series of the exponential, its independent oracle, is kept
with the test references.
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


def gauge_forward(fld, delta):
    """v = u exp(-delta * P(u u*)) pointwise; ``FloatingPointError`` if u u* or v overflows."""
    if delta == 0:
        return SpectralField(fld.grid, fld.coeffs)
    grid, c = fld.grid, fld.coeffs
    plan = product_plan(grid, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        u, us = plan.samples(np.stack([c, np.conj(c)]))
        density = plan.coeffs(u * us)
    if not np.all(np.isfinite(density)):
        raise FloatingPointError("the density u u* overflows")
    density = SpectralField(grid, density)
    prim = product_plan(grid, 1).samples(antiderivative_symmetric(density).coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        v = inverse_transform(fld) * np.exp(-delta * prim)
    if not np.all(np.isfinite(v)):
        raise FloatingPointError("u exp(-delta P(u u*)) overflows")
    return forward_transform(v, grid)
