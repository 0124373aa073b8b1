"""Plain compositions of the public transforms, kept as exact references.

``reference_product`` embeds every factor in a freshly built fine grid,
transforms each factor separately and crops the forward transform of the
product; ``reference_nonlinear_term`` builds every right-hand side from it,
kind by kind.  The planned kernels in ``nnlslab.grid`` and
``nnlslab.equations`` perform the same floating-point operations in the same
order, so they must agree with these bit for bit.
"""

import numpy as np

from nnlslab.equations import quintic_coefficient
from nnlslab.grid import (
    FrequencyGrid,
    SpectralField,
    forward_transform,
    inverse_transform,
    nonlocal_conjugate,
    zero_field,
)


def _embed(coeffs, n, n_fine):
    out = np.zeros(n_fine, dtype=np.complex128)
    off = n_fine // 2 - n // 2
    out[off:off + n] = coeffs
    return out


def _derivative(fld):
    m = 1j * fld.grid.frequencies
    m[0] = 0.0
    return SpectralField(fld.grid, fld.coeffs * m)


def reference_product(fields):
    grid = fields[0].grid
    n = grid.n_modes
    n_fine = int(np.ceil((len(fields) + 1) * n / 2))
    if n_fine % 2:
        n_fine += 1
    fine = FrequencyGrid(n_fine, grid.length)
    prod = None
    for f in fields:
        s = inverse_transform(SpectralField(fine, _embed(f.coeffs, n, n_fine)))
        prod = s if prod is None else prod * s
    c_fine = forward_transform(prod, fine).coeffs
    off = n_fine // 2 - n // 2
    return SpectralField(grid, c_fine[off:off + n])


def reference_nonlinear_term(fld, spec):
    a, b = spec.alpha, spec.beta
    us = nonlocal_conjugate(fld)
    if spec.kind == "NNLS":
        if a == 0:
            return zero_field(fld.grid)
        return SpectralField(fld.grid, a * reference_product([fld, fld, us]).coeffs)
    if spec.kind == "NdNLS":
        if a == 0:
            return zero_field(fld.grid)
        term = reference_product([fld, us, _derivative(fld)])
        return SpectralField(fld.grid, a * term.coeffs)
    out = np.zeros(fld.grid.n_modes, dtype=np.complex128)
    if spec.kind == "gNdNLS":
        if a != 0:
            out += a * reference_product([fld, us, _derivative(fld)]).coeffs
        if b != 0:
            out += b * reference_product([fld, fld, _derivative(us)]).coeffs
        return SpectralField(fld.grid, out)
    if spec.kind == "GaugedNdNLS":
        cubic_coeff, quintic = -a, -(a ** 2) / 2.0
    else:
        cubic_coeff = -(a - b)
        quintic = -quintic_coefficient(a, b, spec.gauged_coefficient_mode)
    if cubic_coeff != 0:
        out += cubic_coeff * reference_product([fld, fld, _derivative(us)]).coeffs
    if quintic != 0:
        out += quintic * reference_product([fld, fld, fld, us, us]).coeffs
    return SpectralField(fld.grid, out)
