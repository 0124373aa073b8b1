"""Tests for the nonlocal gauge transform."""

import numpy as np
import pytest

from reference import reference_gauge_forward, reference_gauge_taylor
from nnlslab.gauge import gauge_forward
from nnlslab.grid import (
    SpectralField,
    forward_transform,
    l2_distance,
    l2_norm,
    product_plan,
)


def decayed_field(grid, amp=0.5):
    x = grid.points
    s = amp * np.exp(-x * x / 2.0) * np.exp(1.5j * x)
    return forward_transform(s, grid)


def test_gauge_identity_at_zero(grid):
    f = decayed_field(grid)
    out = gauge_forward(f, 0.0)
    assert np.array_equal(out.coeffs, f.coeffs)


def test_gauge_matches_taylor_oracle(grid):
    # small delta: the 8-term series pins the exponential to near roundoff
    f = decayed_field(grid, amp=0.3)
    delta = 0.05
    exact = gauge_forward(f, delta)
    series = reference_gauge_taylor(f, delta, 8)
    assert l2_distance(exact, series) <= 1e-12 * l2_norm(exact)


def test_gauge_roundtrip(grid):
    # v v* = u u*, so the transform with delta flipped inverts it
    f = decayed_field(grid)
    delta = 0.4
    back = gauge_forward(gauge_forward(f, delta), -delta)
    assert l2_distance(back, f) <= 1e-10 * l2_norm(f)


def test_gauge_modulus_identity(grid):
    # (u u*)* = u u*, so the density passes through the transform untouched;
    # the residual is set by spectral truncation of the exponential factor
    def density(fld):
        c = fld.coeffs
        return SpectralField(grid, product_plan(grid, 2).products([c, np.conj(c)], ((0, 1),))[0])

    f = decayed_field(grid)
    uu = density(f)
    for delta, tol in ((0.1, 1e-10), (0.7, 1e-8)):
        vv = density(gauge_forward(f, delta))
        assert l2_distance(vv, uu) <= tol * l2_norm(uu)


def test_gauge_nontrivial(grid):
    f = decayed_field(grid)
    out = gauge_forward(f, 0.4)
    assert l2_distance(out, f) > 1e-3 * l2_norm(f)


@pytest.mark.parametrize("delta", [0.0, 0.05, -0.4, 0.7])
def test_gauge_matches_reference_bit_for_bit(grid, delta):
    # the library works on raw coefficient arrays; the reference composes
    # validated fields and the reference product
    f = decayed_field(grid)
    assert np.array_equal(gauge_forward(f, delta).coeffs, reference_gauge_forward(f, delta).coeffs)
