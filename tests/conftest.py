"""Shared fixtures for the test suite."""

import numpy as np
import pytest
from scipy.fft._pocketfft import pypocketfft

from nnlslab.grid import FrequencyGrid, forward_transform


@pytest.fixture
def grid():
    return FrequencyGrid(256, 40.0)


@pytest.fixture
def fft_log(monkeypatch):
    """Every transform through ``pypocketfft.c2c``, the one binding of the package.

    Each call is logged as ``(name, rows)``: ``name`` is ``"fft"`` for a
    forward and ``"ifft"`` for an inverse transform, and ``rows`` the number
    of one-dimensional transforms along the last axis.  ``scipy.fft``'s
    ``fft`` and ``ifft`` call the same binding, so they are logged too.
    """
    log = []
    c2c = pypocketfft.c2c

    def counted(a, axes=None, forward=True, *args, **kwargs):
        log.append(("fft" if forward else "ifft", a.size // a.shape[-1]))
        return c2c(a, axes, forward, *args, **kwargs)

    monkeypatch.setattr(pypocketfft, "c2c", counted)
    return log


@pytest.fixture
def gaussian(grid):
    x = grid.points
    return forward_transform(np.exp(-x * x / 2.0).astype(complex), grid)


def random_field(grid, seed, decay=2.0):
    """Seed-fixed random field with polynomially decaying spectrum."""
    rng = np.random.default_rng(seed)
    xi = grid.frequencies
    c = rng.standard_normal(grid.n_modes) + 1j * rng.standard_normal(grid.n_modes)
    from nnlslab.grid import SpectralField

    return SpectralField(grid, c / (1.0 + np.abs(xi)) ** decay)
