"""Shared fixtures for the test suite."""

import numpy as np
import numpy.fft
import pytest
import scipy.fft

from nnlslab.grid import FrequencyGrid, forward_transform


@pytest.fixture
def grid():
    return FrequencyGrid(256, 40.0)


@pytest.fixture
def fft_log(monkeypatch):
    """Every ``fft``/``ifft`` call through ``numpy.fft`` or ``scipy.fft``.

    Each call is logged as ``(name, rows)``, ``rows`` being the number of
    one-dimensional transforms along the last axis.
    """
    log = []

    def counting(fn):
        def counted(a, *args, **kwargs):
            a = np.asarray(a)
            log.append((fn.__name__, a.size // a.shape[-1]))
            return fn(a, *args, **kwargs)

        return counted

    for module in (numpy.fft, scipy.fft):
        for name in ("fft", "ifft"):
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
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
