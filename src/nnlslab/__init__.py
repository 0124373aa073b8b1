"""Pseudospectral simulation and verification lab for the nonlocal NLS family.

Importing the package pins glibc's malloc thresholds for the whole process:
blocks below 32 MiB come from the heap, and the heap top is trimmed only
past 64 MiB of free space.  The Picard temporaries of (33, 256) complex
values, the quadrature's 128 KiB chunks and the diagnostics' 256 KiB
blocks at n = 4096 sit near glibc's initial 128 KiB mmap threshold; left
to its dynamic thresholds, glibc maps, unmaps and trims them on every
call, at thousands of minor page faults per pass.
Where libc has no ``mallopt`` the pin does nothing.
"""


def _pin_allocator():
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no C library to open
        return
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


_pin_allocator()  # before the submodules import numpy, so that every allocation follows it

from .equations import (
    GAUGED_GNDNLS,
    GAUGED_NDNLS,
    GNDNLS,
    NDNLS,
    NNLS,
    EquationSpec,
    quintic_coefficient,
    support_leakage,
)
from .evolve import (
    PicardReport,
    Trajectory,
    picard_solve,
    solve,
    solve_batch,
    stream,
)
from .experiments import (
    ExperimentReport,
    TwoBumpData,
    exp_conservation,
    exp_gauge_equivalence,
    exp_norm_inflation,
    exp_picard_window,
    exp_scaling_global,
    exp_support_invariance,
    make_initial_data,
    third_derivative_field,
)
from .gauge import gauge_forward
from .grid import (
    EndpointDecayWarning,
    FrequencyGrid,
    GridMismatchError,
    SpectralField,
    antiderivative_symmetric,
    forward_transform,
    inverse_transform,
    l2_distance,
    l2_norm,
)
from .spaces import dilate, esigma_norm

__version__ = "0.1.0"
