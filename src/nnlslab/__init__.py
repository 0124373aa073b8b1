"""Pseudospectral simulation and verification lab for the nonlocal NLS family."""

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
