"""Sparsity-assisted iterative phase retrieval from Fourier magnitude data."""

from .fieldfile import FieldFileError, read_field_file, write_field_file
from .grids import SettingError
from .fourier import forward_transform, impose_magnitude, inverse_transform, magnitude_of
from .retrieval import (
    RetrievalConfig,
    RunReport,
    hio_update,
    penalty_value,
    random_phase_init,
    run_hio,
    run_sparse_hio,
    zero_outside_support,
)
from .sparsity import (
    PenaltySpec,
    backtracking_step,
    discrete_divergence,
    discrete_gradient,
    huber_gradient,
    huber_value,
    select_delta,
    smoothed_tv_value,
    sparsity_descent,
    tv_gradient,
    tv_value,
)
from .experiment import (
    PhantomSpec,
    RunSummary,
    TwinMetrics,
    align_global_phase,
    binary_phase_phantom,
    flip_conjugate,
    gray_phase_phantom,
    make_support,
    phantom,
    phase_rmse,
    run_statistics,
    triangular_truncation,
    twin_correlations,
)

__version__ = "0.1.0"
