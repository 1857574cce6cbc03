"""Large-distortion dimension reduction for families of affine subspaces.

Samples admissible random matrices, certifies the achieved distortion
exactly through restricted singular values, and provides the dimension
formula, success-probability bound and Monte Carlo statistical machinery
around them.
"""

from .distortion import DistortionReport, ScaleChoice, choose_scale, family_distortion, subspace_extremes
from .ensembles import (
    EnsembleConstants,
    EnsembleSpec,
    RandomMatrix,
    sample_matrix,
    sample_row,
    theoretical_constants,
)
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    DimensionError,
    InputError,
    ResourceError,
    SubembedError,
)
from .geometry import (
    AffineSubspace,
    Subspace,
    SubspaceFamily,
    cross_family,
    grassmann_distance,
    load_family_json,
    orthonormalize,
    random_subspace,
    reduce_affine,
    sparse_subspace,
    store_family_json,
)
from .harness import (
    ExperimentConfig,
    LowerBoundRow,
    SweepEntry,
    SweepResult,
    TrialResult,
    build_family,
    k_sparse_family,
    lower_bound_study,
    metric_embed,
    run_trial,
    run_trials,
    sweep_m,
    verify_pointwise,
)
from .seeding import derive_seed, normalize_seed
from .stats import (
    ConcentrationEstimate,
    Psi2Estimate,
    WidthEstimate,
    concentration_estimate,
    gaussian_width_mc,
    psi2_estimate,
    psi2_tail_check,
    required_m,
    small_ball_bound,
    success_prob_bound,
    width_upper_bound,
)

__version__ = "0.1.0"
