"""Large-distortion dimension reduction for families of affine subspaces,
each held as its direction subspace's orthonormal basis.

Samples admissible random matrices, certifies the achieved distortion
exactly through restricted singular values, and provides the dimension
formula, success-probability bound and Monte Carlo statistical machinery
around them.
"""

from .distortion import DistortionReport, ScaleChoice, choose_scale, family_distortion
from .ensembles import (
    EnsembleConstants,
    EnsembleSpec,
    RandomMatrix,
    sample_matrix,
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
    Subspace,
    SubspaceFamily,
    load_family_json,
    orthonormalize,
    random_subspace,
    sparse_subspace,
    store_family_json,
)
from .harness import (
    ExperimentConfig,
    SweepEntry,
    SweepResult,
    TrialResult,
    build_family,
    k_sparse_family,
    metric_embed,
    run_trial,
    run_trials,
    sweep_m,
)
from .seeding import derive_seed, normalize_seed
from .stats import (
    ConcentrationEstimate,
    WidthEstimate,
    concentration_estimate,
    gaussian_width_mc,
    required_m,
    success_prob_bound,
    width_upper_bound,
)

__version__ = "0.1.0"
