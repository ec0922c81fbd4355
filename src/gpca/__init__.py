"""Subspace segmentation by fitting and differentiating polynomials and voting on normal spaces."""

from .baselines import em_mixture_pca, k_subspaces
from .discovery import (
    DiscoveryReport,
    count_hyperplanes,
    discover_equal_dim,
    project,
    recursive_segment,
)
from .errors import (
    DegenerateDataError,
    DiscoveryError,
    FitError,
    GpcaError,
    InputError,
    StageError,
)
from .fitting import (
    EmbeddedMatrix,
    RankDecision,
    SampleSufficiencyWarning,
    embed,
    fit_vanishing,
    select_rank,
)
from .polynomial import (
    HomogeneousPolynomial,
    PolynomialBasis,
    basis_gradients,
    evaluate,
    lift_matrix,
)
from .segmentation import (
    Segmentation,
    SubspaceModel,
    algebraic_distance2,
    assign,
    model_at_point,
    reject_outliers,
    segment,
    select_point,
)
from .experiment import ExperimentConfig, run_experiment
from .metrics import matched_accuracy
from .motion import (
    epipolar_lines,
    project_trajectories,
    synthetic_translations,
    trajectory_matrix,
)
from .synthgen import ArrangementSpec, angle_error, generate, generate_from_bases
from .veronese import monomial_basis, monomial_count, veronese_lift

__version__ = "0.1.0"
