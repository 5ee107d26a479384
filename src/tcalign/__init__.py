"""tcalign: test-time correlation alignment for embedding classifiers.

Given test-domain embeddings and a linear softmax head, the toolkit selects
a high-certainty pseudo-source, solves for the linear transform that aligns
second-order statistics, and re-predicts through the aligned embeddings.
Synthetic shift generators and theory-validation experiments support
desk-scale verification of the mechanism.
"""

from .errors import (
    DegenerateLabels,
    DivergenceError,
    InsufficientSamples,
    InvalidConfig,
    InvalidInput,
    NumericalFailure,
    ParseError,
    SingularMatrix,
    TcaError,
)
from .experiments import (
    GroupRow,
    SolverTrace,
    TraceResult,
    TraceRow,
    objective,
    objective_gradient,
    solve_gradient,
    spearman,
    validate_alignment_trace,
    validate_uncertainty_groups,
)
from .head import PredictionBatch, SoftmaxHead, accuracy, predict, train_head
from .io import load_head, save_head
from .linalg import CovarianceAccumulator, correlation_distance, covariance, shrink, spd_power
from .pipeline import AdaptConfig, AdaptReport, adapt_online, adapt_transductive
from .pseudo_source import batch_uncertainties, most_certain
from .synth import LabeledBatch, NormalStream, ShiftDataset, gen_linear_shift, gen_nonlinear_shift
from .transform import AlignmentTransform, apply_transform, solve_closed_form

__version__ = "0.1.0"

__all__ = [
    "AdaptConfig",
    "AdaptReport",
    "AlignmentTransform",
    "CovarianceAccumulator",
    "DegenerateLabels",
    "DivergenceError",
    "GroupRow",
    "InsufficientSamples",
    "InvalidConfig",
    "InvalidInput",
    "LabeledBatch",
    "NormalStream",
    "NumericalFailure",
    "ParseError",
    "PredictionBatch",
    "ShiftDataset",
    "SingularMatrix",
    "SoftmaxHead",
    "SolverTrace",
    "TcaError",
    "TraceResult",
    "TraceRow",
    "accuracy",
    "adapt_online",
    "adapt_transductive",
    "apply_transform",
    "batch_uncertainties",
    "correlation_distance",
    "covariance",
    "gen_linear_shift",
    "gen_nonlinear_shift",
    "load_head",
    "most_certain",
    "objective",
    "objective_gradient",
    "predict",
    "save_head",
    "shrink",
    "solve_closed_form",
    "solve_gradient",
    "spd_power",
    "spearman",
    "train_head",
    "validate_alignment_trace",
    "validate_uncertainty_groups",
]
