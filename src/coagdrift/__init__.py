"""Self-similar profiles with algebraic tails for a constant-kernel
coagulation model with mean-field drift.

The package computes profiles of the self-similar form f(t, x) = t^-2 F(x/t)
via a monotone fixed-point scheme for the log-derivative of F, cross-checks
them against the closed-form exponential family and a direct time-dependent
finite-volume simulation, and certifies results through residual, moment and
tail-exponent diagnostics.
"""

from .errors import (
    CoagDriftError,
    ConvergenceError,
    DivergentMomentError,
    NumericalConsistencyError,
    ParameterDomainError,
    SchemeFailureError,
    StepSizeError,
    ThresholdExceededError,
)
from .evolution import (
    EvolutionState,
    default_domain_cutoff,
    init_from_profile,
    self_similar_error,
    simulate,
    step,
)
from .grids import (
    Grid,
    GridFunction,
    TauFunction,
    build_grid,
    cumulative_log_integral,
    half_convolution_at_nodes,
    moment,
)
from .model import (
    DerivedConstants,
    ModelParams,
    admissible_threshold,
    derive_constants,
    exponential_profile,
    supersolution_value,
)
from .profiles import (
    OuterSolveOptions,
    SolveReport,
    TailFit,
    exponential_grid_function,
    outer_solve,
    recover_tau,
    residual_selfsimilar,
    seed_profile,
    tail_exponent_fit,
    weighted_residual_norm,
)
from .tau_iteration import (
    InnerSolveOptions,
    InnerSolveResult,
    inner_solve,
    reconstruct_profile,
)

__version__ = "0.1.0"
