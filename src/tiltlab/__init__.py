"""tiltlab: exponential tilting and exact conditioning on finite alphabets.

The package computes I-projections of strictly positive baseline laws under
moment constraints (the exponential-tilt solution of maximum-entropy
problems) and verifies, both by exact type-space enumeration and by Monte
Carlo window conditioning, that conditional block laws converge to the
tilted product law at the expected rates.
"""

from .simplex import (
    Alphabet,
    BlockLaw,
    Distribution,
    EnumerationCapError,
    entropy,
    kl_divergence,
    product_block_law,
    tv_distance,
)
from .tilting import (
    InfeasibleConstraintError,
    MomentConstraint,
    MomentFunction,
    SolverError,
    TiltSolution,
    i_project,
    log_partition,
    moment_map,
    solve_moment_equality,
    tilt,
)
from .exact import (
    ConditionalWeights,
    ConvergenceRecord,
    conditional_block_law,
    conditional_weights,
    convergence_sweep,
    entropy_concentration,
    enumerate_types,
    hypergeometric_block_law,
    hypergeometric_tv_check,
    sanov_bounds_check,
    type_log_prob,
)
from .montecarlo import (
    LowEffectiveSampleError,
    McEstimate,
    RateFit,
    WindowSchedule,
    rate_fit,
    sample_conditional_blocks,
    window_sweep,
)
from .scale_mixtures import (
    MixingLaw,
    condition_two_moments,
    empirical_limits,
    radial_cf_check,
    sample_gsm,
)

__version__ = "0.1.0"
