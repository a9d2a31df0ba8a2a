"""Optimal universal broadcasting of mixed qubit states.

Computes, for ``N`` identical input copies distributed to ``M`` receivers,
the rotationally covariant channel maximizing the common Bloch length
``r'`` of the single-copy outputs, the scaling factor ``p(r) = r'/r``, the
purity threshold ``r*(N, M)`` below which outputs come out purer than the
inputs, and the largest output count ``M*(N)`` for which that is possible.
Everything is cross-checked against dense Choi-operator arithmetic on
small registers.
"""

from .analysis import (
    BlochCurve,
    BlochReport,
    InputWeights,
    OptimalMapResult,
    ScalingProfile,
    half_spin_scaling_at_zero,
    input_weights,
    optimal_map,
    perfect_broadcast_channel,
    scaling_profile,
    single_copy_bloch,
    single_copy_convex,
)
from .channels import (
    ChannelCoeffs,
    ExtremalMap,
    TracePreservationReport,
    coefficients_for,
    conjectured_optimal_map,
    extremal_count,
    mix,
    validate_trace_preserving,
)
from .oracle import (
    SchurIsometry,
    SizeCapError,
    VerificationReport,
    apply_channel,
    build_choi,
    partial_trace,
    schur_isometry,
    single_copy_marginal,
    verify_closed_form,
)
from .su2core import HalfInt, cg, cg_square, multiplicity, spin_range
from .thresholds import (
    MStarResult,
    PowerLawFit,
    ThresholdResult,
    asymptotic_fit,
    limiting_threshold,
    m_star,
    r_star,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exact SU(2) kernel
    "HalfInt",
    "cg",
    "cg_square",
    "multiplicity",
    "spin_range",
    # channel classification
    "ChannelCoeffs",
    "ExtremalMap",
    "TracePreservationReport",
    "coefficients_for",
    "conjectured_optimal_map",
    "extremal_count",
    "mix",
    "validate_trace_preserving",
    # scaling analysis
    "BlochCurve",
    "BlochReport",
    "InputWeights",
    "OptimalMapResult",
    "ScalingProfile",
    "half_spin_scaling_at_zero",
    "input_weights",
    "optimal_map",
    "perfect_broadcast_channel",
    "scaling_profile",
    "single_copy_bloch",
    "single_copy_convex",
    # thresholds and asymptotics
    "MStarResult",
    "PowerLawFit",
    "ThresholdResult",
    "asymptotic_fit",
    "limiting_threshold",
    "m_star",
    "r_star",
    # dense verification
    "SchurIsometry",
    "SizeCapError",
    "VerificationReport",
    "apply_channel",
    "build_choi",
    "partial_trace",
    "schur_isometry",
    "single_copy_marginal",
    "verify_closed_form",
]
