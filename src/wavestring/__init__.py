"""Wave-based analysis of asymmetric bidirectional agent chains.

The package evaluates the irrational forward/backward wave couplings of a
chain of identical agents, decides local string stability from their
H-infinity norms, and cross-checks everything against direct state-space
simulation of finite platoons on path and generalized-path topologies.
"""

from . import errors
from .poly import Polynomial, poly_eval, poly_roots
from .tf import (
    AgentDynamics,
    AssumptionReport,
    LowOrderCoeffs,
    RationalTF,
    check_assumption1,
    low_order_coeffs,
    positional_symmetry,
    tf_eval,
    tf_normalize,
)
from .waves import (
    ReflectionSample,
    WaveSample,
    WaveSweep,
    alpha_beta,
    awtf_axis_sweep,
    awtf_dc,
    awtf_eval,
    quadratic_residuals,
    reflection_eval,
    reflection_from_sample,
    t_g_eval,
)
from .stability import (
    FrequencyGrid,
    NormEstimate,
    StabilityVerdict,
    awtf_norm_estimates,
    disturbance_gain,
    headway_dominant_term,
    hinf_estimate,
    local_string_verdict,
    nyquist_axis_test,
)
from .platoon import (
    Disturbance,
    LeaderStep,
    NetworkSystem,
    OvershootMetric,
    SimConfig,
    StateSpaceBlock,
    Topology,
    Trajectory,
    build_network,
    default_dt,
    frequency_response,
    overshoot_metrics,
    realize,
    simulate,
)
from .waveresponse import (
    InverseLaplaceConfig,
    WaveComponents,
    early_time_check,
    inverse_laplace,
    wave_components,
)

__version__ = "0.1.0"

__all__ = [
    "AgentDynamics",
    "AssumptionReport",
    "Disturbance",
    "FrequencyGrid",
    "InverseLaplaceConfig",
    "LeaderStep",
    "LowOrderCoeffs",
    "NetworkSystem",
    "NormEstimate",
    "OvershootMetric",
    "Polynomial",
    "RationalTF",
    "ReflectionSample",
    "SimConfig",
    "StabilityVerdict",
    "StateSpaceBlock",
    "Topology",
    "Trajectory",
    "WaveComponents",
    "WaveSample",
    "WaveSweep",
    "alpha_beta",
    "awtf_axis_sweep",
    "awtf_dc",
    "awtf_eval",
    "awtf_norm_estimates",
    "build_network",
    "check_assumption1",
    "default_dt",
    "disturbance_gain",
    "early_time_check",
    "errors",
    "frequency_response",
    "headway_dominant_term",
    "hinf_estimate",
    "inverse_laplace",
    "local_string_verdict",
    "low_order_coeffs",
    "nyquist_axis_test",
    "overshoot_metrics",
    "poly_eval",
    "poly_roots",
    "positional_symmetry",
    "quadratic_residuals",
    "realize",
    "reflection_eval",
    "reflection_from_sample",
    "simulate",
    "t_g_eval",
    "tf_eval",
    "tf_normalize",
    "wave_components",
]
