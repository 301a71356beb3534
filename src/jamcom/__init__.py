"""Precoder design for joint multicarrier downlink communications and pilot
jamming: channel models, rate/MSE metrics, the alternating optimizer with its
convex subproblem solver, and a reproducible experiment harness."""

from .channel import (
    AuStatistics,
    ChannelSet,
    CsitModel,
    au_covariance_uniform_phase,
    au_statistics_isotropic,
    au_statistics_none,
    au_statistics_uniform_phase,
    csit_error_variance,
    draw_csit_samples,
    evenly_spaced_pilots,
    exponential_delay_profile,
    largest_eigenvalue,
    make_deterministic_scenario,
    steering_channel,
    synth_selective_channel,
)
from .metrics import (
    PrecoderSet,
    RateReport,
    jamming_power_avg,
    rate_report,
)
from .optimizer import (
    CommonSplitVars,
    InfeasibleError,
    OptimizeResult,
    OptimizerError,
    SolveConfig,
    WmmseState,
    build_thresholds,
    initialize,
    jamming_threshold,
    optimize,
    sdma_restrict,
    threshold_strategy,
)
from .solver import BlockGroup, ConvexSubproblem, SolverResult, certify, solve
from .experiments import ExperimentConfig, ResultTable, cli_main, run_experiment

__version__ = "0.1.0"
