"""RIS-aided secure massive MIMO analysis toolkit.

Closed-form LMMSE estimation, achievable-rate and secrecy-rate
expressions under transceiver hardware impairments and RIS phase noise,
an independent Monte Carlo oracle, and reproducible experiment runners.
"""

from .errors import (
    BoundInvalidError,
    ConfigValidationError,
    DegenerateConfigError,
    IllConditionedError,
    IllConditionedWarning,
    InfiniteEveCapacityError,
    InvalidParameterError,
    NoRealRootError,
    RisLabError,
)
from .estimation import (
    ChannelEstimator,
    EstimationResult,
    PilotConfig,
    build_psi,
    error_covariance,
    lmmse_estimate,
    nmse,
    nmse_high_power_limit,
    nmse_large_n_limit,
    simulate_pilot_phase,
)
from .geometry import (
    ChannelRealization,
    ChannelStatistics,
    CorrelationSpec,
    LargeScaleFading,
    PhaseNoiseModel,
    SystemDimensions,
    aggregate_covariance,
    build_bs_correlation,
    build_channel_statistics,
    build_los_channel,
    build_ris_correlation,
    effective_ris_correlation,
    eve_covariance,
    path_loss,
    phase_deviation_factor,
    sample_realization,
    sample_realizations,
)
from .hardware import HardwareProfile
from .montecarlo import (
    OracleEstimates,
    TrialPlan,
    WishartMoments,
    estimate_eve_capacity,
    estimate_nmse,
    estimate_secrecy,
    estimate_user_rate,
    estimate_wishart_moments,
)
from .power_alloc import (
    XiSolution,
    grid_search_xi,
    optimal_xi,
    secrecy_derivative,
    secrecy_derivative_exact,
)
from .precoding import (
    PowerAllocation,
    TransmitStatistics,
    mrt_precoder,
    null_space_an,
    transmit_statistics,
)
from .rates import (
    EveBound,
    RateTerms,
    SecrecyReport,
    compute_rate_terms,
    eve_capacity_bound,
    eve_capacity_no_an,
    max_eve_antennas_an,
    max_eve_antennas_no_an,
    secrecy_gap_split,
    secrecy_large_n,
    secrecy_limit,
    secrecy_power_scaled,
    secrecy_rate,
    secrecy_uncorrelated,
    user_rate,
)

__version__ = "0.1.0"
