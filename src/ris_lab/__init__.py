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
    PilotConfig,
    build_psi,
    nmse_high_power_limit,
    nmse_large_n_limit,
    pilot_gaussians,
    simulate_pilot_phase,
)
from .geometry import (
    ChannelStatistics,
    CorrelationSpec,
    LargeScaleFading,
    PhaseNoiseModel,
    SystemDimensions,
    aggregate_channels,
    build_bs_correlation,
    build_channel_statistics,
    build_los_channel,
    build_ris_correlation,
    path_loss,
    phase_deviation_factor,
    sample_realizations,
    template_factors,
)
from .hardware import HardwareProfile
from .montecarlo import (
    OracleEstimates,
    TrialPlan,
    estimate_eve_capacity,
    estimate_nmse,
    estimate_secrecy,
    estimate_user_rate,
)
from .power_alloc import (
    optimal_xi,
    secrecy_derivative,
)
from .precoding import (
    mrt_precoder,
    stream_powers,
)
from .rates import (
    RateTerms,
    SecrecyReport,
    compute_rate_terms,
    eve_capacity_bound,
    eve_capacity_no_an,
    max_eve_antennas_an,
    max_eve_antennas_no_an,
    secrecy_large_n,
    secrecy_limit,
    secrecy_power_scaled,
    secrecy_rate,
    secrecy_uncorrelated,
    user_rate,
)

__version__ = "0.1.0"
