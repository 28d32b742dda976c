"""NOMA-vs-TDMA pairing decisions for indoor visible light downlinks.

Submodules: channel (LoS gains and SNR), rates (pair rates and the decision
gap), region (beneficial-ratio interval solver and oracle), scheduler
(pairing plans and evaluation), streams and batch (the user sweep's seeded
uniforms and block kernels, the only numpy users), config/experiments/cli
(reproducible studies). Importing the package loads no numpy.
"""

from .channel import (
    DEFAULT_NOISE_POWER,
    LedConfig,
    LinkBudget,
    PhotodiodeConfig,
    RoomGeometry,
    UserPosition,
    concentrator_gain,
    lambertian_order,
    los_channel_gain,
    snr,
    snr_db,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_config_text
from .rates import (
    CAPACITY_SNR_FACTOR,
    PairState,
    QuarticCoefficients,
    quartic_coefficients,
    rate_gap_derivative,
    rate_gap_derivative_variant,
)
from .region import (
    InfeasibleSeedError,
    NomaRegion,
    OracleMismatchError,
    RegionCache,
    RegionSolverError,
    ScaTrace,
    feasibility_scan,
    oracle_region,
    region_for_snr,
    sca_solve,
)
from .scheduler import (
    PairingPlan,
    ScheduleOutcome,
    UserChannel,
    UserChannelSet,
    adaptive_pairing,
    evaluate_schedule,
    forced_pairing,
    tdma_plan,
)

__version__ = "0.1.0"
