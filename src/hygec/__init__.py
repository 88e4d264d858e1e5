"""Group-sparse signal recovery through linear and coarsely quantized channels.

The inner engine alternates Gaussian message passing over the linear mixing
with scalar spike-and-slab and group-activity updates; an optional outer loop
learns the sparse rate when it is unknown.
"""

from .denoisers import (
    DegenerateCell,
    Moments,
    channel_posterior,
    extrinsic,
    indicator_beliefs,
    llr_messages,
    trunc_gauss_moments,
    x_posterior_spike_slab,
    z_posterior_awgn,
    z_posterior_quantized,
)
from .em import EmConfig, em_hygec_run, em_update_rho, group_activity
from .engine import (
    FactorizationFailure,
    HygecConfig,
    NonFinite,
    gaussian_reproduction_residuals,
    hygec_run,
    hygec_sweep,
    init_state,
    lmmse_block,
    lmmse_gram,
)
from .ensembles import (
    MatrixSpec,
    apply_channel,
    default_clip_range,
    gen_group_sparse_signal,
    gen_matrix,
    geometric_spectrum,
    haar_orthogonal,
    snr_to_noise_var,
)
from .oracle import (
    AllZeroTruth,
    QuadGrid,
    Unsupported,
    ZeroMass,
    exact_posterior_small,
    nmse,
    quad_z_posterior,
)
from .types import (
    Channel,
    DimensionMismatch,
    GecState,
    GroupCoverage,
    GroupStructure,
    HygecError,
    InvalidParameter,
    ProblemInstance,
    RecoveryReport,
    SpikeSlabPrior,
    SupportViolation,
    validate_instance,
)

__version__ = "0.1.0"

__all__ = [
    "AllZeroTruth",
    "Channel",
    "DegenerateCell",
    "DimensionMismatch",
    "EmConfig",
    "FactorizationFailure",
    "GecState",
    "GroupCoverage",
    "GroupStructure",
    "HygecConfig",
    "HygecError",
    "InvalidParameter",
    "MatrixSpec",
    "Moments",
    "NonFinite",
    "ProblemInstance",
    "QuadGrid",
    "RecoveryReport",
    "SpikeSlabPrior",
    "SupportViolation",
    "Unsupported",
    "ZeroMass",
    "apply_channel",
    "channel_posterior",
    "default_clip_range",
    "em_hygec_run",
    "em_update_rho",
    "exact_posterior_small",
    "extrinsic",
    "gaussian_reproduction_residuals",
    "gen_group_sparse_signal",
    "gen_matrix",
    "geometric_spectrum",
    "group_activity",
    "haar_orthogonal",
    "hygec_run",
    "hygec_sweep",
    "indicator_beliefs",
    "init_state",
    "lmmse_block",
    "lmmse_gram",
    "llr_messages",
    "nmse",
    "quad_z_posterior",
    "snr_to_noise_var",
    "trunc_gauss_moments",
    "validate_instance",
    "x_posterior_spike_slab",
    "z_posterior_awgn",
    "z_posterior_quantized",
]
