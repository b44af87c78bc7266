"""Pump-polarization limits on photon-pair entanglement.

A numpy library for two-qubit polarization states produced from a partially
polarized pump: Wootters concurrence, doubly stochastic Kraus channels and
spectra majorization, the intrinsic concurrence bounds (1 + P)/2 (general)
and P (two-level states), a tunable two-arm pair-source simulator, and a
reproducible Monte Carlo sweep harness.
"""

__version__ = "0.1.0"

from .channels import (
    KrausChannel,
    MajorizationReport,
    apply_channel,
    compose,
    is_majorized_by,
    random_mixed_unitary_channel,
    validate_doubly_stochastic,
)
from .errors import (
    BadConfigError,
    BadDimensionError,
    BadParameterError,
    DimensionMismatchError,
    InvalidDensityMatrixError,
    InvalidSpectrumError,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
    NotTwoDError,
    PumpLimitError,
)
from .linalg import (
    RNG_ALGORITHM,
    generator_from_seed,
    haar_unitary,
    random_haar_unitary,
    validate_density_matrix,
    validate_spectrum,
)
from .polarization import (
    EmbeddedPump,
    PolarizationDecomposition,
    canonical_pump,
    degree_of_polarization,
    embed_pump,
    polar_decompose,
)
from .scheme import (
    PARAM_FIELDS,
    SchemeParams,
    build_density_matrix,
    build_density_matrix_oracle,
    transform_fields,
)
from .serialize import (
    channel_from_json,
    channel_to_json,
    load_channel,
    load_matrix,
    load_params,
    matrix_from_json,
    matrix_to_json,
    params_from_json,
    params_to_json,
    save_channel,
    save_matrix,
    save_params,
)
from .sweep import (
    DEFAULT_RANGES,
    SATURATING_SETTING,
    BoundReport,
    SweepConfig,
    SweepRecord,
    SweepRecords,
    load_csv,
    run_sweep,
    saturating_config,
    sweep_to_csv,
    verify_bounds,
    verify_csv,
)
from .twoqubit import (
    BASIS,
    TwoDDecomposition,
    concurrence,
    concurrence_many,
    construct_max_entangled_state,
    is_two_d,
    spin_flip,
    two_d_decompose,
    unitary_max_concurrence,
    wootters_spectrum,
)

__all__ = [
    "__version__",
    "RNG_ALGORITHM",
    # errors
    "PumpLimitError",
    "NotHermitianError",
    "NotPSDError",
    "NoConvergenceError",
    "DimensionMismatchError",
    "BadDimensionError",
    "InvalidDensityMatrixError",
    "InvalidSpectrumError",
    "NotTwoDError",
    "BadParameterError",
    "BadConfigError",
    # matrix core
    "random_haar_unitary",
    "haar_unitary",
    "generator_from_seed",
    "validate_density_matrix",
    "validate_spectrum",
    # polarization
    "canonical_pump",
    "degree_of_polarization",
    "polar_decompose",
    "embed_pump",
    "PolarizationDecomposition",
    "EmbeddedPump",
    # two-qubit states
    "BASIS",
    "concurrence",
    "concurrence_many",
    "wootters_spectrum",
    "spin_flip",
    "unitary_max_concurrence",
    "construct_max_entangled_state",
    "two_d_decompose",
    "is_two_d",
    "TwoDDecomposition",
    # channels
    "KrausChannel",
    "MajorizationReport",
    "validate_doubly_stochastic",
    "apply_channel",
    "is_majorized_by",
    "random_mixed_unitary_channel",
    "compose",
    # source simulator
    "SchemeParams",
    "PARAM_FIELDS",
    "transform_fields",
    "build_density_matrix",
    "build_density_matrix_oracle",
    # sweep harness
    "SweepConfig",
    "SweepRecord",
    "SweepRecords",
    "BoundReport",
    "DEFAULT_RANGES",
    "SATURATING_SETTING",
    "run_sweep",
    "sweep_to_csv",
    "verify_bounds",
    "verify_csv",
    "load_csv",
    "saturating_config",
    # serialization
    "matrix_to_json",
    "matrix_from_json",
    "save_matrix",
    "load_matrix",
    "channel_to_json",
    "channel_from_json",
    "save_channel",
    "load_channel",
    "params_to_json",
    "params_from_json",
    "save_params",
    "load_params",
]
