"""Exception types shared across the package."""


class PumpLimitError(Exception):
    """Base class for every error raised by this package."""


class NoConvergenceError(PumpLimitError):
    """The eigensolver failed to converge."""


class DimensionMismatchError(PumpLimitError):
    """Operands have incompatible or unsupported shapes."""


class BadDimensionError(PumpLimitError):
    """Requested dimension is not one of the supported sizes (2 or 4)."""


class InvalidDensityMatrixError(PumpLimitError):
    """Matrix fails the density-matrix checks (Hermitian, unit trace, PSD).

    A broken trace raises this class; the Hermiticity and PSD rules raise
    its subclasses NotHermitianError and NotPSDError.

    ``index`` is the flat position, in the checked stack, of the first state
    that failed; None when the error does not come from a stack check.
    """

    index: int | None = None


class NotHermitianError(InvalidDensityMatrixError):
    """Matrix is not Hermitian within the requested tolerance (or has a NaN)."""


class NotPSDError(InvalidDensityMatrixError):
    """Matrix has an eigenvalue below the negativity tolerance."""


class InvalidSpectrumError(PumpLimitError):
    """Values are not a valid non-ascending probability spectrum."""


class NotTwoDError(PumpLimitError):
    """State is not confined to a single 2x2 computational block."""


class BadParameterError(PumpLimitError):
    """Scalar argument outside its allowed range."""


class BadConfigError(PumpLimitError):
    """Sweep configuration is inconsistent or out of range."""
