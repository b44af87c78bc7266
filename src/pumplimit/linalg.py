"""Dense complex linear algebra for 2x2 and 4x4 matrices.

Matrices are plain numpy arrays of dtype complex128.  Everything here is a
pure function of its inputs; randomness is always routed through an explicit
seed or generator.  Helpers marked stack-aware accept arrays of shape
``(..., n, n)`` and operate on the trailing two axes.

This is the one module that calls LAPACK, through the gufuncs that
``numpy.linalg`` wraps: :func:`check_states` is the one caller of the
Hermitian eigensolvers ``_umath_linalg.eigh_lo`` and ``eigvalsh_lo``, and
:func:`_svdvals` of ``_umath_linalg.svd``; only the sweep's source spectra
are known in closed form.  The gufuncs get the wrappers' signatures, so the
results are the same bits, but not the ``np.errstate`` context that each
wrapper enters, which costs about as much as LAPACK on a 4x4.  A gufunc
clears the floating-point flags on success.  On failure it returns NaN and
sets the invalid flag, which numpy reports as its errstate says (a
RuntimeWarning by default), and the caller raises NoConvergenceError.

The deterministic generator used throughout the package is numpy's Philox
(4x64, 10 rounds), keyed directly by the user-supplied seed, so streams are
reproducible across platforms and processes.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    BadDimensionError,
    BadParameterError,
    DimensionMismatchError,
    InvalidDensityMatrixError,
    InvalidSpectrumError,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
)

SUPPORTED_DIMS = (2, 4)

#: default max-norm budget for Hermiticity preconditions
HERMITIAN_TOL = 1e-10
#: default budget for the distance of a trace from one
TRACE_TOL = 1e-10
#: eigenvalues in [-PSD_TOL, 0) are rounding noise and clamp to zero;
#: anything below -PSD_TOL is treated as genuinely invalid input
PSD_TOL = 1e-10
#: identifier of the deterministic RNG (fixed; part of the CLI version string)
RNG_ALGORITHM = "philox4x64-10"
#: seeds lie in [0, SEED_LIMIT): the Philox key is two 64-bit words
SEED_LIMIT = 2**128
#: below this pure-part weight the polarized direction is considered
#: degenerate and the convention vector (1, 0) is returned
_DEGENERATE_P = 1e-15


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose; stack-aware (swaps the last two axes)."""
    return a.swapaxes(-1, -2).conj()


def as_matrix(m, dims: tuple[int, ...] = SUPPORTED_DIMS) -> np.ndarray:
    """Coerce ``m`` to a square complex array of a supported dimension."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] not in dims:
        raise DimensionMismatchError(
            f"unsupported dimension {a.shape[0]}, expected one of {dims}"
        )
    return a


def _is_bool(value) -> bool:
    """Whether ``value`` is a Python or numpy bool."""
    return isinstance(value, (bool, np.bool_))


def _as_float(value) -> float:
    """``float(value)``; a bool, which float() would read as 0.0 or 1.0, raises TypeError."""
    if _is_bool(value):
        raise TypeError(f"a bool is not a number: {value!r}")
    return float(value)


def _is_int(value) -> bool:
    """Whether ``value`` is an integer and not a bool."""
    return isinstance(value, (int, np.integer)) and not _is_bool(value)


def _check_tol(tol) -> float:
    """``tol`` as a float; a bool, NaN, a negative or a non-number raises BadParameterError."""
    try:
        if (value := _as_float(tol)) >= 0.0:
            return value
    except (TypeError, ValueError):
        pass
    raise BadParameterError(f"tol must be a number >= 0, got {tol!r}")


def _check_seed(seed, error=BadParameterError) -> int:
    """``seed`` as an int, or ``error`` if it is not an integer in [0, SEED_LIMIT)."""
    if not _is_int(seed) or not 0 <= seed < SEED_LIMIT:
        raise error(f"seed must be an integer in [0, 2**128), got {seed!r}")
    return int(seed)


def generator_from_seed(seed: int) -> np.random.Generator:
    """Deterministic generator: Philox keyed directly by ``seed``."""
    return np.random.Generator(np.random.Philox(key=_check_seed(seed)))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary drawn from an existing generator.

    Ginibre matrix, QR factorization, then each column rescaled by the unit
    phase of the corresponding R diagonal entry (the phase correction that
    makes plain QR output Haar-uniform).
    """
    if not _is_int(dim) or dim not in SUPPORTED_DIMS:
        raise BadDimensionError(f"dim must be one of {SUPPORTED_DIMS}, got {dim}")
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Seeded Haar-random unitary; identical output for identical (dim, seed)."""
    return haar_unitary(dim, generator_from_seed(seed))


def polarized_part(w, v) -> tuple[float, np.ndarray]:
    """Split a 2x2 state into ``p |psi><psi| + (1 - p) I/2``.

    ``(w, v)`` is the state's ``eigh``, eigenvalues ascending.  ``p`` is the
    eigenvalue gap clipped to [0, 1] and ``psi`` the top eigenvector, phased
    so that its largest entry is real and positive; below ``_DEGENERATE_P``
    the direction is arbitrary and (1, 0) is returned by convention.
    """
    p = float(min(max(w[1] - w[0], 0.0), 1.0))
    if p < _DEGENERATE_P:
        return p, np.array([1.0, 0.0], dtype=complex)
    psi = v[:, 1]
    k = int(np.argmax(np.abs(psi)))
    return p, psi * (np.conj(psi[k]) / abs(psi[k]))


def check_states(
    m,
    dims: tuple[int, ...] = SUPPORTED_DIMS,
    herm_tol: float = HERMITIAN_TOL,
    trace_tol: float = TRACE_TOL,
    vectors: bool = False,
):
    """Apply the density-matrix rules to a stack of shape ``(..., n, n)``.

    The rules, checked in order: square trailing axes with ``n`` in ``dims``,
    Hermiticity within ``herm_tol`` (max norm), unit trace within
    ``trace_tol`` and no eigenvalue below ``-PSD_TOL``.  The eigenvalues
    are those of the Hermitian part ``(m + m^dag)/2``, from ``eigvalsh_lo``
    or, with ``vectors``, from ``eigh_lo``; a stack with no Hermiticity defect at
    all is passed to them as it is, since it equals its Hermitian part (up
    to the sign of a zero imaginary part).  Returns ``w`` or, with
    ``vectors``, ``(w, v)``, eigenvalues ascending, so that callers reuse
    the one decomposition.

    This is the one place where the Hermiticity, trace and PSD rules are
    applied; every other check and decomposition in the package calls it.
    An infinite tolerance switches its rule off.

    A broken shape raises DimensionMismatchError.  A broken rule raises
    InvalidDensityMatrixError (NotHermitianError for the Hermiticity rule,
    NotPSDError for the PSD rule) whose ``index`` is the flat position, over
    the leading axes, of the first state that breaks it.  A NaN entry breaks
    the Hermiticity rule.  An eigensolver failure raises NoConvergenceError,
    with the ``index`` of the first state that failed when the solver
    returned NaN for it.  A stack of no states passes every rule.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] not in dims:
        raise DimensionMismatchError(
            f"expected shape (..., n, n) with n in {dims}, got {a.shape}"
        )
    # each rule is tested on the whole stack first; the per-state pass that
    # finds the offender runs only on failure
    adj = dagger(a)
    worst = np.abs(a - adj).max(initial=0.0) if herm_tol < math.inf else math.inf
    if not worst <= herm_tol:
        defect = np.abs(a - adj).max(axis=(-2, -1))
        message = f"not Hermitian: defect {{:.3e}} exceeds {herm_tol:.1e}"
        _reject(NotHermitianError, defect <= herm_tol, defect, message)
    if trace_tol < math.inf:
        # the same sums as ndarray.trace, bit for bit, for less call overhead
        _trace_rule(a.diagonal(0, -2, -1).sum(-1), trace_tol)
    if worst == 0.0:
        h = a  # an exactly Hermitian stack is its own Hermitian part
    else:
        h = a + adj
        h *= 0.5
    if vectors:
        eig = _lapack(_umath_linalg.eigh_lo, h, "D->dD")
        low = eig[0][..., 0]
    else:
        eig = _lapack(_umath_linalg.eigvalsh_lo, h, "D->d")
        low = eig[..., 0]
    ok = low >= -PSD_TOL
    if not _all(ok):
        solved = ~np.isnan(low)  # a failed solve fills its state's eigenvalues with NaN
        if not _all(solved):
            _reject(NoConvergenceError, solved, low, "eigensolver did not converge")
        _reject(NotPSDError, ok, low, "negative eigenvalue {:.3e}")
    return eig


def _svdvals(m: np.ndarray) -> np.ndarray:
    """Singular values of a stack of complex matrices, non-ascending along the last axis.

    A failed solve, whose values are NaN, raises NoConvergenceError.
    """
    s = _lapack(_umath_linalg.svd, m, "D->d")
    if math.isnan(s.sum()):  # singular values are >= 0, so only a NaN makes the sum NaN
        raise NoConvergenceError("SVD did not converge")
    return s


def _lapack(gufunc, m: np.ndarray, signature: str):
    """``gufunc(m)``; a failure that numpy raises, by errstate or warning filter, raises NoConvergenceError."""
    try:
        return gufunc(m, signature=signature)
    except (FloatingPointError, RuntimeWarning) as exc:
        raise NoConvergenceError(f"{gufunc.__name__} did not converge") from exc


def _trace_rule(tr, trace_tol: float) -> None:
    """The trace rule of :func:`check_states` on a stack of traces: each within ``trace_tol`` of one.

    A NaN trace breaks it.  Raises InvalidDensityMatrixError with the
    ``index`` of the first failing trace.
    """
    ok = np.abs(tr - 1.0) <= trace_tol
    if not _all(ok):
        message = f"trace {{:.12g}} is not 1 within {trace_tol:.1e}"
        _reject(InvalidDensityMatrixError, ok, tr.real, message)


def _all(ok) -> bool:
    """Whether every entry of ``ok`` holds; a single state's 0-d result is read without a reduction."""
    return bool(ok.all() if ok.ndim else ok)


def _reject(error, ok, values, message: str):
    """Raise ``error`` for the first ``False`` in ``ok``, formatting its entry of ``values``."""
    index = int(np.argmin(np.ravel(ok)))
    exc = error(message.format(np.ravel(values)[index]))
    exc.index = index
    raise exc


def validate_density_matrix(m) -> np.ndarray:
    """Check the density-matrix invariants and return the spectrum.

    Verifies Hermiticity, unit trace and positive semidefiniteness with
    the default budgets of :func:`check_states`; returns the eigenvalues
    sorted non-ascending.  Raises InvalidDensityMatrixError on any violation.
    """
    return check_states(as_matrix(m))[::-1]


def validate_spectrum(values) -> np.ndarray:
    """Validate a two-qubit density-matrix spectrum; stack-aware.

    A 1-D input is one spectrum, a deeper one a stack of spectra along its
    last axis.  The rules, checked in order: exactly four values, all
    finite, sorted non-ascending, the last at least ``-PSD_TOL``, and a sum
    (first to last) within ``TRACE_TOL`` of one.  Returns the values as
    floats with any negative rounding noise clamped to zero.  A broken rule raises
    InvalidSpectrumError whose ``index`` is the flat position, over the
    leading axes, of the first spectrum that breaks it.
    """
    w = np.asarray(values, dtype=float)
    if w.ndim < 2:
        w = w.reshape(-1)
    if w.shape[-1] != 4:
        raise InvalidSpectrumError(f"expected 4 values, got {w.shape[-1]}")
    # the whole stack is tested first, a NaN or infinity failing the sum;
    # the rule-by-rule pass that names the offender runs only on failure
    total = sum((w[..., k] for k in range(1, 4)), w[..., 0])
    ordered = np.logical_and.reduce([w[..., k] <= w[..., k - 1] for k in range(1, 4)])
    summed = np.abs(total - 1.0) <= TRACE_TOL
    if not (ordered & (w[..., -1] >= -PSD_TOL) & summed).all():
        rules = (
            (np.isfinite(w).all(axis=-1), total, "spectrum contains non-finite values"),
            (ordered, total, "values are not sorted non-ascending"),
            (w[..., -1] >= -PSD_TOL, w[..., -1], "negative weight {:.3e}"),
            (summed, total, f"sum {{:.12g}} is not 1 within {TRACE_TOL:.1e}"),
        )
        for ok, found, message in rules:
            if not ok.all():
                _reject(InvalidSpectrumError, ok, found, message)
    return np.where(w < 0.0, 0.0, w)
