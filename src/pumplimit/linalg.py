"""Dense complex linear algebra for 2x2 and 4x4 matrices.

Matrices are plain numpy arrays of dtype complex128.  Everything here is a
pure function of its inputs; randomness is always routed through an explicit
seed or generator.  Helpers marked stack-aware accept arrays of shape
``(..., n, n)`` and operate on the trailing two axes.  Every eigenvalue in
the package comes from :func:`check_states`, the one caller of numpy's
Hermitian eigensolvers.

The deterministic generator used throughout the package is numpy's Philox
(4x64, 10 rounds), keyed directly by the user-supplied seed, so streams are
reproducible across platforms and processes.
"""

from __future__ import annotations

import math

import numpy as np

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


def hermitian_eig(m):
    """Eigendecomposition of a Hermitian matrix.

    ``m`` is a square matrix of dimension 2 or 4, Hermitian within
    :data:`HERMITIAN_TOL` (the Hermiticity rule of :func:`check_states`;
    a NaN entry breaks it).  Returns ``(values, vectors)``: real eigenvalues
    sorted non-ascending and the matching eigenvector columns of a unitary
    matrix, so ``m = vectors @ diag(values) @ vectors^dag`` up to rounding.
    """
    w, v = check_states(as_matrix(m), trace_tol=math.inf, eig_floor=math.inf, vectors=True)
    return w[::-1], v[:, ::-1]


def sqrt_psd(m) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    The Hermiticity and PSD rules of :func:`check_states` apply; eigenvalues
    in ``[-PSD_TOL, 0)`` are rounding noise and count as zero.
    """
    w, v = check_states(as_matrix(m), trace_tol=math.inf, vectors=True)
    w, v = w[::-1], v[:, ::-1]
    root = (v * np.sqrt(np.where(w < 0.0, 0.0, w))) @ dagger(v)
    return (root + dagger(root)) / 2.0


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 matrices.

    Row-major block convention: ``out[2i+k, 2j+l] = a[i, j] * b[k, l]``.
    """
    a = as_matrix(a, dims=(2,))
    b = as_matrix(b, dims=(2,))
    return np.kron(a, b)


def _is_bool(value) -> bool:
    """Whether ``value`` is a Python or numpy bool."""
    return isinstance(value, (bool, np.bool_))


def _is_int(value) -> bool:
    """Whether ``value`` is an integer and not a bool."""
    return isinstance(value, (int, np.integer)) and not _is_bool(value)


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
    if dim not in SUPPORTED_DIMS:
        raise BadDimensionError(f"dim must be one of {SUPPORTED_DIMS}, got {dim}")
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Seeded Haar-random unitary; identical output for identical (dim, seed)."""
    return haar_unitary(dim, generator_from_seed(seed))


def phase_fixed(v) -> np.ndarray:
    """Rescale a vector's global phase so its largest entry is real >= 0."""
    v = np.asarray(v, dtype=complex)
    k = int(np.argmax(np.abs(v)))
    mag = abs(v[k])
    if mag == 0.0:
        return v.copy()
    return v * (np.conj(v[k]) / mag)


def polarized_part(w, v) -> tuple[float, np.ndarray]:
    """Split a 2x2 state into ``p |psi><psi| + (1 - p) I/2``.

    ``(w, v)`` is the state's ``eigh``, eigenvalues ascending.  ``p`` is the
    eigenvalue gap clipped to [0, 1] and ``psi`` the top eigenvector with
    its phase fixed; below ``_DEGENERATE_P`` the direction is arbitrary and
    (1, 0) is returned by convention.
    """
    p = float(min(max(w[1] - w[0], 0.0), 1.0))
    if p < _DEGENERATE_P:
        return p, np.array([1.0, 0.0], dtype=complex)
    return p, phase_fixed(v[:, 1])


def check_states(
    m,
    dims: tuple[int, ...] = SUPPORTED_DIMS,
    herm_tol: float = HERMITIAN_TOL,
    trace_tol: float = TRACE_TOL,
    eig_floor: float = PSD_TOL,
    vectors: bool = False,
):
    """Apply the density-matrix rules to a stack of shape ``(..., n, n)``.

    The rules, checked in order: square trailing axes with ``n`` in ``dims``,
    Hermiticity within ``herm_tol`` (max norm), unit trace within
    ``trace_tol`` and no eigenvalue below ``-eig_floor``.  The eigenvalues
    are those of the Hermitian part ``(m + m^dag)/2``, from ``eigvalsh`` or,
    with ``vectors``, from ``eigh``.  Returns ``w`` or, with ``vectors``,
    ``(w, v)``, eigenvalues ascending, so that callers reuse the one
    decomposition.

    This is the one place where the Hermiticity, trace and PSD rules are
    applied; every other check and decomposition in the package calls it.
    An infinite tolerance switches its rule off.

    A broken shape raises DimensionMismatchError.  A broken rule raises
    InvalidDensityMatrixError (NotHermitianError for the Hermiticity rule,
    NotPSDError for the PSD rule) whose ``index`` is the flat position, over
    the leading axes, of the first state that breaks it.  A NaN entry breaks
    the Hermiticity rule.  An eigensolver failure raises NoConvergenceError.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] not in dims:
        raise DimensionMismatchError(
            f"expected shape (..., n, n) with n in {dims}, got {a.shape}"
        )
    # each rule is tested on the whole stack first; the per-state pass that
    # finds the offender runs only on failure
    adj = dagger(a)
    if herm_tol < math.inf and not np.abs(a - adj).max() <= herm_tol:
        defect = np.abs(a - adj).max(axis=(-2, -1))
        message = f"not Hermitian: defect {{:.3e}} exceeds {herm_tol:.1e}"
        _reject(NotHermitianError, defect <= herm_tol, defect, message)
    if trace_tol < math.inf:
        tr = a.trace(axis1=-2, axis2=-1)
        ok = np.abs(tr - 1.0) <= trace_tol
        if not _all(ok):
            message = f"trace {{:.12g}} is not 1 within {trace_tol:.1e}"
            _reject(InvalidDensityMatrixError, ok, tr.real, message)
    h = a + adj
    h *= 0.5
    try:
        eig = np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    low = (eig[0] if vectors else eig)[..., 0]
    ok = low >= -eig_floor
    if not _all(ok):
        _reject(NotPSDError, ok, low, "negative eigenvalue {:.3e}")
    return eig


def _all(ok) -> bool:
    """Whether every entry of ``ok`` holds; a single state's 0-d result is read without a reduction."""
    return bool(ok.all() if ok.ndim else ok)


def _reject(error, ok, values, message: str):
    """Raise ``error`` for the first ``False`` in ``ok``, formatting its entry of ``values``."""
    index = int(np.argmin(np.ravel(ok)))
    exc = error(message.format(np.ravel(values)[index]))
    exc.index = index
    raise exc


def validate_density_matrix(m, dim: int | None = None) -> np.ndarray:
    """Check the density-matrix invariants and return the spectrum.

    Verifies Hermiticity, unit trace and positive semidefiniteness with
    the default budgets of :func:`check_states`; returns the eigenvalues
    sorted non-ascending.  Raises InvalidDensityMatrixError on any violation.
    """
    a = as_matrix(m)
    if dim is not None and a.shape[0] != dim:
        raise DimensionMismatchError(f"expected a {dim}x{dim} matrix, got {a.shape}")
    return check_states(a)[::-1]


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
