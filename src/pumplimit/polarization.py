"""Pump polarization states.

The pump is described by its 2x2 coherency matrix of second-order field
moments ``J[a, b] = <E_a E_b*>`` (H first, then V), normalized to unit trace.
This module computes the degree of polarization, splits a pump into its fully
polarized and fully unpolarized parts, and embeds the 2x2 pump into the 4x4
space of photon-pair states so that one-photon and two-photon spectra can be
compared directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameterError
from .linalg import _as_float, as_matrix, check_states, polarized_part

J_HERMITIAN_TOL = 1e-12
J_TRACE_TOL = 1e-12


def validate_polarization_matrix(j) -> np.ndarray:
    """Check the coherency-matrix invariants; return its spectrum (desc)."""
    a = as_matrix(j, dims=(2,))
    return check_states(a, herm_tol=J_HERMITIAN_TOL, trace_tol=J_TRACE_TOL)[::-1]


def canonical_pump(p: float) -> np.ndarray:
    """Coherency matrix ``[[1/2, p/2], [p/2, 1/2]]``.

    Equal H/V power with a real, nonnegative cross moment; its degree of
    polarization is exactly ``p``.  This is the pump convention assumed by
    the closed-form factor of the source simulator.
    """
    try:
        p = _as_float(p)
    except (TypeError, ValueError):
        raise BadParameterError(f"degree of polarization must be a number, got {p!r}") from None
    if not 0.0 <= p <= 1.0:
        raise BadParameterError(f"degree of polarization must be in [0, 1], got {p!r}")
    return np.array([[0.5, p / 2.0], [p / 2.0, 0.5]], dtype=complex)


def degree_of_polarization(j) -> float:
    """Gap between the two coherency eigenvalues, in [0, 1].

    Basis-invariant: unchanged under ``J -> U J U^dag``.  Zero for fully
    unpolarized light, one for a pure polarization state.
    """
    w = validate_polarization_matrix(j)
    return float(min(max(w[0] - w[1], 0.0), 1.0))


@dataclass(frozen=True)
class PolarizationDecomposition:
    """Split of a pump into polarized and unpolarized parts.

    ``J = p |psi><psi| + (1 - p) I/2`` with ``p`` the degree of polarization
    and ``psi`` the unit eigenvector of the larger eigenvalue.
    """

    p: float
    pure_state: np.ndarray
    unpolarized_weight: float

    def reconstruct(self) -> np.ndarray:
        """The coherency matrix this decomposition represents."""
        psi = self.pure_state
        return self.p * np.outer(psi, np.conj(psi)) + self.unpolarized_weight * np.eye(2) / 2.0


def polar_decompose(j) -> PolarizationDecomposition:
    """Decompose a pump into its polarized and unpolarized parts.

    For an exactly unpolarized pump the polarized direction is arbitrary;
    the basis vector (1, 0) is returned by convention (its weight is zero,
    so the choice carries no physical content).
    """
    a = as_matrix(j, dims=(2,))
    eig = check_states(a, herm_tol=J_HERMITIAN_TOL, trace_tol=J_TRACE_TOL, vectors=True)
    p, psi = polarized_part(*eig)
    return PolarizationDecomposition(p=p, pure_state=psi, unpolarized_weight=1.0 - p)


@dataclass(frozen=True)
class EmbeddedPump:
    """4x4 embedding of the pump with its spectrum.

    ``sigma`` carries the coherency matrix in the top-left 2x2 block and
    zeros elsewhere, so its spectrum is ((1+P)/2, (1-P)/2, 0, 0).
    """

    sigma: np.ndarray
    spectrum: np.ndarray


def embed_pump(j) -> EmbeddedPump:
    """Embed a 2x2 pump into the 4x4 two-photon space.

    ``sigma`` is ``|0><0| (x) J``; its spectrum is the pump's, padded with
    two zeros, so no 4x4 decomposition is needed.
    """
    a = as_matrix(j, dims=(2,))
    spectrum = np.zeros(4)
    spectrum[:2] = check_states(a, herm_tol=J_HERMITIAN_TOL, trace_tol=J_TRACE_TOL)[::-1]
    sigma = np.zeros((4, 4), dtype=complex)
    sigma[:2, :2] = a
    return EmbeddedPump(sigma=sigma, spectrum=spectrum)
