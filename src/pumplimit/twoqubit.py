"""Two-qubit polarization states and their concurrence.

Basis order is (|HH>, |HV>, |VH>, |VV>) with the signal photon first and
H -> 0, V -> 1 for each photon.  Concurrence is computed through the
Hermitian form sqrt(rho) rho~ sqrt(rho) of the spin-flip construction, so
only a Hermitian eigensolver is ever needed.  The density-matrix checks
and the s-values share one ``eigh`` of each state: its eigenvalues decide
the PSD check, give the spectrum and, with its vectors, build sqrt(rho).

Also provided: the spectrum-level maximum of concurrence over global
unitaries, a constructor for a state that attains it, and the 2x2-block
decomposition of states confined to two computational levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotTwoDError
from .linalg import (
    TRACE_TOL,
    _eigh,
    as_matrix,
    check_states,
    dagger,
    polarized_part,
    validate_density_matrix,
    validate_spectrum,
)

BASIS = ("HH", "HV", "VH", "VV")

#: default threshold for detecting two-level support
TWO_D_TOL = 1e-10
#: validity floor for the eigenvalues entering the concurrence square roots
_SQRT_CLAMP = 1e-12
#: eigenvalues below this fraction of the largest are rank-deficiency noise;
#: square-rooting them would turn O(eps) rounding into O(sqrt(eps)) bias
_SQRT_REL_FLOOR = 1e-12

# sigma_y (x) sigma_y in this basis: constant anti-diagonal (-1, 1, 1, -1)
_SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ],
    dtype=complex,
)


def spin_flip(rho) -> np.ndarray:
    """The spin-flipped state ``(sy x sy) rho* (sy x sy)``."""
    a = as_matrix(rho, dims=(4,))
    validate_density_matrix(a)
    return _SPIN_FLIP @ np.conj(a) @ _SPIN_FLIP


def _wootters_stack(rhos: np.ndarray, trace_tol: float = TRACE_TOL):
    """Check a stack of states, then return its spectrum and s-values.

    The density-matrix rules of :func:`~pumplimit.linalg.check_states` are
    applied with the given trace budget; the Hermitian part and the ``eigh``
    that the check returns also give rho~ and sqrt(rho).  The PSD rule of
    the same check, with floor ``_SQRT_CLAMP``, guards the Hermitian part of
    sqrt(rho) rho~ sqrt(rho).  Returns ``(spectrum, s)`` where ``spectrum``
    holds the eigenvalues of each rho and ``s`` the square roots of the
    eigenvalues of sqrt(rho) rho~ sqrt(rho), both sorted non-ascending
    along the last axis.
    """
    h, (w, v) = check_states(rhos, dims=(4,), trace_tol=trace_tol, vectors=True)
    root = (v * np.sqrt(np.where(w < 0.0, 0.0, w))[..., None, :]) @ dagger(v)
    product = root @ (_SPIN_FLIP @ np.conj(h) @ _SPIN_FLIP) @ root
    del h, v, root  # three 4x4 stacks fewer alive at the sweep's peak
    _, ev = check_states(
        product, dims=(4,), herm_tol=math.inf, trace_tol=math.inf, eig_floor=_SQRT_CLAMP
    )
    floor = np.maximum(ev[..., -1:], 0.0) * _SQRT_REL_FLOOR
    s = np.sqrt(np.where(ev <= floor, 0.0, ev))
    return w[..., ::-1], s[..., ::-1]


def wootters_spectrum(rho) -> np.ndarray:
    """The four s-values whose alternating sum gives the concurrence.

    These are the square roots of the eigenvalues of
    sqrt(rho) rho~ sqrt(rho), sorted non-ascending.
    """
    a = as_matrix(rho, dims=(4,))
    return _wootters_stack(a[None])[1][0]


def _concurrence_from_s(s1, s2, s3, s4):
    """``max(0, s1 - s2 - s3 - s4)``, elementwise, for s-values sorted non-ascending."""
    return np.maximum(0.0, s1 - s2 - s3 - s4)


def concurrence(rho) -> float:
    """Concurrence of a two-qubit state: ``max(0, s1 - s2 - s3 - s4)``.

    Zero for separable states, one for Bell states; invariant under local
    unitaries on either photon.
    """
    return float(_concurrence_from_s(*wootters_spectrum(rho)))


def concurrence_many(rhos) -> np.ndarray:
    """Concurrence over a stack of states, shape ``(..., 4, 4) -> (...,)``.

    Vectorized equivalent of :func:`concurrence`, with the same per-state
    checks.
    """
    return _concurrence_from_s(*np.moveaxis(_wootters_stack(rhos)[1], -1, 0))


def unitary_max_concurrence(spectrum) -> float:
    """Largest concurrence on the unitary orbit of a spectrum.

    For eigenvalues l1 >= l2 >= l3 >= l4 this is
    ``max(0, l1 - l3 - 2 sqrt(l2 l4))``.
    """
    w = validate_spectrum(spectrum, dim=4)
    return float(max(0.0, w[0] - w[2] - 2.0 * math.sqrt(w[1] * w[3])))


def construct_max_entangled_state(spectrum) -> np.ndarray:
    """A state with the given spectrum attaining the orbit maximum.

    Built as ``l1 |F1><F1| + l2 |HV><HV| + l3 |F2><F2| + l4 |VH><VH|`` with
    ``F_{1,2} = (|HH> +- |VV>)/sqrt(2)``; its concurrence equals
    :func:`unitary_max_concurrence` of the spectrum.
    """
    w = validate_spectrum(spectrum, dim=4)
    l1, l2, l3, l4 = (float(x) for x in w)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = (l1 + l3) / 2.0
    rho[0, 3] = rho[3, 0] = (l1 - l3) / 2.0
    rho[1, 1] = l2
    rho[2, 2] = l4
    return rho


def _support_indices(a: np.ndarray, tol: float) -> np.ndarray:
    return np.flatnonzero(np.real(np.diagonal(a)) > tol)


def _off_support_mass(a: np.ndarray, support) -> float:
    keep = np.zeros(a.shape, dtype=bool)
    keep[np.ix_(support, support)] = True
    return float(np.max(np.abs(np.where(keep, 0.0, a))))


def is_two_d(rho, tol: float = TWO_D_TOL) -> bool:
    """Whether a state is confined to two computational levels.

    True when at most two diagonal entries exceed ``tol`` and every entry
    outside the induced block is below ``tol`` in magnitude.  Total
    function: any well-shaped matrix yields a boolean.
    """
    a = as_matrix(rho, dims=(4,))
    support = _support_indices(a, tol)
    if support.size > 2:
        return False
    return _off_support_mass(a, support) <= tol


@dataclass(frozen=True)
class TwoDDecomposition:
    """Pure/mixed split of a state confined to a 2x2 block.

    On its support block the state reads
    ``p_tilde |psi><psi| + (1 - p_tilde) I/2`` and its concurrence can never
    exceed ``p_tilde``.
    """

    support_indices: tuple[int, int]
    p_tilde: float
    pure_state: np.ndarray


def two_d_decompose(rho, tol: float = TWO_D_TOL) -> TwoDDecomposition:
    """Decompose a two-level-supported state on its 2x2 block.

    Raises NotTwoDError when more than two diagonal entries exceed ``tol``
    or when any off-block entry does.  A state with a single occupied level
    is padded with the lowest free basis index.
    """
    a = as_matrix(rho, dims=(4,))
    validate_density_matrix(a)
    over = _support_indices(a, tol)
    if over.size > 2:
        raise NotTwoDError(f"{over.size} diagonal entries exceed {tol:.1e}")
    if over.size == 0:
        raise NotTwoDError("all diagonal entries below tolerance")
    if over.size == 1:
        pad = min(i for i in range(4) if i != over[0])
        support = tuple(sorted((int(over[0]), pad)))
    else:
        support = (int(over[0]), int(over[1]))
    mass = _off_support_mass(a, list(support))
    if mass > tol:
        raise NotTwoDError(f"off-support entry of magnitude {mass:.3e} exceeds {tol:.1e}")
    block = a[np.ix_(support, support)]
    p_tilde, psi = polarized_part(*_eigh((block + dagger(block)) / 2.0))
    return TwoDDecomposition(support_indices=support, p_tilde=p_tilde, pure_state=psi)
