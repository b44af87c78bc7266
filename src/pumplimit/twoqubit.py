"""Two-qubit polarization states and their concurrence.

Basis order is (|HH>, |HV>, |VH>, |VV>) with the signal photon first and
H -> 0, V -> 1 for each photon.  Concurrence is computed from a factor
``G`` of the state, ``rho = G G^dag``: the s-values of the spin-flip
construction are the singular values of ``G^T (sy x sy) G`` (Wootters,
PRL 80, 2245 (1998); Uhlmann, PRA 62, 032307 (2000)), so no square root of
a noisy eigenvalue is ever taken.  :func:`_concurrence_stack` is the one
kernel for a stack and checks nothing: the sweep hands it the source's gated
closed-form factor; a state from outside is factored as ``V sqrt(w)`` from
the ``eigh`` that its density-matrix check computes anyway.  It skips the
SVD on states with a positive partial transpose, which are separable
(:func:`_ppt_det_stack`); :func:`concurrence` does not test a lone state,
on which the test costs more than the SVD it would save.

Also provided: the spectrum-level maximum of concurrence over global
unitaries, a constructor for a state that attains it, and the 2x2-block
decomposition of states confined to two computational levels, whose
block is decomposed by ``check_states`` like every other state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np

from .errors import NotTwoDError
from .linalg import (
    _svdvals,
    as_matrix,
    check_states,
    polarized_part,
    validate_density_matrix,
    validate_spectrum,
)

BASIS = ("HH", "HV", "VH", "VV")

#: default threshold for detecting two-level support
TWO_D_TOL = 1e-10

# sigma_y (x) sigma_y in this basis is the anti-diagonal (-1, 1, 1, -1):
# multiplied from the left it reverses the rows and signs them by this column
_FLIP_SIGNS = np.array([[-1.0], [1.0], [1.0], [-1.0]])
#: eigenvalues at or below this multiple of the largest are a rank-deficient state's rounding noise
_NOISE_FLOOR = 4.0 * np.finfo(float).eps
# a state whose det rho^{T_B} is above this has a positive partial transpose,
# so it is separable and its concurrence is +0.0 with no SVD.  The
# determinant is a sum of 24 products of four entries of rho^{T_B}, each of
# modulus at most 1 and computed within a few ulps, so rounding moves it by
# less than 24 * 6e-15 < 2e-13.
_PPT_ABOVE = 1e-12


def spin_flip(rho) -> np.ndarray:
    """The spin-flipped state ``(sy x sy) rho* (sy x sy)``."""
    a = as_matrix(rho, dims=(4,))
    validate_density_matrix(a)
    return np.outer(_FLIP_SIGNS, _FLIP_SIGNS) * np.conj(a)[::-1, ::-1]


def _wootters_stack(g: np.ndarray) -> np.ndarray:
    """s-values of the states ``G G^dag`` for a stack of factors ``G``.

    The singular values of ``M = G^T (sy x sy) G``, sorted non-ascending
    along the last axis.  With ``g0..g3`` the rows of G, ``M = o + o^T``
    for ``o = g1 g2^T - g0 g3^T``: two outer products per state in place of
    a 4x4 matmul, which numpy runs as one BLAS call per state.  Callers
    pass factors of states already checked.
    """
    o = g[..., 1, :, None] * g[..., 2, None, :]
    o -= g[..., 0, :, None] * g[..., 3, None, :]
    return _svdvals(o + o.swapaxes(-1, -2))


def _ppt_det_stack(g: np.ndarray) -> np.ndarray:
    """``det rho^{T_B}`` of the states ``rho = G G^dag`` for a stack of factors ``G``.

    ``T_B`` is the partial transpose on the second photon.  A two-qubit
    state's partial transpose has at most one negative eigenvalue, so the
    state is entangled exactly when this determinant is negative (Peres,
    PRL 77, 1413 (1996); Augusiak, Demianowicz and Horodecki, PRA 77,
    030301(R) (2008)).  Shape
    ``(n, 4, 4) -> (n,)``, computed elementwise with no LAPACK call: the ten
    entries ``rho_ij``, ``i <= j``, as sums over the rows of G, placed by the
    partial transpose, then Laplace's expansion in 2x2 minors.  Callers pass
    factors of states already checked.
    """
    rows = np.ascontiguousarray(np.moveaxis(g, 0, -1))  # (4, 4, n): one state per column
    conj = rows.conj()
    rho = {}
    for i, j in combinations_with_replacement(range(4), 2):
        rho[i, j] = (rows[i] * conj[j]).sum(axis=0)
        rho[j, i] = rho[i, j].conj()
    # entry (x, y) of rho^{T_B} is rho's entry ((a b'), (a' b)) for x = (a b)
    # and y = (a' b'), with index 2a + b
    p = [[rho[x & 2 | y & 1, y & 2 | x & 1] for y in range(4)] for x in range(4)]
    # Laplace's expansion along rows 0 and 1: each 2x2 minor of those rows
    # times the minor of rows 2 and 3 on the other two columns, signed
    det = np.zeros(len(g))
    for i, j in combinations(range(4), 2):
        k, l = sorted({0, 1, 2, 3} - {i, j})
        top = p[0][i] * p[1][j] - p[0][j] * p[1][i]
        bottom = p[2][k] * p[3][l] - p[2][l] * p[3][k]
        det += (-1) ** (i + j + 1) * (top * bottom).real
    return det


def _factor(rhos) -> np.ndarray:
    """Factor ``G = V sqrt(w)`` of checked states, from their ``eigh``.

    Eigenvalues at or below ``4 eps`` times the largest are rounding noise
    of a rank-deficient state and count as zero.
    """
    w, v = check_states(rhos, dims=(4,), vectors=True)
    w[w <= _NOISE_FLOOR * w[..., -1:]] = 0.0
    return v * np.sqrt(w)[..., None, :]


def wootters_spectrum(rho) -> np.ndarray:
    """The four s-values whose alternating sum gives the concurrence.

    These are the square roots of the eigenvalues of rho rho~, sorted
    non-ascending.
    """
    return _wootters_stack(_factor(as_matrix(rho, dims=(4,))))


def _concurrence_from_s(s1, s2, s3, s4):
    """``max(0, s1 - s2 - s3 - s4)``, elementwise, for s-values sorted non-ascending."""
    return np.maximum(0.0, s1 - s2 - s3 - s4)


def _concurrence_stack(g: np.ndarray) -> np.ndarray:
    """Concurrence of the states ``G G^dag`` for factors ``(..., 4, 4) -> (...)``.

    A state whose ``det rho^{T_B}`` is above ``_PPT_ABOVE`` is separable and
    gets +0.0, as from :func:`_wootters_stack`, without it.  A lone factor
    gives a numpy float.  Callers pass factors of states already checked.
    """
    flat = g.reshape(-1, 4, 4)
    conc = np.zeros(len(flat))
    rows = np.flatnonzero(_ppt_det_stack(flat) <= _PPT_ABOVE)
    conc[rows] = _concurrence_from_s(*_wootters_stack(flat[rows]).T)
    return conc.reshape(g.shape[:-2])[()]


def concurrence(rho) -> float:
    """Concurrence of a two-qubit state: ``max(0, s1 - s2 - s3 - s4)``.

    Zero for separable states, one for Bell states; invariant under local
    unitaries on either photon.
    """
    s1, s2, s3, s4 = wootters_spectrum(rho).tolist()
    return max(s1 - s2 - s3 - s4, 0.0)


def concurrence_many(rhos) -> np.ndarray:
    """Concurrence over a stack of states, shape ``(..., 4, 4) -> (...,)``.

    Vectorized equivalent of :func:`concurrence`, with the same per-state
    checks.
    """
    return _concurrence_stack(_factor(rhos))


def _orbit_stack(w: np.ndarray) -> np.ndarray:
    """``l1 - l3 - 2 sqrt(l2 l4)`` of checked spectra (last axis).

    At most 0 exactly when every state with the spectrum is separable.
    """
    return w[..., 0] - w[..., 2] - 2.0 * np.sqrt(w[..., 1] * w[..., 3])


def unitary_max_concurrence(spectrum) -> float:
    """Largest concurrence on the unitary orbit of a spectrum.

    For eigenvalues l1 >= l2 >= l3 >= l4 this is
    ``max(0, l1 - l3 - 2 sqrt(l2 l4))``.
    """
    return max(0.0, float(_orbit_stack(validate_spectrum(spectrum))))


def construct_max_entangled_state(spectrum) -> np.ndarray:
    """A state with the given spectrum attaining the orbit maximum.

    Built as ``l1 |F1><F1| + l2 |HV><HV| + l3 |F2><F2| + l4 |VH><VH|`` with
    ``F_{1,2} = (|HH> +- |VV>)/sqrt(2)``; its concurrence equals
    :func:`unitary_max_concurrence` of the spectrum.
    """
    w = validate_spectrum(spectrum)
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
    mass = np.abs(a)
    mass[np.ix_(support, support)] = 0.0
    return float(mass.max())


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
    # a checked state's block passes the Hermiticity and, by interlacing, PSD rules
    block = a[np.ix_(support, support)]
    p_tilde, psi = polarized_part(*check_states(block, trace_tol=math.inf, vectors=True))
    return TwoDDecomposition(support_indices=support, p_tilde=p_tilde, pure_state=psi)
