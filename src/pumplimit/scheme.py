"""Tunable two-arm photon-pair source.

A pump beam with degree of polarization P is split by a beam splitter with
ratio t : 1-t.  In each arm the field passes a phase retarder (phase alpha_i
applied to the V component) and a polarization rotator (angle theta_i)
before pair creation; arm 2 additionally carries a stochastic phase gamma
whose only statistical trace is the first moment
``<exp(i gamma)> = mu exp(i gamma_0)``.  Pairs born in arm 1 contribute
coefficients on |HH> and |VV>; pairs born in arm 2 are relabeled by a
half-wave plate and contribute on |HV> and |VH>:

    |pair> = E_V1 |HH> + E_H1 |VV> + e^{i gamma} (E_V2 |HV> + E_H2 |VH>)

The emitted state is the ensemble average of |pair><pair|, so every matrix
element is a second moment of the arm fields.  Two independent constructions
are provided: :func:`build_density_matrix` forms ``G G^dag`` from the
source's closed-form factor ``G`` (the arm maps times Cholesky factors of
the pump moments <E_H E_H*> = <E_V E_V*> = 1/2, <E_H* E_V> = P/2 and of the
inter-arm phase moments), while :func:`build_density_matrix_oracle` derives
every moment from the arm transformation matrices and the pump coherency
matrix.  The factor ``G`` passes :func:`_validate_built`, which the sweep
shares, and the oracle's state the full density-matrix rules; both gates
raise and never repair.  The sweep forms no state: it takes the spectra
from :func:`_spectrum_stack`, a closed form that holds because ``rho`` is
unitarily equivalent to the Kronecker product of the arms' and the pump's
moment matrices, and hands ``G`` itself to the Wootters kernel.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameterError
from .linalg import _as_float, _trace_rule, as_matrix, check_states, dagger
from .polarization import canonical_pump, validate_polarization_matrix

PARAM_FIELDS = ("t", "theta1", "theta2", "alpha1", "alpha2", "mu", "gamma0", "pump_p")

#: trace budget of assembled states, tighter than for states from outside
BUILT_TRACE_TOL = 1e-12
_UNIT_INTERVAL = ("t", "mu", "pump_p")
# the oracle's arm maps stacked (arm-1 H, V, arm-2 H, V) give the fields that
# pairs in (HH, HV, VH, VV) are born from: E_V1, E_V2, E_H2, E_H1
_BORN_FROM = np.array([1, 3, 2, 0])
# the factor each second moment of those fields picks up from the arm-2 phase:
# 1 within an arm, mu e^{-i gamma_0} from arm 1 to arm 2, mu e^{+i gamma_0} back
_CROSS_ARM = np.array([[0, 1, 1, 0], [2, 0, 0, 2], [2, 0, 0, 2], [0, 1, 1, 0]])


@dataclass(frozen=True)
class SchemeParams:
    """Tunable source settings.

    Angles are radians; ``t`` (beam-splitter ratio), ``mu`` (degree of
    coherence between the arms) and ``pump_p`` (pump degree of polarization)
    live in [0, 1].  Each setting is stored as the float of what was given;
    a bool is refused.
    """

    t: float
    theta1: float
    theta2: float
    alpha1: float
    alpha2: float
    mu: float
    gamma0: float
    pump_p: float

    def __post_init__(self):
        fields = vars(self)  # written directly: the dataclass is frozen
        for name in PARAM_FIELDS:
            value = fields[name]
            if type(value) is not float:  # a float is kept as it is
                try:
                    value = fields[name] = _as_float(value)
                except (TypeError, ValueError):
                    raise BadParameterError(f"{name} must be a number, got {value!r}") from None
            if not math.isfinite(value):
                raise BadParameterError(f"{name} must be finite, got {value!r}")
            if name in _UNIT_INTERVAL and not 0.0 <= value <= 1.0:
                raise BadParameterError(f"{name} must be in [0, 1], got {value}")

    @classmethod
    def _from_checked(cls, settings: dict) -> SchemeParams:
        """Settings, all floats, that have already passed the checks above, set without re-running them."""
        params = object.__new__(cls)
        vars(params).update(settings)
        return params


def transform_fields(params: SchemeParams, arm: int) -> np.ndarray:
    """2x2 map from the pump field to the (H, V) components in one arm.

    The map is ``eta * R(theta) * Phi(alpha)`` with ``eta = sqrt(t)`` for
    arm 1 and ``sqrt(1-t)`` for arm 2, rotation
    ``R = [[cos, sin], [-sin, cos]]`` and retarder ``Phi = diag(1, e^{i
    alpha})``.  The arm-2 stochastic phase is handled statistically when the
    density matrix is assembled, not here.
    """
    if arm == 1:
        eta = math.sqrt(params.t)
        theta, alpha = params.theta1, params.alpha1
    elif arm == 2:
        eta = math.sqrt(1.0 - params.t)
        theta, alpha = params.theta2, params.alpha2
    else:
        raise BadParameterError(f"arm must be 1 or 2, got {arm!r}")
    cos, sin = math.cos(theta), math.sin(theta)
    phase = cmath.exp(1j * alpha)
    return eta * np.array([[cos, sin * phase], [-sin, cos * phase]])


def _arm_rows(eta, theta, alpha, pp, rest_p):
    """Rows H and V of ``eta R(theta) Phi(alpha) [[1, 0], [P, sqrt(1 - P^2)]]``."""
    cos, sin = np.cos(theta), np.sin(theta)
    phase = np.exp(1j * alpha)
    row_h = (eta * (cos + sin * phase * pp), eta * sin * phase * rest_p)
    row_v = (eta * (cos * phase * pp - sin), eta * cos * phase * rest_p)
    return row_h, row_v


def _density_stack(pump_p, t, theta1, theta2, alpha1, alpha2, mu, gamma0) -> np.ndarray:
    """Factor ``G`` of the pair states, ``rho = G G^dag``, from broadcastable parameters.

    The parameters are floats or float arrays.  Returns a complex array of
    shape ``broadcast_shape + (4, 4)``; a setting given as floats gets
    exactly its row of the same setting given in arrays.  The
    source state is ``L (Gamma x J) L^dag``, where the columns index the
    random vector ``(1, e^{i gamma}) x (E_H, E_V)`` of second moments
    ``Gamma x J`` and ``L`` places the arm maps of :func:`transform_fields`
    on the rows (HH, VV from arm 1; HV, VH from arm 2).  With the Cholesky
    factors ``F_J = [[1, 0], [P, sqrt(1 - P^2)]] / sqrt(2)`` and
    ``F_Gamma = [[1, 0], [mu e^{i gamma_0}, sqrt(1 - mu^2)]]``,
    ``G = L (F_Gamma x F_J)`` is exact and needs no eigensolver: rows HH
    and VV hold ``sqrt(t/2) R(theta_1) Phi(alpha_1) F_J`` in columns 0-1,
    rows HV and VH hold ``sqrt((1-t)/2) R(theta_2) Phi(alpha_2) F_J`` scaled
    by ``mu e^{i gamma_0}`` in columns 0-1 and by ``sqrt(1 - mu^2)`` in
    columns 2-3.

    The row blocks are ``sqrt(t) U_1 F_J`` and ``sqrt(1-t) U_2 F_J`` with
    ``U_i = R(theta_i) Phi(alpha_i)`` unitary, so ``rho = W (Gamma_t x J)
    W^dag`` with ``W`` unitary and ``Gamma_t`` the 2x2 moment matrix of the
    arms scaled by their weights: :func:`_spectrum_stack` gives the spectrum.
    """
    rest_p = np.sqrt((1.0 - pump_p) * (1.0 + pump_p))
    h1, v1 = _arm_rows(np.sqrt(t / 2.0), theta1, alpha1, pump_p, rest_p)
    h2, v2 = _arm_rows(np.sqrt((1.0 - t) / 2.0), theta2, alpha2, pump_p, rest_p)
    coh = mu * np.exp(1j * gamma0)
    rest_mu = np.sqrt((1.0 - mu) * (1.0 + mu))

    shape = np.broadcast(pump_p, t, theta1, theta2, alpha1, alpha2, mu, gamma0).shape
    g = np.zeros(shape + (4, 4), dtype=complex)
    for col in range(2):
        g[..., 0, col] = v1[col]
        g[..., 3, col] = h1[col]
        # products of two complex numbers go through the ufunc even on
        # scalars: numpy's scalar arithmetic rounds them differently from the
        # array loop (which may fuse multiply-adds), and a lone setting's G
        # must be its stack row bit for bit
        g[..., 1, col] = np.multiply(coh, v2[col])
        g[..., 2, col] = np.multiply(coh, h2[col])
        g[..., 1, col + 2] = rest_mu * v2[col]
        g[..., 2, col + 2] = rest_mu * h2[col]
    return g


def _spectrum_stack(pump_p, t, mu) -> np.ndarray:
    """Spectra of the pair states, non-ascending, from broadcastable parameters.

    ``rho`` is unitarily equivalent to ``Gamma_t x J`` (see
    :func:`_density_stack`), where ``J`` has eigenvalues ``j+- = (1 +- P)/2``
    and ``Gamma_t = [[t, c], [c*, 1-t]]`` with ``|c|^2 = t (1-t) mu^2`` has
    ``g+- = (1 +- sqrt((1-2t)^2 + 4 t (1-t) mu^2))/2``: the spectrum is the
    four products ``g+- j+-``.  The discriminant is written as that sum of
    squares, not as ``1 - 4 det``, so it keeps its relative accuracy when
    it is small, and ``g- = det / g+`` with ``det = t (1-t) (1-mu^2)``
    avoids the cancellation in ``(1 - sqrt(...))/2``.  Returns a float array
    of shape ``broadcast_shape + (4,)``; every entry is a product of
    nonnegative numbers, so a zero eigenvalue is exactly +0.0.
    """
    both = t * (1.0 - t)
    det = both * ((1.0 - mu) * (1.0 + mu))
    g_plus = (1.0 + np.sqrt(np.square(1.0 - 2.0 * t) + 4.0 * both * np.square(mu))) / 2.0
    g_minus = det / g_plus
    j_plus, j_minus = (1.0 + pump_p) / 2.0, (1.0 - pump_p) / 2.0
    cross = g_plus * j_minus, g_minus * j_plus
    return np.stack(
        (g_plus * j_plus, np.maximum(*cross), np.minimum(*cross), g_minus * j_minus), axis=-1
    )


def _validate_built(g: np.ndarray) -> None:
    """Physicality gate for a stack of factors ``G``, shape ``(..., 4, 4)``.

    ``G G^dag`` is Hermitian and PSD for any ``G``, so only the trace rule
    is left: ``tr G G^dag = ||G||_F^2`` within BUILT_TRACE_TOL, which a NaN
    or infinite entry breaks.  Raises InvalidDensityMatrixError with the
    ``index`` of the first failing factor.
    """
    entries = g.reshape(g.shape[:-2] + (16,)).view(np.float64)  # real and imaginary parts
    _trace_rule(np.einsum("...i,...i->...", entries, entries), BUILT_TRACE_TOL)


def build_density_matrix(params: SchemeParams) -> np.ndarray:
    """Pair state for one parameter setting, ``G G^dag`` of the source's factor.

    ``G`` is the closed-form factor of :func:`_density_stack`; a factor
    that fails :func:`_validate_built` raises rather than being repaired.
    """
    g = _density_stack(**vars(params))
    _validate_built(g)
    return g @ dagger(g)


def build_density_matrix_oracle(params: SchemeParams, pump=None) -> np.ndarray:
    """Pair state derived from the arm transformations, for cross-checking.

    Every second moment ``<E_{a,i} E_{b,j}*>`` is read off as an entry of
    ``A J A^dag``, where ``A`` stacks the rows of the arm transformations
    ``C_1`` and ``C_2`` in the order the pair basis draws on them and ``J``
    is the pump coherency matrix; cross-arm moments pick up the coherence
    factor ``mu e^{+-i gamma_0}``.  Never touches the closed-form factor
    used by :func:`build_density_matrix`.

    ``pump`` defaults to ``canonical_pump(params.pump_p)``; passing an
    explicit coherency matrix simulates a pump with arbitrary moments.
    """
    if pump is None:
        j = canonical_pump(params.pump_p)
    else:
        j = as_matrix(pump, dims=(2,))
        validate_polarization_matrix(j)
    arms = np.concatenate((transform_fields(params, 1), transform_fields(params, 2)))[_BORN_FROM]
    coh = params.mu * cmath.exp(1j * params.gamma0)
    rho = (arms @ j @ dagger(arms)) * np.array((1.0, coh.conjugate(), coh))[_CROSS_ARM]
    check_states(rho, dims=(4,), trace_tol=BUILT_TRACE_TOL)
    return rho
