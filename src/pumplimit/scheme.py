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
are provided: :func:`build_density_matrix` transcribes the closed-form
element expressions (pump moments <E_H E_H*> = <E_V E_V*> = 1/2,
<E_H* E_V> = P/2), while :func:`build_density_matrix_oracle` derives every
moment from the arm transformation matrices and the pump coherency matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameterError, InvalidDensityMatrixError
from .linalg import as_matrix, check_states, dagger
from .polarization import canonical_pump, validate_polarization_matrix

__all__ = [
    "SchemeParams",
    "PARAM_FIELDS",
    "transform_fields",
    "build_density_matrix",
    "build_density_matrix_oracle",
]

PARAM_FIELDS = ("t", "theta1", "theta2", "alpha1", "alpha2", "mu", "gamma0", "pump_p")

#: trace budget of assembled states, tighter than for states from outside
BUILT_TRACE_TOL = 1e-12
_UNIT_INTERVAL = ("t", "mu", "pump_p")


@dataclass(frozen=True)
class SchemeParams:
    """Tunable source settings.

    Angles are radians; ``t`` (beam-splitter ratio), ``mu`` (degree of
    coherence between the arms) and ``pump_p`` (pump degree of polarization)
    live in [0, 1].
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
        for name in PARAM_FIELDS:
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise BadParameterError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        for name in _UNIT_INTERVAL:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise BadParameterError(f"{name} must be in [0, 1], got {value}")


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
    rotation = np.array(
        [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]],
        dtype=complex,
    )
    retarder = np.array([[1.0, 0.0], [0.0, np.exp(1j * alpha)]], dtype=complex)
    return eta * (rotation @ retarder)


def _density_stack(pump_p, t, theta1, theta2, alpha1, alpha2, mu, gamma0) -> np.ndarray:
    """Assemble pair states from broadcastable parameter arrays.

    Returns a complex array of shape ``broadcast_shape + (4, 4)``.  All
    entries are the closed-form second moments of the arm field
    coefficients; Hermiticity is exact by construction.
    """
    pp = np.asarray(pump_p, dtype=float)
    tt = np.asarray(t, dtype=float)
    th1 = np.asarray(theta1, dtype=float)
    th2 = np.asarray(theta2, dtype=float)
    a1 = np.asarray(alpha1, dtype=float)
    a2 = np.asarray(alpha2, dtype=float)
    m = np.asarray(mu, dtype=float)
    g0 = np.asarray(gamma0, dtype=float)

    n1 = tt  # |eta_1|^2
    n2 = 1.0 - tt  # |eta_2|^2
    n12 = np.sqrt(n1 * n2)  # |eta_1 eta_2|

    cos1, sin1 = np.cos(th1), np.sin(th1)
    cos2, sin2 = np.cos(th2), np.sin(th2)
    ea1 = np.exp(1j * a1)
    ea2 = np.exp(1j * a2)
    # first moment of the inter-arm phase and its conjugate
    coh = m * np.exp(1j * g0)

    # within-arm moments
    d_v1 = n1 * (1.0 - pp * np.cos(a1) * np.sin(2.0 * th1)) / 2.0
    d_h1 = n1 * (1.0 + pp * np.cos(a1) * np.sin(2.0 * th1)) / 2.0
    d_v2 = n2 * (1.0 - pp * np.cos(a2) * np.sin(2.0 * th2)) / 2.0
    d_h2 = n2 * (1.0 + pp * np.cos(a2) * np.sin(2.0 * th2)) / 2.0
    vh1 = n1 * pp * (np.cos(a1) * np.cos(2.0 * th1) + 1j * np.sin(a1)) / 2.0
    vh2 = n2 * pp * (np.cos(a2) * np.cos(2.0 * th2) + 1j * np.sin(a2)) / 2.0

    # cross-arm moments, each damped by the coherence moment
    v1v2 = (
        n12
        * (
            sin1 * sin2
            + cos1 * cos2 * ea1 * np.conj(ea2)
            - pp * cos1 * sin2 * ea1
            - pp * sin1 * cos2 * np.conj(ea2)
        )
        * np.conj(coh)
        / 2.0
    )
    v1h2 = (
        n12
        * (
            -sin1 * cos2
            + cos1 * sin2 * ea1 * np.conj(ea2)
            + pp * cos1 * cos2 * ea1
            - pp * sin1 * sin2 * np.conj(ea2)
        )
        * np.conj(coh)
        / 2.0
    )
    v2h1 = (
        n12
        * (
            -cos1 * sin2
            + sin1 * cos2 * np.conj(ea1) * ea2
            - pp * sin1 * sin2 * np.conj(ea1)
            + pp * cos1 * cos2 * ea2
        )
        * coh
        / 2.0
    )
    h2h1 = (
        n12
        * (
            cos1 * cos2
            + sin1 * sin2 * np.conj(ea1) * ea2
            + pp * sin1 * cos2 * np.conj(ea1)
            + pp * cos1 * sin2 * ea2
        )
        * coh
        / 2.0
    )

    shape = np.broadcast(pp, tt, th1, th2, a1, a2, m, g0).shape
    rho = np.zeros(shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = d_v1
    rho[..., 1, 1] = d_v2
    rho[..., 2, 2] = d_h2
    rho[..., 3, 3] = d_h1
    rho[..., 0, 1] = v1v2
    rho[..., 0, 2] = v1h2
    rho[..., 0, 3] = vh1
    rho[..., 1, 2] = vh2
    rho[..., 1, 3] = v2h1
    rho[..., 2, 3] = h2h1
    rho[..., 1, 0] = np.conj(v1v2)
    rho[..., 2, 0] = np.conj(v1h2)
    rho[..., 3, 0] = np.conj(vh1)
    rho[..., 2, 1] = np.conj(vh2)
    rho[..., 3, 1] = np.conj(v2h1)
    rho[..., 3, 2] = np.conj(h2h1)
    return rho


def _validate_built(rho: np.ndarray, origin: str) -> np.ndarray:
    """Physicality gate for assembled states; violations are bugs, never repaired."""
    try:
        check_states(rho, dims=(4,), trace_tol=BUILT_TRACE_TOL)
    except InvalidDensityMatrixError as exc:
        failure = type(exc)(f"{origin}: {exc}")
        failure.index = exc.index
        raise failure from exc
    return rho


def build_density_matrix(params: SchemeParams) -> np.ndarray:
    """Pair state for one parameter setting, from the closed-form elements.

    The assembled matrix is validated (unit trace within 1e-12, eigenvalues
    above -1e-10); a violation raises rather than being projected away.
    """
    rho = _density_stack(
        params.pump_p,
        params.t,
        params.theta1,
        params.theta2,
        params.alpha1,
        params.alpha2,
        params.mu,
        params.gamma0,
    )
    return _validate_built(rho, "build_density_matrix")


def build_density_matrix_oracle(params: SchemeParams, pump=None) -> np.ndarray:
    """Pair state derived from the arm transformations, for cross-checking.

    Every second moment ``<E_{a,i} E_{b,j}*>`` is read off as an entry of
    ``C_i J C_j^dag`` where ``C_i`` is the arm transformation and ``J`` the
    pump coherency matrix; cross-arm moments pick up the coherence factor
    ``mu e^{+-i gamma_0}``.  Never touches the closed-form element
    expressions used by :func:`build_density_matrix`.

    ``pump`` defaults to ``canonical_pump(params.pump_p)``; passing an
    explicit coherency matrix simulates a pump with arbitrary moments.
    """
    if pump is None:
        j = canonical_pump(params.pump_p)
    else:
        j = as_matrix(pump, dims=(2,))
        validate_polarization_matrix(j)
    c1 = transform_fields(params, 1)
    c2 = transform_fields(params, 2)
    g11 = c1 @ j @ dagger(c1)
    g22 = c2 @ j @ dagger(c2)
    g12 = c1 @ j @ dagger(c2)
    g21 = dagger(g12)
    coh = params.mu * np.exp(1j * params.gamma0)

    h, v = 0, 1
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = g11[v, v].real
    rho[1, 1] = g22[v, v].real
    rho[2, 2] = g22[h, h].real
    rho[3, 3] = g11[h, h].real
    rho[0, 1] = np.conj(coh) * g12[v, v]
    rho[0, 2] = np.conj(coh) * g12[v, h]
    rho[0, 3] = g11[v, h]
    rho[1, 2] = g22[v, h]
    rho[1, 3] = coh * g21[v, h]
    rho[2, 3] = coh * g21[h, h]
    rho[1, 0] = np.conj(rho[0, 1])
    rho[2, 0] = np.conj(rho[0, 2])
    rho[3, 0] = np.conj(rho[0, 3])
    rho[2, 1] = np.conj(rho[1, 2])
    rho[3, 1] = np.conj(rho[1, 3])
    rho[3, 2] = np.conj(rho[2, 3])
    return _validate_built(rho, "build_density_matrix_oracle")
