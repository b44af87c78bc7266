"""Kraus-operator channels on two-qubit states.

A channel acts as ``rho -> sum_i M_i rho M_i^dag``.  A channel that is both
trace-preserving (``sum M^dag M = 1``) and unital (``sum M M^dag = 1``) is
doubly stochastic, and its output spectrum is always majorized by the input
spectrum; that ordering is what transports the pump polarization limit onto
the generated pair states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameterError, DimensionMismatchError, InvalidDensityMatrixError
from .linalg import (
    _check_tol,
    _is_int,
    as_matrix,
    check_states,
    dagger,
    generator_from_seed,
    haar_unitary,
)

CHANNEL_TOL = 1e-10
MAJORIZATION_TOL = 1e-9


@dataclass(frozen=True)
class KrausChannel:
    """A finite set of 4x4 Kraus operators, optionally labeled.

    Validity (trace preservation, unitality) is checked by
    :func:`validate_doubly_stochastic`, never assumed.  Operators are stored
    once, as the read-only rows of one array; the channel's natural
    representation, which :func:`apply_channel` uses, is formed once beside
    them as the read-only ``superoperator``.
    """

    operators: tuple
    labels: tuple | None = None
    #: ``sum_k M_k (x) conj(M_k)``, shape (16, 16): it maps the row-major
    #: ``vec(rho)`` to ``vec(sum_k M_k rho M_k^dag)``
    superoperator: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.operators) == 0:
            raise BadParameterError("channel needs at least one Kraus operator")
        stack = np.stack([as_matrix(op, dims=(4,)) for op in self.operators])
        # entry ((i, j), (k, l)) is sum_m M_m[i, k] conj(M_m[j, l])
        superoperator = np.einsum("mik,mjl->ijkl", stack, stack.conj()).reshape(16, 16)
        stack.setflags(write=False)
        superoperator.setflags(write=False)
        object.__setattr__(self, "superoperator", superoperator)
        object.__setattr__(self, "operators", tuple(stack))
        if self.labels is not None:
            if not isinstance(self.labels, (list, tuple)):
                raise BadParameterError(f"labels must be a list or tuple, got {self.labels!r}")
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != len(stack):
                raise DimensionMismatchError(
                    f"{len(labels)} labels for {len(stack)} operators"
                )
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.operators)


def validate_doubly_stochastic(ch: KrausChannel):
    """Return ``(trace_preserving, unital)`` for a channel.

    Each flag reports whether the corresponding operator sum is the identity
    within :data:`CHANNEL_TOL` in max norm.  Both sums are read from the
    superoperator ``S``: ``vec(sum M M^dag) = S vec(1)`` and
    ``vec(sum M^dag M) = S^dag vec(1)``.
    """
    eye = np.eye(4).reshape(16)
    tp_defect = np.abs(ch.superoperator.conj().T @ eye - eye).max()
    un_defect = np.abs(ch.superoperator @ eye - eye).max()
    return bool(tp_defect <= CHANNEL_TOL), bool(un_defect <= CHANNEL_TOL)


def apply_channel(ch: KrausChannel, state) -> np.ndarray:
    """Apply ``sum_i M_i rho M_i^dag`` to a 4x4 density matrix.

    The state passes the density-matrix rules; the sum is one product of
    the channel's superoperator with ``vec(rho)``, made exactly Hermitian.
    """
    a = as_matrix(state, dims=(4,))
    check_states(a)
    out = (ch.superoperator @ a.reshape(16)).reshape(4, 4)
    out += dagger(out)
    out *= 0.5
    return out


@dataclass(frozen=True)
class MajorizationReport:
    """Outcome of a spectra-majorization check target < source.

    ``partial_sums_*`` hold the cumulative sums of the non-ascending
    spectra; ``worst_slack`` is the most negative of the three leading
    partial-sum margins (source minus target), negative when violated.
    """

    holds: bool
    partial_sums_source: np.ndarray
    partial_sums_target: np.ndarray
    worst_slack: float


def is_majorized_by(target, source, tol: float = MAJORIZATION_TOL) -> MajorizationReport:
    """Check that the target spectrum is majorized by the source spectrum.

    Every leading partial sum of the target eigenvalues (non-ascending) must
    stay below the source's within ``tol``, and the totals must agree.  Both
    states pass the density-matrix rules as one stack; a state that breaks
    them raises InvalidDensityMatrixError prefixed "target" or "source"; a
    ``tol`` that is not a number >= 0 raises BadParameterError.
    """
    tol = _check_tol(tol)
    pair = np.array([as_matrix(target, dims=(4,)), as_matrix(source, dims=(4,))])
    try:
        spectra = check_states(pair)
    except InvalidDensityMatrixError as exc:
        raise type(exc)(f"{('target', 'source')[exc.index]}: {exc}") from None
    cum_t, cum_s = spectra[:, ::-1].cumsum(axis=1)
    slack = (cum_s - cum_t).tolist()
    worst = min(slack[:3])
    return MajorizationReport(
        holds=worst >= -tol and abs(slack[3]) <= tol,
        partial_sums_source=cum_s,
        partial_sums_target=cum_t,
        worst_slack=worst,
    )


def random_mixed_unitary_channel(k: int, seed: int) -> KrausChannel:
    """Random convex mixture of Haar unitaries: operators ``sqrt(p_i) U_i``.

    Doubly stochastic by construction and deterministic given ``seed``.
    """
    if not _is_int(k) or k < 1:
        raise BadParameterError(f"k must be a positive integer, got {k!r}")
    rng = generator_from_seed(seed)
    probs = rng.dirichlet(np.ones(int(k)))
    ops = tuple(np.sqrt(p) * haar_unitary(4, rng) for p in probs)
    return KrausChannel(operators=ops)


def compose(outer: KrausChannel, inner: KrausChannel) -> KrausChannel:
    """The channel applying ``inner`` first, then ``outer``."""
    ops = tuple(a @ b for a in outer.operators for b in inner.operators)
    return KrausChannel(operators=ops)
