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

from .errors import BadParameterError, DimensionMismatchError
from .linalg import (
    as_matrix,
    dagger,
    generator_from_seed,
    haar_unitary,
    validate_density_matrix,
)

CHANNEL_TOL = 1e-10
MAJORIZATION_TOL = 1e-9


@dataclass(frozen=True)
class KrausChannel:
    """A finite set of 4x4 Kraus operators, optionally labeled.

    Validity (trace preservation, unitality) is checked by
    :func:`validate_doubly_stochastic`, never assumed.  Operators are stored
    as read-only arrays.
    """

    operators: tuple
    labels: tuple | None = None
    #: the operators stacked into one (k, 4, 4) array, for batched products
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.operators) == 0:
            raise BadParameterError("channel needs at least one Kraus operator")
        ops = []
        for op in self.operators:
            a = np.array(as_matrix(op, dims=(4,)))
            a.setflags(write=False)
            ops.append(a)
        object.__setattr__(self, "operators", tuple(ops))
        stack = np.stack(ops)
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != len(ops):
                raise DimensionMismatchError(
                    f"{len(labels)} labels for {len(ops)} operators"
                )
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.operators)


def validate_doubly_stochastic(ch: KrausChannel, tol: float = CHANNEL_TOL):
    """Return ``(trace_preserving, unital)`` for a channel.

    Each flag reports whether the corresponding operator sum is the identity
    within ``tol`` in max norm.
    """
    eye = np.eye(4)
    adj = dagger(ch.stack)
    tp_sum = np.sum(adj @ ch.stack, axis=0)
    un_sum = np.sum(ch.stack @ adj, axis=0)
    return bool(np.abs(tp_sum - eye).max() <= tol), bool(np.abs(un_sum - eye).max() <= tol)


def apply_channel(ch: KrausChannel, state) -> np.ndarray:
    """Apply ``sum_i M_i rho M_i^dag`` to a 4x4 density matrix."""
    a = as_matrix(state, dims=(4,))
    validate_density_matrix(a, dim=4)
    out = np.sum(ch.stack @ a @ dagger(ch.stack), axis=0)
    return (out + dagger(out)) / 2.0


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
    stay below the source's within ``tol``, and the totals must agree.
    """
    lam = validate_density_matrix(target, dim=4)
    eps = validate_density_matrix(source, dim=4)
    cum_t = np.cumsum(lam)
    cum_s = np.cumsum(eps)
    worst = float(np.min(cum_s[:3] - cum_t[:3]))
    holds = worst >= -tol and abs(float(cum_s[3] - cum_t[3])) <= tol
    return MajorizationReport(
        holds=bool(holds),
        partial_sums_source=cum_s,
        partial_sums_target=cum_t,
        worst_slack=worst,
    )


def random_mixed_unitary_channel(k: int, seed: int) -> KrausChannel:
    """Random convex mixture of Haar unitaries: operators ``sqrt(p_i) U_i``.

    Doubly stochastic by construction and deterministic given ``seed``.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise BadParameterError(f"k must be a positive integer, got {k!r}")
    rng = generator_from_seed(seed)
    probs = rng.dirichlet(np.ones(int(k)))
    ops = tuple(np.sqrt(p) * haar_unitary(4, rng) for p in probs)
    return KrausChannel(operators=ops)


def compose(outer: KrausChannel, inner: KrausChannel) -> KrausChannel:
    """The channel applying ``inner`` first, then ``outer``."""
    ops = tuple(a @ b for a in outer.operators for b in inner.operators)
    return KrausChannel(operators=ops)
