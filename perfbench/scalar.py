"""Inputs, chain and 50-digit reference for the ``scalar`` workload.

One chain takes one sample through the paper's argument with the scalar API:
pump -> embedded sigma -> source state (closed form and oracle) ->
concurrence against (1+P)/2 -> a doubly stochastic channel on sigma ->
majorization -> concurrence of the output against (1+P)/2.

Even chains draw every setting uniformly from the default ranges.  Odd
chains sit near the bound: ``1 - P`` and ``1 - mu`` are log-uniform in
[1e-12, 1e-3], where the states are nearly rank deficient.  The package is
reached through ``pumplimit.<name>`` at call time so that the tracer's
wrappers are seen.
"""

from __future__ import annotations

import math

import numpy as np

import pumplimit as pl

#: the package's default sweep ranges, fixed here so inputs depend only on the seed
RANGES = {
    "pump_p": (0.0, 1.0),
    "t": (0.0, 1.0),
    "theta1": (0.0, math.pi),
    "theta2": (0.0, math.pi),
    "alpha1": (0.0, 2.0 * math.pi),
    "alpha2": (0.0, 2.0 * math.pi),
    "mu": (0.0, 1.0),
    "gamma0": (0.0, 2.0 * math.pi),
}
NEAR_LOG10 = (-12.0, -3.0)
CHANNEL_KS = range(1, 9)
#: same tolerance as the package's sweep audit
BOUND_TOL = 1e-9
REF_DPS = 50
REF_TOL = 1e-12


class ChainInputs:
    """Seeded stream of chain settings and the fixed channel set."""

    def __init__(self, seed: int):
        self._rng = np.random.Generator(np.random.Philox(key=seed))
        channel_seeds = self._rng.integers(0, 2**32, size=len(CHANNEL_KS))
        self.channels = [
            pl.random_mixed_unitary_channel(k, int(s)) for k, s in zip(CHANNEL_KS, channel_seeds)
        ]
        self._block: list = []

    def take(self) -> tuple[dict, int]:
        """Settings of the next chain and the index of its channel."""
        if not self._block:
            self._block = self._draw(1024)
        return self._block.pop()

    def _draw(self, count: int) -> list:
        u = self._rng.random((count, len(RANGES)))
        near = 10.0 ** (NEAR_LOG10[0] + (NEAR_LOG10[1] - NEAR_LOG10[0]) * self._rng.random((count, 2)))
        which = self._rng.integers(0, len(self.channels), size=count)
        block = []
        for i in range(count):
            params = {
                name: lo + (hi - lo) * float(u[i, j])
                for j, (name, (lo, hi)) in enumerate(RANGES.items())
            }
            if i % 2:
                params["pump_p"] = 1.0 - float(near[i, 0])
                params["mu"] = 1.0 - float(near[i, 1])
            block.append((params, int(which[i])))
        block.reverse()  # take() pops from the end
        return block


def chain(params: dict, channel) -> tuple[np.ndarray, float, float, bool]:
    """One scalar chain; returns rho, C(rho), C(channel(sigma)), majorized."""
    sigma = pl.embed_pump(pl.canonical_pump(params["pump_p"])).sigma
    setting = pl.SchemeParams(**params)
    rho = pl.build_density_matrix(setting)
    pl.build_density_matrix_oracle(setting)
    c_rho = pl.concurrence(rho)
    out = pl.apply_channel(channel, sigma)
    majorized = pl.is_majorized_by(out, sigma).holds
    c_out = pl.concurrence(out)
    return rho, c_rho, c_out, majorized


def chain_failure(params: dict, c_rho: float, c_out: float, majorized: bool) -> str | None:
    """Why a chain fails its bound or majorization check, or None."""
    bound = (1.0 + params["pump_p"]) / 2.0
    if not majorized:
        return "channel output not majorized by sigma"
    if c_rho > bound + BOUND_TOL:
        return f"C(rho) = {c_rho!r} exceeds (1+P)/2 = {bound!r}"
    if c_out > bound + BOUND_TOL:
        return f"C(out) = {c_out!r} exceeds (1+P)/2 = {bound!r}"
    return None


_SPIN_FLIP = ((0, 0, 0, -1), (0, 0, 1, 0), (0, 1, 0, 0), (-1, 0, 0, 0))


def reference_concurrence(rho) -> float:
    """Concurrence from the eigenvalues of rho * rho~ at 50 digits (mpmath)."""
    import mpmath  # here, so the set-up probe that imports this module does not pay for it

    with mpmath.workdps(REF_DPS):
        r = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in np.asarray(rho)])
        y = mpmath.matrix(_SPIN_FLIP)
        ev = mpmath.eig(r * (y * r.conjugate() * y), left=False, right=False)
        s = sorted((mpmath.sqrt(max(mpmath.re(e), 0)) for e in ev), reverse=True)
        return float(max(mpmath.mpf(0), s[0] - s[1] - s[2] - s[3]))
