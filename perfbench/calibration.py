"""Calibration loop: how fast the machine runs at this moment.

On a host shared with other tenants the same code runs up to 2x slower for
seconds to minutes at a time, and process CPU time slows with it.  The loop
below does fixed numpy and Python work and touches no pumplimit code, so
dividing a measured time by the loop's time, taken just before and after,
cancels most of that swing while any change in pumplimit's own cost still
moves the ratio in full.
"""

import time

import numpy as np

#: the loop's time on an unloaded 2.1 GHz Xeon core; set-up times are scaled to it
NOMINAL_S = 0.007

_MATRIX = np.eye(4, dtype=complex) + 0.1j


def calibration_s() -> float:
    """Seconds taken by a fixed loop of small numpy calls and Python arithmetic."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(400):
        a = np.array([[0.5, i / 800], [i / 800, 0.5]], dtype=complex)
        w = np.linalg.eigvalsh(_MATRIX + i * 1e-3)
        acc += float(w[0]) + float(np.trace(_MATRIX @ _MATRIX.conj().T).real)
        acc += float(a[0, 1].real) + sum(k * 0.5 for k in range(20))
    return time.perf_counter() - start
