"""Seeded Monte Carlo harness over the two-arm source.

Draws source settings uniformly at random, evaluates the concurrence and the
polarization bounds for every sample, and streams the results to CSV.

Reproducibility contract: the RNG is numpy's Philox (4x64-10) keyed by the
sweep seed, and each sample owns a fixed window of the counter stream (two
4-word blocks = eight uniform draws).  Sample values therefore depend only
on ``(seed, sample_id)``; batching and worker scheduling cannot change them,
and the CSV produced for a given configuration is byte-identical for any
worker count.  Workers are threads of one process, which suffices because
numpy and LAPACK release the GIL for nearly all of a batch's time.  Rows
carry exactly the bytes of one fixed template, ``"%d" + ",%.17g" * 15``, so
every float re-parses to the same double; the bytes of the file, not just
its values, are the reproducibility contract.
A vectorized renderer produces them exactly for the positive values that
``%.17g`` prints in fixed notation and for +0.0, and ``%`` renders the rest.
:func:`sweep_to_csv` replaces its target only once the whole sweep is
written.

Every stage (drawing, building the factors ``G`` and the closed-form spectra,
the source's gate, the concurrence kernel, rendering, the audit and the CSV
reader) works on batches of 2048 samples, and the batch tasks are made only
as they are consumed, so the memory of :func:`sweep_to_csv` and
:func:`verify_csv` does not grow with ``n``.  The concurrence kernel and
the renderer take a batch 1024 rows at a time, so that their temporaries
stay under glibc's heap trim threshold and are reused from block to block
rather than returned to the operating system.  A batch has one layout from
draw to disk: the pair ``(ids, values)`` of its int64 ``sample_id``s and an
``(n, 15)`` float array whose columns are the CSV fields after
``sample_id``, in file order.

:func:`run_sweep` and :func:`load_csv` return :class:`SweepRecords`, a
sequence backed by the same two arrays: each :class:`SweepRecord` is built
when it is accessed, and :func:`verify_bounds` audits the values without
building any.  The records are held once: both functions allocate one
``(ids, values)`` store up front and copy each batch into it, the sweep
sizing it by ``n_samples`` and the reader by a first pass over the file
that counts its lines, so :func:`load_csv` reads the file twice.  The
audit recomputes both bounds from ``pump_p`` and trusts no stored bound
column; a NaN slack counts as a violation.

A row has one rule, whether it comes as a CSV line, a caller's arrays or
a plain :class:`SweepRecord`: an int64 ``sample_id`` and 15 numbers,
which a :class:`SweepRecords` checks when it is built.  The reader parses
each batch with one ``np.loadtxt`` call into :data:`_ROW` records, so
every int64 id reads back exactly; :func:`verify_bounds` packs a plain
record with ``linalg._is_int`` and ``linalg._as_float``.  A line or
record that does not parse raises :data:`_NOT_ROW` after its line or
``sample_id``.  A file's ids must also be nonnegative and strictly
increase; a batch that breaks that or the grammar is read again a line
at a time through the same call, and its first bad line is named.
"""

from __future__ import annotations

import math
import operator
import os
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, Iterator

import numpy as np

from . import scheme
from .errors import (
    BadConfigError,
    BadParameterError,
    InvalidDensityMatrixError,
    InvalidSpectrumError,
    _not_ascii,
)
from .linalg import _as_float, _check_seed, _is_int, validate_spectrum
from .scheme import _UNIT_INTERVAL, SchemeParams
from .twoqubit import _concurrence_stack, concurrence

CSV_HEADER = (
    "sample_id,pump_p,t,theta1,theta2,alpha1,alpha2,mu,gamma0,"
    "concurrence,bound_general,bound_2d,lambda1,lambda2,lambda3,lambda4"
)

#: CSV / sampling order of the tunable parameters
COLUMNS = ("pump_p", "t", "theta1", "theta2", "alpha1", "alpha2", "mu", "gamma0")

DEFAULT_RANGES = {
    "pump_p": (0.0, 1.0),
    "t": (0.0, 1.0),
    "theta1": (0.0, math.pi),
    "theta2": (0.0, math.pi),
    "alpha1": (0.0, 2.0 * math.pi),
    "alpha2": (0.0, 2.0 * math.pi),
    "mu": (0.0, 1.0),
    "gamma0": (0.0, 2.0 * math.pi),
}

MODES = ("general", "two_d")
BOUND_TOL = 1e-9

#: the known setting at which the source reaches concurrence (1 + P)/2
SATURATING_SETTING = {
    "t": 0.5,
    "theta1": -math.pi / 4.0,
    "theta2": 0.0,
    "alpha1": math.pi / 2.0,
    "alpha2": math.pi,
    "mu": 1.0,
    "gamma0": 0.0,
}

# Philox counter blocks per sample: 2 blocks x 4 doubles = 8 draws
_BLOCKS_PER_SAMPLE = 2
# fixed evaluation batch; must not depend on the worker count
_BATCH = 2048
# rows of a batch that the concurrence kernel and the renderer take at a time:
# a block's temporaries (at most 1.4 MiB) stay under glibc's heap trim
# threshold, so the heap keeps them from block to block instead of giving a
# whole batch's 4 MiB back to the operating system after each one and
# faulting it in again for the next
_BLOCK_ROWS = 1024
# bytes of the id ("%d" of any int64) and of the longest "%.17g" text
# ("-4.9406564584124654e-324") in a row laid out by _render_csv
_ID_WIDTH, _TEXT_WIDTH = 20, 24
#: columns of a batch's values: the CSV fields after sample_id, settings first
_VALUE_FIELDS = CSV_HEADER.split(",")[1:]
_P, _T, _MU, _C = (_VALUE_FIELDS.index(name) for name in ("pump_p", "t", "mu", "concurrence"))
_SPECTRUM = slice(_VALUE_FIELDS.index("lambda1"), _VALUE_FIELDS.index("lambda4") + 1)
_UNIT_INDEX = [_VALUE_FIELDS.index(name) for name in _UNIT_INTERVAL]
#: a CSV row as the reader parses it: the sample_id, then a batch's values
_ROW = np.dtype([("sample_id", np.int64), ("values", np.float64, (len(_VALUE_FIELDS),))])
#: the grammar error of a CSV line or a plain record, after its line or sample_id
_NOT_ROW = f"not an int64 sample_id and {len(_VALUE_FIELDS)} numbers"


@dataclass(frozen=True)
class SweepConfig:
    """Sweep settings: sample count, seed, mode, ranges, parallelism.

    ``param_ranges`` entries override :data:`DEFAULT_RANGES` per parameter
    and are kept as checked ``(lo, hi)`` float pairs.  ``two_d`` mode is the
    range t in [1, 1], which confines every state to the |HH>, |VV> block,
    so it refuses any other t range; :meth:`ranges` reports the ranges that
    the draws use.
    """

    n_samples: int
    seed: int
    mode: str = "general"
    param_ranges: dict | None = None
    workers: int = 1

    def __post_init__(self):
        if not _is_int(self.n_samples) or self.n_samples < 1:
            raise BadConfigError(f"n_samples must be a positive integer, got {self.n_samples!r}")
        _check_seed(self.seed, BadConfigError)
        if self.mode not in MODES:
            raise BadConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not _is_int(self.workers) or self.workers < 1:
            raise BadConfigError(f"workers must be a positive integer, got {self.workers!r}")
        if not isinstance(self.param_ranges, (Mapping, type(None))):
            raise BadConfigError(f"param_ranges must be a mapping, got {self.param_ranges!r}")
        checked = {}
        for name, bounds in (self.param_ranges or {}).items():
            if name not in COLUMNS:
                raise BadConfigError(f"unknown parameter {name!r}")
            if isinstance(bounds, (str, bytes)):
                raise BadConfigError(f"range for {name!r} must be a (lo, hi) pair, got {bounds!r}")
            try:
                lo, hi = map(_as_float, bounds)
            except (TypeError, ValueError) as exc:
                raise BadConfigError(f"range for {name!r} must be a (lo, hi) pair of numbers") from exc
            if not math.isfinite(hi - lo) or lo > hi:
                raise BadConfigError(f"bad range for {name!r}: ({lo}, {hi})")
            if name in _UNIT_INTERVAL and not (0.0 <= lo and hi <= 1.0):
                raise BadConfigError(f"range for {name!r} must stay within [0, 1]")
            checked[name] = (lo, hi)
        if self.mode == "two_d" and checked.get("t", (1.0, 1.0)) != (1.0, 1.0):
            raise BadConfigError(f"two_d mode draws t from (1.0, 1.0), got {checked['t']}")
        if self.param_ranges is not None:
            object.__setattr__(self, "param_ranges", checked)

    def ranges(self) -> dict:
        """The ``(lo, hi)`` range that the draws use for every column."""
        merged = {**DEFAULT_RANGES, **(self.param_ranges or {})}
        if self.mode == "two_d":
            merged["t"] = (1.0, 1.0)
        return merged


@dataclass(frozen=True)
class SweepRecord:
    """One Monte Carlo outcome: the drawn settings and what they produced."""

    sample_id: int
    params: SchemeParams
    concurrence: float
    bound_general: float
    bound_2d: float
    spectrum: np.ndarray


class SweepRecords(Sequence):
    """Sweep records in the order of their arrays, held as one ``(ids, values)`` pair.

    Construction refuses ``ids`` that are not a 1-D integer array and
    ``values`` that are not a float array of shape ``(len(ids), 15)``, then
    applies the package's one row rule, _BATCH rows at a time, and refuses
    the first bad row with an error prefixed by its ``sample_id``.  Every
    setting must be finite with ``pump_p``, ``t`` and ``mu`` in [0, 1]
    (the row is rebuilt as SchemeParams to name the setting); a
    concurrence below 0 raises BadParameterError, while a NaN or +inf one
    passes for the audit to count; the spectra go through validate_spectrum
    as one stack.  The id order is a rule of the CSV file, not of records.
    Indexing (and so iteration) builds each :class:`SweepRecord` on access;
    slicing returns another SweepRecords over views of the same arrays.
    """

    def __init__(self, records: tuple[np.ndarray, np.ndarray]):
        ids, values = records
        if not (isinstance(ids, np.ndarray) and ids.ndim == 1 and ids.dtype.kind in "iu"):
            raise BadParameterError(f"record ids must be a 1-D integer array, got {_describe(ids)}")
        shape = (len(ids), len(_VALUE_FIELDS))
        if not (isinstance(values, np.ndarray) and values.shape == shape and values.dtype.kind == "f"):
            raise BadParameterError(f"record values must be a float array of shape {shape}, got {_describe(values)}")
        self._ids, self._values = ids, values
        for lo in range(0, len(ids), _BATCH):
            part = values[lo : lo + _BATCH]
            unit = part[:, _UNIT_INDEX]
            ok = np.isfinite(part[:, : len(COLUMNS)]).all(axis=1) & ((unit >= 0.0) & (unit <= 1.0)).all(axis=1)
            if not ok.all():
                i = lo + int(np.argmin(ok))
                try:
                    SchemeParams(**dict(zip(COLUMNS, values[i, : len(COLUMNS)].tolist())))
                except BadParameterError as exc:
                    raise BadParameterError(f"sample_id={ids[i]}: {exc}") from None
            if (negative := part[:, _C] < 0.0).any():
                i = lo + int(np.argmax(negative))
                raise BadParameterError(f"sample_id={ids[i]}: concurrence {float(values[i, _C])!r} is negative")
            try:
                validate_spectrum(part[:, _SPECTRUM])
            except InvalidSpectrumError as exc:
                raise InvalidSpectrumError(f"sample_id={ids[lo + exc.index]}: {exc}") from None

    def __len__(self) -> int:
        return self._ids.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SweepRecords((self._ids[index], self._values[index]))
        i = operator.index(index)
        if not -len(self) <= i < len(self):
            raise IndexError(f"record index {index} out of range for {len(self)} records")
        row = self._values[i]
        conc, general, two_d = row[_C : _C + 3].tolist()
        return SweepRecord(
            sample_id=int(self._ids[i]),
            params=SchemeParams._from_checked(dict(zip(COLUMNS, row[: len(COLUMNS)].tolist()))),
            concurrence=conc,
            bound_general=general,
            bound_2d=two_d,
            spectrum=row[_SPECTRUM].copy(),
        )


def _describe(a) -> str:
    """An array's dtype and shape, or a non-array's type, for an error message."""
    return f"{a.dtype} of shape {a.shape}" if isinstance(a, np.ndarray) else type(a).__name__


def _draw_columns(cfg: SweepConfig, start: int, stop: int) -> np.ndarray:
    """Uniform draws over ``cfg.ranges()`` for samples [start, stop); shape (stop-start, 8).

    Every mode draws every column, so the per-sample counter layout is the
    same; ``two_d``'s t range [1, 1] gives exactly ``1.0 + 0.0 * u = 1``.
    """
    bits = np.random.Philox(key=int(cfg.seed), counter=start * _BLOCKS_PER_SAMPLE)
    u = np.random.Generator(bits).random((stop - start, len(COLUMNS)))
    ranges = cfg.ranges()
    lo, hi = np.array([ranges[name] for name in COLUMNS]).T
    return lo + (hi - lo) * u


def _evaluate(cfg: SweepConfig, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(ids, values)`` batch of samples [start, stop).

    ``values`` holds the settings, the concurrence, both bounds and the
    spectrum in CSV column order.  The states ``rho = G G^dag`` are never
    formed: the spectra come in closed form from the settings, and the
    concurrence from ``G``.  ``G`` passes the source's factor gate and the
    spectra the spectrum rules; a state that fails raises
    InvalidDensityMatrixError or InvalidSpectrumError naming its
    ``sample_id``.
    """
    settings = _draw_columns(cfg, start, stop)
    pump_p = settings[:, _P]
    g = scheme._density_stack(*settings.T)
    spectra = scheme._spectrum_stack(pump_p, settings[:, _T], settings[:, _MU])
    try:
        scheme._validate_built(g)
        validate_spectrum(spectra)
    except (InvalidDensityMatrixError, InvalidSpectrumError) as exc:
        failure = type(exc)(f"sweep: sample_id={start + exc.index}: {exc}")
        failure.index = start + exc.index
        raise failure from exc
    conc = np.zeros(len(g))
    # the kernel's (n, 4, 4) complex temporaries are a batch's largest
    for lo in range(0, len(g), _BLOCK_ROWS):
        conc[lo : lo + _BLOCK_ROWS] = _concurrence_stack(g[lo : lo + _BLOCK_ROWS])
    values = np.column_stack((settings, conc, (1.0 + pump_p) / 2.0, pump_p, spectra))
    return np.arange(start, stop, dtype=np.int64), values


def _render_csv(ids: np.ndarray, values: np.ndarray) -> bytes:
    """One CSV text block (no header) for a batch's int64 ids and (n, 15) values.

    The bytes are those of the row template ``"%d" + ",%.17g" * 15``:
    :func:`_fixed17` renders the values it covers and ``%`` the rest.  Each
    row is laid out in a fixed-width NUL-padded buffer (the id, then a comma
    and a text slot per value, then a newline); dropping the NULs packs it
    into the row bytes.
    """
    buf = _padded_rows(ids, values)
    return buf[buf != 0].tobytes()


def _padded_rows(ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The NUL-padded row buffer of :func:`_render_csv`, one uint8 row per CSV row.

    Kept apart from the packing, so that the text table is freed before it.
    """
    rows = len(ids)
    x = values.ravel()
    fast = (x >= 1e-4) & (x < 1e16)
    zero = (x == 0.0) & ~np.signbit(x)
    slow = np.flatnonzero(~(fast | zero))
    text = _fixed17(np.where(fast, x, 1.0))  # +0.0 and slow values render a placeholder
    text[5, zero] = ord("0")  # in place of the "1" of the placeholder 1.0
    buf = np.zeros((rows, _ID_WIDTH + (1 + _TEXT_WIDTH) * values.shape[1] + 1), dtype=np.uint8)
    # the ids' digits, right-aligned in their slot; the ids are nonnegative,
    # so the loop ends within the slot, and NULs stand for leading zeros
    q = ids // 10
    buf[:, _ID_WIDTH - 1] = ids - q * 10 + ord("0")
    for col in range(_ID_WIDTH - 2, -1, -1):
        if not q.any():
            break
        d, q = q, q // 10
        buf[:, col] = (d - q * 10 + ord("0")) * (d > 0)
    cells = buf[:, _ID_WIDTH:-1].reshape(rows, values.shape[1], 1 + _TEXT_WIDTH)
    cells[..., 0] = ord(",")
    cells[..., 1:] = text.T.reshape(rows, values.shape[1], _TEXT_WIDTH)
    if slow.size:
        fallback = np.array(["%.17g" % v for v in x[slow].tolist()], dtype=f"S{_TEXT_WIDTH}")
        row, col = np.divmod(slow, values.shape[1])
        cells[row, col, 1:] = fallback.view(np.uint8).reshape(slow.size, _TEXT_WIDTH)
    buf[:, -1] = ord("\n")
    return buf


def _split(a):
    """Veltkamp's split: ``a == hi + lo`` exactly, each half of at most 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


#: 10**k for k = 0..22, every one an exact double, and its Veltkamp halves
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI, _POW10_LO = _split(_POW10)
_DIGIT_ROWS = np.arange(18, dtype=np.int8)[:, None]
#: rows 0-4 of a _fixed17 text, "0." and three zeros, and the largest e that shows each
_LEAD_CHARS = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_LEAD_E = np.array([-1, -1, -2, -3, -4], dtype=np.int8)[:, None]


def _times_pow10(x, k):
    """``x * 10**k`` exactly, as the unevaluated sum ``p + err`` (Dekker's two-product)."""
    x_hi, x_lo = _split(x)
    b_hi, b_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    p = x * _POW10.take(k)
    err = ((x_hi * b_hi - p) + x_hi * b_lo + x_lo * b_hi) + x_lo * b_lo
    return p, err


def _fixed17(x: np.ndarray) -> np.ndarray:
    """The ``"%.17g"`` text of each x in [1e-4, 1e16), as a (24, n) uint8 table.

    Column i holds the text of ``x[i]``, NUL-padded; NULs may sit between
    its characters, never in place of one.  In this range ``%.17g`` prints
    fixed notation: the 17 significant digits of x, correctly rounded (half
    to even), with trailing fraction zeros and a bare point dropped.
    Exactness:

    - With ``e = floor(log10 x)`` the scale ``10**(16-e)`` is at most
      ``10**20``, an exact double.
    - Dekker's two-product (Veltkamp's split, no FMA; Dekker, Numer. Math.
      18, 224 (1971)) gives the exact product ``x * 10**(16-e) = p + err``.
    - In [1e16, 1e17] the double ``p`` exceeds 2**53 and is an even
      integer, so ``D = int64(p) + rint(err)`` rounds the exact product to
      an integer, ties to even, as CPython's correctly rounded ``%.17g``
      does.
    - ``log10`` can put e off by one next to a power of ten; a re-check of
      the exact product against [1e16, 1e17) fixes it.  A rounding carry,
      ``D == 10**17``, becomes ``D = 10**16`` with e one higher.

    The digits of D come from base-100 division into a (digit, value)
    table.  Rows 0-4 of the text hold ``0.`` and the leading zeros when
    e < 0; rows 5-22 the 17 digits, with the point after digit e when a
    nonzero digit follows it; trailing fraction zeros are NUL.
    """
    # in stages, so that each stage's temporaries are freed before the next
    chars, e8, point = _digit_chars(*_digits17(x))
    # selections are arithmetic on uint8: np.where is many times slower here
    text = np.zeros((_TEXT_WIDTH, x.size), dtype=np.uint8)
    text[:5] = (e8 <= _LEAD_E) * _LEAD_CHARS
    # row 5 + c holds digit c up to digit e, then the point, then digit c - 1;
    # with e < 0 the point's row is row 22, after all 17 digits
    after = e8.copy()
    after[e8 < 0] = 16
    text[5] = chars[0]
    digits = text[6:23]
    np.subtract(chars[1:], chars[:17], out=digits)  # wraps mod 256, undone below
    digits *= _DIGIT_ROWS[1:] <= after
    digits += chars[:17]
    text[6 + after, np.arange(x.size)] = point * np.uint8(ord("."))
    return text


def _digits17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(D, e)`` of :func:`_fixed17`: x's 17 significant digits as an int64 in [1e16, 1e17), and its exponent."""
    e = np.floor(np.log10(x)).astype(np.int64)
    p, err = _times_pow10(x, 16 - e)
    low = (p < 1e16) | ((p == 1e16) & (err < 0.0))
    high = (p > 1e17) | ((p == 1e17) & (err >= 0.0))
    redo = np.flatnonzero(low | high)
    if redo.size:
        e[redo] += np.where(high[redo], 1, -1)
        p[redo], err[redo] = _times_pow10(x[redo], 16 - e[redo])
    d = p.astype(np.int64) + np.rint(err).astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    e[carry] += 1
    return d, e


def _digit_chars(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shown digits of ``D``, an (18, n) uint8 table, with e as int8 and whether the point shows.

    Rows 0-16 hold the digit characters, most significant first, and NUL
    for a trailing fraction zero; row 17 is NUL and pads ``chars[1:]``.
    """
    n = d.size
    # d // 100 and a multiply stand in for np.divmod, which is ten times slower
    chars = np.zeros((18, n), dtype=np.uint8)
    for j in range(16, 0, -2):
        q = d // 100
        pair = (d - q * 100).astype(np.uint8)
        chars[j - 1] = pair // 10
        chars[j] = pair - chars[j - 1] * 10
        d = q
    chars[0] = d
    # digit j shows if it or a later digit is nonzero, or it is in the integer part
    shown = chars[:17] != 0
    for j in range(15, -1, -1):
        shown[j] |= shown[j + 1]
    e8 = e.astype(np.int8)
    point = shown.ravel()[np.clip(e + 1, 0, 16) * n + np.arange(n)] & (e8 >= 0)
    shown |= _DIGIT_ROWS[:17] <= e8
    chars[:17] += ord("0")
    chars[:17] *= shown
    return chars, e8, point


def _csv_task(cfg: SweepConfig, start: int, stop: int) -> tuple[bytes, tuple]:
    """The CSV rows and the audit summary of samples [start, stop), rendered _BLOCK_ROWS at a time."""
    ids, values = _evaluate(cfg, start, stop)
    text = b"".join(
        _render_csv(ids[lo : lo + _BLOCK_ROWS], values[lo : lo + _BLOCK_ROWS])
        for lo in range(0, len(ids), _BLOCK_ROWS)
    )
    return text, _accumulate(values)


def _batches(cfg: SweepConfig) -> Iterator[tuple]:
    """The sweep's ``(cfg, start, stop)`` tasks, made one at a time as they are consumed."""
    return ((cfg, lo, min(lo + _BATCH, cfg.n_samples)) for lo in range(0, cfg.n_samples, _BATCH))


def _ordered_map(func, tasks: Iterable, workers: int):
    """Apply ``func(*task)`` over tasks, in order, with bounded parallelism.

    Tasks are drawn from the iterable only as the window has room for them,
    and a single task runs inline: no pool starts for it.  The workers are
    threads, since a batch spends nearly all its time in numpy and LAPACK
    calls that release the GIL; no result is pickled.  A task that raises,
    or a caller that stops early, cancels the queued tasks.
    """
    tasks = iter(tasks)
    head = list(islice(tasks, 2))
    if workers <= 1 or len(head) <= 1:
        for task in chain(head, tasks):
            yield func(*task)
        return
    from concurrent.futures import ThreadPoolExecutor  # only a pool needs it

    pool = ThreadPoolExecutor(max_workers=workers)
    window = workers * 4
    pending = []
    try:
        for task in chain(head, tasks):
            pending.append(pool.submit(func, *task))
            if len(pending) >= window:
                yield pending.pop(0).result()
        while pending:
            yield pending.pop(0).result()
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass
class BoundReport:
    """Audit of a sweep against the polarization bounds.

    A record violates the audit when its concurrence exceeds (1 + P)/2 +
    1e-9, or P + 1e-9 for two-level records (t = 1 exactly), or is NaN;
    both bounds come from the record's P.  ``worst_slack`` is the smallest
    bound-minus-concurrence margin seen, NaN once any margin is NaN;
    ``decile_max`` holds the largest concurrence per pump-P decile.
    """

    n_records: int = 0
    violations: int = 0
    worst_slack: float = math.inf
    max_general: float = math.nan
    max_two_d: float = math.nan
    decile_max: np.ndarray = field(default_factory=lambda: np.full(10, math.nan))

    def _fold(self, part: tuple) -> None:
        n, viol, worst, max_gen, max_2d, dec = part
        self.n_records += n
        self.violations += viol
        self.worst_slack = float(np.minimum(self.worst_slack, worst))  # NaN sticks
        # fmax keeps the non-NaN operand, so empty partitions stay NaN
        self.max_general = float(np.fmax(self.max_general, max_gen))
        self.max_two_d = float(np.fmax(self.max_two_d, max_2d))
        self.decile_max = np.fmax(self.decile_max, dec)


def _accumulate(values: np.ndarray) -> tuple:
    """Per-batch audit summary, fold-able into a BoundReport.

    ``values`` needs only the settings and concurrence columns.  Both bounds
    are recomputed from ``pump_p``; the stored bound columns are not read.
    A NaN slack fails ``slack >= -BOUND_TOL`` and so counts as a violation.
    """
    conc, pump_p, t = values[:, _C], values[:, _P], values[:, _T]
    slack = (1.0 + pump_p) / 2.0 - conc
    two_d = t == 1.0
    slack = np.where(two_d, np.minimum(slack, pump_p - conc), slack)
    violations = int(np.count_nonzero(~(slack >= -BOUND_TOL)))
    worst = float(slack.min()) if slack.size else math.inf
    max_gen = float(conc[~two_d].max()) if np.any(~two_d) else math.nan
    max_2d = float(conc[two_d].max()) if np.any(two_d) else math.nan
    deciles = np.minimum((pump_p * 10.0).astype(int), 9)
    dec = np.full(10, math.nan)
    np.fmax.at(dec, deciles, conc)
    return conc.size, violations, worst, max_gen, max_2d, dec


def _records_from_batch(ids: np.ndarray, values: np.ndarray, store: tuple, at: int) -> int:
    """Copy a batch into ``store`` from row ``at``; returns the row after the batch's last."""
    stop = at + len(ids)
    store[0][at:stop] = ids
    store[1][at:stop] = values
    return stop


def _held(batches: Iterable[tuple], capacity: int, source) -> SweepRecords:
    """The records of ``batches``, copied into one store of ``capacity`` rows.

    Rows the batches leave unfilled stay an unused tail behind the records'
    views.  A batch that would run past the store raises BadConfigError
    naming ``source``, before any of it is written.
    """
    store = np.empty(capacity, np.int64), np.empty((capacity, len(_VALUE_FIELDS)))
    filled = 0
    for ids, values in batches:
        if filled + len(ids) > capacity:
            raise BadConfigError(f"{source}: more rows than the {capacity} counted (changed while read)")
        filled = _records_from_batch(ids, values, store, filled)
    return SweepRecords((store[0][:filled], store[1][:filled]))


def run_sweep(cfg: SweepConfig) -> SweepRecords:
    """All sample records, in sample-id order.

    Holds every sample's values in memory, once; for very large sweeps
    prefer :func:`sweep_to_csv`, which streams.
    """
    return _held(_ordered_map(_evaluate, _batches(cfg), cfg.workers), cfg.n_samples, "sweep")


def sweep_to_csv(cfg: SweepConfig, path) -> BoundReport:
    """Run the sweep, streaming records to ``path`` in sample-id order.

    Values are written with 17 significant digits so they re-parse to the
    exact floating-point numbers.  Returns the bound audit accumulated
    on the fly.

    The rows go to a temporary file beside ``path`` (beside the file a
    symlink points to), which replaces it only once the sweep has finished;
    if the sweep raises, the temporary file is removed and whatever was at
    ``path`` is left as it was.  A ``path`` that exists but is not a regular
    file, such as ``/dev/null`` or a pipe, is written in place.  An OSError
    from creating the temporary file names ``path``.
    """
    given, path = path, os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as handle:
            return _write_csv(cfg, handle)
    temporary = f"{path}.{os.urandom(4).hex()}.tmp"
    try:
        handle = open(temporary, "xb")
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, os.fspath(given)) from None
    try:
        with handle:
            report = _write_csv(cfg, handle)
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise
    return report


def _write_csv(cfg: SweepConfig, handle) -> BoundReport:
    """Write the header and every row to an open binary file; the bound audit."""
    report = BoundReport()
    handle.write((CSV_HEADER + "\n").encode("ascii"))
    for chunk, part in _ordered_map(_csv_task, _batches(cfg), cfg.workers):
        handle.write(chunk)
        report._fold(part)
    return report


def _record_values(records: Iterable[SweepRecord]) -> Iterator[np.ndarray]:
    """The values ``_accumulate`` reads, at most _BATCH records at a time.

    Plain records are packed, the id by ``_is_int`` into an int64 and the
    15 values by ``_as_float``, into SweepRecords, which checks the rows; a
    record that does not pack raises BadParameterError with :data:`_NOT_ROW`.
    """
    if isinstance(records, SweepRecords):
        for lo in range(0, len(records), _BATCH):
            yield records._values[lo : lo + _BATCH]
        return
    records = iter(records)
    while chunk := list(islice(records, _BATCH)):
        ids, values = np.empty(len(chunk), np.int64), np.empty((len(chunk), len(_VALUE_FIELDS)))
        for i, r in enumerate(chunk):
            sample_id = r.sample_id
            try:
                if not _is_int(sample_id):  # np.int64 would read 2.5, True or "7" as an id
                    raise TypeError
                ids[i] = int(sample_id)  # an int, so that np.uint64 overflows rather than wraps
                row = [*(getattr(r.params, n) for n in COLUMNS), r.concurrence, r.bound_general, r.bound_2d, *r.spectrum]
                values[i] = [_as_float(x) for x in row]  # 11 values or more: a wrong count cannot broadcast
            except (AttributeError, OverflowError, TypeError, ValueError):
                raise BadParameterError(f"sample_id={sample_id!r}: {_NOT_ROW}") from None
        yield SweepRecords((ids, values))._values


def verify_bounds(records: Iterable[SweepRecord]) -> BoundReport:
    """Audit records against the bounds (see :class:`BoundReport`)."""
    report = BoundReport()
    for values in _record_values(records):
        report._fold(_accumulate(values))
    return report


def _columns_from_csv(path) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The file's rows, _BATCH lines at a time, as ``(ids, values)`` views of :data:`_ROW` records."""
    with open(path, "r", encoding="ascii") as handle:
        header = "".join(_read_lines(handle, 1, path)).strip()
        if header != CSV_HEADER:
            raise BadConfigError(f"unexpected CSV header in {path}")
        line_no = 1  # lines read so far, the header included
        last_id = -1
        while rows := _read_lines(handle, _BATCH, path):
            data = _parse_rows(rows)
            if data is None or not (data["sample_id"] > np.append(last_id, data["sample_id"][:-1])).all():
                _first_bad_line(rows, path, line_no, last_id)
            line_no += len(rows)
            if len(data):
                last_id = data["sample_id"][-1]
                yield data["sample_id"], data["values"]


def _read_lines(handle, count: int, path) -> list:
    """The next ``count`` lines of an ASCII text file; a byte that is not ASCII raises BadConfigError."""
    try:
        return list(islice(handle, count))
    except UnicodeDecodeError as exc:
        raise _not_ascii(path, exc) from None


def _is_row(line: str) -> bool:
    """Whether a line holds data: blank and ``#`` comment lines do not."""
    return line.lstrip()[:1] not in ("", "#")


def _parse_rows(rows: list):
    """The data rows as a :data:`_ROW` array, or None if np.loadtxt refuses one.

    Blank (whitespace-only) and ``#`` comment lines are skipped.
    """
    # the common batch, all data, is read with no per-line work in Python;
    # np.loadtxt warns on a batch without data, so one that starts with a
    # blank or comment line goes straight to the filter
    if _is_row(rows[0]) and (data := _table(rows)) is not None:
        return data
    rows = [line for line in rows if _is_row(line)]
    return _table(rows) if rows else np.empty(0, _ROW)


def _table(rows: list):
    """The rows as a :data:`_ROW` array, or None if np.loadtxt refuses them or skips any."""
    try:
        data = np.loadtxt(rows, delimiter=",", dtype=_ROW, ndmin=1)
    except ValueError:
        return None
    return data if len(data) == len(rows) else None


def _first_bad_line(rows: list, path, line_no: int, last: int) -> None:
    """Raise BadConfigError naming the first line of a refused batch that breaks a rule.

    ``line_no`` lines of the file precede ``rows`` and ``last`` is the id
    before them, -1 at the top of the file.  Each data row is read alone by
    :func:`_table`, the grammar of the whole batch, so a refused batch has a
    bad line; its id must exceed the id before it, which refuses a negative id.
    """
    for k, line in enumerate(rows, line_no + 1):
        if not _is_row(line):
            continue
        row = _table([line])
        if row is None:
            raise BadConfigError(f"{path}, line {k}: {_NOT_ROW}")
        sample_id = row["sample_id"][0]
        if not sample_id > last:
            problem = "is not a nonnegative int64" if sample_id < 0 else f"after {last}: ids must strictly increase"
            raise BadConfigError(f"{path}, line {k}: sample_id {sample_id} {problem}")
        last = sample_id


def verify_csv(path) -> BoundReport:
    """Audit a sweep CSV file against the bounds, streaming.

    Each batch is checked by building :class:`SweepRecords` from it, as
    :func:`load_csv` does.
    """
    report = BoundReport()
    for batch in _columns_from_csv(path):
        report._fold(_accumulate(SweepRecords(batch)._values))
    return report


def _line_breaks(path) -> int:
    """The file's ``\\n`` and ``\\r`` bytes, counted 1 MiB at a time.

    Text-mode reading ends a line at ``\\n``, ``\\r`` or ``\\r\\n``, so the
    file holds at most one line more than this count; one of its lines is
    the header, so the count is at least the number of rows.
    """
    count = 0
    with open(path, "rb") as handle:
        while chunk := handle.read(2**20):
            text = np.frombuffer(chunk, dtype=np.uint8)
            count += np.count_nonzero(text == ord("\n")) + np.count_nonzero(text == ord("\r"))
    return int(count)


def load_csv(path) -> SweepRecords:
    """Read a sweep CSV back into records (see :class:`SweepRecords`).

    The file is read twice: once to count its lines, which sizes the one
    store that holds the records, and once to parse it.  A file that grows
    between the two raises BadConfigError.
    """
    return _held(_columns_from_csv(path), _line_breaks(path), path)


def saturating_config(pump_p: float) -> tuple[SchemeParams, float]:
    """The known bound-reaching setting and its computed concurrence.

    Builds the state at t = 0.5, theta1 = -pi/4, theta2 = 0, alpha1 = pi/2,
    alpha2 = pi, mu = 1, gamma0 = 0 and evaluates its concurrence, which
    comes out at (1 + P)/2; the value is computed, never assumed.
    """
    params = SchemeParams(pump_p=pump_p, **SATURATING_SETTING)
    rho = scheme.build_density_matrix(params)
    return params, concurrence(rho)
