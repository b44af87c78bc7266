"""Seeded Monte Carlo harness over the two-arm source.

Draws source settings uniformly at random, evaluates the concurrence and the
polarization bounds for every sample, and streams the results to CSV.

Reproducibility contract: the RNG is numpy's Philox (4x64-10) keyed by the
sweep seed, and each sample owns a fixed window of the counter stream (two
4-word blocks = eight uniform draws).  Sample values therefore depend only
on ``(seed, sample_id)``; batching and worker scheduling cannot change them,
and the CSV produced for a given configuration is byte-identical for any
worker count.  Rows are rendered from one fixed template,
``"%d" + ",%.17g" * 15``, so every float re-parses to the same double; the
bytes of the file, not just its values, are the reproducibility contract.

:func:`run_sweep` and :func:`load_csv` return :class:`SweepRecords`, a
sequence backed by column arrays: each :class:`SweepRecord` is built when it
is accessed, and :func:`verify_bounds` audits the columns without building
any.  The audit recomputes both bounds from ``pump_p`` and trusts no stored
bound column; a NaN slack counts as a violation.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from . import scheme
from .errors import BadConfigError, BadParameterError, InvalidDensityMatrixError
from .scheme import SchemeParams
from .twoqubit import _wootters_stack, concurrence

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
_BATCH = 8192
# rows formatted and encoded at a time by _render_csv
_RENDER_CHUNK = 1024
_ROW = "%d" + ",%.17g" * 15 + "\n"
_N_FIELDS = CSV_HEADER.count(",") + 1
_UNIT_INTERVAL = ("pump_p", "t", "mu")
_UNIT_INDEX = [COLUMNS.index(name) for name in _UNIT_INTERVAL]
_P, _T = COLUMNS.index("pump_p"), COLUMNS.index("t")


@dataclass(frozen=True)
class SweepConfig:
    """Sweep settings: sample count, seed, mode, ranges, parallelism.

    ``two_d`` mode pins the beam splitter at t = 1 so that every generated
    state is confined to the |HH>, |VV> block.  ``param_ranges`` entries
    override :data:`DEFAULT_RANGES` per parameter.
    """

    n_samples: int
    seed: int
    mode: str = "general"
    param_ranges: dict | None = None
    workers: int = 1

    def __post_init__(self):
        if not isinstance(self.n_samples, (int, np.integer)) or self.n_samples < 1:
            raise BadConfigError(f"n_samples must be a positive integer, got {self.n_samples!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise BadConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.mode not in MODES:
            raise BadConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.workers, (int, np.integer)) or self.workers < 1:
            raise BadConfigError(f"workers must be a positive integer, got {self.workers!r}")
        for name, bounds in (self.param_ranges or {}).items():
            if name not in COLUMNS:
                raise BadConfigError(f"unknown parameter {name!r}")
            try:
                lo, hi = (float(bounds[0]), float(bounds[1]))
            except (TypeError, ValueError, IndexError) as exc:
                raise BadConfigError(f"range for {name!r} must be a (lo, hi) pair") from exc
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise BadConfigError(f"bad range for {name!r}: ({lo}, {hi})")
            if name in _UNIT_INTERVAL and not (0.0 <= lo and hi <= 1.0):
                raise BadConfigError(f"range for {name!r} must stay within [0, 1]")

    def ranges(self) -> dict:
        merged = dict(DEFAULT_RANGES)
        merged.update(self.param_ranges or {})
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


#: column arrays behind a SweepRecords, with the trailing shape of each
_RECORD_COLUMNS = {
    "sample_id": (),
    "columns": (len(COLUMNS),),
    "concurrence": (),
    "bound_general": (),
    "bound_2d": (),
    "spectrum": (4,),
}


class SweepRecords(Sequence):
    """Sweep records in sample order, held as one array per column.

    Indexing (and so iteration) builds each :class:`SweepRecord` on access;
    slicing returns another SweepRecords over views of the same columns.
    """

    def __init__(self, batches: list[dict]):
        if len(batches) == 1:  # a slice, or a one-batch sweep: keep the arrays
            self._cols = {key: batches[0][key] for key in _RECORD_COLUMNS}
            return
        self._cols = {
            key: np.concatenate([b[key] for b in batches])
            if batches
            else np.empty((0,) + shape, dtype=np.int64 if key == "sample_id" else float)
            for key, shape in _RECORD_COLUMNS.items()
        }

    def __len__(self) -> int:
        return self._cols["sample_id"].shape[0]

    def __getitem__(self, index):
        cols = self._cols
        if isinstance(index, slice):
            return SweepRecords([{key: value[index] for key, value in cols.items()}])
        i = operator.index(index)
        if not -len(self) <= i < len(self):
            raise IndexError(f"record index {index} out of range for {len(self)} records")
        return SweepRecord(
            sample_id=int(cols["sample_id"][i]),
            params=SchemeParams(**dict(zip(COLUMNS, cols["columns"][i].tolist()))),
            concurrence=float(cols["concurrence"][i]),
            bound_general=float(cols["bound_general"][i]),
            bound_2d=float(cols["bound_2d"][i]),
            spectrum=cols["spectrum"][i].copy(),
        )

    def _batches(self) -> Iterator[dict]:
        """Views of the columns, _BATCH rows at a time."""
        for lo in range(0, len(self), _BATCH):
            yield {key: value[lo : lo + _BATCH] for key, value in self._cols.items()}


def _draw_columns(cfg: SweepConfig, start: int, stop: int) -> np.ndarray:
    """Uniform draws for samples [start, stop); shape (stop-start, 8).

    In ``two_d`` mode the t column is drawn and then pinned to 1, keeping
    the per-sample counter layout identical across modes.
    """
    bits = np.random.Philox(key=int(cfg.seed), counter=start * _BLOCKS_PER_SAMPLE)
    u = np.random.Generator(bits).random((stop - start, len(COLUMNS)))
    ranges = cfg.ranges()
    out = np.empty_like(u)
    for j, name in enumerate(COLUMNS):
        lo, hi = ranges[name]
        out[:, j] = lo + (hi - lo) * u[:, j]
    if cfg.mode == "two_d":
        out[:, COLUMNS.index("t")] = 1.0
    return out


def _evaluate(cfg: SweepConfig, start: int, stop: int):
    """Columns, concurrence, bounds and spectra for samples [start, stop).

    Every state passes the physicality gate of the builders inside the
    Wootters kernel; a state that fails it raises
    InvalidDensityMatrixError naming its ``sample_id``.
    """
    cols = _draw_columns(cfg, start, stop)
    pump_p, t, th1, th2, a1, a2, mu, g0 = (cols[:, j] for j in range(len(COLUMNS)))
    rhos = scheme._density_stack(pump_p, t, th1, th2, a1, a2, mu, g0)
    try:
        spectra, s = _wootters_stack(rhos, trace_tol=scheme.BUILT_TRACE_TOL)
    except InvalidDensityMatrixError as exc:
        raise InvalidDensityMatrixError(f"sweep: sample_id={start + exc.index}: {exc}") from exc
    conc = np.maximum(0.0, s[:, 0] - s[:, 1] - s[:, 2] - s[:, 3])
    return {
        "sample_id": np.arange(start, stop, dtype=np.int64),
        "columns": cols,
        "concurrence": conc,
        "bound_general": (1.0 + pump_p) / 2.0,
        "bound_2d": pump_p,
        "spectrum": spectra,
    }


def _render_csv(batch) -> bytes:
    """One CSV text block (no header) for an evaluated batch."""
    ids = batch["sample_id"].tolist()
    values = np.concatenate(
        [
            batch["columns"],
            batch["concurrence"][:, None],
            batch["bound_general"][:, None],
            batch["bound_2d"][:, None],
            batch["spectrum"],
        ],
        axis=1,
    )
    chunks = []
    for lo in range(0, len(ids), _RENDER_CHUNK):
        rows = values[lo : lo + _RENDER_CHUNK].tolist()
        for sid, row in zip(ids[lo : lo + _RENDER_CHUNK], rows):
            row.insert(0, sid)
        chunks.append("".join([_ROW % tuple(row) for row in rows]).encode("ascii"))
    return b"".join(chunks)


def _csv_task(args) -> tuple[bytes, tuple]:
    cfg, start, stop = args
    batch = _evaluate(cfg, start, stop)
    return _render_csv(batch), _accumulate(batch)


def _batch_task(args):
    cfg, start, stop = args
    return _evaluate(cfg, start, stop)


def _batches(cfg: SweepConfig):
    return [
        (cfg, lo, min(lo + _BATCH, cfg.n_samples))
        for lo in range(0, cfg.n_samples, _BATCH)
    ]


def _ordered_map(func, tasks, workers: int):
    """Apply ``func`` over tasks, in order, with bounded parallelism."""
    if workers <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield func(task)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        window = workers * 4
        pending = []
        for task in tasks:
            pending.append(pool.submit(func, task))
            if len(pending) >= window:
                yield pending.pop(0).result()
        while pending:
            yield pending.pop(0).result()


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


def _accumulate(batch) -> tuple:
    """Per-batch audit summary, fold-able into a BoundReport.

    Both bounds are recomputed from ``pump_p``; the stored bound columns are
    not read.  A NaN slack fails ``slack >= -BOUND_TOL`` and so counts as a
    violation.
    """
    conc = batch["concurrence"]
    pump_p = batch["columns"][:, _P]
    t = batch["columns"][:, _T]
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


def _check_params(batch) -> None:
    """Reject a batch whose settings SchemeParams would refuse.

    Every setting must be finite and ``pump_p``, ``t`` and ``mu`` must lie
    in [0, 1]; the first failing row is rebuilt as SchemeParams so that the
    error names its setting, prefixed by its ``sample_id``.
    """
    cols = batch["columns"]
    unit = cols[:, _UNIT_INDEX]
    ok = np.isfinite(cols).all(axis=1) & ((unit >= 0.0) & (unit <= 1.0)).all(axis=1)
    if not ok.all():
        i = int(np.argmin(ok))
        try:
            SchemeParams(**dict(zip(COLUMNS, cols[i].tolist())))
        except BadParameterError as exc:
            raise BadParameterError(f"sample_id={batch['sample_id'][i]}: {exc}") from None


def _records_from_batch(batch, out: list) -> None:
    """Check a batch's settings once, then keep its columns for SweepRecords."""
    _check_params(batch)
    out.append(batch)


def run_sweep(cfg: SweepConfig) -> SweepRecords:
    """All sample records, in sample-id order.

    Holds every sample's columns in memory; for very large sweeps prefer
    :func:`sweep_to_csv`, which streams.
    """
    batches: list[dict] = []
    for batch in _ordered_map(_batch_task, _batches(cfg), cfg.workers):
        _records_from_batch(batch, batches)
    return SweepRecords(batches)


def sweep_to_csv(cfg: SweepConfig, path) -> BoundReport:
    """Run the sweep, streaming records to ``path`` in sample-id order.

    Values are written with 17 significant digits so they re-parse to the
    exact floating-point numbers.  Returns the bound audit accumulated
    on the fly.
    """
    report = BoundReport()
    with open(path, "wb") as handle:
        handle.write((CSV_HEADER + "\n").encode("ascii"))
        for chunk, part in _ordered_map(_csv_task, _batches(cfg), cfg.workers):
            handle.write(chunk)
            report._fold(part)
    return report


def _record_batches(records: Iterable[SweepRecord]) -> Iterator[dict]:
    """The columns ``_accumulate`` reads, at most _BATCH records at a time."""
    if isinstance(records, SweepRecords):
        yield from records._batches()
        return
    chunk: list[SweepRecord] = []
    for record in records:
        chunk.append(record)
        if len(chunk) >= _BATCH:
            yield _pack(chunk)
            chunk = []
    if chunk:
        yield _pack(chunk)


def _pack(chunk: list) -> dict:
    return {
        "concurrence": np.array([r.concurrence for r in chunk]),
        "columns": np.array([[getattr(r.params, name) for name in COLUMNS] for r in chunk]),
    }


def verify_bounds(records: Iterable[SweepRecord]) -> BoundReport:
    """Audit records against the bounds (see :class:`BoundReport`)."""
    report = BoundReport()
    for batch in _record_batches(records):
        report._fold(_accumulate(batch))
    return report


def _columns_from_csv(path) -> Iterator[dict]:
    with open(path, "r", encoding="ascii") as handle:
        header = handle.readline().strip()
        if header != CSV_HEADER:
            raise BadConfigError(f"unexpected CSV header in {path}")
        line_no = 1  # lines read so far, the header included
        while True:
            rows = []
            for line in handle:
                rows.append(line)
                if len(rows) >= _BATCH:
                    break
            if not rows:
                return
            data = _parse_rows(rows, path, line_no)
            line_no += len(rows)
            if not data.shape[0]:
                continue
            yield {
                "sample_id": data[:, 0].astype(np.int64),
                "columns": data[:, 1:9],
                "concurrence": data[:, 9],
                "bound_general": data[:, 10],
                "bound_2d": data[:, 11],
                "spectrum": data[:, 12:16],
            }


def _parse_rows(rows: list, path, line_no: int) -> np.ndarray:
    """Rows as an (n, 16) float array; ``line_no`` lines of the file precede them.

    A row that is not 16 numbers raises BadConfigError naming the file and
    its 1-based line.
    """
    try:
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
        if data.shape[1] == _N_FIELDS or not data.shape[0]:
            return data
    except ValueError:
        pass
    for k, line in enumerate(rows, start=line_no + 1):
        fields = line.split("#")[0].strip()
        if not fields:
            continue  # np.loadtxt skips blank and comment lines
        fields = fields.split(",")
        if len(fields) != _N_FIELDS:
            raise BadConfigError(f"{path}, line {k}: expected {_N_FIELDS} fields, got {len(fields)}")
        for value in fields:
            try:
                float(value)
            except ValueError:
                raise BadConfigError(f"{path}, line {k}: not a number: {value.strip()!r}") from None
    raise BadConfigError(
        f"{path}, lines {line_no + 1}-{line_no + len(rows)}: not a table of {_N_FIELDS} numbers"
    )


def verify_csv(path) -> BoundReport:
    """Audit a sweep CSV file against the bounds, streaming.

    Rows whose settings SchemeParams would refuse raise BadParameterError.
    """
    report = BoundReport()
    for batch in _columns_from_csv(path):
        _check_params(batch)
        report._fold(_accumulate(batch))
    return report


def load_csv(path) -> SweepRecords:
    """Read a sweep CSV back into records (see :class:`SweepRecords`)."""
    batches: list[dict] = []
    for batch in _columns_from_csv(path):
        _records_from_batch(batch, batches)
    return SweepRecords(batches)


def saturating_config(pump_p: float) -> tuple[SchemeParams, float]:
    """The known bound-reaching setting and its computed concurrence.

    Builds the state at t = 0.5, theta1 = -pi/4, theta2 = 0, alpha1 = pi/2,
    alpha2 = pi, mu = 1, gamma0 = 0 and evaluates its concurrence, which
    comes out at (1 + P)/2; the value is computed, never assumed.
    """
    params = SchemeParams(pump_p=float(pump_p), **SATURATING_SETTING)
    rho = scheme.build_density_matrix(params)
    return params, concurrence(rho)
