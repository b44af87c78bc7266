"""One workload in its own interpreter: timed operations, checks, metrics.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and one BLAS thread::

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR [--spans FILE] [--n N]

Operations repeat until ``--seconds`` of operation time is spent, with a
calibration loop timed around every 0.25 s of it (see ``calibration.py``).
Only the calls into pumplimit are timed; each operation's correctness checks run
outside the timed part.  A failed check or an exception counts the
operation as failed, is logged to stderr with the workload, seed and
operation index, and the run goes on.  The last stdout line is one JSON
object: ``metrics``, ``attempted``, ``failed``, ``lines`` (human-readable
report), ``provenance`` and ``missing`` (per-layer metrics whose function is
gone).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import pumplimit as pl
import pumplimit.cli  # noqa: F401  (binds pl.cli)

from calibration import calibration_s
from scalar import RANGES, REF_TOL, ChainInputs, chain, chain_failure, reference_concurrence
from tracing import Tracer

WORKLOADS = ("sweep_w1", "sweep_w2", "audit", "scalar")
BATCH = 8192
#: samples per sweep: many 8192-sample batches, a few seconds at one worker
SWEEP_N = 8 * BATCH
#: rows in the audited file
AUDIT_N = 6 * BATCH
#: reference states for the scalar workload, half of them near the bound
N_REF = 200
#: untimed chains before timing starts
WARM_UP = 32
#: operation time of one untraced round in a traced run; traced rounds match its op count
ROUND_S = 1.0
#: operation time between two timings of the calibration loop
CAL_SLICE_S = 0.25


class Tally:
    """Attempted and failed operations, with failures logged to stderr."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.attempted = 0
        self.failed = 0

    def check(self, where: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            print(
                f"FAILED workload={self.workload} seed={self.seed} {where}: {problem}",
                file=sys.stderr,
            )


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _bits(x) -> str:
    x = float(x)
    return "nan" if math.isnan(x) else x.hex()


def report_key(report) -> tuple:
    """A BoundReport as a tuple that compares floats bit for bit."""
    return (
        int(report.n_records),
        int(report.violations),
        _bits(report.worst_slack),
        _bits(report.max_general),
        _bits(report.max_two_d),
        tuple(_bits(x) for x in report.decile_max),
    )


def printed_report_key(text: str) -> tuple:
    """The same tuple, parsed from ``pumplimit verify`` output."""
    values = {}
    deciles = []
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        if key.startswith("decile_max["):
            deciles.append(_bits(value))
        else:
            values[key] = value
    return (
        int(values["records"]),
        int(values["violations"]),
        _bits(values["worst_slack"]),
        _bits(values["max_concurrence_general"]),
        _bits(values["max_concurrence_two_d"]),
        tuple(deciles),
    )


def reference_sweep(n: int, seed: int, path: Path, tally: Tally):
    """Write the workers=1 sweep through the library; its report and sha256."""
    report = pl.sweep_to_csv(pl.SweepConfig(n_samples=n, seed=seed, workers=1), path)
    with open(path, "rb") as handle:
        rows = sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(1 << 20), b"")) - 1
    problem = None
    if report.violations:
        problem = f"{report.violations} bound violations"
    elif report.n_records != n or rows != n:
        problem = f"{report.n_records} records and {rows} rows, expected {n}"
    tally.check("reference sweep", problem)
    return report, sha256(path)


class SweepOps:
    """``pumplimit sweep`` at a given worker count, checked against the reference."""

    def __init__(self, workers: int, n: int, seed: int, work: Path, tally: Tally):
        self.workers, self.n, self.seed, self.tally = workers, n, seed, tally
        self.path = work / "sweep.csv"
        _, self.digest = reference_sweep(n, seed, work / "reference.csv", tally)  # also warms up
        self.cpu_self = self.cpu_children = self.wall = 0.0

    def op(self, index: int, workers: int | None = None) -> tuple[int, float]:
        argv = ["sweep", "--n", str(self.n), "--seed", str(self.seed), "--mode", "general",
                "--workers", str(workers or self.workers), "--out", str(self.path)]
        before = (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
        with contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            rc = pl.cli.main(argv)
            seconds = time.perf_counter() - start
        after = (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
        if workers is None:
            self.cpu_self += _cpu(after[0]) - _cpu(before[0])
            self.cpu_children += _cpu(after[1]) - _cpu(before[1])
            self.wall += seconds
        problem = None
        if rc != 0:
            problem = f"pumplimit sweep returned {rc}"
        elif sha256(self.path) != self.digest:
            problem = "CSV sha256 differs from the workers=1 reference"
        self.tally.check(f"sweep op={index}", problem)
        return self.n, seconds


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


class AuditOps:
    """``pumplimit verify`` then ``load_csv`` -> ``verify_bounds`` on a swept file."""

    def __init__(self, n: int, seed: int, work: Path, tally: Tally):
        self.n, self.tally = n, tally
        self.path = work / "audited.csv"
        report, _ = reference_sweep(n, seed, self.path, tally)
        self.expected = report_key(report)
        pl.sweep_to_csv(pl.SweepConfig(n_samples=1, seed=seed), work / "first.csv")  # set-up probe input
        self.verify_s = self.reload_s = 0.0
        self.op(-1)  # warm-up, checked but not timed
        self.verify_s = self.reload_s = 0.0

    def op(self, index: int) -> tuple[int, float]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            rc = pl.cli.main(["verify", "--in", str(self.path)])
            middle = time.perf_counter()
        records = pl.load_csv(self.path)
        report = pl.verify_bounds(records)
        end = time.perf_counter()
        self.verify_s += middle - start
        self.reload_s += end - middle
        problem = None
        if rc != 0:
            problem = f"pumplimit verify returned {rc}"
        elif printed_report_key(out.getvalue()) != self.expected:
            problem = "verify report differs from the sweep's BoundReport"
        elif len(records) != self.n:
            problem = f"load_csv returned {len(records)} records, expected {self.n}"
        elif report_key(report) != self.expected:
            problem = "verify_bounds report differs from the sweep's BoundReport"
        self.tally.check(f"audit op={index}", problem)
        return self.n, end - start


class ScalarOps:
    """One scalar chain per operation (a closed loop with one client)."""

    n = 1  # samples per operation

    def __init__(self, seed: int, tally: Tally):
        self.inputs = ChainInputs(seed)
        self.tally = tally
        for index in range(-WARM_UP, 0):  # checked but not timed
            self.op(index)

    def op(self, index: int) -> tuple[int, float]:
        params, k = self.inputs.take()
        start = time.perf_counter()
        _, c_rho, c_out, majorized = chain(params, self.inputs.channels[k])
        seconds = time.perf_counter() - start
        self.tally.check(f"chain={index}", chain_failure(params, c_rho, c_out, majorized))
        return 1, seconds


def run_ops(op, tally: Tally, seconds: float = 0.0, count: int = 0, tracer=None, start=0) -> list:
    """Call ``op(index)`` for ``seconds`` of operation time, or ``count`` times.

    Returns its (items, seconds) per call; a call that raises counts as failed.
    Indices run from ``start``.
    """
    done: list[tuple[int, float]] = []
    spent = 0.0
    while (len(done) < count) if count else (spent < seconds or not done):
        index = start + len(done)
        if tracer is not None:
            tracer.op = index
        began = time.perf_counter()
        try:
            items, took = op(index)
        except Exception:  # the run goes on; the operation counts as failed
            tally.check(f"op={index}", traceback.format_exc(limit=3))
            items, took = 0, time.perf_counter() - began
        done.append((items, took))
        spent += took
    return done


def run_calibrated(op, tally: Tally, seconds: float) -> tuple[list, list, list]:
    """``run_ops`` in slices of CAL_SLICE_S with the calibration loop timed around each.

    Returns the operations, the calibration times and, per operation with
    items, its time per item over the mean calibration time of its slice.
    """
    done, cals, ratios = [], [calibration_s()], []
    while sum(s for _, s in done) < seconds or not done:
        part = run_ops(op, tally, seconds=CAL_SLICE_S, start=len(done))
        cals.append(calibration_s())
        ratios += [s / i / ((cals[-2] + cals[-1]) / 2.0) for i, s in part if i]
        done += part
    return done, cals, ratios


def per_item_us(done) -> float:
    items = sum(i for i, _ in done)
    return 1e6 * sum(s for _, s in done) / items if items else math.inf


def reference_errors(seed: int) -> tuple[int, float, float]:
    """Misses of 1e-12, largest |C - C_ref| and seconds, over N_REF stream states."""
    inputs = ChainInputs(seed)
    start = time.perf_counter()
    errors = []
    for _ in range(N_REF):
        params, _ = inputs.take()
        rho = pl.build_density_matrix(pl.SchemeParams(**params))
        errors.append(abs(pl.concurrence(rho) - reference_concurrence(rho)))
    return sum(e > REF_TOL for e in errors), max(errors), time.perf_counter() - start


# per-layer metrics read from spans: name -> (span, parent span or None, kind)
# kind: "total" and "self" are us per item, "call" us per call, "calls" per item
SPAN_METRICS = {
    "sweep.draw_us": ("sweep._draw_columns", None, "total"),
    "sweep.render_us": ("sweep._render_csv", None, "total"),
    "sweep.audit_us": ("sweep._accumulate", None, "total"),
    "sweep.self_us": ("sweep.sweep_to_csv", None, "self"),
    "sweep.parse_us": ("sweep._columns_from_csv", None, "total"),
    "sweep.records_us": ("sweep._records_from_batch", None, "total"),
    "sweep.bounds_self_us": ("sweep.verify_bounds", None, "self"),
    "scheme.build_us": ("scheme._density_stack", "sweep._evaluate", "total"),
    "scheme.gate_us": ("scheme._validate_built", "sweep._evaluate", "total"),
    "scheme.build_call_us": ("scheme.build_density_matrix", None, "call"),
    "scheme.oracle_call_us": ("scheme.build_density_matrix_oracle", None, "call"),
    "twoqubit.wootters_us": ("twoqubit._wootters_stack", "sweep._evaluate", "total"),
    "twoqubit.concurrence_call_us": ("twoqubit.concurrence", None, "call"),
    "channels.apply_call_us": ("channels.apply_channel", None, "call"),
    "channels.majorized_call_us": ("channels.is_majorized_by", None, "call"),
    "polarization.embed_call_us": ("polarization.embed_pump", None, "call"),
    "linalg.validate_calls_per_chain": ("linalg.validate_density_matrix", None, "calls"),
    "linalg.validate_us": ("linalg.validate_density_matrix", None, "total"),
    "cli.self_us": ("cli.main", None, "self"),
}
#: the per-sample stages that make up one sweep
SWEEP_STAGES = ("sweep.draw_us", "scheme.build_us", "scheme.gate_us", "twoqubit.wootters_us",
                "sweep.render_us", "sweep.audit_us", "sweep.self_us", "cli.self_us")


def span_metrics(tracer: Tracer, items: int) -> tuple[dict, list]:
    summary = tracer.summary()
    metrics, missing = {}, []
    for name, (span, parent, kind) in SPAN_METRICS.items():
        if span in tracer.missing or parent in tracer.missing:
            missing.append(name)
            continue
        calls, total_ns, self_ns = summary.get((span, parent) if parent else span, (0, 0, 0))
        if kind == "total":
            metrics[name] = total_ns / 1e3 / items
        elif kind == "self":
            metrics[name] = self_ns / 1e3 / items
        elif kind == "call":
            metrics[name] = total_ns / 1e3 / calls if calls else 0.0
        else:
            metrics[name] = calls / items
    metrics["linalg.eig_mats_per_sample"] = tracer.eig_mats / items
    return metrics, missing


def make_ops(args, work: Path, tally: Tally):
    if args.workload == "sweep_w1":
        return SweepOps(1, args.n or SWEEP_N, args.seed, work, tally)
    if args.workload == "sweep_w2":
        return SweepOps(2, args.n or SWEEP_N, args.seed, work, tally)
    if args.workload == "audit":
        return AuditOps(args.n or AUDIT_N, args.seed, work, tally)
    return ScalarOps(args.seed, tally)


def untraced(args, ops, tally: Tally) -> tuple[dict, list]:
    done, cals, ratios = run_calibrated(ops.op, tally, args.seconds)
    per_item = [1e6 * s / i for i, s in done if i]
    items = sum(i for i, _ in done)
    seconds = sum(s for _, s in done)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "item_per_cal_p50": statistics.median(ratios),
        "peak_rss_mb": (self_rss + child_rss) / 1024.0,
    }
    lines = [f"operations = {len(done)} ({items} items in {seconds:.3f} s of operation time)",
             f"item_us_p50 = {statistics.median(per_item):.6g} us (raw, not calibrated)",
             f"calibration_ms = {1e3 * statistics.median(cals):.6g} ms "
             f"(median of {len(cals)}, range {1e3 * min(cals):.3g} to {1e3 * max(cals):.3g})"]
    if isinstance(ops, SweepOps):
        lines.append(f"sweep_samples_per_s = {items / seconds:.6g} samples/s")
    elif isinstance(ops, AuditOps):
        lines.append(f"verify_rows_per_s = {items / ops.verify_s:.6g} rows/s")
        lines.append(f"reload_rows_per_s = {items / ops.reload_s:.6g} rows/s")
    else:
        p99 = statistics.quantiles(per_item, n=100, method="inclusive")[98]
        lines.append(f"chain_us_p50 = {statistics.median(per_item):.6g} us")
        lines.append(f"chain_us_p99 = {p99:.6g} us (over {len(per_item)} chains)")
        misses, worst, ref_s = reference_errors(args.seed)
        lines.append(f"conc_ref_misses = {misses} count (of {N_REF}; largest error {worst:.3g}; "
                     f"reference took {ref_s:.2f} s, untimed)")
    return metrics, lines


def traced(args, ops, tally: Tally, spans_path) -> tuple[dict, list, list]:
    """Per-layer metrics from alternating untraced and traced rounds of equal length."""
    tracer = Tracer()
    base, done = [], []
    while sum(s for _, s in base) < args.seconds / 2.0 or not base:
        base += run_ops(ops.op, tally, seconds=ROUND_S, start=len(base) + len(done))
        tracer.install()
        try:
            done += run_ops(ops.op, tally, count=len(base) - len(done), tracer=tracer,
                            start=len(base) + len(done))
        finally:
            tracer.uninstall()
    metrics = dict.fromkeys(
        ("sweep.w2_parent_cpu_frac", "sweep.w2_child_cpu_frac", "sweep.w2_scaling_eff",
         "sweep.csv_bytes_per_sample", "twoqubit.ref_err_max", "twoqubit.conc_ref_misses"), 0.0)
    lines = []
    if isinstance(ops, SweepOps) and ops.workers == 2:
        metrics["sweep.w2_parent_cpu_frac"] = ops.cpu_self / ops.wall
        metrics["sweep.w2_child_cpu_frac"] = ops.cpu_children / ops.wall
        # adjacent operations, so that both see the host at the same speed
        at = len(base) + len(done)
        w1 = run_ops(lambda i: ops.op(i, workers=1), tally, count=1, start=at)
        w2 = run_ops(ops.op, tally, count=1, start=at + 1)
        metrics["sweep.w2_scaling_eff"] = per_item_us(w1) / (2.0 * per_item_us(w2))
        lines.append("spans in forked sweep_w2 workers are not collected: sweep_w2 reports "
                     "the parent/child CPU split, and its per-stage metrics read 0")
    if spans_path:
        tracer.dump(spans_path)
    items = sum(i for i, _ in done)
    layer, missing = span_metrics(tracer, items)
    metrics.update(layer)
    metrics["trace.overhead_frac"] = per_item_us(done) / per_item_us(base) - 1.0
    if isinstance(ops, (SweepOps, AuditOps)):
        metrics["sweep.csv_bytes_per_sample"] = os.path.getsize(ops.path) / ops.n
    if isinstance(ops, ScalarOps):
        misses, worst, ref_s = reference_errors(args.seed)
        metrics["twoqubit.conc_ref_misses"] = float(misses)
        metrics["twoqubit.ref_err_max"] = worst
        lines.append(f"mpmath reference: {N_REF} states in {ref_s:.2f} s, untimed")
    if isinstance(ops, SweepOps) and ops.workers == 1:
        stages = sum(metrics.get(name, 0.0) for name in SWEEP_STAGES)
        lines.append(
            f"sweep stage sum = {stages:.4g} us/sample; traced = {per_item_us(done):.4g}, "
            f"untraced = {per_item_us(base):.4g} us/sample")
    return metrics, lines, missing


def provenance(args, ops) -> dict:
    import mpmath  # not at the top: peak_rss_mb is read before this

    return {
        "pumplimit": pl.__version__,
        "pumplimit_path": str(Path(pl.__file__).parent),
        "rng": pl.RNG_ALGORITHM,
        "workload": args.workload,
        "seed": args.seed,
        "mode": "general",
        "ranges": RANGES if args.workload == "scalar" else pl.DEFAULT_RANGES,
        "n": ops.n,
        "workers": getattr(ops, "workers", 1),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "traced": bool(args.trace),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--n", type=int, help="override the sample or row count (self-tests)")
    args = parser.parse_args(argv)

    tally = Tally(args.workload, args.seed)
    ops = make_ops(args, args.work, tally)
    if args.trace:
        metrics, lines, missing = traced(args, ops, tally, args.spans)
    else:
        (metrics, lines), missing = untraced(args, ops, tally), []
    result = {
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "lines": lines,
        "provenance": provenance(args, ops),
        "missing": missing,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
