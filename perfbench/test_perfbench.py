"""Self-tests for the benchmark, at tiny sizes.

    python3 -m pytest perfbench

Not part of the package's test suite (``testpaths`` is ``tests``).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import pumplimit as pl  # noqa: E402
import pumplimit.cli  # noqa: E402,F401
import tracing  # noqa: E402
import workload  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
#: the issue-level metrics each workload prints by name, with their unit
NAMED = {
    "sweep_w1": (("sweep_samples_per_s", "samples/s"),),
    "sweep_w2": (("sweep_samples_per_s", "samples/s"),),
    "audit": (("verify_rows_per_s", "rows/s"), ("reload_rows_per_s", "rows/s")),
    "scalar": (("chain_us_p50", "us"), ("chain_us_p99", "us"), ("conc_ref_misses", "count")),
}
COMMON = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("failed_frac", "ratio"))


def run_bench(name: str, trace: int) -> tuple[list[str], dict]:
    n = 2 * workload.BATCH + 1 if name == "sweep_w2" else 3000  # two batches reach the pool
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--n", str(n)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_untraced_run_emits_every_end_to_end_metric(name):
    lines, result = run_bench(name, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {tuple(line.split()[:2]): line.split()[3] for line in lines if " = " in line}
    for metric, unit in NAMED[name] + COMMON:
        assert printed.get((metric, "=")) == unit, (metric, lines)
    assert any(line.startswith("provenance = ") for line in lines)


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_traced_run_emits_every_per_layer_metric(name):
    lines, result = run_bench(name, 1)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    provenance = json.loads(next(l for l in lines if l.startswith("provenance = "))[13:])
    assert provenance["traced"] is True
    assert provenance["openblas_num_threads"] == "1"
    if name == "sweep_w1":
        assert result["metrics"]["linalg.eig_mats_per_sample"]["value"] > 0
        assert result["metrics"]["sweep.render_us"]["value"] > 0
    if name == "sweep_w2":
        assert any("not collected" in line for line in lines)
        assert result["metrics"]["sweep.w2_child_cpu_frac"]["value"] > 0


def test_tampered_csv_counts_as_failed(tmp_path):
    tally = workload.Tally("audit", 3)
    ops = workload.AuditOps(200, 3, tmp_path, tally)
    assert tally.failed == 0
    header, *rows = ops.path.read_text().splitlines()
    conc = [float(row.split(",")[9]) for row in rows]
    top = conc.index(max(conc))
    fields = rows[top].split(",")
    fields[9] = repr(conc[top] / 2.0)  # the largest concurrence, halved: still within the bound
    rows[top] = ",".join(fields)
    ops.path.write_text("\n".join([header, *rows]) + "\n")
    ops.op(0)
    assert (tally.attempted, tally.failed) == (3, 1)


def test_mismatched_digest_counts_as_failed(tmp_path):
    tally = workload.Tally("sweep_w1", 3)
    ops = workload.SweepOps(1, 200, 3, tmp_path, tally)
    ops.op(0)
    assert (tally.attempted, tally.failed) == (2, 0)
    ops.digest = "0" * 64
    ops.op(1)
    assert (tally.attempted, tally.failed) == (3, 1)


def test_exception_counts_as_failed_and_run_goes_on():
    tally = workload.Tally("scalar", 3)

    def op(index):
        if index == 1:
            raise ValueError("boom")
        tally.check(f"op={index}", None)
        return 1, 0.001

    done = workload.run_ops(op, tally, count=3)
    assert len(done) == 3 and done[1][0] == 0
    assert (tally.attempted, tally.failed) == (3, 1)


def test_spans_nest_and_bindings_are_restored(tmp_path):
    originals = (pl.sweep_to_csv, pl.sweep._render_csv, pl.cli.sweep_to_csv)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pl.sweep_to_csv(pl.SweepConfig(n_samples=100, seed=1), tmp_path / "s.csv")
    finally:
        tracer.uninstall()
    assert (pl.sweep_to_csv, pl.sweep._render_csv, pl.cli.sweep_to_csv) == originals
    summary = tracer.summary()
    calls, total, own = summary["sweep.sweep_to_csv"]
    children = sum(summary[(name, "sweep.sweep_to_csv")][1]
                   for name in ("sweep._evaluate", "sweep._render_csv", "sweep._accumulate"))
    assert calls == 1 and own == total - children
    assert tracer.eig_mats > 0


def test_missing_function_is_reported(monkeypatch):
    monkeypatch.setattr(tracing, "SPANNED", tracing.SPANNED + (("sweep", "_no_such_stage"),))
    monkeypatch.setitem(workload.SPAN_METRICS, "sweep.gone_us", ("sweep._no_such_stage", None, "total"))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics, missing = workload.span_metrics(tracer, 1)
    assert missing == ["sweep.gone_us"] and "sweep.gone_us" not in metrics


def test_bench_exits_nonzero_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scalar", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""
