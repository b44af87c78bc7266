"""pumplimit benchmark: one workload, untraced or traced, checked for correctness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from the
checkout's ``src`` (nothing is installed or built).  ``--trace 0`` reports
every end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` reports every
per-layer metric, from spans recorded around pumplimit's module boundaries.
Human-readable lines come first; the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.

The workload runs in its own interpreter (``workload.py``) with one BLAS
thread, so its peak memory excludes the set-up probes.  ``setup_s`` is the
median over fresh interpreters (``first_call.py``) of the time from start
until pumplimit is imported and the workload's first call has returned,
scaled to a machine on which the calibration loop takes ``NOMINAL_S``.
Scratch files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import NOMINAL_S, calibration_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
WORKLOADS = ("sweep_w1", "sweep_w2", "audit", "scalar")
SETUP_PROBES = 7
#: a run must end within 180 s
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list, timeout: float, quiet: bool = False) -> str:
    """Run a Python child in its own session; its stdout, or ChildFailed."""
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=child_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE if quiet else None,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and any pool workers it started
        proc.communicate()
        raise ChildFailed(f"{argv[0]} timed out") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{argv[0]} exited with {proc.returncode}\n{err or ''}")
    return out


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def setup_seconds(workload: str, seed: int, work: Path, deadline: float) -> tuple[float, float]:
    """Median set-up time of fresh interpreters, scaled and raw.

    Each probe's time is scaled by NOMINAL_S over the mean calibration time
    around it; probes and calibration share one CPU so that both see it at
    the same speed.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # inherited by the probes
    scaled, raw = [], []
    before = calibration_s()
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        out = run_child([str(HERE / "first_call.py"), workload, str(seed), str(work)],
                        deadline - time.monotonic(), quiet=True)
        raw.append(float(out.strip().splitlines()[-1]) - start)
        after = calibration_s()
        scaled.append(raw[-1] * NOMINAL_S / ((before + after) / 2.0))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--n", type=int, help="override the sample or row count (self-tests)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "pumplimit" / "__init__.py").is_file():
        print(f"error: no pumplimit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]

    SCRATCH.mkdir(exist_ok=True)
    work = SCRATCH / f"run-{os.getpid()}"
    work.mkdir()
    try:
        argv = [str(HERE / "workload.py"), "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work)]
        if args.trace:
            argv += ["--spans", str(SCRATCH / f"spans-{args.workload}.jsonl")]
        if args.n:
            argv += ["--n", str(args.n)]
        result = json.loads(run_child(argv, deadline - time.monotonic()).strip().splitlines()[-1])
        values = result["metrics"]
        if not args.trace:
            values["setup_s"], raw_setup_s = setup_seconds(args.workload, args.seed, work, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    provenance = result["provenance"] | {"git_sha": git_sha()}
    missing = list(result["missing"])
    metrics = {}
    for metric in spec:
        if metric["name"] in values:
            metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
        elif metric["name"] not in missing:
            missing.append(metric["name"])
    if missing and not args.trace:
        print(f"error: end-to-end metrics not measured: {missing}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload = {args.workload} ({'traced' if args.trace else 'untraced'}, "
          f"seed {args.seed}, {args.seconds:g} s)")
    print(f"provenance = {json.dumps(provenance, sort_keys=True)}")
    for line in result["lines"]:
        print(line)
    if not args.trace:
        print(f"setup_s = {values['setup_s']:.6g} s (median of {SETUP_PROBES} fresh interpreters, "
              f"scaled to a {1e3 * NOMINAL_S:g} ms calibration loop; raw {raw_setup_s:.6g} s)")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    print("BENCHMARK.json metrics:")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if missing:
        print(f"missing per-layer metrics (their function no longer exists): {', '.join(missing)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
