"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 perfbench/repeat.py [--workloads a,b] [--seeds 1,2,...] [--trace 0|1] [--out FILE]

Runs ``run.py`` once per workload and seed, one after another, with
``run_seconds`` from ``BENCHMARK.json``.  For every metric it prints the
median, the quartiles and the spread (third minus first quartile, over the
median, as ``statistics.quantiles(values, n=4)`` gives them) next to the
metric's bound.  ``--out`` writes all of it, with every run's values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds.split(","):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", seed,
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": int(seed), **result})
            values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(f"{workload} seed={seed} correct={result['correct']} {values}", flush=True)
        stats = {}
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else None
            stats[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                           "unit": runs[0]["metrics"][name]["unit"]}
            if bounds.get(name) is not None:
                print(f"  {workload} {name}: median {median:.6g} spread {spread:.4f} "
                      f"(bound {bounds[name]})", flush=True)
        summary[workload] = {"stats": stats, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
