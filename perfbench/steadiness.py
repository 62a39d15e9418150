"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --workloads argmax-n100,solvers \\
        --seeds 1,2,3 [--repeat 1] [--out perfbench/results/NAME.json]

Runs the benchmark command of BENCHMARK.json once per (workload, seed,
repeat), one run at a time, and reports for each end-to-end metric the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
interquartile range as a share of the median, next to the metric's bound.
Each run's diagnostics (report hashes, bundle latencies) are kept with it.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / abs(med)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    summary = {"run_seconds": bench["run_seconds"], "seeds": seeds,
               "repeat": args.repeat, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            for _ in range(args.repeat):
                t0 = time.monotonic()
                proc = subprocess.run(
                    [*bench["command"], "--workload", workload, "--seed", str(seed),
                     "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return 1
                *_, info, last = proc.stdout.strip().splitlines()
                result = json.loads(last)
                runs.append({"seed": seed, "run_s": time.monotonic() - t0,
                             "correct": result["correct"], "failed": result["failed"],
                             **{k: v["value"] for k, v in result["metrics"].items()},
                             "diagnostics": json.loads(info)["diagnostics"]})
                print(workload, json.dumps(runs[-1]), flush=True)
        metrics = {}
        for name, bound in bounds.items():
            s = spread([r[name] for r in runs])
            metrics[name] = dict(s, bound=bound, within_third=s["iqr_share"] < bound / 3)
        summary["workloads"][workload] = {
            "runs": runs, "metrics": metrics,
            "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs),
            "max_run_s": max(r["run_s"] for r in runs)}
        print(workload, json.dumps(metrics), flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
