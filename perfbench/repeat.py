"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workloads solve2d,sweep1d,certify \
        --seeds 1-10 [--seconds 30] [--trace-seed 1] [--json FILE]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (`statistics.quantiles(values, n=4)`) and the spread,
(q3 - q1) / median, which BENCHMARK.json's bounds are judged against.
With --trace-seed it also makes one traced run per workload and keeps its
per-layer metrics.  Runs are sequential: one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: str, trace: int) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="solve2d,sweep1d,certify")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--json", default=None, help="write the summary to this file")
    args = ap.parse_args(argv)

    out = {}
    for workload in args.workloads.split(","):
        values, failed = {}, 0
        for seed in args.seeds:
            detail, result = run_once(workload, seed, args.seconds, 0)
            failed += result["failed"] + (not result["correct"])
            print(workload, seed, {k: round(v["value"], 5) for k, v in result["metrics"].items()},
                  f"ops {detail['ops']} sup_err {detail['sup_err']}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        entry = {"seeds": args.seeds, "failed": failed,
                 "end_to_end": {name: summary(v) for name, v in values.items()}}
        for name, s in entry["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.5g} q1 {s['q1']:.5g} "
                  f"q3 {s['q3']:.5g} spread {s['spread']:.4f}", flush=True)
        if args.trace_seed is not None:
            detail, result = run_once(workload, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed, "traced_ops": detail["traced_ops"],
                                  "exact_counts_repeat": detail["exact_counts_repeat"],
                                  "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
        out[workload] = entry
    if args.json:
        Path(args.json).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
