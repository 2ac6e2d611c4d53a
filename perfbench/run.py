"""viscompare benchmark: seeded workloads, each in its own fresh process.

    python3 perfbench/run.py --workload solve2d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Times are reported at reference speed: each wall time is scaled by the
ratio of a fixed reference kernel's nominal time to its time measured
beside it (worker.reference_seconds), which divides out how fast the shared
machine happens to run; the line before the last also gives wall-clock
figures.  With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a separate traced pass over the
same ops (see layers.py).  The line before it records the environment, the
seed, fail_frac, the latency tail with its percentile and sample count, the
sup-norm error against the exact solution, and every failed check.
Run from the root of a checkout; the program is imported from its src/.
Work files and span records go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("solve2d", "sweep1d", "certify")
# setup_s is the median over this many fresh set-ups: the measured run's
# own and SETUP_PROBES processes that only import and generate inputs
SETUP_PROBES = 4
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model or platform.processor(), "platform": platform.platform()}


def tail(latencies) -> dict:
    """Highest of p50/p75/p90/p95/p99 with at least ten samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = {"percentile": 50, "value": statistics.median(ordered)}
    for pct in (75, 90, 95, 99):
        rank = math.ceil(n * pct / 100)
        if n - rank >= 10:
            best = {"percentile": pct, "value": ordered[rank - 1]}
    return {**best, "samples": n}


def spawn(args: list, deadline: float) -> dict:
    """Run one worker process to completion and parse its last stdout line."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float,
                 layer_units: dict):
    """Returns (detail record, contract result line) for one workload."""
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--workdir", str(workdir)]
    try:
        probes = [spawn([*common, "--setup-only"], deadline) for _ in range(SETUP_PROBES)]
        res = spawn([*common, "--trace", str(trace)], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups = [p["setup_s"] for p in probes] + [res["setup_s"]]
    setups_wall = [p["setup_wall_s"] for p in probes] + [res["setup_wall_s"]]
    lat, wall = res["latencies"], res["wall_latencies"]
    detail = {
        "workload": workload, "seed": seed, "trace": trace,
        "env": {**machine(), **res["env"], **{var: "1" for var in THREAD_VARS}},
        "setup_s_samples": setups,
        "ops": len(lat),
        "wall_clock": {"setup_s": statistics.median(setups_wall),
                       "ops_per_s": len(wall) / sum(wall), "op_s_p50": statistics.median(wall)},
        "fail_frac": res["failed"] / res["attempted"],
        "op_s_tail": tail(lat),
        "sup_err": statistics.median(res["sup_errs"]) if res["sup_errs"] else None,
        "failures": res["failures"],
    }
    if trace:
        detail.update(traced_ops=res["traced_ops"],
                      exact_counts_repeat=res["exact_counts_repeat"])
        metrics = {name: {"value": value, "unit": layer_units[name]}
                   for name, value in res["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "op_s_p50": {"value": statistics.median(lat), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": not res["failures"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    return detail, result


def _layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="one workload (default: every workload in turn)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "viscompare" / "__init__.py").is_file():
        print(f"error: no viscompare sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    layer_units = _layer_units()
    OUT.mkdir(exist_ok=True)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            detail, result = run_workload(workload, args.seed, args.seconds, args.trace,
                                          time.monotonic() + DEADLINE_S, layer_units)
            print(json.dumps(detail))
            if not args.workload:
                print(f"{workload}: fail_frac {detail['fail_frac']:.3g}, tail "
                      f"p{detail['op_s_tail']['percentile']} {detail['op_s_tail']['value']:.4g} s"
                      f" over {detail['op_s_tail']['samples']} ops, sup_err {detail['sup_err']}, "
                      f"wall-clock op p50 {detail['wall_clock']['op_s_p50']:.4g} s")
                for name, m in result["metrics"].items():
                    print(f"{workload}: {name} {m['value']:.6g} {m['unit']} (at reference speed)"
                          if m["unit"] in ("s", "1/s") else f"{workload}: {name} {m['value']:.6g} {m['unit']}")
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update({f"{workload}/{k}": v
                                        for k, v in result["metrics"].items()})
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {workload}: {exc!r}", file=sys.stderr)
        return 1
    print(json.dumps(result if args.workload else combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
