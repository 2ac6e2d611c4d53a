"""One workload in one fresh process: set up, warm up, measure, check.

Started by run.py with the thread-count variables already set in its
environment.  Prints one JSON object as its last stdout line.

    python3 perfbench/worker.py --workload solve2d --seed 1 --seconds 30 \
        --trace 0 --t0 <time.monotonic() of the parent at spawn> --workdir DIR
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# ops generated per second of --seconds: enough for a program 20 to 90
# times faster than the first baseline before the loop runs out of inputs
OPS_PER_SECOND = 20


def import_library():
    """Import viscompare from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "viscompare" / "__init__.py").is_file():
        raise SystemExit(f"viscompare sources not found under {src}")
    sys.path.insert(0, str(src))
    import viscompare
    import viscompare.cli  # noqa: F401  (cli is not imported by the package)

    if Path(viscompare.__file__).resolve().parent != (src / "viscompare").resolve():
        raise SystemExit(f"imported viscompare from {viscompare.__file__}, not {src}")
    return viscompare


# Reference kernel: per-point Python calls on small numpy arrays and a
# polynomial table, the instruction mix of the library's hot paths, but no
# library code.  Its time, measured beside each op, tracks how fast this
# (shared) machine runs at that moment.
REF_TERMS = (((0, 0), 0.9), ((2, 0), 0.05), ((0, 2), 0.07), ((1, 1), 0.01))
REF_POINTS = 12000
# a fixed scale, about the kernel's time on the 2-vCPU Xeon VM the first
# baseline was taken on; times reported "at reference speed" are wall times
# scaled by REF_NOMINAL_S / (reference time measured beside them)
REF_NOMINAL_S = 0.2


def _ref_poly(p):
    total = 0.0
    for powers, coeff in REF_TERMS:
        mono = coeff
        for xi, k in zip(p, powers):
            if k:
                mono *= xi ** k
        total += mono
    return total


def reference_seconds() -> float:
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REF_POINTS):
        x = -1.0 + 2.0 * i / REF_POINTS
        p = np.atleast_1d(np.asarray((x, 0.5 - x), dtype=float))
        A = np.array([[_ref_poly(p), 0.0], [0.0, _ref_poly(p[::-1])]])
        acc += float(p @ A @ p) ** 1.5 + math.sin(x)
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite checksum")
    return elapsed


def timed_loop(workload, inputs, seconds: float, tag: str, run):
    """Run ops in order until `seconds` of op time has passed or the inputs
    run out.  Checks and the reference kernel run between ops, outside the
    op timer.  Returns wall latencies, latencies at reference speed (scaled
    by the mean of the reference times just before and just after the op)
    and per-op check results (None for an op that raised)."""
    latencies, scaled, results = [], [], []
    busy = 0.0
    ref_before = reference_seconds()
    for i, inp in enumerate(inputs):
        if busy >= seconds:
            break
        ready = workload.prepare(inp, f"{tag}{i}")
        t0 = time.perf_counter()
        try:
            out = run(i, ready, f"{tag}{i}")
        except Exception:  # an op that raises is a failed op, not a dead run
            latencies.append(time.perf_counter() - t0)
            results.append(None)
            traceback.print_exc(file=sys.stderr)
        else:
            latencies.append(time.perf_counter() - t0)
            results.append(workload.check(out))
        ref_after = reference_seconds()
        scaled.append(latencies[-1] * REF_NOMINAL_S / (0.5 * (ref_before + ref_after)))
        ref_before = ref_after
        busy += latencies[-1]
    return latencies, scaled, results


def failures(results) -> list:
    out = []
    for i, res in enumerate(results):
        if res is None:
            out.append(f"op {i}: raised")
        elif res.errors:
            out.append(f"op {i}: " + "; ".join(res.errors))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    vc = import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](vc, Path(args.workdir))
    n_ops = max(4, int(OPS_PER_SECOND * args.seconds))
    # one extra input, the last, is the untimed warm-up op
    inputs = [workload.generate(args.seed, i) for i in range(n_ops + 1)]
    setup_wall_s = time.monotonic() - args.t0
    setup_s = setup_wall_s * REF_NOMINAL_S / reference_seconds()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    env = {"python": sys.version.split()[0], "numpy": sys.modules["numpy"].__version__,
           "scipy": sys.modules["scipy"].__version__}
    warm = inputs.pop()
    workload.check(workload.run(workload.prepare(warm, "warm"), "warm"))

    run = lambda i, inp, tag: workload.run(inp, tag)
    # a traced run measures a third as long untraced, then makes two traced
    # passes over the same ops, so that it takes about as long as an untraced run
    budget = args.seconds / 3 if args.trace else args.seconds
    latencies, scaled, results = timed_loop(workload, inputs, budget, "t", run)
    attempted, failed = len(results), len(failures(results))
    out = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "latencies": scaled,
        "wall_latencies": latencies,
        "sup_errs": [r.sup_err for r in results if r is not None and r.sup_err is not None],
        "failures": failures(results),
        "env": env,
    }

    if args.trace:
        from layers import Tracer

        n_traced = len(results)
        tracer = Tracer()
        tracer.install()
        passes = []
        try:
            for p in "ab":
                tracer.reset()
                traced_run = lambda i, inp, tag: tracer.op_span(f"{p}{i}", workload.run, inp, tag)
                _, lat, res = timed_loop(workload, inputs[:n_traced], math.inf, p, traced_run)
                attempted += len(res)
                failed += len(failures(res))
                out["failures"] += [f"traced pass {p}: {f}" for f in failures(res)]
                passes.append((lat, tracer.exact_counts(), tracer.layer_metrics(n_traced)))
                if p == "a":
                    spans_path = Path(args.workdir).parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
                    with open(spans_path, "w") as fh:
                        for record in tracer.span_records():
                            fh.write(json.dumps(record) + "\n")
        finally:
            tracer.uninstall()
        (lat_a, counts_a, layers), (_, counts_b, _) = passes
        mismatch = sorted(k for k in counts_a.keys() | counts_b.keys()
                          if counts_a.get(k) != counts_b.get(k))
        if mismatch:
            out["failures"].append(f"nondeterministic exact counts: {mismatch}")
        layers["trace.overhead_frac"] = (
            statistics.median(lat_a) / statistics.median(scaled) - 1.0)
        out.update(layers=layers, traced_ops=n_traced, exact_counts_repeat=not mismatch)

    out["attempted"], out["failed"] = attempted, failed
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
