"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload knn-nbody --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with every layer wrapped and
reports the per-layer metrics instead. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``. A correctness
mismatch prints ``"correct": false`` and exits 1; a checkout without
the package exits 2 before printing a result. ``--workload all`` runs
each workload in its own process and exits 1 if any of them failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# One BLAS thread: the benchmark process stays within the machine's
# cores (event loop plus one engine thread), and timings do not depend
# on how many cores a library decides to grab.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no package under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import metrics
    import workloads

    if args.workload == "all":
        return run_all(workloads.NAMES, args)
    if args.workload not in workloads.NAMES:
        ap.error(f"--workload must be one of {workloads.NAMES} or 'all'")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    res = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        values = metrics.per_layer(res)
        metrics.check_declared(values, declared["per_layer"])
    else:
        values = metrics.end_to_end(res)
        metrics.check_declared(values, declared["end_to_end"])
    if args.workload == "serve-bunny" and not args.trace:
        limit = workloads.SETTINGS["serve"]["latency_p95_limit_ms"]
        p95 = metrics.latency_ms(res, 95)
        verdict = "met" if p95 <= limit else "MISSED"
        print(f"perfbench: open-loop p95 {p95:.1f} ms against the {limit} ms limit: {verdict}",
              file=sys.stderr)
    for err in res.errors:
        print(f"perfbench: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0 if res.correct else 1


def run_all(names, args) -> int:
    """Each workload in a child process, so no peak memory carries over."""
    status = 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        print(name)
        for metric, entry in result.get("metrics", {}).items():
            print(f"  {metric:28s} {entry['value']:>16.6g} {entry['unit']}")
        print(f"  correct={result.get('correct')} attempted={result.get('attempted')} "
              f"failed={result.get('failed')} exit={proc.returncode}")
        status = status or (proc.returncode != 0)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
