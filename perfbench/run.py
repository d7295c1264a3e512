"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload full_lgssm_d2 --seed 1 --seconds 20 --trace 0

Run from the root of a repository checkout; ``streamvi`` is imported from
``src/``.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The line before it is the environment record and the details (checks,
tail percentile, per-layer breakdown); both are also written to
``perfbench/results/``, and a traced run writes its spans there too.

The BLAS thread count is pinned before numpy is imported.  The set-up time
is the median over fresh processes (``SETUP_SAMPLES``), each timing from
before ``import streamvi`` to ``engine.init_state`` returning.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BLAS_THREADS = 1
# Set-up samples taken before and after the timed loop, so that they see
# the machine at two different times.
SETUP_SAMPLES = (2, 3)
SETUP_TIMEOUT_S = 60
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "perfbench", "results")


def pin_blas_threads() -> None:
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = str(BLAS_THREADS)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="print the set-up time of one fresh process and exit")
    return p.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    try:
        with open(os.path.join(git, head[5:])) as f:
            return f.read().strip()
    except OSError:
        return head


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_once(workload, seed: int) -> float:
    """Seconds from before ``import streamvi`` to ``engine.init_state`` returning."""
    import numpy as np
    from perfbench import workloads as wl

    inputs = wl.make_inputs(workload, seed, 0)
    t0 = time.perf_counter()
    wl.build(inputs, np.random.default_rng(inputs.engine_seed))
    return time.perf_counter() - t0


def setup_seconds(args, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes, one after the other."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(count):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "streamvi", "engine.py")):
        print(f"perfbench: no streamvi sources under {ROOT}/src; run from a repository checkout",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    if args.setup_only:
        print(repr(setup_once(workload, args.seed)))
        return 0

    from perfbench import bench

    env = environment(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(RESULTS, exist_ok=True)
    if args.trace:
        result, tracer = bench.measure_traced(workload, args.seed, args.seconds)
        with open(os.path.join(RESULTS, f"spans-{tag}.json"), "w") as f:
            json.dump({"env": env, "columns": ["label", "start_ns", "end_ns", "parent"],
                       "spans": [s[:4] for s in tracer.spans]}, f)
    else:
        setup = setup_seconds(args, SETUP_SAMPLES[0])
        result = bench.measure(workload, args.seed, args.seconds)
        setup += setup_seconds(args, SETUP_SAMPLES[1])
        result["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["details"]["setup_s_samples"] = setup

    units = bench.PER_LAYER_UNITS if args.trace else bench.END_TO_END_UNITS
    final = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": unit}
                    for k, unit in units.items()},
    }
    record = {"env": env, "details": result["details"]}
    with open(os.path.join(RESULTS, f"{tag}.json"), "w") as f:
        json.dump({**record, **final}, f, indent=1, default=str)
    print(json.dumps(record, default=str))
    print(json.dumps(final))
    if not result["correct"]:
        print("perfbench: correctness check failed; see the details line", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
