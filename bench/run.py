"""genhash benchmark: seeded train, query and pipeline workloads.

Run from the repository root:

    python3 bench/run.py --workload train --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # the three, one process each

The library is imported from ./src of the tree this script sits in, never
from an installed copy; without ./src the run fails before measuring.
Human-readable figures go to standard output first. The last line is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics without tracing, the per-layer metrics with --trace 1.
A record with the environment, the output digests and every figure, and
with --trace 1 the spans, is written under .bench_out/.
"""

import argparse
import ctypes
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("train", "query", "pipeline")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    """Cap BLAS threads at the usable cores; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        wanted = min(int(current), cores) if current.isdigit() and int(current) > 0 else cores
        os.environ[var] = str(wanted)
    return int(os.environ[BLAS_THREAD_VARS[0]])


def pin_allocator():
    """Keep freed heap memory in the process and serve large blocks from it.

    By default glibc maps every block over its mmap threshold (at most
    32 MB) fresh from the kernel and unmaps it on free, so each search
    query page-faults in its temporaries again. On a shared host the cost
    of those faults swings with other tenants' memory traffic, which made
    run-to-run spreads of the query latencies exceed any usable bound.
    Returns the settings applied, or None where mallopt is missing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    settings = {"M_TRIM_THRESHOLD": (-1, 2**31 - 1), "M_MMAP_MAX": (-4, 0)}
    if not all(mallopt(option, value) == 1 for option, value in settings.values()):
        return None
    return {name: value for name, (_, value) in settings.items()}


def import_library():
    if not os.path.isfile(os.path.join(SRC, "genhash", "__init__.py")):
        sys.exit(f"error: no genhash sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import genhash

    if os.path.dirname(os.path.dirname(os.path.abspath(genhash.__file__))) != SRC:
        sys.exit(f"error: imported genhash from {genhash.__file__}, not {SRC}")


def environment(blas_threads, allocator):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads,
        "malloc": allocator or "unpinned",
    }
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L1d cache", "L2 cache", "L3 cache"):
            record[key.strip()] = value.strip()
    return record


def run_one(args):
    blas_threads = pin_blas_threads()
    allocator = pin_allocator()
    import_library()
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    ctx = workloads.Context(args.seed, args.seconds, args.trace, OUT_DIR)
    started = time.perf_counter()
    workloads.WORKLOADS[args.workload](ctx)
    layers = ctx.finish()
    wall = time.perf_counter() - started

    shown = layers if args.trace else ctx.metrics
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_wall_s": wall,
        "environment": environment(blas_threads, allocator),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in ctx.metrics.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in (layers or {}).items()},
        "report": ctx.report,
        "digests": ctx.digests,
        "samples_ms": ctx.samples,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "failures": ctx.tally.notes,
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)
    if ctx.tracer:
        with open(os.path.join(OUT_DIR, f"{tag}-spans.json"), "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": ctx.tracer.frozen_spans()}, f)

    print(f"== {args.workload} (seed {args.seed}, {args.seconds} s, trace {args.trace})")
    for name, (value, unit) in sorted(shown.items()):
        print(f"  {name:32s} {value:14.6g} {unit}")
    for name, value in sorted(ctx.report.items()):
        print(f"  {name:32s} {value:14.6g}")
    for name, value in sorted(ctx.digests.items()):
        print(f"  digest {name:25s} {value}")
    for note in ctx.tally.notes:
        print(f"  FAILED: {note}")
    print(f"  record {os.path.relpath(os.path.join(OUT_DIR, tag + '.json'), ROOT)}")
    print(json.dumps({
        "correct": ctx.tally.failed == 0,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, so peak memory stays per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
