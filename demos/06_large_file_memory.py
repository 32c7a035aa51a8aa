# %% [markdown]
# # Memory and time of the CLI on a large vector file
#
# Writes an N x d synthetic .fvecs file (1M x 128 by default, 516 MB) to a
# temporary directory, then runs `genhash train --center on --steps 20` and
# `genhash encode` on it, each in its own subprocess, and prints each one's
# wall time, max RSS and heap peak (tracemalloc). The max RSS counts the
# file's mapped pages, which are page cache; the heap peak is what the
# command allocated. Takes the genhash package the environment imports, so
# `PYTHONPATH=<checkout>/src python demos/06_large_file_memory.py` measures
# that checkout. Not run by the test suite.
#
#     python demos/06_large_file_memory.py [--n 1000000] [--d 128]

# %%
import argparse
import json
import os
import subprocess
import sys
import tempfile

from genhash.data_io import synth_mixture, write_fvecs

BITS = 64
CHUNK_ROWS = 50_000  # the file is written a chunk at a time, so the demo itself stays small

# runs one genhash command under tracemalloc and prints its figures as JSON
RUNNER = """
import json, resource, sys, time, tracemalloc
from genhash.cli import main
tracemalloc.start()
start = time.perf_counter()
code = main(sys.argv[1:])
wall = time.perf_counter() - start
heap = tracemalloc.get_traced_memory()[1]
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
figures = {"exit": code, "wall_s": wall, "max_rss_mb": rss / 1024, "heap_peak_mb": heap / 2**20}
print(json.dumps(figures))
"""


def write_file(path, n, d):
    """n rows of seeded Gaussian mixtures, one per chunk of CHUNK_ROWS rows."""
    with open(path, "wb") as out:
        for i, start in enumerate(range(0, n, CHUNK_ROWS)):
            part = path + ".part"
            rows = synth_mixture(min(CHUNK_ROWS, n - start), d, 10, 1.0, seed=i).rows
            write_fvecs(part, rows)
            with open(part, "rb") as f:
                out.write(f.read())
            os.remove(part)


def run(argv):
    done = subprocess.run([sys.executable, "-c", RUNNER, *argv], capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(done.stderr)
    return json.loads(done.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(
        description="Time and memory of train and encode on a large fvecs file."
    )
    parser.add_argument("--n", type=int, default=1_000_000)
    parser.add_argument("--d", type=int, default=128)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        data = os.path.join(work, "base.fvecs")
        write_file(data, args.n, args.d)
        ckpt, codes = os.path.join(work, "model.ckpt"), os.path.join(work, "db.codes")
        print(f"{args.n} x {args.d} fvecs, {os.path.getsize(data) / 2**20:.0f} MiB; "
              f"{BITS}-bit codes take {args.n * 8 * -(-BITS // 64) / 2**20:.1f} MiB")
        commands = {
            "train --center on --steps 20": ["train", "--data", data, "--format", "fvecs",
                                             "--bits", str(BITS), "--steps", "20",
                                             "--center", "on", "--out", ckpt],
            "encode": ["encode", "--ckpt", ckpt, "--data", data, "--format", "fvecs",
                       "--out", codes],
        }
        for name, argv in commands.items():
            figures = run(argv)
            print(f"{name:<30} exit {figures['exit']}  wall {figures['wall_s']:.2f} s  "
                  f"max RSS {figures['max_rss_mb']:.0f} MiB  "
                  f"heap peak {figures['heap_peak_mb']:.1f} MiB")


if __name__ == "__main__":
    main()
