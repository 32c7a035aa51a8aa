"""The three benchmark workloads: train, query and pipeline.

Each workload builds its inputs from data_io.synth_mixture and the seed,
sets up several times (setup_s is the median), runs its timed phase as
repeated passes until the time budget is spent, and checks its outputs.
With tracing on, it sets up once, then alternates untraced and traced
passes of fixed number, so span counts repeat exactly and the tracing
overhead is the traced minus the untraced pass time.

Every workload reports every end-to-end metric, each measured on that
workload's own shape of the operation (see bench/README.md).
"""

import contextlib
import os
import resource
import time

import numpy as np

from genhash import cli, data_io, evaluation, model, search, training
from genhash.codes import HashCode
from genhash.errors import GenHashError

import oracles
from timing import (
    Tracer,
    block_tail,
    install,
    layer_metrics,
    median,
    patched,
    stopwatch,
    tail,
    uncovered_share,
)

DIM = 128
CLUSTERS = 20
SPREAD = 1.0
TOP_N = 100


class Tally:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


class Context:
    """What one benchmark run measures, checks and records."""

    def __init__(self, seed, seconds, trace, out_dir):
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.out_dir = out_dir
        self.tally = Tally()
        self.metrics = {}
        self.report = {}
        self.digests = {}
        self.samples = {}

    def instrumented(self):
        """Patches the library for the traced run; does nothing otherwise."""
        return install(self.tracer) if self.tracer else contextlib.nullcontext()

    def request(self, request):
        return self.tracer.request_id(request) if self.tracer else contextlib.nullcontext()

    def setup(self, make, fingerprint, repeats):
        """Build the inputs; untraced, `repeats` times with setup_s the median."""
        if self.tracer:
            with self.instrumented(), self.request("setup"):
                return make()
        times, prints, state = [], [], None
        for _ in range(repeats):
            state = None  # drop the previous copy before making the next one
            start = time.perf_counter()
            state = make()
            times.append(time.perf_counter() - start)
            prints.append(fingerprint(state))
        self.tally.op(len(set(prints)) == 1, "set-up differs between repeats")
        self.metrics["setup_s"] = (median(times), "s")
        self.digests["setup"] = prints[0]
        return state

    def phase(self, run_pass, min_passes, trace_pairs, after=None):
        """Run passes and return them as (start, end, result) triples.

        Pass 0 warms caches and the heap and is left out of every figure,
        but checked like the others. `after(i, result)` checks a pass
        outside its timed window and outside the trace, and returns the
        result to keep.
        """
        passes = []

        def one(i, traced):
            with self.instrumented() if traced else contextlib.nullcontext():
                start, end, result = run_pass(i)
            passes.append((start, end, after(i, result) if after else result))
            return end - start

        one(0, False)
        if self.tracer is None:
            begin = time.perf_counter()
            while len(passes) <= min_passes or time.perf_counter() - begin < self.seconds:
                one(len(passes), False)
            return passes
        plain, traced, uncovered = [], [], 0.0
        for i in range(1, 2 * trace_pairs + 1):
            if i % 2 == 1:
                plain.append(one(i, False))
                continue
            first = len(self.tracer.spans)
            traced.append(one(i, True))
            start, end, _ = passes[-1]
            uncovered += traced[-1] * uncovered_share(self.tracer.spans[first:], start, end)
        self.report["trace_plain_pass_s"] = median(plain)
        self.report["trace_traced_pass_s"] = median(traced)
        self.trace_overhead = 100.0 * (sum(traced) - sum(plain)) / sum(plain)
        self.trace_uncovered = 100.0 * uncovered / sum(traced)
        return passes

    def pass_metrics(self, passes, blocks):
        """pipeline_s and the query latencies, from the passes after warm-up.

        `blocks` maps "hamming" and "asym" to a block size, or None. The
        run's queries of a kind, in order, are cut into consecutive blocks
        of that size, the remainder left out; the tail is taken per block
        and the median over the blocks reported. So the percentile depends
        only on the block size, and one burst of host noise moves one
        block's tail, not the run's. With None the tail is taken over the
        whole run.
        """
        measured = passes[1:]
        self.metrics["pipeline_s"] = (median([end - start for start, end, _ in measured]), "s")
        for prefix, size in blocks.items():
            samples = [ms for _, _, result in measured for ms in result[f"{prefix}_ms"]]
            self.samples[f"{prefix}_ms"] = samples
            if size:
                value, percentile, self.report[f"{prefix}_tail_blocks"] = block_tail(samples, size)
            else:
                value, percentile, _ = tail(samples)
            self.metrics[f"{prefix}_p50_ms"] = (median(samples), "ms")
            self.metrics[f"{prefix}_tail_ms"] = (value, "ms")
            self.report[f"{prefix}_tail_percentile"] = percentile
            self.report[f"{prefix}_samples"] = len(samples)

    def finish(self):
        """Adds the figures every workload reports; returns the per-layer set."""
        self.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        )
        self.report["error_rate"] = self.tally.failed / max(self.tally.attempted, 1)
        if self.tracer is None:
            return None
        layers = layer_metrics(self.tracer.frozen_spans(), self.tracer.counters)
        layers["trace.overhead_pct"] = (self.trace_overhead, "%")
        layers["trace.uncovered_pct"] = (self.trace_uncovered, "%")
        return layers


def _mixture(n, d, seed):
    return data_io.synth_mixture(n, d, CLUSTERS, SPREAD, seed).rows


def _check_searches(ctx, label, results, every, check):
    """Counts each query as an operation; checks every `every`-th one.

    `results` lists (ids, *reference arguments) per query, in query order.
    """
    for number, (ids, *args) in enumerate(results):
        ok = number % every != 0 or check(ids, *args)
        ctx.tally.op(ok, f"{label} query {number} differs from the reference")


def _asym_checker(ctx, codes, params):
    plus_minus = params.code_domain == "plus-minus"

    def check(ids, x):
        ok, exact = oracles.check_asym(ids, codes, params.l, params.U, x, TOP_N, plus_minus)
        if ok and not exact:
            ctx.report["asym_rounding_reorders"] = ctx.report.get("asym_rounding_reorders", 0) + 1
        return ok

    return check


# ---------------------------------------------------------------------------
# train: the BLAS-bound training step at d=128, l=64
# ---------------------------------------------------------------------------

TRAIN_ROWS = 100_000
TRAIN_HELD_OUT = 2_000
TRAIN_BITS = 64
TRAIN_STEPS = 250  # short passes, so that a run samples the host's drift often
TRAIN_ENCODES_PER_PASS = 3
TRAIN_HAMMING_PER_PASS = 50
TRAIN_ASYM_PER_PASS = 10
TRAIN_TAIL_BLOCKS = {"hamming": 100, "asym": 30}  # two and three passes
TRAIN_CHECK_EVERY = 10


def run_train(ctx):
    def make():
        rows = _mixture(TRAIN_ROWS + TRAIN_HELD_OUT, DIM, ctx.seed)
        mean = rows[:TRAIN_ROWS].mean(axis=0)
        rows -= mean
        return rows[:TRAIN_ROWS], rows[TRAIN_ROWS:], mean

    rows, held_out, mean = ctx.setup(make, lambda s: oracles.digest(s[0], s[1]), repeats=5)
    asym_queries = held_out[::-1][:TRAIN_ASYM_PER_PASS]
    config = training.TrainConfig(
        steps=TRAIN_STEPS,
        bits=TRAIN_BITS,
        batch_size=500,
        estimator=training.ESTIMATOR_UNBIASED,
        optimizer=training.OPTIMIZER_SGD,
        seed=ctx.seed,
    )
    ckpt = os.path.join(ctx.out_dir, f"train-{ctx.seed}-{os.getpid()}.ckpt")
    again = ckpt + ".again"

    def run_pass(i):
        start = time.perf_counter()
        with ctx.request(f"pass{i}.train"):
            params, log = training.train(rows, config)
        trained = time.perf_counter()
        encode_s = []
        for r in range(TRAIN_ENCODES_PER_PASS):
            with ctx.request(f"pass{i}.encode{r}"):
                begin = time.perf_counter()
                codes = model.encode_map_batch(params, rows)
                encode_s.append(time.perf_counter() - begin)
        with ctx.request(f"pass{i}.checkpoint"):
            data_io.save_checkpoint(ckpt, params, center_mean=mean)
            loaded = data_io.load_checkpoint(ckpt)
        # held-out queries against the training codes: a 0.8 MB index, in L2
        index = search.BinaryIndex(codes, TRAIN_BITS)
        with ctx.request(f"pass{i}.encode_queries"):
            query_codes = model.encode_map_batch(params, held_out[:TRAIN_HAMMING_PER_PASS])
        ham, asym, ham_ms, asym_ms = [], [], [], []
        for j, words in enumerate(query_codes):
            with ctx.request(f"pass{i}.hamming{j}"):
                begin = time.perf_counter()
                ham.append(search.knn_hamming(index, HashCode(words, TRAIN_BITS), TOP_N))
                ham_ms.append((time.perf_counter() - begin) * 1000.0)
        for j, x in enumerate(asym_queries):
            with ctx.request(f"pass{i}.asym{j}"):
                begin = time.perf_counter()
                asym.append(search.asymmetric_ip_search(index, params, x, TOP_N))
                asym_ms.append((time.perf_counter() - begin) * 1000.0)
        return start, time.perf_counter(), {
            "steps_per_s": TRAIN_STEPS / (trained - start),
            "rows_per_s": TRAIN_ROWS / median(encode_s),
            "hamming_ms": ham_ms,
            "asym_ms": asym_ms,
            "params": params,
            "log": log,
            "codes": codes,
            "loaded": loaded,
            "hamming": [(ids, codes, words, TOP_N) for ids, words in zip(ham, query_codes)],
            "asym": list(zip(asym, asym_queries)),
        }

    def after(i, result):
        # saving what was loaded must give back the same bytes
        data_io.save_checkpoint(again, *result.pop("loaded"))
        with open(ckpt, "rb") as f:
            ckpt_bytes = f.read()
        with open(again, "rb") as f:
            ctx.tally.op(f.read() == ckpt_bytes, f"pass {i}: checkpoint round trip not bit-exact")
        log = result.pop("log")
        ctx.tally.op(
            bool(np.isfinite(log.loss).all() and np.isfinite(log.recon_error).all()),
            f"pass {i}: loss trace not finite",
        )
        # passes repeat the same work, so later ones are checked by their digest
        every = TRAIN_CHECK_EVERY if i == 0 else TRAIN_HAMMING_PER_PASS
        hamming, asym = result.pop("hamming"), result.pop("asym")
        _check_searches(ctx, f"pass {i} hamming", hamming, every, oracles.check_hamming)
        checker = _asym_checker(ctx, result["codes"], result["params"])
        _check_searches(ctx, f"pass {i} asym", asym, every, checker)
        result["log_step_ms"] = float(log.wall_ms.sum()) / TRAIN_STEPS
        result["digest"] = oracles.digest(
            ckpt_bytes, result.pop("codes"), log.loss, log.recon_error, log.lr,
            *[r[0] for r in hamming + asym],
        )
        return result

    passes = ctx.phase(run_pass, min_passes=3, trace_pairs=2, after=after)
    for path in (ckpt, again):
        os.remove(path)
    results = [p[2] for p in passes]
    ctx.tally.op(len({r["digest"] for r in results}) == 1, "training passes differ")
    ctx.digests["pass"] = results[0]["digest"]

    if ctx.tracer is None:
        ctx.pass_metrics(passes, TRAIN_TAIL_BLOCKS)
        measured = results[1:]
        ctx.metrics["train_steps_per_s"] = (median([r["steps_per_s"] for r in measured]), "steps/s")
        ctx.metrics["encode_rows_per_s"] = (median([r["rows_per_s"] for r in measured]), "rows/s")
    ctx.report["training_log_step_ms"] = median([r["log_step_ms"] for r in results])
    ctx.report["passes"] = len(passes)
    recon = evaluation.mean_recon_error(results[-1]["params"], held_out)
    ctx.metrics["recon_mse"] = (recon, "sq_units")


# ---------------------------------------------------------------------------
# query: a 1M x 64-bit index under one closed-loop client
# ---------------------------------------------------------------------------

INDEX_ROWS = 1_000_000
QUERY_POOL = 2_000
QUERY_BITS = 64
QUERY_SETUP_STEPS = 200
HAMMING_PER_ROUND = 10
ROUNDS_PER_PASS = 8  # the index is rebuilt before each pass, so builds sample the run
QUERY_CHECK_HAMMING_EVERY = 10
QUERY_CHECK_ASYM_EVERY = 3
MIN_PASSES = 3  # enough asymmetric queries for a tail with ten beyond it


def run_query(ctx):
    setup_rates = []

    def make():
        rows = _mixture(INDEX_ROWS + QUERY_POOL, DIM, ctx.seed)
        rows -= rows[:INDEX_ROWS].mean(axis=0)
        config = training.TrainConfig(
            steps=QUERY_SETUP_STEPS, bits=QUERY_BITS, batch_size=500, seed=ctx.seed
        )
        start = time.perf_counter()
        params, _ = training.train(rows[:INDEX_ROWS], config)
        setup_rates.append(QUERY_SETUP_STEPS / (time.perf_counter() - start))
        return rows[:INDEX_ROWS], rows[INDEX_ROWS:], params

    def fingerprint(state):
        params = state[2]
        return oracles.digest(params.W, params.U, params.beta, np.float64(params.log_rho))

    base, pool, params = ctx.setup(make, fingerprint, repeats=3)

    # the write side: MAP-encode every row into the index
    build_rates, build_prints = [], []

    def build(number):
        with ctx.request(f"build{number}"):
            start = time.perf_counter()
            built = search.BinaryIndex(model.encode_map_batch(params, base), QUERY_BITS)
            build_rates.append(INDEX_ROWS / (time.perf_counter() - start))
        build_prints.append(oracles.digest(built.codes))
        return built

    with ctx.instrumented():
        index = build(0)
        pool_codes = model.encode_map_batch(params, pool)
        recon = evaluation.mean_recon_error(params, pool)

    def run_pass(i):
        """ROUNDS_PER_PASS closed-loop rounds of 10 Hamming then 1 asymmetric query."""
        nonlocal index
        if i:
            index = build(i)
        ham_ids, ham_ms, asym_ids, asym_ms = [], [], [], []
        start = time.perf_counter()
        for r in range(i * ROUNDS_PER_PASS, (i + 1) * ROUNDS_PER_PASS):
            for number in range(r * HAMMING_PER_ROUND, (r + 1) * HAMMING_PER_ROUND):
                with ctx.request(f"hamming{number}"):
                    begin = time.perf_counter()
                    code = HashCode(pool_codes[number % QUERY_POOL], QUERY_BITS)
                    ham_ids.append(search.knn_hamming(index, code, TOP_N))
                    ham_ms.append((time.perf_counter() - begin) * 1000.0)
            x = pool[-1 - r % QUERY_POOL]
            with ctx.request(f"asym{r}"):
                begin = time.perf_counter()
                asym_ids.append(search.asymmetric_ip_search(index, params, x, TOP_N))
                asym_ms.append((time.perf_counter() - begin) * 1000.0)
        return start, time.perf_counter(), {
            "hamming": ham_ids, "asym": asym_ids, "hamming_ms": ham_ms, "asym_ms": asym_ms
        }

    passes = ctx.phase(run_pass, min_passes=MIN_PASSES, trace_pairs=2)
    ctx.tally.op(len(set(build_prints)) == 1, "index builds differ")
    ctx.digests["index"] = build_prints[0]
    ham_ids = [ids for _, _, r in passes for ids in r["hamming"]]
    asym_ids = [ids for _, _, r in passes for ids in r["asym"]]
    _check_searches(
        ctx,
        "hamming",
        [(ids, index.codes, pool_codes[n % QUERY_POOL], TOP_N) for n, ids in enumerate(ham_ids)],
        QUERY_CHECK_HAMMING_EVERY,
        oracles.check_hamming,
    )
    _check_searches(
        ctx,
        "asym",
        [(ids, pool[-1 - n % QUERY_POOL]) for n, ids in enumerate(asym_ids)],
        QUERY_CHECK_ASYM_EVERY,
        _asym_checker(ctx, index.codes, params),
    )
    ctx.digests["queries"] = oracles.digest(*passes[0][2]["hamming"], *passes[0][2]["asym"])

    if ctx.tracer is None:
        ctx.pass_metrics(passes, {"hamming": HAMMING_PER_ROUND * ROUNDS_PER_PASS, "asym": None})
        ctx.metrics["train_steps_per_s"] = (median(setup_rates), "steps/s")
        ctx.metrics["encode_rows_per_s"] = (median(build_rates), "rows/s")
    ctx.report["passes"] = len(passes)
    ctx.metrics["recon_mse"] = (recon, "sq_units")


# ---------------------------------------------------------------------------
# pipeline: the CLI user journey on fvecs files
# ---------------------------------------------------------------------------

PIPE_BASE = 50_000
PIPE_QUERIES = 100
PIPE_DIM = 32
PIPE_BITS = 32
PIPE_STEPS = 500
PIPE_K = 10


def _pipeline_commands(work, seed):
    def p(name):
        return os.path.join(work, name)

    base = ["--data", p("base.fvecs"), "--format", "fvecs"]
    truth = ["--truth", p("truth.ivecs"), "--k", str(PIPE_K)]
    return [
        ("train", ["train", *base, "--bits", str(PIPE_BITS), "--steps", str(PIPE_STEPS),
                   "--seed", str(seed), "--out", p("model.ckpt"), "--log", p("train_log.csv")]),
        ("encode_base", ["encode", "--ckpt", p("model.ckpt"), *base, "--out", p("db.codes")]),
        ("encode_queries", ["encode", "--ckpt", p("model.ckpt"), "--data", p("queries.fvecs"),
                            "--format", "fvecs", "--out", p("queries.codes")]),
        ("groundtruth", ["groundtruth", *base, "--queries", p("queries.fvecs"),
                         "--queries-format", "fvecs", "--metric", "l2", "--k", str(PIPE_K),
                         "--out", p("truth.ivecs")]),
        ("eval_hamming", ["eval", "--codes", p("db.codes"), "--query-codes", p("queries.codes"),
                          *truth, "--method", "genhash", "--out", p("recall_hamming.csv")]),
        ("eval_asym", ["eval", "--codes", p("db.codes"), "--mode", "asym", "--ckpt", p("model.ckpt"),
                       "--queries", p("queries.fvecs"), *truth, "--method", "genhash-asym",
                       "--out", p("recall_asym.csv")]),
        ("baseline_itq", ["baseline", *base, "--bits", str(PIPE_BITS), "--method", "itq",
                          "--iterations", "50", "--out", p("itq.ckpt")]),
        ("encode_itq_base", ["encode", "--ckpt", p("itq.ckpt"), *base, "--out", p("itq_db.codes")]),
        ("encode_itq_queries", ["encode", "--ckpt", p("itq.ckpt"), "--data", p("queries.fvecs"),
                                "--format", "fvecs", "--out", p("itq_queries.codes")]),
        ("eval_itq", ["eval", "--codes", p("itq_db.codes"), "--query-codes", p("itq_queries.codes"),
                      *truth, "--method", "itq", "--out", p("recall_itq.csv")]),
    ]


PIPE_OUTPUTS = ("model.ckpt", "db.codes", "queries.codes", "truth.ivecs", "recall_hamming.csv",
                "recall_asym.csv", "itq.ckpt", "itq_db.codes", "itq_queries.codes", "recall_itq.csv")


def _read_recall_csv(path):
    """{N: recall} from an eval CSV; raises ValueError when malformed."""
    with open(path) as f:
        lines = f.read().splitlines()
    if lines[0] != "method,bits,K,N,recall":
        raise ValueError(f"{path}: bad header")
    curve = {}
    for line in lines[1:]:
        _, bits, k, n, recall = line.split(",")
        if int(bits) != PIPE_BITS or int(k) != PIPE_K or not 0.0 <= float(recall) <= 1.0:
            raise ValueError(f"{path}: bad row {line!r}")
        curve[int(n)] = float(recall)
    return curve


def _log_without_wall(path):
    """The training log CSV minus its wall_ms column, which is timing noise."""
    with open(path) as f:
        rows = [line.rsplit(",", 1)[0] for line in f.read().splitlines()]
    if rows[0] != "step,window_mean_loss,window_mean_recon_error,lr_t":
        raise ValueError(f"{path}: bad header")
    if len(rows) - 1 != -(-PIPE_STEPS // training.LOG_WINDOW):
        raise ValueError(f"{path}: expected one row per {training.LOG_WINDOW} steps")
    return "\n".join(rows).encode()


def _check_outputs(ctx, work, i):
    """Every output file parses with the expected shape; returns their digest."""

    def parsed(name, read, expected):
        """One operation: reading the file must succeed and pass `expected`."""
        try:
            value = read(os.path.join(work, name))
        except (GenHashError, ValueError, KeyError, IndexError) as err:
            ctx.tally.op(False, f"pass {i}: {name}: {err}")
            return None
        ctx.tally.op(expected(value), f"pass {i}: {name} has an unexpected shape")
        return value

    for name, count in (("db.codes", PIPE_BASE), ("queries.codes", PIPE_QUERIES),
                        ("itq_db.codes", PIPE_BASE), ("itq_queries.codes", PIPE_QUERIES)):
        parsed(name, data_io.read_packed_codes,
               lambda v, n=count: v[0].shape == (n, 1) and v[1] == PIPE_BITS)
    parsed("truth.ivecs", data_io.read_ivecs,
           lambda t: t.shape == (PIPE_QUERIES, PIPE_K) and t.min() >= 0 and t.max() < PIPE_BASE)
    parsed("model.ckpt", lambda path: data_io.load_checkpoint(path, data_io.KIND_SGH),
           lambda v: (v[0].d, v[0].l) == (PIPE_DIM, PIPE_BITS) and v[1] is not None)
    parsed("itq.ckpt", lambda path: data_io.load_checkpoint(path, data_io.KIND_ITQ),
           lambda v: v[0].W_pca.shape == (PIPE_DIM, PIPE_BITS))
    recalls = {}
    for name in ("recall_hamming", "recall_asym", "recall_itq"):
        curve = parsed(f"{name}.csv", _read_recall_csv, lambda c: TOP_N in c)
        if curve:
            recalls[name] = curve[TOP_N]
    log = parsed("train_log.csv", _log_without_wall, lambda _: True) or b""
    files = [os.path.join(work, name) for name in PIPE_OUTPUTS]
    return oracles.digest(log, oracles.file_digest(*files).encode()), recalls


def run_pipeline(ctx):
    work = os.path.join(ctx.out_dir, f"pipeline-{ctx.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    base_path = os.path.join(work, "base.fvecs")
    query_path = os.path.join(work, "queries.fvecs")

    def make():
        rows = _mixture(PIPE_BASE + PIPE_QUERIES, PIPE_DIM, ctx.seed)
        data_io.write_fvecs(base_path, rows[:PIPE_BASE])
        data_io.write_fvecs(query_path, rows[PIPE_BASE:])
        return rows[PIPE_BASE:]

    queries = ctx.setup(make, lambda _: oracles.file_digest(base_path, query_path), repeats=5)
    commands = _pipeline_commands(work, ctx.seed)

    def run_pass(i):
        walls, ham_ms, asym_ms = {}, [], []
        probes = {
            ("genhash.search", "knn_hamming"): stopwatch(ham_ms),
            ("genhash.search", "asymmetric_ip_search"): stopwatch(asym_ms),
        }
        with contextlib.nullcontext() if ctx.tracer else patched(probes):
            start = time.perf_counter()
            for name, argv in commands:
                with ctx.request(f"pass{i}.{name}"):
                    begin = time.perf_counter()
                    code = cli.main(argv)
                    walls[name] = time.perf_counter() - begin
                ctx.tally.op(code == 0, f"pass {i}: {name} exited {code}")
            end = time.perf_counter()
        if not ctx.tracer:  # the stopwatches run only untraced
            ctx.tally.op(
                (len(ham_ms), len(asym_ms)) == (2 * PIPE_QUERIES, PIPE_QUERIES),
                f"pass {i}: {len(ham_ms)} Hamming and {len(asym_ms)} asymmetric queries, "
                f"expected {2 * PIPE_QUERIES} and {PIPE_QUERIES}",
            )
        return start, end, {"walls": walls, "hamming_ms": ham_ms, "asym_ms": asym_ms}

    def after(i, result):
        result["digest"], result["recalls"] = _check_outputs(ctx, work, i)
        return result

    passes = ctx.phase(run_pass, min_passes=2, trace_pairs=2, after=after)
    results = [p[2] for p in passes]
    ctx.tally.op(len({r["digest"] for r in results}) == 1, "pipeline passes differ")
    ctx.digests["pass"] = results[0]["digest"]

    sgh, mean = data_io.load_checkpoint(os.path.join(work, "model.ckpt"))
    recon = evaluation.mean_recon_error(sgh, queries - mean)
    for name in os.listdir(work):
        os.remove(os.path.join(work, name))
    os.rmdir(work)

    walls = {name: median([r["walls"][name] for r in results[1:]]) for name, _ in commands}
    for name, wall in walls.items():
        ctx.report[f"cli_{name}_s"] = wall
    ctx.report.update(results[-1]["recalls"])
    ctx.report["passes"] = len(passes)
    if ctx.tracer is None:
        ctx.pass_metrics(passes, {"hamming": PIPE_QUERIES, "asym": PIPE_QUERIES})  # one eval
        ctx.metrics["train_steps_per_s"] = (PIPE_STEPS / walls["train"], "steps/s")
        ctx.metrics["encode_rows_per_s"] = (PIPE_BASE / walls["encode_base"], "rows/s")
    ctx.metrics["recon_mse"] = (recon, "sq_units")


WORKLOADS = {"train": run_train, "query": run_query, "pipeline": run_pipeline}
