"""Timing helpers for the benchmark: the tail-percentile rule and a span tracer.

The tracer never touches genhash's source. It replaces public functions,
for the duration of a `with` block, in the module namespace their caller
looks them up in (for example `genhash.cli.train`, which is the name the
`train` command resolves, as opposed to `genhash.training.train`), and
records one span per call: name, start, end, parent span and request id.
Spans stay in memory until the run writes them out.
"""

import contextlib
import importlib
import os
import time

TAIL_BEYOND = 10


def tail(samples, beyond=TAIL_BEYOND):
    """Highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, count). The value is the order statistic
    with exactly `beyond` samples after it, so its percentile is
    100 * (count - beyond) / count.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {count}")
    return ordered[count - beyond - 1], 100.0 * (count - beyond) / count, count


def block_tail(samples, size, beyond=TAIL_BEYOND):
    """Median over consecutive blocks of `size` samples of each block's tail.

    The remainder after the last whole block is left out. Returns
    (value, percentile, blocks); the percentile depends only on `size`.
    """
    tails = [tail(samples[i:i + size], beyond) for i in range(0, len(samples) - size + 1, size)]
    if not tails:
        raise ValueError(f"need a block of {size} samples, got {len(samples)}")
    return median([t[0] for t in tails]), tails[0][1], len(tails)


def median(samples):
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans):
    """Per-span self time: duration minus the part its children cover.

    `spans` is a list of (name, start, end, parent_index, request) tuples.
    """
    children = [[] for _ in spans]
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    return [
        (end - start) - _covered(children[i], start, end)
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


def uncovered_share(spans, lo, hi):
    """Share of [lo, hi] that no root span covers."""
    roots = [(s[1], s[2]) for s in spans if s[3] is None]
    return 1.0 - _covered(roots, lo, hi) / (hi - lo)


def _path_size(path):
    return os.path.getsize(path) if os.path.isfile(path) else 0


class Tracer:
    """Records spans around patched functions; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.request = None
        self.counters = {}
        self._stack = []

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def request_id(self, request):
        previous, self.request = self.request, request
        try:
            yield
        finally:
            self.request = previous

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself rather than a patched call."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, fn, name, counter=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def frozen_spans(self):
        return [tuple(s) for s in self.spans]


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set module attributes: {("pkg.mod", "attr"): make(original)}."""
    saved = []
    try:
        for (module_name, attr), make in replacements.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def stopwatch(sink):
    """Wrapper factory that appends each call's wall time in ms to `sink`."""

    def make(fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            sink.append((time.perf_counter() - start) * 1000.0)
            return result

        return timed

    return make


# ---------------------------------------------------------------------------
# what the traced run patches
# ---------------------------------------------------------------------------


def _count_rows(tracer, args, kwargs, result):
    tracer.count("model.rows_encoded", len(args[1]))


def _count_scanned(tracer, args, kwargs, result):
    tracer.count("search.codes_scanned", len(args[0]))
    tracer.count("search.scans", 1)


def _count_steps(tracer, args, kwargs, result):
    tracer.count("training.steps", args[1].steps)


def _count_read(tracer, args, kwargs, result):
    tracer.count("data_io.bytes_read", _path_size(args[0]))


def _count_written(tracer, args, kwargs, result):
    tracer.count("data_io.bytes_written", _path_size(args[0]))


def _count_exit(tracer, args, kwargs, result):
    if result != 0:
        tracer.count("cli.nonzero_exits", 1)


DATA_IO_READS = ("read_fvecs", "read_ivecs", "load_checkpoint", "read_packed_codes")
DATA_IO_WRITES = ("write_fvecs", "write_ivecs", "save_checkpoint", "write_packed_codes")
CLI_COMMANDS = ("train", "encode", "groundtruth", "eval", "baseline")

# (module the caller looks the name up in, attribute, span name, counter)
PATCH_POINTS = (
    [
        ("genhash.training", "train", "training.train", _count_steps),
        ("genhash.cli", "train", "training.train", _count_steps),
        ("genhash.training", "sgd_step", "training.sgd_step", None),
        ("genhash.model", "encode_map_batch", "model.encode_map_batch", _count_rows),
        ("genhash.cli", "encode_map_batch", "model.encode_map_batch", _count_rows),
        ("genhash.evaluation", "encode_map_batch", "model.encode_map_batch", _count_rows),
        ("genhash.model", "pack_bits", "codes.pack_bits", None),
        ("genhash.baselines", "pack_bits", "codes.pack_bits", None),
        ("genhash.search", "unpack_bits", "codes.unpack_bits", None),
        ("genhash.evaluation", "unpack_bits", "codes.unpack_bits", None),
        ("genhash.search", "hamming_scan", "search.hamming_scan", _count_scanned),
        ("genhash.search", "knn_hamming", "search.knn_hamming", None),
        ("genhash.search", "asymmetric_ip_search", "search.asymmetric_ip_search", _count_scanned),
        ("genhash.search", "knn_exact_l2", "search.knn_exact_l2", None),
        ("genhash.cli", "itq_fit", "baselines.itq_fit", None),
        ("genhash.cli", "itq_encode_batch", "baselines.itq_encode_batch", None),
        ("genhash.evaluation", "itq_encode_batch", "baselines.itq_encode_batch", None),
        ("genhash.evaluation", "recall_curve", "evaluation.recall_curve", None),
        ("genhash.data_io", "synth_mixture", "data_io.synth_mixture", None),
    ]
    + [("genhash.data_io", fn, f"data_io.{fn}", _count_read) for fn in DATA_IO_READS]
    + [("genhash.data_io", fn, f"data_io.{fn}", _count_written) for fn in DATA_IO_WRITES]
    + [("genhash.cli", f"cmd_{c}", f"cli.{c}", _count_exit) for c in CLI_COMMANDS]
)


def install(tracer):
    """Context manager that routes every patch point through `tracer`."""
    return patched(
        {
            (module, attr): (lambda fn, n=name, c=counter: tracer.wrap(fn, n, c))
            for module, attr, name, counter in PATCH_POINTS
        }
    )


# ---------------------------------------------------------------------------
# per-layer metrics from a finished trace
# ---------------------------------------------------------------------------

# per-layer metric -> span name whose mean self time per call it reports
SELF_TIME_METRICS = {
    "model.encode_map_batch_ms": "model.encode_map_batch",
    "codes.pack_bits_ms": "codes.pack_bits",
    "search.hamming_scan_ms": "search.hamming_scan",
    "search.hamming_select_ms": "search.knn_hamming",
    "search.asym_ms": "search.asymmetric_ip_search",
    "search.knn_exact_l2_ms": "search.knn_exact_l2",
    "baselines.itq_fit_ms": "baselines.itq_fit",
    "baselines.itq_encode_batch_ms": "baselines.itq_encode_batch",
    "evaluation.recall_curve_ms": "evaluation.recall_curve",
    **{f"data_io.{fn}_ms": f"data_io.{fn}" for fn in DATA_IO_READS + DATA_IO_WRITES},
    "data_io.synth_mixture_ms": "data_io.synth_mixture",
    **{f"cli.{c}_ms": f"cli.{c}" for c in CLI_COMMANDS},
}

TOTAL_COUNTS = ("model.rows_encoded", "data_io.bytes_read", "data_io.bytes_written")


def layer_metrics(spans, counters):
    """Per-layer figures from a traced run: ms are mean self time per call.

    Training figures are per step. Row and byte counts are totals over the
    traced run, whose work is fixed; codes scanned is per search call.
    """
    selfs = self_times(spans)
    total, calls = {}, {}
    for span, own in zip(spans, selfs):
        total[span[0]] = total.get(span[0], 0.0) + own
        calls[span[0]] = calls.get(span[0], 0) + 1

    def per_call_ms(name):
        return 1000.0 * total.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    metrics = {key: (per_call_ms(name), "ms") for key, name in SELF_TIME_METRICS.items()}

    unpack_in_asym = [
        own
        for span, own in zip(spans, selfs)
        if span[0] == "codes.unpack_bits"
        and span[3] is not None
        and spans[span[3]][0] == "search.asymmetric_ip_search"
    ]
    metrics["codes.unpack_bits_ms"] = (
        1000.0 * sum(unpack_in_asym) / len(unpack_in_asym) if unpack_in_asym else 0.0,
        "ms",
    )

    steps = counters.get("training.steps", 0)
    train_wall = sum(s[2] - s[1] for s in spans if s[0] == "training.train")
    metrics["training.step_ms"] = (1000.0 * train_wall / steps if steps else 0.0, "ms")
    metrics["training.optimizer_ms"] = (per_call_ms("training.sgd_step"), "ms")
    metrics["training.grad_ms"] = (
        1000.0 * total.get("training.train", 0.0) / steps if steps else 0.0,
        "ms",
    )

    for name in TOTAL_COUNTS:
        unit = "bytes" if name.startswith("data_io.") else "count"
        metrics[name] = (counters.get(name, 0), unit)
    scans = counters.get("search.scans", 0)
    metrics["search.codes_scanned"] = (
        counters.get("search.codes_scanned", 0) / scans if scans else 0.0,
        "count",
    )
    metrics["cli.nonzero_exits"] = (counters.get("cli.nonzero_exits", 0), "count")
    return metrics
