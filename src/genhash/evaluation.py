"""Retrieval recall curves, reconstruction-error metrics, and image grids.

RecallK@N is the fraction of the K true nearest neighbors present among the
N retrieved items, averaged over queries. Curves are evaluated on a fixed N
grid clipped to the index size and emitted as CSV rows method,bits,K,N,recall.

Reconstruction error and image grids take any model with the shared hasher
surface (SGH ModelParams, ItqModel, PcaModel): they call its
reconstruct_batch and templates. SGH rows must already be centred.
"""

from dataclasses import dataclass, field

import numpy as np

from .baselines import itq_encode_batch  # a patch point in bench/timing.py PATCH_POINTS
from .codes import unpack_bits  # a patch point in bench/timing.py PATCH_POINTS
from .errors import InputError
from .model import encode_map_batch  # a patch point in bench/timing.py PATCH_POINTS

DEFAULT_N_GRID = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)


def recall_k_at_n(retrieved, truth, k: int, n: int) -> float:
    """|top-n retrieved intersect top-k truth| / k."""
    if k < 1:
        raise InputError("k must be >= 1")
    truth = np.asarray(truth)
    retrieved = np.asarray(retrieved)
    if len(truth) < k:
        raise InputError(f"truth list has {len(truth)} entries, need at least {k}")
    hits = np.intersect1d(retrieved[:n], truth[:k], assume_unique=True)
    return len(hits) / k


@dataclass
class EvalReport:
    """Per-query recall values on an N grid plus their mean curve."""

    k: int
    n_grid: tuple
    per_query: np.ndarray  # (num_queries, len(n_grid))
    curve: np.ndarray  # mean over queries per N
    mean_recon_error: float | None = None
    config: dict = field(default_factory=dict)

    def write_csv(self, path):
        method = self.config.get("method", "")
        bits = self.config.get("bits", "")
        with open(path, "w", newline="") as f:
            f.write("method,bits,K,N,recall\n")
            for n, r in zip(self.n_grid, self.curve):
                f.write(f"{method},{bits},{self.k},{n},{float(r)!r}\n")


def recall_curve(queries, searcher, truth_lists, k: int, n_grid=None, config=None) -> EvalReport:
    """Mean RecallK@N over queries for each N in the grid.

    searcher(query, n) must return ranked ids of length min(n, index size);
    grid entries beyond the index size are dropped. truth_lists holds one
    ranked ground-truth id list (length >= k) per query.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    queries = list(queries)
    truth_lists = list(truth_lists)
    if not queries:
        raise InputError("need at least one query")
    if len(truth_lists) != len(queries):
        raise InputError("need exactly one truth list per query")
    grid = tuple(n_grid) if n_grid is not None else DEFAULT_N_GRID
    if not grid or min(grid) < 1:
        raise InputError("n grid entries must be >= 1")
    max_n = max(grid)

    rows = []
    for q, truth in zip(queries, truth_lists):
        ranked = np.asarray(searcher(q, max_n))
        grid = tuple(n for n in grid if n <= len(ranked)) or (len(ranked),)
        rows.append([recall_k_at_n(ranked, truth, k, n) for n in grid])
    per_query = np.asarray(rows, dtype=np.float64)
    return EvalReport(
        k=k,
        n_grid=grid,
        per_query=per_query,
        curve=per_query.mean(axis=0),
        config=dict(config or {}),
    )


def mean_recon_error(model, dataset) -> float:
    """Mean squared reconstruction error ||x - reconstruct(encode(x))||^2."""
    X = np.asarray(getattr(dataset, "rows", dataset), dtype=np.float64)
    resid = X - model.reconstruct_batch(X)
    return float((resid * resid).sum(axis=1).mean())


def _normalize_tile(img: np.ndarray) -> np.ndarray:
    lo, hi = float(img.min()), float(img.max())
    if hi == lo:
        return np.full(img.shape, 128, dtype=np.uint8)
    return np.clip((img - lo) / (hi - lo) * 255.0, 0.0, 255.0).astype(np.uint8)


def reconstruction_grid(params, samples, image_shape) -> np.ndarray:
    """Image grid: original row, reconstruction row, then the codebook templates.

    Every tile is min-max normalized to 8-bit gray independently. Templates
    (one per bit, the codebook columns) wrap into additional rows of the
    same width; unused cells stay black.
    """
    samples = np.asarray(getattr(samples, "rows", samples), dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise InputError("need a non-empty (n, d) sample matrix")
    h, w = image_shape
    if h < 1 or w < 1 or h * w != samples.shape[1]:
        raise InputError(f"image shape {image_shape} does not match dimension {samples.shape[1]}")
    recon = params.reconstruct_batch(samples)
    templates = params.templates()

    n = samples.shape[0]
    template_rows = -(-templates.shape[0] // n)
    grid = np.zeros(((2 + template_rows) * h, n * w), dtype=np.uint8)
    for col, (orig, rec) in enumerate(zip(samples, recon)):
        grid[0:h, col * w:(col + 1) * w] = _normalize_tile(orig.reshape(h, w))
        grid[h:2 * h, col * w:(col + 1) * w] = _normalize_tile(rec.reshape(h, w))
    for i, tmpl in enumerate(templates):
        r, c = 2 + i // n, i % n
        grid[r * h:(r + 1) * h, c * w:(c + 1) * w] = _normalize_tile(tmpl.reshape(h, w))
    return grid


def write_pgm(path, image: np.ndarray):
    """Write a 2-D uint8 array as a binary PGM (P5)."""
    image = np.ascontiguousarray(image, dtype=np.uint8)
    if image.ndim != 2:
        raise InputError("PGM output requires a 2-D image")
    with open(path, "wb") as f:
        f.write(f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii"))
        f.write(image.tobytes())
