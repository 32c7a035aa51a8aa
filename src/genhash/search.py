"""Linear-scan retrieval over bit-packed codes, plus exact ground-truth scans.

Hamming distances are popcounts of XORed 64-bit words. All rankings break
ties by ascending id so results are deterministic. Hamming top-n finds the
cut distance (the n-th smallest) with an O(N) partition, keeps every code
closer than the cut plus the lowest ids at the cut, and sorts only those n
candidates. Indexes are immutable after construction and queries are pure,
so batch queries may run in parallel over the query axis.
"""

from dataclasses import dataclass

import numpy as np

from .codes import PLUS_MINUS, HashCode, check_padding, n_words, unpack_bits
from .errors import InputError
from .model import ModelParams

# sanity cap on the code length; distances are returned as int32
MAX_BITS = 4096


@dataclass
class BinaryIndex:
    """N bit-packed codes of l bits each, searchable by Hamming scan."""

    codes: np.ndarray
    l: int
    ids: np.ndarray | None = None

    def __post_init__(self):
        self.codes = np.ascontiguousarray(self.codes, dtype=np.uint64)
        if self.codes.ndim != 2 or self.codes.shape[1] != n_words(self.l):
            raise InputError(
                f"codes must be (N, {n_words(self.l)}) words for {self.l} bits, "
                f"got {self.codes.shape}"
            )
        if not 1 <= self.l <= MAX_BITS:
            raise InputError(f"code length must lie in [1, {MAX_BITS}]")
        check_padding(self.codes, self.l)
        if self.ids is not None:
            self.ids = np.asarray(self.ids)
            if self.ids.shape != (len(self),):
                raise InputError("id_map length must match the number of codes")

    def __len__(self) -> int:
        return self.codes.shape[0]

    def code(self, i: int) -> HashCode:
        return HashCode(self.codes[i].copy(), self.l)

    def external_ids(self, positions: np.ndarray) -> np.ndarray:
        return positions if self.ids is None else self.ids[positions]


def hamming_distance(a: HashCode, b: HashCode) -> int:
    """Number of differing bits: popcount of the XORed words."""
    if a.l != b.l:
        raise InputError(f"code lengths differ: {a.l} vs {b.l}")
    return int(np.bitwise_count(a.words ^ b.words).sum())


def hamming_scan(index: BinaryIndex, query: HashCode) -> np.ndarray:
    """Hamming distance from the query to every code, as (N,) int32."""
    if query.l != index.l:
        raise InputError(f"query length {query.l} != index length {index.l}")
    return _scan(index.codes, query.words)


def _scan(codes: np.ndarray, words: np.ndarray) -> np.ndarray:
    if codes.shape[1] == 1:
        return np.bitwise_count(codes[:, 0] ^ words[0]).astype(np.int32)
    return np.bitwise_count(codes ^ words).sum(axis=1, dtype=np.int32)


def _check_n(n: int):
    if n < 0:
        raise InputError(f"the number of results must be non-negative, got {n}")


def _select_nearest(dist: np.ndarray, n: int) -> np.ndarray:
    """Positions of the n smallest distances, ascending, ties by position.

    Every position closer than the cut (the n-th smallest distance) is
    kept; the lowest positions at the cut fill the remaining slots. Only
    those n candidates are sorted.
    """
    n = min(n, len(dist))
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n < len(dist):
        cut = np.partition(dist, n - 1)[n - 1]
        part = np.flatnonzero(dist <= cut)
        if len(part) > n:
            near = dist[part]
            below = part[near < cut]
            part = np.concatenate([below, part[near == cut][: n - len(below)]])
    else:
        part = np.arange(len(dist))
    return part[np.argsort(dist[part], kind="stable")]


def knn_hamming(index: BinaryIndex, query: HashCode, n: int) -> np.ndarray:
    """Ids of the n nearest codes by Hamming distance, ties by ascending id."""
    _check_n(n)
    return index.external_ids(_select_nearest(hamming_scan(index, query), n))


def knn_hamming_batch(index: BinaryIndex, queries: np.ndarray, n: int) -> np.ndarray:
    """knn_hamming over a (Q, words) array of packed queries; (Q, min(n,N)) ids."""
    _check_n(n)
    queries = np.ascontiguousarray(queries, dtype=np.uint64)
    if queries.ndim != 2 or queries.shape[1] != n_words(index.l):
        raise InputError(f"queries must be (Q, {n_words(index.l)}) packed words")
    check_padding(queries, index.l)
    out = np.empty((len(queries), min(n, len(index))), dtype=np.int64)
    for row, words in zip(out, queries):
        row[:] = _select_nearest(_scan(index.codes, words), n)
    return index.external_ids(out)


def knn_exact_l2(dataset, query, k: int) -> np.ndarray:
    """Brute-force squared-Euclidean top-k, ascending distance, ties by id."""
    query = np.asarray(query, dtype=np.float64)
    if query.ndim != 1:
        raise InputError("query dimension does not match dataset")
    return knn_exact_l2_batch(dataset, query[None, :], k)[0]


def knn_exact_l2_batch(dataset, queries, k: int) -> np.ndarray:
    """knn_exact_l2 over a (Q, d) array of queries; (Q, min(k,N)) ids.

    The row norms are computed once for all queries. Each query keeps its
    own matrix-vector product, so every list is bit-identical to a
    knn_exact_l2 call on that query.
    """
    _check_n(k)
    rows = np.asarray(getattr(dataset, "rows", dataset), dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if rows.ndim != 2 or queries.ndim != 2 or queries.shape[1] != rows.shape[1]:
        raise InputError("query dimension does not match dataset")
    norms = (rows * rows).sum(axis=1)
    out = np.empty((len(queries), min(k, len(rows))), dtype=np.int64)
    for row, query in zip(out, queries):
        row[:] = _select_smallest_float(norms - 2.0 * (rows @ query), k)
    return out


def knn_exact_ip(dataset, query, k: int) -> np.ndarray:
    """Brute-force inner-product top-k, descending score, ties by id."""
    _check_n(k)
    rows = np.asarray(getattr(dataset, "rows", dataset), dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    if rows.ndim != 2 or query.shape != (rows.shape[1],):
        raise InputError("query dimension does not match dataset")
    return _select_smallest_float(-(rows @ query), k)


def _select_smallest_float(scores: np.ndarray, k: int) -> np.ndarray:
    k = min(k, len(scores))
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if k < len(scores):
        part = np.argpartition(scores, k - 1)[:k]
        # a stable sort on (score, position) keeps equal scores in id order,
        # but the partition boundary may have split a tie group arbitrarily;
        # widen to include every score tied with the current worst
        worst = scores[part].max()
        part = np.flatnonzero(scores <= worst)
    else:
        part = np.arange(len(scores))
    order = np.argsort(scores[part], kind="stable")
    return part[order][:k]


def asymmetric_ip_search(index: BinaryIndex, params: ModelParams, query, n: int) -> np.ndarray:
    """Rank codes by the inner product of the query with their reconstructions.

    Precomputes s = U^T x once; each code then scores sum of s over its set
    bits (sign-weighted under the plus-minus domain). Descending score, ties
    by ascending id.
    """
    _check_n(n)
    if params.l != index.l:
        raise InputError(f"model code length {params.l} != index length {index.l}")
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (params.d,):
        raise InputError(f"query has shape {query.shape}, expected ({params.d},)")
    s = params.U.T @ query
    bits = unpack_bits(index.codes, index.l).astype(np.float64)
    if params.code_domain == PLUS_MINUS:
        scores = (2.0 * bits - 1.0) @ s
    else:
        scores = bits @ s
    return index.external_ids(_select_smallest_float(-scores, n))
