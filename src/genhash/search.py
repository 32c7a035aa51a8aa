"""Linear-scan retrieval over bit-packed codes, plus exact ground-truth scans.

Hamming distances are popcounts of XORed 64-bit words. All rankings break
ties by ascending id so results are deterministic. Every top-n applies the
rule of _select_nearest: it finds the cut score (the n-th smallest) with an
O(N) partition, keeps every position below the cut plus the lowest ones at
the cut, and sorts only those n candidates. The float scans reject
non-finite queries in _finite. Indexes are immutable after construction
and queries are pure, so batch queries may run in parallel over the query
axis.

The Hamming top-n (_nearest) streams the index in chunks of
model.BLOCK_BYTES of words, 131,072 one-word codes: each chunk's XOR words
go into one reused scratch, and a running cut keeps only the codes that
can still make the top n, so a query holds no (N,) temporary. An index of
one chunk takes _select_nearest over its distances directly.

The asymmetric scan (_asym_scores) maps one row block of codes at a time to
their code values with bits_to_values (about 1 MB of float64), so a query
never holds more than one block of unpacked code values; see
asymmetric_ip_search.
"""

from dataclasses import dataclass

import numpy as np

from . import model
from .codes import MAX_BITS  # the code-length cap, also importable from here
from .codes import HashCode, bits_to_values, check_words, unpack_bits
from .errors import InputError
from .model import ModelParams, block_rows, row_blocks


@dataclass
class BinaryIndex:
    """N bit-packed codes of l bits each, searchable by Hamming scan."""

    codes: np.ndarray
    l: int
    ids: np.ndarray | None = None

    def __post_init__(self):
        self.codes = check_words(self.codes, self.l, 2)
        if self.ids is not None:
            self.ids = np.asarray(self.ids)
            if self.ids.shape != (len(self),):
                raise InputError("id_map length must match the number of codes")

    def __len__(self) -> int:
        return self.codes.shape[0]

    def external_ids(self, positions: np.ndarray) -> np.ndarray:
        return positions if self.ids is None else self.ids[positions]


def hamming_distance(a: HashCode, b: HashCode) -> int:
    """Number of differing bits: popcount of the XORed words."""
    if a.l != b.l:
        raise InputError(f"code lengths differ: {a.l} vs {b.l}")
    return int(np.bitwise_count(a.words ^ b.words).sum())


def hamming_scan(index: BinaryIndex, query: HashCode) -> np.ndarray:
    """Hamming distance from the query to every code, as (N,) int32."""
    _check_query(index, query)
    codes = index.codes
    return _scan(codes, query.words, np.empty_like(codes)).astype(np.int32, copy=False)


def _check_query(index: BinaryIndex, query: HashCode):
    if query.l != index.l:
        raise InputError(f"query length {query.l} != index length {index.l}")


def _scan(codes: np.ndarray, words: np.ndarray, xor: np.ndarray) -> np.ndarray:
    """The Hamming distances of codes to words, uint8 for one-word codes
    (bitwise_count's own type) and int32 for wider ones; xor is uint64
    scratch of the shape of codes."""
    if codes.shape[1] == 1:
        return np.bitwise_count(np.bitwise_xor(codes[:, 0], words[0], out=xor[:, 0]))
    np.bitwise_xor(codes, words, out=xor)
    return np.bitwise_count(xor, out=xor).sum(axis=1, dtype=np.int32)


def _chunk_rows(width: int) -> int:
    """Codes per chunk of the streamed Hamming scan, width words each:
    model.BLOCK_BYTES of words, 131,072 one-word codes."""
    return max(1, model.BLOCK_BYTES // (8 * width))


def _chunks(codes: np.ndarray, words: np.ndarray):
    """(start, distances) of each chunk of _chunk_rows codes, in order.

    The XOR words of every chunk go into one uint64 scratch. One-word
    distances (at most 64) come in bitwise_count's own uint8: a cast to
    int32 through its out= argument costs about a tenth of the scan.
    """
    rows = min(len(codes), _chunk_rows(codes.shape[1]))
    xor = np.empty((rows, codes.shape[1]), dtype=np.uint64)
    for a in range(0, len(codes), rows):
        b = min(a + rows, len(codes))
        yield a, _scan(codes[a:b], words, xor[: b - a])


def _check_n(n: int):
    if n < 0:
        raise InputError(f"the number of results must be non-negative, got {n}")


def _select_nearest(dist: np.ndarray, n: int) -> np.ndarray:
    """Positions of the n smallest scores, ascending, ties by position.

    Every position closer than the cut (the n-th smallest distance) is
    kept; the lowest positions at the cut fill the remaining slots. Only
    those n candidates are sorted.
    """
    n = min(n, len(dist))
    if n == 0:
        return np.empty(0, dtype=np.int64)
    cut = np.partition(dist, n - 1)[n - 1]
    part = np.flatnonzero(dist <= cut)
    if len(part) > n:
        near = dist[part]
        below = part[near < cut]
        part = np.concatenate([below, part[near == cut][: n - len(below)]])
    return part[np.argsort(dist[part], kind="stable")]


def _nearest(codes: np.ndarray, words: np.ndarray, n: int) -> np.ndarray:
    """Positions of the n codes nearest to words, ties by position: what
    _select_nearest picks from the whole scan, streamed one chunk at a time.

    Candidates (positions with their distances) are kept in ascending
    position. Until n codes have been seen every code is kept. The chunk
    that completes n sets the running cut: the larger of its own
    (n - kept)-th smallest distance and the largest kept one, at or above
    the n-th smallest distance seen, with at least n candidates at or under
    it. A later chunk keeps only the codes strictly under the cut, since a
    code at the cut ranks behind those n earlier candidates. When the
    candidates exceed 4 n, or twice the number the last cut left if that is
    more, the cut is taken again from them: their n-th smallest distance,
    and only the candidates at or under it stay. So every code of the true
    top n stays a candidate, and _select_nearest over the candidates picks
    it, ties by position. Every distance that reaches a partition is int32,
    because np.partition is about 25 times slower on uint8.
    """
    n = min(n, len(codes))
    if n == 0:
        return np.empty(0, dtype=np.int64)
    kept, count, cut, limit = [], 0, None, 4 * n
    for a, dist in _chunks(codes, words):
        if len(dist) == len(codes):
            return _select_nearest(dist.astype(np.int32), n)  # one chunk: the whole-array rule
        if cut is not None:
            pos = np.flatnonzero(dist < cut)
        elif count + len(dist) < n:
            pos = np.arange(len(dist))
        else:
            need = n - count - 1
            own = dist.astype(np.int32)
            own.partition(need)
            cut = int(max([own[need], *(near.max() for _, near in kept)]))
            pos = np.flatnonzero(dist <= cut)
        kept.append((pos + a, dist[pos].astype(np.int32)))
        count += len(pos)
        if count > limit:
            pos, near = map(np.concatenate, zip(*kept))
            cut = int(np.partition(near, n - 1)[n - 1])
            keep = near <= cut
            kept = [(pos[keep], near[keep])]
            count = len(kept[0][0])
            limit = max(4 * n, 2 * count)
    pos, near = map(np.concatenate, zip(*kept))
    return pos[_select_nearest(near, n)]


def knn_hamming(index: BinaryIndex, query: HashCode, n: int) -> np.ndarray:
    """Ids of the n nearest codes by Hamming distance, ties by ascending id.

    An index of one chunk takes the whole hamming_scan, so the scan stays a
    patch point of bench/timing.py there; a larger one is streamed.
    """
    _check_n(n)
    if len(index) <= _chunk_rows(index.codes.shape[1]):
        return index.external_ids(_select_nearest(hamming_scan(index, query), n))
    _check_query(index, query)
    return index.external_ids(_nearest(index.codes, query.words, n))


def knn_hamming_batch(index: BinaryIndex, queries: np.ndarray, n: int) -> np.ndarray:
    """knn_hamming over a (Q, words) array of packed queries; (Q, min(n,N)) ids."""
    _check_n(n)
    queries = check_words(queries, index.l, 2)
    out = np.empty((len(queries), min(n, len(index))), dtype=np.int64)
    for row, words in zip(out, queries):
        row[:] = _nearest(index.codes, words, n)
    return index.external_ids(out)


def knn_exact_l2(dataset, query, k: int) -> np.ndarray:
    """Brute-force squared-Euclidean top-k, ascending distance, ties by id."""
    return knn_exact_l2_batch(dataset, np.asarray(query, dtype=np.float64)[None], k)[0]


def knn_exact_l2_batch(dataset, queries, k: int) -> np.ndarray:
    """knn_exact_l2 over a (Q, d) array of queries; (Q, min(k,N)) ids.

    The row norms are computed once for all queries. Each query keeps its
    own matrix-vector product, so every list is bit-identical to a
    knn_exact_l2 call on that query.
    """
    rows, queries = _check_float_scan(dataset, queries, k)
    norms = (rows * rows).sum(axis=1)
    out = np.empty((len(queries), min(k, len(rows))), dtype=np.int64)
    for row, query in zip(out, queries):
        row[:] = _select_nearest(norms - 2.0 * (rows @ query), k)
    return out


def knn_exact_ip(dataset, query, k: int) -> np.ndarray:
    """Brute-force inner-product top-k, descending score, ties by id."""
    rows, (query,) = _check_float_scan(dataset, np.asarray(query, dtype=np.float64)[None], k)
    return _select_nearest(-(rows @ query), k)


def _check_float_scan(dataset, queries, k: int):
    """The input check of the exact scans: (rows, queries) as float64 (N, d)
    and finite (Q, d) matrices, or InputError."""
    _check_n(k)
    rows = np.asarray(dataset, dtype=np.float64)
    queries = _finite(np.asarray(queries, dtype=np.float64))
    if rows.ndim != 2 or queries.ndim != 2 or queries.shape[1] != rows.shape[1]:
        raise InputError("query dimension does not match dataset")
    return rows, queries


def _finite(queries: np.ndarray) -> np.ndarray:
    """The query check shared by the float scans: NaN or inf has no rank."""
    if not np.isfinite(queries).all():
        raise InputError("queries must be finite")
    return queries


def asymmetric_ip_search(index: BinaryIndex, params: ModelParams, query, n: int) -> np.ndarray:
    """Rank codes by the inner product of the query with their reconstructions.

    Precomputes s = U^T x once; each code then scores sum of s over its set
    bits (sign-weighted under the plus-minus domain). Descending score, ties
    by ascending id.

    The scores come from _asym_scores, one matrix-vector product per row
    block of model.row_blocks, so only the last N mod 4 rows of the index
    take the dgemv's other summation order, as in one product over the
    whole index. Ties caveat: a code in those last rows can score apart
    from an identical code elsewhere by its last bit, so such ties may not
    break by id.
    """
    _check_n(n)
    if params.l != index.l:
        raise InputError(f"model code length {params.l} != index length {index.l}")
    s = params.U.T @ _finite(params._point(query))
    scores = _asym_scores(index, params.code_domain, s)
    return index.external_ids(_select_nearest(np.negative(scores, out=scores), n))


def _asym_scores(index: BinaryIndex, code_domain: str, s: np.ndarray) -> np.ndarray:
    """(N,) scores values @ s, where values = bits_to_values(bits, code_domain)
    of each row, taken one row block (model.row_blocks) at a time."""
    l, scores = index.l, np.empty(len(index))
    for a, b in row_blocks(len(index), block_rows(l)):
        values = bits_to_values(unpack_bits(index.codes[a:b], l), code_domain)
        np.matmul(values, s, out=scores[a:b])
    return scores
