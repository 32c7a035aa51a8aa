"""Brute-force references for checking search results, and output digests.

The references share no code with genhash.search: Hamming distances come
from a byte popcount table, asymmetric scores from per-byte partial-sum
tables, and top-n selection from a threshold that keeps the whole tie
group at the cut before ordering it by id.
"""

import hashlib

import numpy as np

_POPCOUNT8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.int32)


def _code_bytes(codes):
    """(N, words) little-endian uint64 codes as (N, 8 * words) bytes."""
    codes = np.ascontiguousarray(codes, dtype="<u8")
    return codes.view(np.uint8).reshape(codes.shape[0], -1)


def hamming_distances(codes, query_words):
    xor = _code_bytes(codes) ^ _code_bytes(np.asarray(query_words).reshape(1, -1))
    return _POPCOUNT8[xor].sum(axis=1)


def asym_scores(codes, l, U, x, plus_minus):
    """Inner product of x with each code's reconstruction, one table per byte."""
    s = np.zeros(_code_bytes(codes[:1]).shape[1] * 8)
    s[:l] = np.asarray(U).T @ np.asarray(x, dtype=np.float64)
    if plus_minus:
        s[:l] *= 2.0
    byte_bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    scores = np.zeros(len(codes))
    for j, column in enumerate(_code_bytes(codes).T):
        scores += (byte_bits @ s[8 * j:8 * j + 8])[column]
    if plus_minus:
        scores -= s[:l].sum() / 2.0
    return scores


def top_n(keys, n):
    """Positions of the n smallest keys, ties by ascending position."""
    n = min(n, len(keys))
    if n == 0:
        return np.empty(0, dtype=np.int64)
    cut = np.partition(keys, n - 1)[n - 1]
    candidates = np.flatnonzero(keys <= cut)
    order = np.lexsort((candidates, keys[candidates]))
    return candidates[order][:n]


def check_hamming(result, codes, query_words, n):
    """True when `result` is the exact (distance, id) top-n."""
    expected = top_n(hamming_distances(codes, query_words), n)
    return np.array_equal(np.asarray(result), expected)


def check_asym(result, codes, l, U, x, n, plus_minus):
    """Returns (ok, exact): exact when `result` equals the (-score, id) top-n.

    Scores summed in another order can differ in the last bits, so a
    result that is not identical still passes when it is a valid top-n up
    to that rounding: no excluded code scores higher than the cut by more
    than the rounding bound, no two listed scores are inverted by more
    than it, and codes whose reference scores are exactly equal (such as
    identical codes) still come in ascending id order, with the smallest
    ids of the tie group at the cut taken.
    """
    scores = asym_scores(codes, l, U, x, plus_minus)
    result = np.asarray(result)
    if np.array_equal(result, top_n(-scores, n)):
        return True, True
    eps = 1e-12 * float(np.abs(np.asarray(U).T @ np.asarray(x, dtype=np.float64)).sum())
    if len(result) != min(n, len(codes)) or len(np.unique(result)) != len(result):
        return False, False
    if np.any((result < 0) | (result >= len(codes))):
        return False, False
    inside = scores[result]
    cut = inside.min()
    outside = np.ones(len(codes), dtype=bool)
    outside[result] = False
    if np.any(scores[outside] > cut + eps):
        return False, False
    at_cut = np.flatnonzero(scores == cut)
    if not np.array_equal(np.sort(result[inside == cut]), at_cut[: np.count_nonzero(inside == cut)]):
        return False, False
    a, b = inside[:-1], inside[1:]
    ordered = np.where(a == b, result[:-1] < result[1:], a >= b - eps)
    return bool(ordered.all()), False


def digest(*parts):
    """blake2b over byte strings and arrays, in order."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part).tobytes()
        h.update(part)
    return h.hexdigest()


def file_digest(*paths):
    h = hashlib.blake2b(digest_size=16)
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()
