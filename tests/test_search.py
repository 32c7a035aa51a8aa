import tracemalloc

import numpy as np
import pytest

from genhash import model as model_module
from genhash import search as search_module
from genhash.codes import PLUS_MINUS, HashCode, bits_to_values, pack_bits, unpack_bits
from genhash.errors import InputError
from genhash.model import block_rows as _asym_block_rows
from genhash.model import decode
from genhash.search import (
    BinaryIndex,
    asymmetric_ip_search,
    hamming_distance,
    hamming_scan,
    knn_exact_ip,
    knn_exact_l2,
    knn_exact_l2_batch,
    knn_hamming,
    knn_hamming_batch,
)
from genhash.search import _asym_scores, _select_nearest

from conftest import random_params


def _random_index(rng, n, l):
    bits = rng.random((n, l)) < 0.5
    return BinaryIndex(pack_bits(bits), l), bits


# ---------------------------------------------------------------------------
# hamming distance
# ---------------------------------------------------------------------------


def test_hamming_distance_basic():
    a = HashCode.from_bits([0, 1, 0, 1])
    b = HashCode.from_bits([0, 1, 1, 0])
    assert hamming_distance(a, b) == 2
    assert hamming_distance(a, a) == 0


def test_hamming_distance_length_mismatch():
    with pytest.raises(InputError):
        hamming_distance(HashCode.from_bits([1, 0]), HashCode.from_bits([1, 0, 1]))


def test_hamming_distance_matches_bit_loop(rng):
    for _ in range(100):
        ba = rng.random(128) < 0.5
        bb = rng.random(128) < 0.5
        expected = int(sum(1 for u, v in zip(ba, bb) if u != v))
        assert hamming_distance(HashCode.from_bits(ba), HashCode.from_bits(bb)) == expected


def test_hamming_metric_properties(rng):
    codes = [HashCode.from_bits(rng.random(96) < 0.5) for _ in range(30)]
    for _ in range(200):
        a, b, c = (codes[i] for i in rng.integers(0, 30, 3))
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert hamming_distance(a, b) <= hamming_distance(a, c) + hamming_distance(c, b)


# ---------------------------------------------------------------------------
# knn over the index
# ---------------------------------------------------------------------------


def test_knn_hamming_single_item(rng):
    index, bits = _random_index(rng, 1, 16)
    out = knn_hamming(index, HashCode.from_bits(rng.random(16) < 0.5), 5)
    assert list(out) == [0]


def test_knn_hamming_exact_match_first(rng):
    index, bits = _random_index(rng, 50, 16)
    q = HashCode.from_bits(bits[17])
    out = knn_hamming(index, q, 3)
    dup = [i for i in range(50) if np.array_equal(bits[i], bits[17])]
    assert out[0] == min(dup)


def _full_sort_oracle(bits, qbits, n):
    dist = (bits != qbits).sum(axis=1)
    order = sorted(range(len(bits)), key=lambda i: (dist[i], i))
    return order[:n]


def test_knn_hamming_matches_full_sort_oracle(rng):
    for trial in range(100):
        n_items = int(rng.integers(1, 60))
        # low-entropy codes make ties common
        l = int(rng.choice([4, 8, 32]))
        bits = rng.random((n_items, l)) < 0.5
        index = BinaryIndex(pack_bits(bits), l)
        qbits = rng.random(l) < 0.5
        n = int(rng.integers(1, n_items + 2))
        got = knn_hamming(index, HashCode.from_bits(qbits), n)
        assert list(got) == _full_sort_oracle(bits, qbits, n)


def test_knn_hamming_full_permutation(rng):
    index, _ = _random_index(rng, 40, 8)
    out = knn_hamming(index, HashCode.from_bits(rng.random(8) < 0.5), 40)
    assert sorted(out) == list(range(40))


def test_knn_hamming_n_zero(rng):
    index, _ = _random_index(rng, 10, 8)
    assert len(knn_hamming(index, HashCode.from_bits(np.zeros(8)), 0)) == 0


def test_knn_hamming_batch_matches_single(rng):
    index, _ = _random_index(rng, 30, 24)
    qbits = rng.random((5, 24)) < 0.5
    packed = pack_bits(qbits)
    batch = knn_hamming_batch(index, packed, 7)
    for i in range(5):
        assert np.array_equal(batch[i], knn_hamming(index, HashCode(packed[i], 24), 7))


def _composite_key_knn(index, query, n):
    """Reference top-n: partition and stable sort on (distance << 48) | position."""
    dist = np.bitwise_count(index.codes ^ query.words[None, :]).sum(axis=1, dtype=np.int32)
    keys = (dist.astype(np.uint64) << np.uint64(48)) | np.arange(len(index), dtype=np.uint64)
    n = min(n, len(keys))
    if n == 0:
        return index.external_ids(np.empty(0, dtype=np.int64))
    part = np.argpartition(keys, n - 1)[:n] if n < len(keys) else np.arange(len(keys))
    return index.external_ids(part[np.argsort(keys[part], kind="stable")])


def _tied_bits(rng, kind, count, l):
    if kind == "random":
        return rng.random((count, l)) < 0.5
    if kind == "six-patterns":
        return (rng.random((6, l)) < 0.5)[rng.integers(0, 6, count)]
    return np.repeat(rng.random((1, l)) < 0.5, count, axis=0)  # all identical


def _check_against_composite_key_reference(rng, l, kind, with_ids, extra_sizes=()):
    """knn_hamming and knn_hamming_batch on 2000 tied codes against
    _composite_key_knn, at n around the tie group at the median distance."""
    count = 2000
    bits = _tied_bits(rng, kind, count, l)
    ids = rng.permutation(count) * 3 + 7 if with_ids else None
    index = BinaryIndex(pack_bits(bits), l, ids=ids)
    queries = pack_bits(np.concatenate([rng.random((2, l)) < 0.5, bits[:1]]))
    for words in queries:
        query = HashCode(words, l)
        dist = hamming_scan(index, query)
        cut = np.sort(dist)[count // 2]
        tie_group = int(np.sum(dist == cut))
        sizes = {0, 1, tie_group, int(np.sum(dist < cut)) + 1, count, count + 5, *extra_sizes}
        for n in sorted(sizes):
            expected = _composite_key_knn(index, query, n)
            got = knn_hamming(index, query, n)
            assert np.array_equal(got, expected), (n, tie_group)
    for n in (tie_group, *extra_sizes):
        batch = knn_hamming_batch(index, queries, n)
        for words, row in zip(queries, batch):
            assert np.array_equal(row, _composite_key_knn(index, HashCode(words, l), n)), n
    return index, queries


@pytest.mark.parametrize("l", [8, 64, 70, 130])
@pytest.mark.parametrize("kind", ["random", "six-patterns", "identical"])
@pytest.mark.parametrize("with_ids", [False, True])
def test_knn_hamming_matches_composite_key_reference(rng, l, kind, with_ids):
    _check_against_composite_key_reference(rng, l, kind, with_ids)


SMALL_CHUNK = 64


@pytest.fixture
def small_chunks(monkeypatch):
    """Stream the Hamming top-n in chunks of SMALL_CHUNK codes."""
    monkeypatch.setattr(search_module, "_chunk_rows", lambda width: SMALL_CHUNK)


def test_chunk_rows_are_a_block_of_words(monkeypatch):
    assert search_module._chunk_rows(1) == 131_072
    assert search_module._chunk_rows(3) == 43_690
    monkeypatch.setattr(model_module, "BLOCK_BYTES", 8 * 2 * 100)
    assert search_module._chunk_rows(2) == 100
    assert search_module._chunk_rows(201) == 1  # never less than one code


@pytest.mark.parametrize("l", [8, 64, 70, 130])
@pytest.mark.parametrize("kind", ["random", "six-patterns", "identical"])
@pytest.mark.parametrize("with_ids", [False, True])
def test_streamed_knn_hamming_matches_composite_key_reference(
    rng, small_chunks, l, kind, with_ids
):
    # 31 full chunks and a partial one
    chunk = SMALL_CHUNK
    sizes = (chunk - 1, chunk, chunk + 1, 3 * chunk + 1)
    index, queries = _check_against_composite_key_reference(rng, l, kind, with_ids, sizes)
    if l % 64:
        queries[1, -1] |= np.uint64(1 << 63)
        with pytest.raises(InputError, match="padding"):
            knn_hamming_batch(index, queries, 3)


def _codes_at_distances(dist, l=64):
    """One-word codes whose distances to the zero query are dist: the low
    dist[i] bits of code i set."""
    ones = np.arange(l) < np.asarray(dist)[:, None]
    return BinaryIndex(pack_bits(ones), l), HashCode(np.zeros(1, dtype=np.uint64), l)


@pytest.mark.parametrize(
    "order", ["ties-straddle-a-boundary", "nearer-in-each-chunk", "cut-group-in-last-chunk"]
)
def test_streamed_knn_hamming_ties_across_chunk_boundaries(rng, small_chunks, order):
    chunk, count = SMALL_CHUNK, 10 * SMALL_CHUNK + 17
    if order == "ties-straddle-a-boundary":
        # far codes, then one tie group from chunk 2 through chunk 5
        dist = np.full(count, 40)
        dist[2 * chunk - 7 : 5 * chunk + 9] = 12
        dist[rng.integers(0, count, 20)] = rng.integers(0, 12, 20)
    elif order == "nearer-in-each-chunk":
        # distances fall along the positions: every chunk beats the cut
        dist = np.repeat(np.arange(64, 0, -1), -(-count // 64))[:count]
    else:
        dist = np.full(count, 30)
        dist[-40:] = 3
        dist[chunk + 5] = 3
    index, query = _codes_at_distances(dist)
    for n in (1, 5, chunk - 1, chunk, chunk + 1, 2 * chunk + 3, 4 * chunk, count, count + 5):
        expected = _composite_key_knn(index, query, n)
        assert np.array_equal(knn_hamming(index, query, n), expected), n
        assert np.array_equal(knn_hamming_batch(index, query.words[None], n)[0], expected), n


@pytest.mark.parametrize("l", [8, 64])
def test_knn_hamming_over_several_full_size_chunks(rng, l):
    # 2 full chunks of 131,072 one-word codes and a partial one; biased bits
    # make ties at the cut common, and 8-bit codes tie heavily
    count = 300_003
    bits = rng.random((count, l)) < 0.15
    index = BinaryIndex(pack_bits(bits), l)
    for qbits in (rng.random((2, l)) < 0.15):
        query = HashCode.from_bits(qbits)
        dist = hamming_scan(index, query)
        for n in (0, 1, 100, 1000, 131_073, count, count + 5):
            expected = _select_nearest(dist, n)
            assert np.array_equal(knn_hamming(index, query, n), expected), n


def test_knn_hamming_memory_is_bounded_by_its_chunk(rng):
    index = BinaryIndex(rng.integers(0, 2**63, size=(1_000_000, 1), dtype=np.uint64), 64)
    query = HashCode(index.codes[7].copy(), 64)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        knn_hamming(index, query, 100)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # one chunk's XOR words (1 MiB), its distances and their partition copy
    # (0.5 MiB each); one scan over the whole index would take 8.6 MiB
    assert peak <= 2.5 * 2**20, peak


@pytest.mark.parametrize("l", [8, 64])
def test_hamming_scan_one_word_path_equals_multi_word(rng, l):
    bits = rng.random((300, l)) < 0.5
    qbits = rng.random(l) < 0.5
    one = hamming_scan(BinaryIndex(pack_bits(bits), l), HashCode.from_bits(qbits))
    # the same codes padded with zero bits to two words take the multi-word path
    pad = np.zeros((300, 128 - l), dtype=bool)
    multi = hamming_scan(
        BinaryIndex(pack_bits(np.hstack([bits, pad])), 128),
        HashCode.from_bits(np.concatenate([qbits, pad[0]])),
    )
    assert one.dtype == np.int32 and multi.dtype == np.int32
    assert one.shape == (300,)
    assert np.array_equal(one, multi)
    assert np.array_equal(one, (bits != qbits).sum(axis=1))


def test_knn_hamming_batch_empty_and_zero_n(rng):
    index, _ = _random_index(rng, 30, 70)
    empty = knn_hamming_batch(index, np.empty((0, 2), dtype=np.uint64), 7)
    assert empty.shape == (0, 7)
    packed = pack_bits(rng.random((3, 70)) < 0.5)
    assert knn_hamming_batch(index, packed, 0).shape == (3, 0)
    assert knn_hamming_batch(index, packed, 50).shape == (3, 30)


def test_knn_hamming_batch_rejects_dirty_padding(rng):
    index, _ = _random_index(rng, 10, 70)
    packed = pack_bits(rng.random((4, 70)) < 0.5)
    packed[2, 1] |= np.uint64(1 << 63)
    with pytest.raises(InputError, match="padding"):
        knn_hamming_batch(index, packed, 3)
    with pytest.raises(InputError):
        knn_hamming_batch(index, packed[:, :1], 3)


def test_negative_n_rejected(rng):
    index, _ = _random_index(rng, 10, 8)
    params = random_params(rng, 4, 8)
    X = rng.normal(size=(10, 4))
    query = HashCode.from_bits(rng.random(8) < 0.5)
    calls = [
        lambda n: knn_hamming(index, query, n),
        lambda n: knn_hamming_batch(index, query.words[None, :], n),
        lambda n: knn_exact_l2(X, X[0], n),
        lambda n: knn_exact_l2_batch(X, X[:2], n),
        lambda n: knn_exact_ip(X, X[0], n),
        lambda n: asymmetric_ip_search(index, params, X[0], n),
    ]
    for call in calls:
        for n in (-1, -2, -11):
            with pytest.raises(InputError, match="non-negative"):
                call(n)
        assert call(0).size == 0


def test_binary_index_id_map(rng):
    bits = rng.random((4, 8)) < 0.5
    ids = np.array([100, 200, 300, 400])
    index = BinaryIndex(pack_bits(bits), 8, ids=ids)
    out = knn_hamming(index, HashCode.from_bits(bits[2]), 1)
    assert out[0] == 300


def test_binary_index_rejects_dirty_padding():
    words = np.array([[1 << 63]], dtype=np.uint64)
    with pytest.raises(InputError):
        BinaryIndex(words, 8)


# ---------------------------------------------------------------------------
# exact scans
# ---------------------------------------------------------------------------


def test_knn_exact_l2_self_query(rng):
    X = rng.normal(size=(20, 4))
    out = knn_exact_l2(X, X[7], 3)
    assert out[0] == 7


def test_knn_exact_l2_duplicate_tie_break(rng):
    X = rng.normal(size=(10, 3))
    X[4] = X[1]
    out = knn_exact_l2(X, X[1], 2)
    assert list(out) == [1, 4]


def test_knn_exact_l2_matches_independent_oracle(rng):
    X = rng.normal(size=(50, 6))
    q = rng.normal(size=6)
    d = [float(np.dot(x - q, x - q)) for x in X]
    oracle = sorted(range(50), key=lambda i: (d[i], i))[:9]
    assert list(knn_exact_l2(X, q, 9)) == oracle


@pytest.mark.parametrize("duplicates", [False, True])
def test_knn_exact_l2_batch_matches_per_query(rng, duplicates):
    X = rng.normal(size=(40, 5))
    if duplicates:
        # rows drawn from 6 distinct points: every distance is tied
        X = X[rng.integers(0, 6, size=40)]
    Q = np.concatenate([rng.normal(size=(5, 5)), X[:3]])
    for k in (0, 1, 10, len(X), len(X) + 5):
        out = knn_exact_l2_batch(X, Q, k)
        assert out.shape == (len(Q), min(k, len(X))) and out.dtype == np.int64
        for row, q in zip(out, Q):
            assert np.array_equal(row, knn_exact_l2(X, q, k))
            d2 = (X * X).sum(axis=1) - 2.0 * (X @ q)
            assert np.array_equal(row, np.lexsort((np.arange(len(X)), d2))[:k])
    assert knn_exact_l2_batch(X, Q[:0], 10).shape == (0, 10)


def test_knn_exact_l2_batch_shape_errors(rng):
    X = rng.normal(size=(6, 3))
    for queries in (X[0], X[:, :2], X[None]):
        with pytest.raises(InputError, match="dimension"):
            knn_exact_l2_batch(X, queries, 2)
    with pytest.raises(InputError, match="dimension"):
        knn_exact_l2_batch(X[0], X[:2], 2)
    with pytest.raises(InputError, match="dimension"):
        knn_exact_l2(X, X[:1], 2)


def test_knn_exact_ip(rng):
    X = rng.normal(size=(30, 5))
    q = rng.normal(size=5)
    scores = X @ q
    oracle = sorted(range(30), key=lambda i: (-scores[i], i))[:6]
    assert list(knn_exact_ip(X, q, 6)) == oracle
    assert len(knn_exact_ip(X, q, 0)) == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_queries_rejected(bad, rng):
    X = rng.normal(size=(12, 4))
    query = X[3].copy()
    query[2] = bad
    params = random_params(rng, 4, 8)
    index, _ = _random_index(rng, 12, 8)
    calls = [
        lambda: knn_exact_l2(X, query, 5),
        lambda: knn_exact_l2_batch(X, np.stack([X[0], query]), 5),
        lambda: knn_exact_ip(X, query, 5),
        lambda: asymmetric_ip_search(index, params, query, 5),
    ]
    for call in calls:
        with pytest.raises(InputError, match="finite"):
            call()


def _select_smallest_float(scores: np.ndarray, k: int) -> np.ndarray:
    """The float top-k that _select_nearest replaced, kept verbatim as the reference."""
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


@pytest.mark.parametrize("kind", ["gaussian", "dyadic", "duplicated", "signed-zero"])
def test_select_nearest_matches_float_reference(kind, rng):
    for N in (0, 1, 7, 50, 300):
        if kind == "gaussian":
            scores = rng.normal(size=N)
        elif kind == "dyadic":
            scores = rng.integers(-3, 4, size=N) / 4.0
        elif kind == "duplicated":
            scores = np.repeat(rng.normal(size=N // 4 + 1), 4)[:N]
        else:
            scores = rng.choice([-0.0, 0.0, -1.5, 2.0], size=N)
        ties = int((scores == np.sort(scores)[N // 2]).sum()) if N else 0
        for n in {0, 1, N // 2 + 1, N // 2 + ties, 10, 100, N, N + 5}:
            got = _select_nearest(scores, n)
            assert np.array_equal(got, _select_smallest_float(scores, n)), (N, n)
            assert got.dtype == np.int64


def test_knn_exact_dimension_check(rng):
    with pytest.raises(InputError):
        knn_exact_l2(rng.normal(size=(5, 3)), rng.normal(size=4), 2)


@pytest.mark.parametrize("search", [knn_exact_l2, knn_exact_ip])
def test_knn_exact_rejects_a_query_that_is_not_one_row(rng, search):
    X = rng.normal(size=(5, 1))
    for query in (np.float64(0.5), np.array(0.5), X[:1]):
        with pytest.raises(InputError, match="query dimension does not match dataset"):
            search(X, query, 2)


# ---------------------------------------------------------------------------
# asymmetric inner-product scoring
# ---------------------------------------------------------------------------


def test_asymmetric_zero_codebook(rng):
    params = random_params(rng, 4, 8)
    params.U[:] = 0.0
    index, _ = _random_index(rng, 12, 8)
    out = asymmetric_ip_search(index, params, rng.normal(size=4), 12)
    assert list(out) == list(range(12))  # all scores zero, ascending ids


def test_asymmetric_single_bit_ranks_by_s(rng):
    params = random_params(rng, 4, 3)
    x = rng.normal(size=4)
    s = params.U.T @ x
    bits = np.eye(3, dtype=bool)
    index = BinaryIndex(pack_bits(bits), 3)
    out = asymmetric_ip_search(index, params, x, 3)
    assert list(out) == sorted(range(3), key=lambda k: (-s[k], k))


@pytest.mark.parametrize("domain", ["zero-one", PLUS_MINUS])
def test_asymmetric_matches_decode_then_dot(domain, rng):
    params = random_params(rng, 5, 10, domain)
    x = rng.normal(size=5)
    bits = rng.random((40, 10)) < 0.5
    index = BinaryIndex(pack_bits(bits), 10)
    scores = [float(x @ decode(params, HashCode.from_bits(b))) for b in bits]
    oracle = sorted(range(40), key=lambda i: (-scores[i], i))
    assert list(asymmetric_ip_search(index, params, x, 40)) == oracle


def test_asymmetric_dimension_checks(rng):
    params = random_params(rng, 5, 8)
    index, _ = _random_index(rng, 10, 12)
    with pytest.raises(InputError):
        asymmetric_ip_search(index, params, rng.normal(size=5), 3)


def _reference_asym_scores(index, code_domain, s):
    """The unblocked scan's scores: one product over the whole unpacked index."""
    values = bits_to_values(unpack_bits(index.codes, index.l), code_domain)
    return values @ s


def _reference_asym_search(index, params, query, n):
    s = params.U.T @ params._point(query)
    scores = _reference_asym_scores(index, params.code_domain, s)
    return index.external_ids(_select_nearest(-scores, n))


def _asym_case(rng, count, l, domain, with_ids):
    params = random_params(rng, 6, l, domain)
    ids = rng.permutation(count) * 3 + 7 if with_ids else None
    index = BinaryIndex(pack_bits(rng.random((count, l)) < 0.5), l, ids=ids)
    return params, index, rng.normal(size=6)


@pytest.mark.parametrize("l", [1, 8, 12, 64, 70, 130])
@pytest.mark.parametrize("domain", ["zero-one", PLUS_MINUS])
@pytest.mark.parametrize("with_ids", [False, True])
def test_asym_blocks_score_bit_for_bit_when_rows_are_a_multiple_of_4(rng, l, domain, with_ids):
    block = _asym_block_rows(l)
    assert block % 4 == 0 and (l > 128 or block >= 1024)
    # three blocks, the last one partial; a multiple of 32 rows, so that an
    # even BLAS split of the reference product over 2, 4 or 8 threads keeps
    # each share a multiple of 4 rows
    count = (2 * block // 32 + 1) * 32
    params, index, x = _asym_case(rng, count, l, domain, with_ids)
    s = params.U.T @ x
    scores = _asym_scores(index, domain, s)
    assert scores.tobytes() == _reference_asym_scores(index, domain, s).tobytes()
    for n in (0, 1, 100, count, count + 5):
        got = asymmetric_ip_search(index, params, x, n)
        assert np.array_equal(got, _reference_asym_search(index, params, x, n)), n


@pytest.mark.parametrize("l", [8, 64, 70])
@pytest.mark.parametrize("domain", ["zero-one", PLUS_MINUS])
def test_asym_index_of_one_block_is_unchanged(rng, l, domain):
    block = _asym_block_rows(l)
    for count in (0, 1, 3, 150, 2001, block - 1, block, block + 3):
        params, index, x = _asym_case(rng, count, l, domain, count % 2 == 1)
        s = params.U.T @ x
        scores = _asym_scores(index, domain, s)
        assert scores.tobytes() == _reference_asym_scores(index, domain, s).tobytes()
        for n in (0, 1, 100, count, count + 5):
            got = asymmetric_ip_search(index, params, x, n)
            assert np.array_equal(got, _reference_asym_search(index, params, x, n)), (count, n)


def _valid_asym_top_n(result, scores, n, eps):
    """The rule of the benchmark's asymmetric check: a top-n valid up to rounding eps.

    No excluded code scores above the cut by more than eps, no two listed
    scores are inverted by more than eps, and exactly equal scores come in
    ascending position order, the smallest positions of the group at the
    cut taken.
    """
    if len(result) != min(n, len(scores)) or len(np.unique(result)) != len(result):
        return False
    inside = scores[result]
    cut = inside.min()
    outside = np.ones(len(scores), dtype=bool)
    outside[result] = False
    if np.any(scores[outside] > cut + eps):
        return False
    at_cut = np.flatnonzero(scores == cut)
    listed_at_cut = np.sort(result[inside == cut])
    if not np.array_equal(listed_at_cut, at_cut[: len(listed_at_cut)]):
        return False
    a, b = inside[:-1], inside[1:]
    return bool(np.where(a == b, result[:-1] < result[1:], a >= b - eps).all())


@pytest.mark.parametrize("l", [12, 64, 70])
@pytest.mark.parametrize("domain", ["zero-one", PLUS_MINUS])
@pytest.mark.parametrize("extra", [1, 3])
def test_asym_blocks_stay_within_rounding_when_rows_are_not_a_multiple_of_4(
    rng, l, domain, extra
):
    count = 3 * _asym_block_rows(l) + extra
    params, index, x = _asym_case(rng, count, l, domain, False)
    s = params.U.T @ x
    scores = _reference_asym_scores(index, domain, s)
    eps = 1e-12 * float(np.abs(s).sum())
    assert np.abs(_asym_scores(index, domain, s) - scores).max() <= eps
    for n in (1, 100, count):
        assert _valid_asym_top_n(asymmetric_ip_search(index, params, x, n), scores, n, eps), n


@pytest.mark.parametrize("domain", ["zero-one", PLUS_MINUS])
def test_asym_search_memory_is_bounded_by_its_block(rng, domain):
    params, index, x = _asym_case(rng, 200_000, 64, domain, False)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        asymmetric_ip_search(index, params, x, 100)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # one block buffer, the scores and the selection's copies; the whole
    # unpacked index would take 110 MB
    assert peak < 16 * 2**20, peak


def test_mips_inequality(rng):
    # |x.y - x.Uh_y| <= ||x|| ||y - Uh_y||
    from genhash.model import encode_map

    params = random_params(rng, 6, 12)
    for _ in range(200):
        x, y = rng.normal(size=6), rng.normal(size=6)
        hy = encode_map(params, y)
        recon = decode(params, hy)
        lhs = abs(float(x @ y) - float(x @ recon))
        rhs = np.linalg.norm(x) * np.linalg.norm(y - recon)
        assert lhs <= rhs + 1e-9
