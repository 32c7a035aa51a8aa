import numpy as np
import pytest

from genhash.codes import PLUS_MINUS, HashCode, pack_bits
from genhash.errors import InputError
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


@pytest.mark.parametrize("l", [8, 64, 70, 130])
@pytest.mark.parametrize("kind", ["random", "six-patterns", "identical"])
@pytest.mark.parametrize("with_ids", [False, True])
def test_knn_hamming_matches_composite_key_reference(rng, l, kind, with_ids):
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
        sizes = {0, 1, tie_group, int(np.sum(dist < cut)) + 1, count, count + 5}
        for n in sorted(sizes):
            expected = _composite_key_knn(index, query, n)
            got = knn_hamming(index, query, n)
            assert np.array_equal(got, expected), (n, tie_group)
    batch = knn_hamming_batch(index, queries, tie_group)
    for words, row in zip(queries, batch):
        assert np.array_equal(row, _composite_key_knn(index, HashCode(words, l), tie_group))


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


def test_knn_exact_dimension_check(rng):
    with pytest.raises(InputError):
        knn_exact_l2(rng.normal(size=(5, 3)), rng.normal(size=4), 2)


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
