import hashlib

import numpy as np
import pytest

from genhash.baselines import ItqModel, PcaModel, itq_encode_batch, itq_fit, pca_fit
from genhash.codes import CODE_DOMAINS, HashCode, bits_to_values, n_words, pack_bits, unpack_bits
from genhash.errors import InputError
from genhash.evaluation import (
    DEFAULT_N_GRID,
    mean_recon_error,
    recall_curve,
    recall_k_at_n,
    reconstruction_grid,
    write_pgm,
)
from genhash.model import ModelParams, decode, encode_map, encode_map_batch
from genhash.search import BinaryIndex, knn_hamming

from conftest import checkpoint_model, random_params


# ---------------------------------------------------------------------------
# recall
# ---------------------------------------------------------------------------


def test_recall_definition_arithmetic():
    truth = list(range(10))
    retrieved = [3, 99, 0, 55, 7, 42, 9, 1, 88, 5, 6] + list(range(100, 189))
    # 7 of the first 10 truth ids appear in the top 100 retrieved
    assert recall_k_at_n(retrieved, truth, 10, 100) == 0.7


def test_recall_full_coverage():
    truth = [4, 2, 9]
    retrieved = [9, 4, 2, 1, 0]
    assert recall_k_at_n(retrieved, truth, 3, 5) == 1.0


def test_recall_single_miss():
    assert recall_k_at_n([5], [6], 1, 1) == 0.0


def test_recall_input_validation():
    with pytest.raises(InputError):
        recall_k_at_n([1], [1], 0, 1)
    with pytest.raises(InputError):
        recall_k_at_n([1], [1], 2, 1)


def test_recall_invariant_to_permutation_within_window(rng):
    truth = list(range(10))
    retrieved = np.array(rng.permutation(200))
    base = recall_k_at_n(retrieved, truth, 10, 50)
    shuffled = retrieved.copy()
    shuffled[:50] = rng.permutation(shuffled[:50])
    assert recall_k_at_n(shuffled, truth, 10, 50) == base


def test_recall_smaller_k_not_worse_on_nested_truth(rng):
    # when the retrieved ranking IS the truth ranking and truth sets are
    # nested prefixes, shrinking k can only raise the recall at any N
    ranking = list(rng.permutation(100))
    for n in (3, 5, 20, 60):
        for k_small, k_big in ((1, 5), (5, 20), (10, 50)):
            assert recall_k_at_n(ranking, ranking[:k_big], k_small, n) >= recall_k_at_n(
                ranking, ranking[:k_big], k_big, n
            )


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


def _toy_search_setup(rng, n=200, l=16):
    bits = rng.random((n, l)) < 0.5
    index = BinaryIndex(pack_bits(bits), l)

    def searcher(q, m):
        return knn_hamming(index, q, m)

    queries = [HashCode.from_bits(rng.random(l) < 0.5) for _ in range(7)]
    truth = [rng.permutation(n)[:10] for _ in queries]
    return searcher, queries, truth


def test_recall_curve_monotone_and_clipped(rng):
    searcher, queries, truth = _toy_search_setup(rng)
    report = recall_curve(queries, searcher, truth, k=10)
    assert report.n_grid == tuple(n for n in DEFAULT_N_GRID if n <= 200)
    assert np.all(np.diff(report.curve) >= -1e-12)
    assert np.all((report.per_query >= 0) & (report.per_query <= 1))


def test_recall_curve_single_query_reduces_to_pointwise(rng):
    searcher, queries, truth = _toy_search_setup(rng)
    report = recall_curve(queries[:1], searcher, truth[:1], k=10, n_grid=(5, 50))
    ranked = searcher(queries[0], 50)
    assert report.curve[0] == recall_k_at_n(ranked, truth[0], 10, 5)
    assert report.curve[1] == recall_k_at_n(ranked, truth[0], 10, 50)


def test_recall_curve_total_recall_at_full_index(rng):
    searcher, queries, truth = _toy_search_setup(rng)
    report = recall_curve(queries, searcher, truth, k=10, n_grid=(200,))
    assert np.all(report.curve == 1.0)


def test_recall_curve_matches_hand_aggregation(rng):
    searcher, queries, truth = _toy_search_setup(rng)
    report = recall_curve(queries, searcher, truth, k=10, n_grid=(1, 20, 100))
    for j, n in enumerate((1, 20, 100)):
        vals = [recall_k_at_n(searcher(q, 100), t, 10, n) for q, t in zip(queries, truth)]
        assert report.curve[j] == pytest.approx(np.mean(vals), abs=1e-15)


def test_recall_curve_csv(tmp_path, rng):
    searcher, queries, truth = _toy_search_setup(rng)
    report = recall_curve(
        queries, searcher, truth, k=10, n_grid=(1, 10), config={"method": "toy", "bits": 16}
    )
    path = tmp_path / "recall.csv"
    report.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "method,bits,K,N,recall"
    assert lines[1].startswith("toy,16,10,1,")
    assert len(lines) == 3


def test_recall_curve_requires_matching_truth(rng):
    searcher, queries, truth = _toy_search_setup(rng)
    with pytest.raises(InputError):
        recall_curve(queries, searcher, truth[:-1], k=10)


# ---------------------------------------------------------------------------
# reconstruction error
# ---------------------------------------------------------------------------


def test_mean_recon_error_perfect_autoencoder():
    # codes reproduce the two data points exactly
    U = np.array([[1.0, 0.0], [0.0, 2.0]])
    W = np.array([[10.0, -10.0], [-10.0, 10.0]])
    params = ModelParams(W, U, np.zeros(2), 0.0)
    X = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert mean_recon_error(params, X) < 1e-20


def test_mean_recon_error_zero_codebook(rng):
    params = random_params(rng, 4, 6)
    params.U[:] = 0.0
    X = rng.normal(size=(30, 4))
    assert mean_recon_error(params, X) == pytest.approx((X * X).sum(axis=1).mean())


def test_mean_recon_error_matches_per_item_oracle(rng):
    params = random_params(rng, 5, 7)
    X = rng.normal(size=(20, 5))
    per_item = []
    for x in X:
        recon = decode(params, encode_map(params, x))
        per_item.append(float(((x - recon) ** 2).sum()))
    assert mean_recon_error(params, X) == pytest.approx(np.mean(per_item))


def test_mean_recon_error_baseline_models(rng):
    X = rng.normal(size=(100, 6))
    itq = itq_fit(X, 4, iterations=20)
    err_itq = mean_recon_error(itq, X)
    assert err_itq > 0
    pca = PcaModel(*pca_fit(X, 6))
    assert mean_recon_error(pca, X) < 1e-20  # full-rank projection is lossless


@pytest.mark.parametrize("kind", ["SGH", "ITQ", "PCA"])
def test_mean_recon_error_rejects_wrong_width(rng, kind):
    model = checkpoint_model(kind, rng)
    with pytest.raises(InputError):
        mean_recon_error(model, rng.normal(size=(10, model.d - 1)))
    with pytest.raises(InputError):
        model.reconstruct_batch(rng.normal(size=model.d))


# ---------------------------------------------------------------------------
# the hasher surface shared by SGH, ITQ and PCA
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["SGH", "ITQ", "PCA"])
def test_hasher_surface_contract(rng, kind):
    model = checkpoint_model(kind, rng)
    d, l = model.d, model.l
    X = rng.normal(size=(7, d))
    for rows in (X, X[:0]):
        recon = model.reconstruct_batch(rows)
        assert recon.shape == rows.shape and recon.dtype == np.float64
        if kind == "PCA":
            with pytest.raises(InputError):
                model.encode_batch(rows)
        else:
            codes = model.encode_batch(rows)
            assert codes.shape == (len(rows), n_words(l)) and codes.dtype == np.uint64
    templates = model.templates()
    assert templates.shape == (l, d) and templates.dtype == np.float64


# Reconstruction and templates as dispatched before the shared surface, kept
# verbatim as the bitwise reference.


def _reconstruct_batch(model, X) -> np.ndarray:
    """encode-then-decode each row of X under the given model kind."""
    X = np.asarray(getattr(X, "rows", X), dtype=np.float64)
    if isinstance(model, ModelParams):
        bits = unpack_bits(encode_map_batch(model, X), model.l)
        return bits_to_values(bits, model.code_domain) @ model.U.T
    if isinstance(model, ItqModel):
        bits = unpack_bits(itq_encode_batch(model, X), model.l)
        signs = 2.0 * bits - 1.0
        return model.mean + (signs * model.scale) @ model.R.T @ model.W_pca.T
    if isinstance(model, PcaModel):
        c = X - model.mean
        return model.mean + c @ model.W_pca @ model.W_pca.T
    raise InputError(f"cannot reconstruct with model of type {type(model).__name__}")


def _reference_templates(params):
    if isinstance(params, ModelParams):
        templates = params.U.T
    elif isinstance(params, ItqModel):
        templates = model_template_columns(params)
    elif isinstance(params, PcaModel):
        templates = params.W_pca.T
    else:
        raise InputError(f"cannot render templates for {type(params).__name__}")
    return templates


def model_template_columns(model: ItqModel) -> np.ndarray:
    """Per-bit input-space directions of the rotated projection."""
    return (model.W_pca @ model.R).T


def test_reconstruction_and_templates_bitwise_equal_reference(rng):
    models = [random_params(rng, d, l, domain) for domain in CODE_DOMAINS
              for d, l in ((6, 5), (16, 70))]
    for d, l in ((6, 4), (9, 9)):
        models.append(itq_fit(rng.normal(size=(80, d)), l, iterations=5))
        models.append(PcaModel(*pca_fit(rng.normal(size=(50, d)), l)))
    for model in models:
        X = rng.normal(size=(40, model.d)) * 3.0
        assert np.array_equal(model.reconstruct_batch(X), _reconstruct_batch(model, X))
        assert np.array_equal(model.templates(), _reference_templates(model))
        assert mean_recon_error(model, X) == float(
            ((X - _reconstruct_batch(model, X)) ** 2).sum(axis=1).mean()
        )


# ---------------------------------------------------------------------------
# image grids
# ---------------------------------------------------------------------------


def test_reconstruction_grid_constant_image(rng):
    params = random_params(rng, 9, 4)
    samples = np.full((2, 9), 3.5)
    grid = reconstruction_grid(params, samples, (3, 3))
    assert np.all(grid[0:3, 0:3] == 128)  # constant tile maps to mid gray


def test_reconstruction_grid_template_row_is_normalized_column(rng):
    params = random_params(rng, 9, 4)
    samples = rng.normal(size=(4, 9))
    grid = reconstruction_grid(params, samples, (3, 3))
    col = params.U[:, 0].reshape(3, 3)
    expected = ((col - col.min()) / (col.max() - col.min()) * 255).astype(np.uint8)
    assert np.array_equal(grid[6:9, 0:3], expected)


def test_reconstruction_grid_shape_checks(rng):
    params = random_params(rng, 9, 4)
    with pytest.raises(InputError):
        reconstruction_grid(params, np.zeros((2, 9)), (2, 3))
    with pytest.raises(InputError):
        reconstruction_grid(params, np.zeros((2, 9)), (-3, -3))


def test_reconstruction_grid_golden_hash():
    rng = np.random.default_rng(31415)
    params = random_params(rng, 16, 8)
    samples = rng.normal(size=(4, 16))
    grid = reconstruction_grid(params, samples, (4, 4))
    digest = hashlib.sha256(grid.tobytes()).hexdigest()
    assert grid.shape == (4 * 4, 4 * 4)
    # frozen from the first verified run; guards byte-level determinism
    assert digest == "807cd14f05c6e39de89904d78388ad38555a1610a2d1a3529dc87828165fc4b7"


def test_write_pgm(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n4 3\n255\n")
    assert raw[len(b"P5\n4 3\n255\n"):] == img.tobytes()
