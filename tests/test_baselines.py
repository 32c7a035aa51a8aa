import tracemalloc
import warnings

import numpy as np
import pytest

from genhash.baselines import (
    ItqModel,
    PcaModel,
    itq_encode,
    itq_encode_batch,
    itq_fit,
    itq_project,
    itq_reconstruct,
    pca_fit,
    pca_reconstruct,
)
from genhash.codes import HashCode
from genhash.data_io import synth_mixture
from genhash.errors import InputError


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------


def test_pca_first_component_on_a_line(rng):
    t = rng.normal(size=100)
    X = np.stack([t, t], axis=1) + 1e-9 * rng.normal(size=(100, 2))
    mean, W = pca_fit(X, 1)
    assert np.allclose(np.abs(W[:, 0]), 1 / np.sqrt(2), atol=1e-6)
    assert W[0, 0] > 0  # sign convention: largest-magnitude entry positive


def test_pca_orthonormal_on_isotropic_data(rng):
    X = rng.normal(size=(500, 6))
    mean, W = pca_fit(X, 6)
    assert np.max(np.abs(W.T @ W - np.eye(6))) < 1e-8


def test_pca_matches_eigendecomposition_oracle(rng):
    X = rng.normal(size=(50, 8)) @ rng.normal(size=(8, 8))
    mean, W = pca_fit(X, 4)
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / (len(X) - 1)
    eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    proj_var = np.var(centered @ W, axis=0, ddof=1)
    assert np.max(np.abs(proj_var - eigvals[:4])) < 1e-8


def test_pca_rank_deficient_warns(rng):
    base = rng.normal(size=(40, 2))
    X = base @ rng.normal(size=(2, 5))  # rank 2 in 5 dims
    with pytest.warns(UserWarning, match="rank"):
        mean, W = pca_fit(X, 4)
    assert W.shape[1] == 2


def test_pca_reconstruct(rng):
    X = rng.normal(size=(60, 5))
    mean, W = pca_fit(X, 3)
    model = PcaModel(mean, W)
    assert np.allclose(pca_reconstruct(model, mean), mean)
    x_in_span = mean + W @ rng.normal(size=3)
    assert np.allclose(pca_reconstruct(model, x_in_span), x_in_span, atol=1e-10)
    # random point: naive loop oracle
    x = rng.normal(size=5)
    c = x - mean
    proj = np.zeros(5)
    for k in range(3):
        coef = sum(W[i, k] * c[i] for i in range(5))
        proj += coef * W[:, k]
    assert np.allclose(pca_reconstruct(model, x), mean + proj, atol=1e-12)


# ---------------------------------------------------------------------------
# rotation-refined quantizer
# ---------------------------------------------------------------------------


def test_itq_zero_iterations_identity_rotation(rng):
    X = rng.normal(size=(80, 6))
    model = itq_fit(X, 4, iterations=0)
    assert np.array_equal(model.R, np.eye(4))
    assert model.quant_losses == []


def test_itq_rotation_stays_orthogonal(rng):
    X = rng.normal(size=(200, 8))
    model = itq_fit(X, 5, iterations=50)
    assert np.max(np.abs(model.R.T @ model.R - np.eye(5))) < 1e-8


@pytest.mark.parametrize("seed", range(10))
def test_itq_loss_non_increasing(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(150, 6)) @ rng.normal(size=(6, 6))
    model = itq_fit(X, 4, iterations=50)
    losses = model.quant_losses
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_itq_one_dim_closed_form(rng):
    X = rng.normal(size=(100, 3))
    model = itq_fit(X, 1, iterations=20)
    assert model.R.shape == (1, 1)
    assert abs(abs(model.R[0, 0]) - 1.0) < 1e-12
    v = (X - model.mean) @ model.W_pca
    expected = float(((np.sign(v * model.R[0, 0]) - v * model.R[0, 0]) ** 2).sum())
    # 1-D closed form: sum (|v_i| - 1)^2 regardless of the sign of R
    closed = float(((np.abs(v) - 1.0) ** 2).sum())
    assert abs(model.quant_losses[-1] - closed) < 1e-9
    assert abs(expected - closed) < 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_itq_two_dim_beats_grid_search(seed):
    # clustered data keeps the 2-D quantization landscape single-basin, so the
    # alternation attains the exhaustive-rotation optimum (alternation from a
    # flat-Gaussian start can stall in a local basin; that is inherent to the
    # single-start algorithm, not an implementation defect)
    X = synth_mixture(200, 6, 5, 1.0, seed).rows
    model = itq_fit(X, 2, iterations=50)
    V = (X - model.mean) @ model.W_pca
    best = np.inf
    for deg in np.arange(0.0, 360.0, 0.1):
        a = np.deg2rad(deg)
        R = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        VR = V @ R
        B = np.where(VR >= 0, 1.0, -1.0)
        best = min(best, float(((B - VR) ** 2).sum()))
    assert model.quant_losses[-1] <= best + 1e-6


def _reference_itq_fit(X, l, iterations, rotation_seed=None):
    """itq_fit's alternation as written before V @ R was reused: (R, losses, scale)."""
    mean, W_pca = pca_fit(X, l)
    rank = W_pca.shape[1]
    V = (X - mean) @ W_pca
    if rotation_seed is None:
        R = np.eye(rank)
    else:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(rotation_seed)))
        q, r = np.linalg.qr(rng.normal(size=(rank, rank)))
        R = q * np.sign(np.diag(r))

    losses = []
    for _ in range(iterations):
        VR = V @ R
        B = np.where(VR >= 0.0, 1.0, -1.0)
        s_hat, _, s_t = np.linalg.svd(B.T @ V)
        R = s_t.T @ s_hat.T
        losses.append(float(((B - V @ R) ** 2).sum()))

    VR = V @ R
    scale = np.abs(VR).mean(axis=0)
    return R, losses, scale


def _itq_case(rng, case):
    """(X, l) of one oracle case of itq_fit."""
    if case == "rows at the mean":
        # integer columns with zero sums and zero dot products: the mean is
        # exactly 7, the covariance diagonal and W_pca the identity, so rows
        # at the mean in some or all coordinates project to exactly +-0.0
        # there. Under the identity start those count as sign +1, and the
        # rows with some nonzero coordinates carry that sign into B^T V.
        pattern = np.array([[1, 1, 0], [1, -1, 0], [-1, 0, 1], [-1, 0, -1]], dtype=np.float64)
        X = np.concatenate([pattern * [3.0, 2.0, 1.0], pattern * [6.0, 4.0, 2.0], np.zeros((3, 3))])
        X += 7.0
        V = (X - X.mean(axis=0)) @ pca_fit(X, 3)[1]
        assert (V == 0.0).sum() == 17 and (V == 0.0).all(axis=1).sum() == 3
        return X, 3
    if case == "5003x16":
        return rng.normal(size=(5003, 16)) @ rng.normal(size=(16, 16)), 16
    X = rng.normal(size=(300, 8))
    if case == "rank-deficient":
        X = X[:, :3] @ rng.normal(size=(3, 8))
    return X, 5


@pytest.mark.filterwarnings("ignore:covariance rank")
@pytest.mark.parametrize("rotation_seed", [None, 3])
@pytest.mark.parametrize("case", ["full-rank", "rank-deficient", "rows at the mean", "5003x16"])
def test_itq_fit_bitwise_equals_reference(rng, rotation_seed, case):
    X, l = _itq_case(rng, case)
    for iterations in (0, 1, 20):
        model = itq_fit(X, l, iterations, rotation_seed)
        assert model.rank_ok == (case != "rank-deficient")
        R, losses, scale = _reference_itq_fit(X, l, iterations, rotation_seed)
        assert np.array_equal(model.R, R)
        assert np.array_equal(model.quant_losses, losses)
        assert np.array_equal(model.scale, scale)


def test_itq_fit_memory_is_a_small_multiple_of_its_projections(rng):
    n, l = 100_000, 16
    X = rng.normal(size=(n, l))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        itq_fit(X, l, iterations=2)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # V, one float64 work buffer and two one-byte arrays take 2.25 N l 8
    # bytes; holding B, V R and the loss terms as separate arrays took 4.1
    assert peak < 2.5 * n * l * 8, peak / (n * l * 8)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e200 column"])
def test_itq_and_pca_reject_non_finite_rows_without_warnings(bad):
    rows = synth_mixture(200, 6, 2, 1.0, 3).rows
    if bad == "1e200 column":
        rows[:, 2] *= 1e200  # finite, but the covariance overflows
    else:
        rows[17, 2] = float(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fit in (pca_fit, itq_fit):
            with pytest.raises(InputError, match="^dataset column 2 has a non-finite"):
                fit(rows, 4)


def test_pca_rank_warning_names_the_count_it_returns():
    with pytest.warns(UserWarning, match="covariance rank 0 below requested 3 components; returning 1"):
        mean, W = pca_fit(np.ones((10, 4)), 3)
    assert W.shape == (4, 1)


def test_itq_random_rotation_option(rng):
    X = rng.normal(size=(100, 5))
    m1 = itq_fit(X, 3, iterations=0, rotation_seed=7)
    m2 = itq_fit(X, 3, iterations=0, rotation_seed=7)
    assert np.array_equal(m1.R, m2.R)
    assert not np.allclose(m1.R, np.eye(3))
    assert np.max(np.abs(m1.R.T @ m1.R - np.eye(3))) < 1e-10


# ---------------------------------------------------------------------------
# encoding and reconstruction
# ---------------------------------------------------------------------------


def test_itq_encode_thresholds(rng):
    X = rng.normal(size=(100, 6))
    model = itq_fit(X, 4, iterations=10)
    x = rng.normal(size=6)
    proj = (x - model.mean) @ model.W_pca @ model.R
    assert np.array_equal(itq_encode(model, x).to_bits(), proj >= 0)


def test_itq_encode_batch_matches_single(rng):
    X = rng.normal(size=(50, 5))
    model = itq_fit(X, 3, iterations=5)
    packed = itq_encode_batch(model, X)
    for i in range(50):
        assert np.array_equal(packed[i], itq_encode(model, X[i]).words)


def test_itq_encode_matches_matrix_product_oracle(rng):
    X = rng.normal(size=(40, 5))
    model = itq_fit(X, 3, iterations=5)
    x = rng.normal(size=5)
    proj = np.zeros(3)
    c = x - model.mean
    M = model.W_pca @ model.R
    for k in range(3):
        proj[k] = sum(c[i] * M[i, k] for i in range(5))
    assert np.array_equal(itq_encode(model, x).to_bits(), proj >= 0)


def test_itq_reconstruct_round_trip_scale(rng):
    X = rng.normal(size=(300, 4))
    model = itq_fit(X, 4, iterations=30)
    h = itq_encode(model, X[0])
    recon = itq_reconstruct(model, h)
    assert recon.shape == (4,)
    # reconstruction is mean + W R (scale * signs)
    signs = 2.0 * h.to_bits() - 1.0
    manual = model.mean + model.W_pca @ (model.R @ (model.scale * signs))
    assert np.allclose(recon, manual)


# The per-sample functions as they were before they wrapped the batch code,
# kept verbatim as the reference.


def _reference_itq_project(model: ItqModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.mean.shape[0],):
        raise InputError(f"data point has shape {x.shape}, expected {model.mean.shape}")
    return (x - model.mean) @ model.W_pca @ model.R


def _reference_itq_encode(model: ItqModel, x) -> HashCode:
    return HashCode.from_bits(_reference_itq_project(model, x) >= 0.0)


def _reference_itq_reconstruct(model: ItqModel, h: HashCode) -> np.ndarray:
    if h.l != model.l:
        raise InputError(f"code length {h.l} != model bits {model.l}")
    signs = 2.0 * h.to_bits() - 1.0
    return model.mean + model.W_pca @ (model.R @ (model.scale * signs))


def _reference_pca_reconstruct(model: PcaModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.mean.shape[0],):
        raise InputError(f"data point has shape {x.shape}, expected {model.mean.shape}")
    c = x - model.mean
    return model.mean + model.W_pca @ (model.W_pca.T @ c)


def test_per_sample_functions_match_reference(rng):
    # projection and sign code are the same expressions: bitwise. The
    # reconstructions associate the products differently (row vector times
    # transposed matrices instead of matrix times column vector), so they
    # are held to 1e-13 of the output scale; this BLAS gave equal bits.
    for _ in range(100):
        d = int(rng.integers(2, 20))
        l = int(rng.integers(1, d + 1))
        X = rng.normal(size=(60, d)) * rng.random(d) * 3.0
        model = itq_fit(X, l, iterations=5, rotation_seed=int(rng.integers(2)) or None)
        pca = PcaModel(model.mean, model.W_pca)
        x = rng.normal(size=d) * 3.0
        assert np.array_equal(itq_project(model, x), _reference_itq_project(model, x))
        h = itq_encode(model, x)
        assert h == _reference_itq_encode(model, x)
        for got, ref in (
            (itq_reconstruct(model, h), _reference_itq_reconstruct(model, h)),
            (pca_reconstruct(pca, x), _reference_pca_reconstruct(pca, x)),
        ):
            assert got.shape == ref.shape == (d,)
            assert np.all(np.abs(got - ref) <= 1e-13 * (np.abs(ref).max() + 1.0))
    for bad in (np.zeros(d + 1), np.zeros((1, d))):
        for call in (itq_project, itq_encode):
            with pytest.raises(InputError):
                call(model, bad)
        with pytest.raises(InputError):
            pca_reconstruct(pca, bad)
    with pytest.raises(InputError):
        itq_reconstruct(model, HashCode.from_bits(np.ones(l + 1, dtype=bool)))


def test_itq_requires_l_at_most_d(rng):
    with pytest.raises(InputError):
        itq_fit(rng.normal(size=(20, 3)), 4)


def test_itq_fit_rejects_negative_iterations(rng):
    with pytest.raises(InputError, match="iterations must be >= 0"):
        itq_fit(rng.normal(size=(20, 3)), 2, iterations=-1)
