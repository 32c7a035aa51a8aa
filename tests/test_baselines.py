import numpy as np
import pytest

from genhash.baselines import (
    PcaModel,
    itq_encode,
    itq_encode_batch,
    itq_fit,
    itq_reconstruct,
    pca_fit,
    pca_reconstruct,
)
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
    from genhash.data_io import synth_mixture

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


@pytest.mark.filterwarnings("ignore:covariance rank")
@pytest.mark.parametrize("rotation_seed", [None, 3])
@pytest.mark.parametrize("rank_deficient", [False, True])
def test_itq_fit_bitwise_equals_reference(rng, rotation_seed, rank_deficient):
    X = rng.normal(size=(300, 8))
    if rank_deficient:
        X = X[:, :3] @ rng.normal(size=(3, 8))
    for iterations in (0, 1, 20):
        model = itq_fit(X, 5, iterations, rotation_seed)
        assert model.rank_ok != rank_deficient
        R, losses, scale = _reference_itq_fit(X, 5, iterations, rotation_seed)
        assert np.array_equal(model.R, R)
        assert np.array_equal(model.quant_losses, losses)
        assert np.array_equal(model.scale, scale)


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


def test_itq_requires_l_at_most_d(rng):
    with pytest.raises(InputError):
        itq_fit(rng.normal(size=(20, 3)), 4)
