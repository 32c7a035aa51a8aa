import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import genhash
from genhash import model as model_module
from genhash.baselines import ItqModel, itq_encode_batch
from genhash.codes import PLUS_MINUS, ZERO_ONE, HashCode, bits_to_values
from genhash.errors import CapabilityError, InputError
from genhash.model import (
    ModelParams,
    PROB_CLAMP,
    block_rows,
    code_log_q,
    decode,
    encode_logits,
    encode_map,
    encode_map_batch,
    encode_probs,
    encode_sample,
    enumerate_codes,
    exact_objective,
    log_marginal,
    loss,
    loss_bits,
    row_blocks,
    sign_bits,
    sign_words,
    softplus,
    stochastic_neuron,
)

from conftest import padded_pack_bits, random_params


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------


def test_encode_logits_direct():
    params = ModelParams(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros((2, 2)), np.zeros(2), 0.0)
    z = encode_logits(params, [0.5, 0.5])
    assert np.allclose(z, [0.5, -0.5])


def test_encode_logits_zero_matrix(rng):
    params = ModelParams(np.zeros((4, 3)), np.zeros((4, 3)), np.zeros(3), 0.0)
    assert np.array_equal(encode_logits(params, rng.normal(size=4)), np.zeros(3))


def test_encode_logits_matches_naive_loops(rng):
    params = random_params(rng, 5, 3)
    x = rng.normal(size=5)
    naive = np.zeros(3)
    for k in range(3):
        for i in range(5):
            naive[k] += params.W[i, k] * x[i]
    assert np.max(np.abs(encode_logits(params, x) - naive)) < 1e-12


def test_encode_logits_dimension_mismatch(rng):
    params = random_params(rng, 5, 3)
    with pytest.raises(InputError):
        encode_logits(params, np.zeros(4))


def test_encode_probs_values():
    params = ModelParams(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(3), 0.0)
    assert np.allclose(encode_probs(params, [1.0, 2.0]), 0.5)
    params_ln3 = ModelParams(np.full((1, 1), math.log(3.0)), np.zeros((1, 1)), np.zeros(1), 0.0)
    assert np.allclose(encode_probs(params_ln3, [1.0]), 0.75)


def test_encode_probs_clamped_at_saturation():
    params = ModelParams(np.full((1, 1), 100.0), np.zeros((1, 1)), np.zeros(1), 0.0)
    p = encode_probs(params, [1.0])
    assert p[0] == 1.0 - PROB_CLAMP
    p_low = encode_probs(params, [-1.0])
    assert p_low[0] == PROB_CLAMP


def test_encode_map_thresholds():
    params = ModelParams(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros((2, 2)), np.zeros(2), 0.0)
    assert np.array_equal(encode_map(params, [0.5, 0.5]).to_bits(), [True, False])


def test_encode_map_sign_zero_is_one(rng):
    params = ModelParams(np.zeros((3, 4)), np.zeros((3, 4)), np.zeros(4), 0.0)
    assert np.array_equal(encode_map(params, rng.normal(size=3)).to_bits(), np.ones(4, bool))


@pytest.mark.parametrize("domain", [ZERO_ONE, PLUS_MINUS])
@pytest.mark.parametrize("l", [1, 4, 8, 12])
def test_encode_map_is_argmax_of_posterior(domain, l, rng):
    params = random_params(rng, 5, l, domain)
    x = rng.normal(size=5)
    bits = enumerate_codes(l)
    best = bits[np.argmax(code_log_q(params, x, bits))]
    assert np.array_equal(encode_map(params, x).to_bits(), best)


def test_encode_map_batch_matches_single(rng):
    params = random_params(rng, 6, 9)
    X = rng.normal(size=(11, 6))
    packed = encode_map_batch(params, X)
    for i, x in enumerate(X):
        assert np.array_equal(packed[i], encode_map(params, x).words)


def test_row_blocks_are_nearly_equal_and_never_short():
    assert block_rows(64) == 2048
    for l in (1, 12, 64, 130, 4096):
        block = block_rows(l)
        assert block % 4 == 0
        for n in (0, 1, 3, 4, 5, block - 1, block, block + 3, 2 * block - 1, 2 * block,
                  3 * block + 1, 5 * block + 4 * 7 + 3, 100_003):
            blocks = row_blocks(n, block)
            sizes = [b - a for a, b in blocks]
            assert blocks[0][0] == 0 and blocks[-1][1] == n
            assert all(b == c for (_, b), (c, _) in zip(blocks, blocks[1:]))
            assert len(blocks) == max(1, n // 4 // (block // 4))
            assert all(size % 4 == 0 for size in sizes[:-1]) and sizes[-1] % 4 == n % 4
            if len(blocks) > 1:
                assert block <= min(sizes) and max(sizes) < 2 * block
                assert max(sizes) - min(sizes) <= 4 + n % 4


def test_sign_bits_is_project_ge_zero_across_blocks(rng):
    l = 8
    X = rng.choice([-0.0, 0.0, 5e-324, -5e-324, 1.0, -np.inf, np.inf], size=(3 * block_rows(l) + 1, l))
    bits = sign_bits(lambda rows: rows, X, l)
    assert bits.dtype == bool and np.array_equal(bits, X >= 0.0)
    assert bits[X == 0.0].all()  # sign(+-0) = +1
    assert sign_bits(lambda rows: rows, X[:0], l).shape == (0, l)
    words = sign_words(lambda rows: rows, X, l)
    assert words.dtype == np.uint64 and np.array_equal(words, padded_pack_bits(X >= 0.0))
    assert sign_words(lambda rows: rows, X[:0], l).shape == (0, 1)


def _sign_encoders(kind, rng, d, l):
    """An SGH or ITQ model, its batch encoder, and its projection as one
    product over all rows: the encoders' reference before row blocks."""
    if kind == "SGH":
        params = random_params(rng, d, l)
        return params, encode_map_batch, lambda X: X @ params.W
    itq = ItqModel(rng.normal(size=d), rng.normal(size=(d, l)), rng.normal(size=(l, l)), 0)
    return itq, itq_encode_batch, itq._project


# at the real block size, l=1 and d=128 would take a 400 MB matrix for
# 3 blocks, so that pair runs with 64 KB blocks; the 4 KB blocks go down
# to 4 rows at l=130
@pytest.mark.parametrize("block_bytes", [None, 1 << 12])
@pytest.mark.parametrize("kind", ["SGH", "ITQ"])
@pytest.mark.parametrize("d", [1, 9, 128])
@pytest.mark.parametrize("l", [1, 8, 12, 64, 70, 130])
def test_row_blocked_encoders_equal_the_whole_product(monkeypatch, rng, block_bytes, kind, d, l):
    if block_bytes is None and (l, d) == (1, 128):
        block_bytes = 1 << 16
    if block_bytes is not None:
        monkeypatch.setattr(model_module, "BLOCK_BYTES", block_bytes)
    block = block_rows(l)
    counts = (0, 1, 2, 3, 4, 5, block - 1, block, block + 1, block + 3, block + 4,
              2 * block - 1, 2 * block, 2 * block + 4, 3 * block + 1)
    model, encode, project = _sign_encoders(kind, rng, d, l)
    X = rng.normal(size=(max(counts), d))
    # rows whose projections are all exactly +-0.0, at block edges: rows of
    # +0.0 and -0.0 for SGH, rows equal to the mean for ITQ
    for i, row in enumerate((0, block - 1, block, 2 * block + 3, len(X) - 1)):
        X[row] = model.mean if kind == "ITQ" else np.zeros(d) * (-1) ** i
    for n in counts:
        words = encode(model, X[:n])
        assert words.shape == (n, -(-l // 64))
        assert np.array_equal(words, padded_pack_bits(project(X[:n]) >= 0.0)), n
        # the blocks' projections keep the bytes of the whole product, so no
        # sign can move; at l = 1 the product is a dgemv, which OpenBLAS
        # splits at half its rows over 2 threads, and each call has its own half
        if l > 1:
            blocks = []
            sign_bits(lambda rows: blocks.append(project(rows)) or blocks[-1], X[:n], l)
            assert np.concatenate(blocks).tobytes() == project(X[:n]).tobytes(), n
    assert (padded_pack_bits(np.ones(l)) == encode(model, X[:1])).all()


_ENCODE_DIGEST = """
import hashlib
import numpy as np
from genhash.baselines import ItqModel, itq_encode_batch
from genhash.model import ModelParams, block_rows, encode_map_batch
rng = np.random.default_rng(8)
digest = hashlib.sha256()
for l, d in ((8, 128), (12, 9), (64, 32), (70, 128), (130, 16)):
    X = rng.normal(size=(3 * block_rows(l) + 1, d))
    W = rng.normal(size=(d, l))
    itq = ItqModel(rng.normal(size=d), W, rng.normal(size=(l, l)), 0)
    digest.update(encode_map_batch(ModelParams(W, W, np.zeros(l), 0.0), X).tobytes())
    digest.update(itq_encode_batch(itq, X).tobytes())
print(digest.hexdigest())
"""


def test_encoders_give_the_same_bytes_under_1_and_2_blas_threads():
    # l = 1 is left out: see test_row_blocked_encoders_equal_the_whole_product
    src = str(Path(genhash.__file__).parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", _ENCODE_DIGEST], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        digests.append(done.stdout)
    assert len(digests[0]) == 65 and digests[0] == digests[1]


# SGH holds one block of projections and its bools; ITQ's projection chains
# two products, (X - mean) W_pca and then R, so two ~1 MB blocks coexist
@pytest.mark.parametrize("kind, block_mib", [("SGH", 2), ("ITQ", 3)])
def test_encoder_memory_is_the_words_and_one_block(rng, kind, block_mib):
    model, encode, _ = _sign_encoders(kind, rng, 64, 64)
    X = rng.normal(size=(200_000, 64))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        words = encode(model, X)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the (N, l) bools packed at the end would take 12.2 MiB more
    assert peak < words.nbytes + block_mib * 2**20, (peak - words.nbytes) / 2**20


# ---------------------------------------------------------------------------
# stochastic neuron and sampling
# ---------------------------------------------------------------------------


def test_stochastic_neuron_threshold():
    assert stochastic_neuron(0.7, 0.5) == 1
    assert stochastic_neuron(0.3, 0.5) == 0
    assert stochastic_neuron(0.5, 0.5) == 1  # p >= xi


def test_stochastic_neuron_input_validation():
    with pytest.raises(InputError):
        stochastic_neuron(0.0, 0.5)
    with pytest.raises(InputError):
        stochastic_neuron(1.0, 0.5)
    with pytest.raises(InputError):
        stochastic_neuron(0.5, 1.0)
    with pytest.raises(InputError):
        stochastic_neuron(0.5, -0.1)


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_stochastic_neuron_law(p):
    # empirical mean over 1e5 seeded draws within 3 binomial standard deviations
    rng = np.random.default_rng(2718)
    draws = rng.random(100_000)
    mean = np.mean([stochastic_neuron(p, xi) for xi in draws])
    tol = 3.0 * math.sqrt(p * (1.0 - p) / 100_000)
    assert abs(mean - p) < tol


def test_encode_sample_boundaries(rng):
    params = random_params(rng, 4, 6)
    x = rng.normal(size=4)
    all_on = encode_sample(params, x, np.zeros(6))
    assert np.all(all_on.to_bits())
    # with probabilities <= 0.5 (clamped below 1), xi near 1 turns every bit off
    params_neg = ModelParams(np.zeros((4, 6)), params.U, params.beta, 0.0)
    all_off = encode_sample(params_neg, x, np.full(6, 1.0 - 1e-12))
    assert not np.any(all_off.to_bits())


def test_encode_sample_deterministic_given_xi(rng):
    params = random_params(rng, 4, 6)
    x = rng.normal(size=4)
    xi = np.random.default_rng(5).random(6)
    assert encode_sample(params, x, xi) == encode_sample(params, x, xi)
    with pytest.raises(InputError):
        encode_sample(params, x, np.zeros(5))


# ---------------------------------------------------------------------------
# decoder and loss
# ---------------------------------------------------------------------------


def test_decode_selects_columns():
    U = np.array([[1.0, 2.0], [3.0, 4.0]])
    params = ModelParams(np.zeros((2, 2)), U, np.zeros(2), 0.0)
    assert np.allclose(decode(params, HashCode.from_bits([1, 0])), [1.0, 3.0])
    assert np.allclose(decode(params, HashCode.from_bits([0, 0])), [0.0, 0.0])


def test_decode_plus_minus_signed_sum():
    U = np.array([[1.0, 2.0], [3.0, 4.0]])
    params = ModelParams(np.zeros((2, 2)), U, np.zeros(2), 0.0, PLUS_MINUS)
    assert np.allclose(decode(params, HashCode.from_bits([1, 0])), [-1.0, -1.0])


def test_decode_linear_on_disjoint_supports(rng):
    params = random_params(rng, 6, 8)
    h1 = HashCode.from_bits([1, 1, 0, 0, 0, 0, 0, 0])
    h2 = HashCode.from_bits([0, 0, 1, 0, 1, 0, 0, 0])
    union = HashCode.from_bits([1, 1, 1, 0, 1, 0, 0, 0])
    assert np.allclose(decode(params, h1) + decode(params, h2), decode(params, union))


def test_loss_degenerate_all_zero():
    params = ModelParams(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), 0.0)
    for bits in ([0, 0], [1, 0], [1, 1]):
        assert abs(loss(params, HashCode.from_bits(bits), np.zeros(2)) - math.log(2 * math.pi)) < 1e-12


def test_loss_perfect_reconstruction(rng):
    d, l = 5, 3
    U = rng.normal(size=(d, l))
    params = ModelParams(np.zeros((d, l)), U, np.zeros(l), 0.0)
    h = HashCode.from_bits([1, 0, 1])
    x = U @ h.to_bits().astype(float)
    assert abs(loss(params, h, x) - 0.5 * d * math.log(2 * math.pi)) < 1e-10


def _scalar_loss_oracle(params, bits, x):
    """Independent term-by-term rederivation with Python scalars."""
    rho = math.exp(params.log_rho)
    values = [2.0 * b - 1.0 if params.code_domain == PLUS_MINUS else float(b) for b in bits]
    total = 0.0
    for i in range(params.d):
        mean_i = sum(params.U[i, k] * values[k] for k in range(params.l))
        total -= math.log(
            math.exp(-((x[i] - mean_i) ** 2) / (2 * rho * rho)) / math.sqrt(2 * math.pi * rho * rho)
        )
    for k in range(params.l):
        theta = 1.0 / (1.0 + math.exp(-params.beta[k]))
        total -= math.log(theta if bits[k] else 1.0 - theta)
        z = sum(params.W[i, k] * x[i] for i in range(params.d))
        p = min(max(1.0 / (1.0 + math.exp(-z)), PROB_CLAMP), 1.0 - PROB_CLAMP)
        total += math.log(p if bits[k] else 1.0 - p)
    return total


@pytest.mark.parametrize("domain", [ZERO_ONE, PLUS_MINUS])
def test_loss_matches_scalar_oracle(domain, rng):
    for _ in range(5):
        params = random_params(rng, 4, 3, domain)
        x = rng.normal(size=4)
        bits = rng.random(3) < 0.5
        h = HashCode.from_bits(bits)
        assert abs(loss(params, h, x) - _scalar_loss_oracle(params, bits, x)) < 1e-10


def test_loss_invariant_under_joint_permutation(rng):
    params = random_params(rng, 5, 6)
    x = rng.normal(size=5)
    bits = rng.random(6) < 0.5
    perm = rng.permutation(6)
    permuted = ModelParams(
        params.W[:, perm], params.U[:, perm], params.beta[perm], params.log_rho
    )
    assert abs(
        loss(params, HashCode.from_bits(bits), x)
        - loss(permuted, HashCode.from_bits(bits[perm]), x)
    ) < 1e-12


# loss_bits and code_log_q as they were before both summed model.loss_terms,
# kept verbatim as the reference (the input check inlined).


def _reference_loss_bits(params: ModelParams, bits, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    bits = np.asarray(bits)
    b = bits.astype(np.float64)
    values = bits_to_values(bits, params.code_domain)
    rho2 = np.exp(2.0 * params.log_rho)
    resid = x - values @ params.U.T
    recon = (resid * resid).sum(axis=-1) / (2.0 * rho2)
    recon = recon + 0.5 * params.d * np.log(2.0 * np.pi * rho2)
    prior = -(b @ params.beta) + softplus(params.beta).sum()
    p = encode_probs(params, x)
    posterior = b @ np.log(p) + (1.0 - b) @ np.log(1.0 - p)
    return recon + prior + posterior


def _reference_code_log_q(params: ModelParams, x, bits) -> np.ndarray:
    p = encode_probs(params, x)
    b = np.asarray(bits).astype(np.float64)
    return b @ np.log(p) + (1.0 - b) @ np.log(1.0 - p)


@pytest.mark.parametrize("domain", [ZERO_ONE, PLUS_MINUS])
def test_loss_bits_and_log_q_match_reference(domain, rng):
    # the posterior now blends per bit and sums, where the reference took two
    # dot products, so the two may differ in the last bits only
    for case in range(100):
        d, l = rng.integers(1, 12), rng.integers(1, 9)
        params = random_params(rng, d, l, domain, scale=rng.choice([0.1, 1.0, 4.0]))
        x = rng.normal(size=d) * 3.0
        bits = enumerate_codes(l) if case % 2 else rng.random((5, 3, l)) < 0.5
        got, ref = loss_bits(params, bits, x), _reference_loss_bits(params, bits, x)
        log_q, ref_q = code_log_q(params, x, bits), _reference_code_log_q(params, x, bits)
        assert got.shape == ref.shape == log_q.shape == ref_q.shape == bits.shape[:-1]
        bound = 1e-13 * (np.abs(ref) + np.abs(ref_q) + np.abs(params.beta).sum() + 1.0)
        assert np.all(np.abs(got - ref) <= bound)
        assert np.all(np.abs(log_q - ref_q) <= bound)
        one = bits.reshape(-1, l)[0]
        assert loss(params, HashCode.from_bits(one), x) == float(loss_bits(params, one, x))


# ---------------------------------------------------------------------------
# exact objective
# ---------------------------------------------------------------------------


def test_exact_objective_two_term_mixture(rng):
    params = random_params(rng, 3, 1)
    x = rng.normal(size=3)
    p = encode_probs(params, x)[0]
    l0 = loss(params, HashCode.from_bits([0]), x)
    l1 = loss(params, HashCode.from_bits([1]), x)
    assert abs(exact_objective(params, x) - ((1 - p) * l0 + p * l1)) < 1e-12


def test_exact_objective_matches_monte_carlo(rng):
    params = random_params(rng, 3, 2)
    x = rng.normal(size=3)
    p = encode_probs(params, x)
    draws = np.random.default_rng(99).random((1_000_000, 2))
    bits = (p >= draws)
    losses = loss_bits(params, bits, x)
    exact = exact_objective(params, x)
    se = losses.std(ddof=1) / math.sqrt(len(losses))
    assert abs(losses.mean() - exact) < 3.0 * se


def test_exact_objective_equals_enumeration_identity(rng):
    # independent weighting loop over all codes
    params = random_params(rng, 4, 3)
    x = rng.normal(size=4)
    p = encode_probs(params, x)
    total = 0.0
    for c in range(8):
        bits = [(c >> k) & 1 for k in range(3)]
        w = 1.0
        for k in range(3):
            w *= p[k] if bits[k] else 1.0 - p[k]
        total += w * loss(params, HashCode.from_bits(bits), x)
    assert abs(total - exact_objective(params, x)) < 1e-12


@pytest.mark.parametrize("domain", [ZERO_ONE, PLUS_MINUS])
def test_exact_objective_bounds_marginal(domain, rng):
    for _ in range(10):
        params = random_params(rng, 3, 4, domain)
        x = rng.normal(size=3)
        assert exact_objective(params, x) >= -log_marginal(params, x) - 1e-10


def test_exact_objective_tight_when_q_is_posterior():
    # single bit, W chosen so q(h|x) equals the true posterior at this x
    U = np.array([[1.0]])
    beta = np.zeros(1)
    x = np.array([0.4])
    # posterior log-odds: (u.x - ||u||^2/2)/rho^2 + beta
    target = (0.4 - 0.5) / 1.0
    params = ModelParams(np.array([[target / 0.4]]), U, beta, 0.0)
    gap = exact_objective(params, x) + log_marginal(params, x)
    assert abs(gap) < 1e-12


def test_enumeration_guard():
    params = ModelParams(np.zeros((2, 21)), np.zeros((2, 21)), np.zeros(21), 0.0)
    with pytest.raises(CapabilityError):
        exact_objective(params, np.zeros(2))


def test_triangle_surrogate_inequality(rng):
    # ||x-y|| - ||U||_F ||h_x-h_y|| <= ||x-Uh_x|| + ||y-Uh_y||
    params = random_params(rng, 6, 10)
    fro = np.linalg.norm(params.U)
    for _ in range(50):
        x, y = rng.normal(size=6), rng.normal(size=6)
        hx, hy = encode_map(params, x), encode_map(params, y)
        vx, vy = hx.to_values(params.code_domain), hy.to_values(params.code_domain)
        lhs = np.linalg.norm(x - y) - fro * np.linalg.norm(vx - vy)
        rhs = np.linalg.norm(x - params.U @ vx) + np.linalg.norm(y - params.U @ vy)
        assert lhs <= rhs + 1e-9
