import math
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from genhash.codes import MAX_BITS, PLUS_MINUS, ZERO_ONE, HashCode, bits_to_values
from genhash.data_io import synth_mixture
from genhash.errors import CapabilityError, InputError, TrainingError
from genhash.model import (
    ModelParams,
    block_rows,
    clamp_probs,
    code_log_q,
    encode_probs,
    encode_sample,
    enumerate_codes,
    exact_objective,
    loss,
    loss_bits,
    sigmoid,
    softplus,
)
from genhash.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    CLAMP_LOGIT,
    ESTIMATOR_UNBIASED,
    GradCheckReport,
    GradientSet,
    OptimizerState,
    TrainConfig,
    adam_step,
    column_std,
    exact_grad_check,
    expected_grad_decoder,
    expected_grad_w_unbiased,
    grad_decoder,
    grad_w_approx,
    grad_w_unbiased,
    init_params,
    lr_at,
    sgd_step,
    train,
)

from conftest import random_params


def _loss_fd(params, h, x, setter, step=1e-6):
    setter(step)
    hi = loss(params, h, x)
    setter(-2 * step)
    lo = loss(params, h, x)
    setter(step)
    return (hi - lo) / (2 * step)


# ---------------------------------------------------------------------------
# decoder gradients
# ---------------------------------------------------------------------------


def test_grad_decoder_zero_residual(rng):
    params = random_params(rng, 4, 3)
    h = HashCode.from_bits([1, 0, 1])
    x = params.U @ h.to_bits().astype(float)
    dU, dbeta, dlog_rho = grad_decoder(params, x, h)
    assert np.allclose(dU, 0.0)
    assert abs(dlog_rho - 4.0) < 1e-12


def test_grad_decoder_beta_at_zero(rng):
    params = random_params(rng, 4, 3)
    params.beta[:] = 0.0
    h = HashCode.from_bits([1, 1, 1])
    _, dbeta, _ = grad_decoder(params, rng.normal(size=4), h)
    assert np.allclose(dbeta, -0.5)


@pytest.mark.parametrize("domain", [ZERO_ONE, PLUS_MINUS])
def test_grad_decoder_matches_finite_differences(domain, rng):
    params = random_params(rng, 4, 3, domain)
    x = rng.normal(size=4)
    h = encode_sample(params, x, rng.random(3))
    dU, dbeta, dlog_rho = grad_decoder(params, x, h)
    for i in range(4):
        for j in range(3):
            fd = _loss_fd(params, h, x, lambda s, i=i, j=j: params.U.__setitem__((i, j), params.U[i, j] + s))
            assert abs(dU[i, j] - fd) < 1e-4 * max(1.0, abs(fd))
    for k in range(3):
        fd = _loss_fd(params, h, x, lambda s, k=k: params.beta.__setitem__(k, params.beta[k] + s))
        assert abs(dbeta[k] - fd) < 1e-4 * max(1.0, abs(fd))

    def bump_rho(s):
        params.log_rho += s

    fd = _loss_fd(params, h, x, bump_rho)
    assert abs(dlog_rho - fd) < 1e-4 * max(1.0, abs(fd))


# ---------------------------------------------------------------------------
# encoder-weight estimators
# ---------------------------------------------------------------------------


def test_grad_w_zero_input(rng):
    params = random_params(rng, 4, 3)
    x = np.zeros(4)
    h = encode_sample(params, x, rng.random(3))
    assert np.allclose(grad_w_unbiased(params, x, h), 0.0)
    assert np.allclose(grad_w_approx(params, x, h), 0.0)


@pytest.mark.parametrize("domain", [ZERO_ONE, PLUS_MINUS])
def test_unbiased_delta_matches_naive_flip(domain, rng):
    # incremental per-bit loss difference vs recomputing the two losses
    for _ in range(5):
        params = random_params(rng, 4, 3, domain)
        x = rng.normal(size=4)
        h = encode_sample(params, x, rng.random(3))
        dW = grad_w_unbiased(params, x, h)
        p = encode_probs(params, x)
        bits = h.to_bits()
        for k in range(3):
            on = bits.copy()
            off = bits.copy()
            on[k], off[k] = True, False
            delta = loss(params, HashCode.from_bits(on), x) - loss(params, HashCode.from_bits(off), x)
            expected = delta * p[k] * (1 - p[k]) * x
            assert np.max(np.abs(dW[:, k] - expected)) < 1e-10


def test_approx_equals_unbiased_for_linear_loss(rng):
    # U = 0 makes the loss linear in the code, so the Taylor step is exact
    params = random_params(rng, 4, 3)
    params.U[:] = 0.0
    x = rng.normal(size=4)
    h = encode_sample(params, x, rng.random(3))
    assert np.allclose(grad_w_approx(params, x, h), grad_w_unbiased(params, x, h), atol=1e-14)


@pytest.mark.parametrize("domain", [ZERO_ONE, PLUS_MINUS])
def test_approx_slope_matches_relaxed_bit_derivative(domain, rng):
    # g_k is d(loss)/d(h_k) at the sampled code: the central difference of the
    # loss in a relaxed bit b_k, halved under plus-minus where h = 2b - 1
    scale = 1.0 if domain == ZERO_ONE else 0.5
    step = 1e-4
    for _ in range(10):
        params = random_params(rng, 4, 3, domain)
        x = rng.normal(size=4)
        h = encode_sample(params, x, rng.random(3))
        p = encode_probs(params, x)
        j = np.abs(x).argmax()
        g = grad_w_approx(params, x, h)[j] / (p * (1 - p) * x[j])
        bits = h.to_bits().astype(np.float64)
        for k in range(3):
            hi, lo = bits.copy(), bits.copy()
            hi[k] += step
            lo[k] -= step
            fd = scale * (loss_bits(params, hi, x) - loss_bits(params, lo, x)) / (2 * step)
            assert abs(g[k] - fd) < 1e-6 * max(1.0, abs(fd))


def test_approx_within_quadratic_bound(rng):
    # |delta_k - g_k| is controlled by the quadratic coefficient ||u_k||^2/(2rho^2)
    for _ in range(10):
        params = random_params(rng, 4, 3)
        x = rng.normal(size=4)
        h = encode_sample(params, x, rng.random(3))
        p = encode_probs(params, x)
        dW_u = grad_w_unbiased(params, x, h)
        dW_a = grad_w_approx(params, x, h)
        j = np.abs(x).argmax()
        delta = dW_u[j] / (p * (1 - p) * x[j])
        g = dW_a[j] / (p * (1 - p) * x[j])
        bound = (params.U * params.U).sum(axis=0) / (2 * np.exp(2 * params.log_rho))
        assert np.all(np.abs(delta - g) <= bound + 1e-9)


@pytest.mark.parametrize("domain", [ZERO_ONE, PLUS_MINUS])
def test_unbiased_expectation_is_true_gradient(domain, rng):
    # enumeration expectation of the estimator vs finite differences of the
    # exact objective, for every W entry
    params = random_params(rng, 3, 3, domain)
    x = rng.normal(size=3)
    est = expected_grad_w_unbiased(params, x)
    step = 1e-5
    for i in range(3):
        for j in range(3):
            orig = params.W[i, j]
            params.W[i, j] = orig + step
            hi = exact_objective(params, x)
            params.W[i, j] = orig - step
            lo = exact_objective(params, x)
            params.W[i, j] = orig
            fd = (hi - lo) / (2 * step)
            assert abs(est[i, j] - fd) < 1e-6 * max(1.0, abs(fd), abs(est[i, j]))


def test_direct_logq_term_has_zero_expectation(rng):
    # toggling the direct term changes per-sample gradients, not the mean
    params = random_params(rng, 4, 3)
    x = rng.normal(size=4)
    bits = enumerate_codes(3)
    q = np.exp(code_log_q(params, x, bits))
    mean_with = np.zeros((4, 3))
    mean_without = np.zeros((4, 3))
    changed = False
    for b, w in zip(bits, q):
        h = HashCode.from_bits(b)
        g_with = grad_w_unbiased(params, x, h, include_direct=True)
        g_without = grad_w_unbiased(params, x, h)
        changed = changed or not np.allclose(g_with, g_without)
        mean_with += w * g_with
        mean_without += w * g_without
    assert changed
    assert np.max(np.abs(mean_with - mean_without)) < 1e-12


# ---------------------------------------------------------------------------
# optimizer steps
# ---------------------------------------------------------------------------


def _zero_grads(params):
    return GradientSet(np.zeros_like(params.W), np.zeros_like(params.U), np.zeros_like(params.beta), 0.0)


def test_adam_zero_gradient_keeps_params(rng):
    params = random_params(rng, 3, 2)
    before = params.copy()
    state = OptimizerState.zeros_like(params)
    adam_step(state, params, _zero_grads(params), 0.01)
    assert np.array_equal(params.W, before.W)
    assert np.array_equal(params.U, before.U)
    assert params.log_rho == before.log_rho


def test_adam_constant_gradient_step_magnitude(rng):
    # with a constant gradient the update magnitude approaches lr_t
    params = random_params(rng, 2, 2)
    state = OptimizerState.zeros_like(params)
    g = GradientSet(np.full((2, 2), 0.3), np.zeros((2, 2)), np.zeros(2), 0.0)
    w_prev = params.W.copy()
    for _ in range(200):
        w_prev = params.W.copy()
        adam_step(state, params, g, 0.01)
    assert np.allclose(np.abs(params.W - w_prev), 0.01, rtol=1e-3)


def test_adam_two_step_trace_matches_hand_computation():
    # scalar Adam arithmetic carried out by hand for g = 0.5 then 0.25
    params = ModelParams(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1), 0.0)
    state = OptimizerState.zeros_like(params)
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01

    m = v = 0.0
    w = 0.0
    for t, g in enumerate([0.5, 0.25], start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)

    for g in [0.5, 0.25]:
        grads = GradientSet(np.array([[g]]), np.zeros((1, 1)), np.zeros(1), 0.0)
        adam_step(state, params, grads, lr)
    assert abs(params.W[0, 0] - w) < 1e-12


def test_step_rejects_non_finite_gradient(rng):
    params = random_params(rng, 2, 2)
    state = OptimizerState.zeros_like(params)
    bad = _zero_grads(params)
    bad.dW[0, 0] = np.nan
    with pytest.raises(TrainingError):
        adam_step(state, params, bad, 0.01)
    with pytest.raises(TrainingError):
        sgd_step(state, params, bad, 0.01)


def test_lr_schedule():
    cfg = TrainConfig(steps=1100, bits=4)
    assert cfg.effective_decay_horizon() == 1000
    assert lr_at(cfg, 0) == 0.01
    assert abs(lr_at(cfg, 1000) - 0.005) < 1e-15


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_train_zero_steps_returns_init(rng):
    data = synth_mixture(200, 8, 3, 1.0, 4)
    cfg = TrainConfig(steps=0, bits=6, batch_size=50, seed=9)
    params, log = train(data, cfg)
    params2, _ = train(data, cfg)
    assert log.steps == 0
    assert np.array_equal(params.W, params2.W)
    assert params.l == 6 and params.d == 8


def test_train_deterministic(rng):
    data = synth_mixture(500, 8, 3, 1.0, 4)
    cfg = TrainConfig(steps=300, bits=8, batch_size=50, seed=11)
    p1, log1 = train(data, cfg)
    p2, log2 = train(data, cfg)
    assert np.array_equal(p1.W, p2.W)
    assert np.array_equal(p1.U, p2.U)
    assert np.array_equal(log1.loss, log2.loss)
    assert np.array_equal(log1.recon_error, log2.recon_error)


@pytest.mark.parametrize(
    "field",
    [
        {"steps": -1},
        {"bits": 0},
        {"lr": 0.0},
        {"seed": -1},
        {"decay_horizon": 0},
        {"bits": MAX_BITS + 1},
        {"lr": float("nan")},
        {"lr": float("inf")},
    ],
)
def test_train_config_rejects_bad_fields(field):
    with pytest.raises(InputError):
        TrainConfig(**{"steps": 10, "bits": 4, **field})


def test_train_batch_size_guard():
    data = synth_mixture(100, 4, 2, 1.0, 0)
    with pytest.raises(InputError):
        train(data, TrainConfig(steps=10, bits=4, batch_size=200))


def test_train_batch_gradients_match_per_sample_ops(rng):
    # one training step's batch gradient equals the mean of per-sample calls
    from genhash.training import _batch_stats

    for domain in (ZERO_ONE, PLUS_MINUS):
        for estimator in ("unbiased", "approx"):
            params = random_params(rng, 5, 4, domain)
            X = rng.normal(size=(7, 5))
            xi = rng.random((7, 4))
            grads, mean_loss, _ = _batch_stats(params, X, xi, estimator, False)
            grad_fn = grad_w_unbiased if estimator == "unbiased" else grad_w_approx
            dW = np.zeros_like(params.W)
            dU = np.zeros_like(params.U)
            dbeta = np.zeros_like(params.beta)
            dlog_rho = 0.0
            losses = []
            for x, draws in zip(X, xi):
                h = encode_sample(params, x, draws)
                dW += grad_fn(params, x, h)
                du, db, dr = grad_decoder(params, x, h)
                dU += du
                dbeta += db
                dlog_rho += dr
                losses.append(loss(params, h, x))
            assert np.max(np.abs(grads.dW - dW / 7)) < 1e-12
            assert np.max(np.abs(grads.dU - dU / 7)) < 1e-12
            assert np.max(np.abs(grads.dbeta - dbeta / 7)) < 1e-12
            assert abs(grads.dlog_rho - dlog_rho / 7) < 1e-12
            assert abs(mean_loss - np.mean(losses)) < 1e-12


# The batch step as written before the gradient kernel, kept verbatim as the
# bitwise reference for _batch_stats.


def _bit_flip_delta(params: ModelParams, values, resid, logit):
    """Loss change from turning each bit on vs off, at O(d) per bit.

    For the zero-one domain this is loss(bit k = 1) - loss(bit k = 0); for
    plus-minus it is loss(bit k = +1) - loss(bit k = -1). `values`/`resid`
    may be batched with leading axes.
    """
    rho2 = np.exp(2.0 * params.log_rho)
    s = resid @ params.U  # r . u_k per bit
    usq = (params.U * params.U).sum(axis=0)
    if params.code_domain == ZERO_ONE:
        recon = ((1.0 - 2.0 * values) * usq - 2.0 * s) / (2.0 * rho2)
    else:
        recon = (-4.0 * s - 4.0 * values * usq) / (2.0 * rho2)
    return recon - params.beta + logit


def _loss_slope(params: ModelParams, resid, logit):
    rho2 = np.exp(2.0 * params.log_rho)
    s = resid @ params.U
    if params.code_domain == ZERO_ONE:
        return -s / rho2 - params.beta + logit
    return -s / rho2 + 0.5 * (-params.beta + logit)


def _reference_sigmoid(z):
    """The masked two-branch logistic function, kept verbatim as the oracle."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bitwise_equals_reference(rng):
    nan_payload = np.array([0xFFF8000000000123], dtype=np.uint64).view(np.float64)[0]
    special = np.array(
        [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 800.0, -800.0, np.nan, -np.nan,
         nan_payload, 5e-324, -5e-324, 1e-310, -1e-310, 2.2e-308, -2.2e-308, 37.0, -37.0]
    )
    cases = [0.0, np.float64(-0.0), np.asarray(np.nan), np.asarray(-800.0), special,
             special[::-2], rng.normal(size=1000) * 50, rng.normal(size=(37, 23)) * 50,
             np.resize(special, (4, 19))]
    with warnings.catch_warnings(), np.errstate(all="warn", under="ignore"):
        warnings.simplefilter("error", RuntimeWarning)
        for z in cases:
            got, ref = sigmoid(z), _reference_sigmoid(z)
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert np.array_equal(got, ref, equal_nan=True)
            # equal bit patterns: the sign of every zero and NaN, and NaN payloads
            assert np.array_equal(
                np.ascontiguousarray(got).view(np.uint64), np.ascontiguousarray(ref).view(np.uint64)
            )


def _batch_stats_inner(params: ModelParams, X, xi, estimator: str, include_direct: bool):
    B = X.shape[0]
    d, l = params.d, params.l
    rho2 = np.exp(2.0 * params.log_rho)
    Z = X @ params.W
    P = clamp_probs(_reference_sigmoid(Z))
    logit = np.log(P) - np.log1p(-P)
    bits = (P >= xi).astype(np.float64)
    values = bits_to_values(bits, params.code_domain)
    R = X - values @ params.U.T

    dU = -(R.T @ values) / (B * rho2)
    dbeta = _reference_sigmoid(params.beta) - bits.mean(axis=0)
    rsq = (R * R).sum(axis=1)
    dlog_rho = d - float(rsq.mean()) / rho2

    if estimator == ESTIMATOR_UNBIASED:
        per_bit = _bit_flip_delta(params, values, R, logit)
    else:
        per_bit = _loss_slope(params, R, logit)
    coeff = per_bit * P * (1.0 - P)
    if include_direct:
        coeff = coeff + (bits - P)
    dW = X.T @ coeff / B

    # mean sampled loss of the batch
    sp = softplus(params.beta)
    mean_loss = float(
        (rsq / (2.0 * rho2)).mean()
        + 0.5 * d * np.log(2.0 * np.pi * rho2)
        + (-(bits @ params.beta) + sp.sum()).mean()
        + (bits * np.log(P) + (1.0 - bits) * np.log(1.0 - P)).sum(axis=1).mean()
    )

    # MAP reconstruction error ||x - U h_map(x)||^2, reusing the logits
    map_values = bits_to_values(Z >= 0.0, params.code_domain)
    map_resid = X - map_values @ params.U.T
    map_err = float((map_resid * map_resid).sum(axis=1).mean())

    return GradientSet(dW, dU, dbeta, dlog_rho), mean_loss, map_err


@pytest.mark.parametrize("batch", [1, 7, 500])
@pytest.mark.parametrize("d,l", [(5, 4), (32, 32), (16, 70), (128, 64)])
def test_batch_stats_bitwise_equals_reference(d, l, batch, rng):
    from genhash.training import _batch_stats

    for domain in (ZERO_ONE, PLUS_MINUS):
        for estimator in ("unbiased", "approx"):
            for include_direct in (False, True):
                params = random_params(rng, d, l, domain)
                X = rng.normal(size=(batch, d))
                xi = rng.random((batch, l))
                grads, mean_loss, map_err = _batch_stats(params, X, xi, estimator, include_direct)
                with np.errstate(over="ignore", invalid="ignore"):
                    ref, ref_loss, ref_err = _batch_stats_inner(params, X, xi, estimator, include_direct)
                assert np.array_equal(grads.dW, ref.dW)
                assert np.array_equal(grads.dU, ref.dU)
                assert np.array_equal(grads.dbeta, ref.dbeta)
                assert np.array_equal(grads.dlog_rho, ref.dlog_rho)
                assert np.array_equal(mean_loss, ref_loss)
                assert np.array_equal(map_err, ref_err)


# ---------------------------------------------------------------------------
# the initial spread and the dataset checks of train
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 7, 128])
def test_column_std_equals_numpy_std_bitwise(d, rng):
    # C order, Fortran order and a row view: numpy sums the rows in order in
    # the first and last, and each column pairwise in the second (and at d = 1)
    # (heavy-tailed values, so that a sum in another order rarely rounds alike)
    block = block_rows(d)
    for n in (2, 3, 5, block - 1, block, block + 1, 3 * block + 1, 100_000):
        X = rng.lognormal(0.0, 3.0, size=(2 * n, d))
        X -= rng.uniform(0.0, 10.0, size=d)
        for rows in (X[:n], np.asfortranarray(X[:n]), X[::2]):
            assert column_std(rows).tobytes() == rows.std(axis=0).tobytes(), (n, rows.strides)


@pytest.mark.parametrize(
    "d,order,bound",
    [
        (128, "C", 3 * 2**20),  # rows summed in order: row blocks of about 1 MB (parent: 205 MB)
        # columns summed pairwise are not split: one column of N float64s
        (1, "C", 8 * 200_000 + 2**16),
        (16, "F", 8 * 200_000 + 2**16),
    ],
)
def test_init_params_temporary_is_one_row_block_or_one_column(d, order, bound):
    rows = np.random.default_rng(3).normal(size=(200_000, d)).copy(order=order)
    tracemalloc.start()
    try:
        init_params(rows, TrainConfig(steps=1, bits=64), np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


class _NoDraws:
    """An rng stand-in that fails the test if any parameter is drawn."""

    def normal(self, *args, **kwargs):
        raise AssertionError("parameters were drawn")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e200 column"])
def test_train_rejects_a_non_finite_spread_without_warnings(bad):
    rows = synth_mixture(200, 6, 2, 1.0, 3).rows
    if bad == "1e200 column":
        rows[:, 2] *= 1e200  # finite, but the squared deviations overflow
    else:
        rows[17, 2] = float(bad)
    config = TrainConfig(steps=5, bits=4, batch_size=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="^dataset column 2 has a non-finite spread"):
            train(rows, config)
        with pytest.raises(InputError, match="^dataset column 2 "):
            init_params(rows, config, _NoDraws())


@pytest.mark.parametrize("shape", [(10, 0), (0, 4), (0, 0)])
def test_train_rejects_data_without_rows_or_columns(shape):
    with pytest.raises(InputError, match="non-empty"):
        train(np.zeros(shape), TrainConfig(steps=1, bits=2, batch_size=2))


@pytest.mark.parametrize("window", [0, -3])
def test_train_rejects_a_log_window_under_one_step(window):
    # a log window is a positive number of steps
    with pytest.raises(InputError, match="log window must be >= 1"):
        train(synth_mixture(50, 4, 2, 1.0, 3), TrainConfig(steps=3, bits=2, batch_size=5), window)


def test_train_loss_windows_mostly_non_increasing():
    data = synth_mixture(2000, 16, 5, 1.0, 21)
    rows = data.centered()
    cfg = TrainConfig(steps=5000, bits=16, seed=2)
    _, log = train(rows, cfg)
    means = [row[1] for row in log.window_means()]
    drops = sum(1 for a, b in zip(means, means[1:]) if b <= a)
    assert drops / (len(means) - 1) >= 0.9


def test_train_aborts_on_blowup_with_last_good_reference():
    # an absurd stepsize overflows the objective; the abort carries the last
    # window-boundary snapshot
    data = synth_mixture(300, 6, 2, 1.0, 8)
    cfg = TrainConfig(steps=2000, bits=6, batch_size=50, lr=1e9, seed=1, optimizer="sgd")
    with pytest.raises(TrainingError) as exc:
        train(data, cfg)
    err = exc.value
    assert err.last_good_step is not None
    assert err.params is not None
    assert err.params.l == 6
    assert np.all(np.isfinite(err.params.W))


def test_training_log_csv(tmp_path):
    data = synth_mixture(300, 6, 2, 1.0, 3)
    cfg = TrainConfig(steps=120, bits=4, batch_size=30, seed=1)
    _, log = train(data, cfg)
    path = tmp_path / "log.csv"
    log.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,window_mean_loss,window_mean_recon_error,lr_t,wall_ms"
    assert len(lines) == 2  # 120 steps -> one window
    assert lines[1].startswith("120,")


# ---------------------------------------------------------------------------
# exact gradient check
# ---------------------------------------------------------------------------


def test_exact_grad_check_zero_params():
    params = ModelParams(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), 0.0)
    report = exact_grad_check(params, np.zeros(2))
    assert report.ok()
    assert report.max_rel_err_w < 1e-9


@pytest.mark.parametrize("domain", [ZERO_ONE, PLUS_MINUS])
def test_exact_grad_check_random_instance(domain, rng):
    params = random_params(rng, 4, 3, domain)
    report = exact_grad_check(params, rng.normal(size=4))
    assert report.max_rel_err_w < 1e-6
    assert report.max_rel_err_u < 1e-4
    assert report.max_rel_err_beta < 1e-4
    assert report.max_rel_err_log_rho < 1e-4
    assert not report.clamped_bits.any()


def test_exact_grad_check_flags_saturated_bits(rng):
    params = random_params(rng, 3, 3)
    params.W[:, 0] = 100.0  # saturates the probability clamp for bit 0
    x = np.abs(rng.normal(size=3)) + 0.5
    report = exact_grad_check(params, x)
    assert report.clamped_bits[0]
    assert report.ok()  # clamped column excluded rather than failing


def test_exact_grad_check_guard():
    params = ModelParams(np.zeros((2, 13)), np.zeros((2, 13)), np.zeros(13), 0.0)
    with pytest.raises(CapabilityError):
        exact_grad_check(params, np.zeros(2))


def test_expected_decoder_grads_match_enumeration(rng):
    # independent loop over codes weighting grad_decoder by q
    params = random_params(rng, 4, 3)
    x = rng.normal(size=4)
    bits = enumerate_codes(3)
    q = np.exp(code_log_q(params, x, bits))
    dU = np.zeros((4, 3))
    dbeta = np.zeros(3)
    dlog_rho = 0.0
    for b, w in zip(bits, q):
        du, db, dr = grad_decoder(params, x, HashCode.from_bits(b))
        dU += w * du
        dbeta += w * db
        dlog_rho += w * dr
    eU, ebeta, erho = expected_grad_decoder(params, x)
    assert np.max(np.abs(eU - dU)) < 1e-12
    assert np.max(np.abs(ebeta - dbeta)) < 1e-12
    assert abs(erho - dlog_rho) < 1e-12


# ---------------------------------------------------------------------------
# the per-block loops against the hand-written per-block code they replace
# ---------------------------------------------------------------------------


@dataclass
class _ReferenceOptimizerState:
    """Adam moment accumulators (allocated but unused for plain SGD)."""

    m_W: np.ndarray
    v_W: np.ndarray
    m_U: np.ndarray
    v_U: np.ndarray
    m_beta: np.ndarray
    v_beta: np.ndarray
    m_log_rho: float
    v_log_rho: float
    step: int = 0

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "_ReferenceOptimizerState":
        return cls(
            np.zeros_like(params.W),
            np.zeros_like(params.W),
            np.zeros_like(params.U),
            np.zeros_like(params.U),
            np.zeros_like(params.beta),
            np.zeros_like(params.beta),
            0.0,
            0.0,
        )


def _reference_adam_step(state, params: ModelParams, grads: GradientSet, lr_t: float):
    """One Adam update (beta1=0.9, beta2=0.999, eps=1e-8), in place."""
    if not grads.finite():
        raise TrainingError("non-finite gradient in optimizer step", step=state.step)
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t

    def upd(m, v, g):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        return (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)

    params.W -= lr_t * upd(state.m_W, state.v_W, grads.dW)
    params.U -= lr_t * upd(state.m_U, state.v_U, grads.dU)
    params.beta -= lr_t * upd(state.m_beta, state.v_beta, grads.dbeta)
    g = grads.dlog_rho
    state.m_log_rho = ADAM_BETA1 * state.m_log_rho + (1.0 - ADAM_BETA1) * g
    state.v_log_rho = ADAM_BETA2 * state.v_log_rho + (1.0 - ADAM_BETA2) * g * g
    params.log_rho -= lr_t * (state.m_log_rho / c1) / (np.sqrt(state.v_log_rho / c2) + ADAM_EPS)
    return params, state


def _reference_sgd_step(state, params: ModelParams, grads: GradientSet, lr_t: float):
    """Plain gradient step."""
    if not grads.finite():
        raise TrainingError("non-finite gradient in optimizer step", step=state.step)
    state.step += 1
    params.W -= lr_t * grads.dW
    params.U -= lr_t * grads.dU
    params.beta -= lr_t * grads.dbeta
    params.log_rho -= lr_t * grads.dlog_rho
    return params, state


def _reference_copy(params: ModelParams) -> ModelParams:
    return ModelParams(
        params.W.copy(), params.U.copy(), params.beta.copy(), params.log_rho, params.code_domain
    )


def _reference_rel_err(a, b, floor: float = 1e-3) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b) / denom))


def _reference_exact_grad_check(params: ModelParams, x, fd_step: float = 1e-5) -> GradCheckReport:
    x = np.asarray(x, dtype=np.float64)
    z = x @ params.W
    clamped = np.abs(z) >= CLAMP_LOGIT

    def fd(param_array, i, j=None):
        orig = params.log_rho if param_array is None else (
            param_array[i] if j is None else param_array[i, j]
        )

        def setval(v):
            if param_array is None:
                params.log_rho = v
            elif j is None:
                param_array[i] = v
            else:
                param_array[i, j] = v

        setval(orig + fd_step)
        hi = exact_objective(params, x)
        setval(orig - fd_step)
        lo = exact_objective(params, x)
        setval(orig)
        return (hi - lo) / (2.0 * fd_step)

    est_w = expected_grad_w_unbiased(params, x)
    fd_w = np.array([[fd(params.W, i, j) for j in range(params.l)] for i in range(params.d)])
    free = ~clamped
    err_w = _reference_rel_err(est_w[:, free], fd_w[:, free])

    dU, dbeta, dlog_rho = expected_grad_decoder(params, x)
    fd_u = np.array([[fd(params.U, i, j) for j in range(params.l)] for i in range(params.d)])
    fd_beta = np.array([fd(params.beta, i) for i in range(params.l)])
    fd_rho = fd(None, 0)

    return GradCheckReport(
        max_rel_err_w=err_w,
        max_rel_err_u=_reference_rel_err(dU, fd_u),
        max_rel_err_beta=_reference_rel_err(dbeta, fd_beta),
        max_rel_err_log_rho=_reference_rel_err(dlog_rho, fd_rho),
        clamped_bits=clamped,
        fd_step=fd_step,
    )


def _assert_params_equal(got: ModelParams, want: ModelParams):
    for name in ("W", "U", "beta", "log_rho"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.code_domain == want.code_domain


def _assert_scalar_log_rho(params: ModelParams):
    assert isinstance(params.log_rho, float) and not isinstance(params.log_rho, np.ndarray)


def test_blocks_list_every_trained_block_in_order(rng):
    params = random_params(rng, 4, 3)
    grads = _zero_grads(params)
    assert ModelParams.BLOCKS == ("W", "U", "beta", "log_rho")
    for name, block, grad in zip(ModelParams.BLOCKS, params.blocks(), grads.blocks(), strict=True):
        assert block is getattr(params, name) and grad is getattr(grads, "d" + name)
    assert grads.finite() is True
    # one non-finite entry in any block is caught
    for i in range(len(ModelParams.BLOCKS)):
        blocks = [np.array(b, dtype=np.float64) for b in params.blocks()]
        blocks[i].flat[0] = np.inf
        with pytest.raises(InputError):
            ModelParams(*blocks)
        blocks = [np.array(g, dtype=np.float64) for g in grads.blocks()]
        blocks[i].flat[-1] = np.nan
        assert GradientSet(*blocks).finite() is False


@pytest.mark.parametrize("domain", [ZERO_ONE, PLUS_MINUS])
def test_copy_equals_reference_and_is_independent(domain, rng):
    params = random_params(rng, 5, 4, domain)
    got, want = params.copy(), _reference_copy(params)
    _assert_params_equal(got, want)
    _assert_scalar_log_rho(got)
    got.W[0, 0] += 1.0
    got.beta[0] += 1.0
    assert params.W[0, 0] == want.W[0, 0] and params.beta[0] == want.beta[0]


@pytest.mark.parametrize("domain", [ZERO_ONE, PLUS_MINUS])
def test_sgd_trajectory_bitwise_equals_reference(domain, rng):
    from genhash.training import _batch_stats

    params = random_params(rng, 12, 9, domain)
    ref = _reference_copy(params)
    state, ref_state = OptimizerState.zeros_like(params), _ReferenceOptimizerState.zeros_like(ref)
    for step in range(60):
        X = rng.normal(size=(20, 12))
        xi = rng.random((20, 9))
        grads, _, _ = _batch_stats(params, X, xi, "unbiased", step % 2 == 1)
        ref_grads, _, _ = _batch_stats(ref, X, xi, "unbiased", step % 2 == 1)
        sgd_step(state, params, grads, 0.01 / (1 + step))
        _reference_sgd_step(ref_state, ref, ref_grads, 0.01 / (1 + step))
        _assert_params_equal(params, ref)
        _assert_scalar_log_rho(params)
        assert state.step == ref_state.step == step + 1


def test_adam_matches_reference_over_random_gradients(rng):
    params = random_params(rng, 6, 5)
    ref = _reference_copy(params)
    state, ref_state = OptimizerState.zeros_like(params), _ReferenceOptimizerState.zeros_like(ref)
    for step in range(200):
        scale = 10.0 ** rng.uniform(-3, 1)
        grads = GradientSet(
            rng.normal(size=(6, 5)) * scale,
            rng.normal(size=(6, 5)) * scale,
            rng.normal(size=5) * scale,
            float(rng.normal() * scale),
        )
        adam_step(state, params, grads, 0.01)
        _reference_adam_step(ref_state, ref, grads, 0.01)
        for name in ("W", "U", "beta"):
            assert np.array_equal(getattr(params, name), getattr(ref, name)), (step, name)
        # the scalar update rounds (lr m) / s as lr (m / s): the last ulp may differ
        assert abs(params.log_rho - ref.log_rho) <= 1e-12
        _assert_scalar_log_rho(params)
    assert np.array_equal(state.m[0], ref_state.m_W)
    assert np.array_equal(state.v[2], ref_state.v_beta)


@pytest.mark.parametrize("domain", [ZERO_ONE, PLUS_MINUS])
def test_exact_grad_check_report_equals_reference(domain, rng):
    for d, l in ((4, 3), (3, 5), (5, 1)):
        params = random_params(rng, d, l, domain)
        params.W[:, 0] *= 40.0  # saturates some bits, so the clamp mask is exercised
        before = params.copy()
        x = rng.normal(size=d)
        got = exact_grad_check(params, x)
        _assert_params_equal(params, before)
        _assert_scalar_log_rho(params)
        want = _reference_exact_grad_check(params, x)
        for name in ("max_rel_err_w", "max_rel_err_u", "max_rel_err_beta", "max_rel_err_log_rho"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert np.array_equal(got.clamped_bits, want.clamped_bits)
        assert got.summary() == want.summary() and got.ok() == want.ok()


def test_grad_check_summary_and_ok_by_block():
    report = GradCheckReport(1e-7, 2e-5, 3e-5, 5e-4, np.array([False, True]), 1e-5)
    lines = report.summary().split("\n")
    assert lines[:4] == [
        "max rel err W        1.000e-07",
        "max rel err U        2.000e-05",
        "max rel err beta     3.000e-05",
        "max rel err log_rho  5.000e-04",
    ]
    assert len(lines) == 5 and lines[4].startswith("clamp-saturated bits excluded from W check:")
    assert not report.ok()
    assert report.ok(decoder_tol=1e-3)
    assert not report.ok(w_tol=1e-7, decoder_tol=1e-3)
    assert not GradCheckReport(np.nan, 0.0, 0.0, 0.0, np.zeros(2, bool), 1e-5).ok()


def test_grad_check_summary_lists_saturated_bits_as_plain_ints():
    report = GradCheckReport(1e-7, 2e-5, 3e-5, 5e-4, np.array([False, True]), 1e-5)
    assert report.summary().split("\n")[4] == "clamp-saturated bits excluded from W check: [1]"


def test_train_aborts_on_non_finite_gradient_with_finite_loss(monkeypatch):
    import genhash.training as training_module

    real = training_module._batch_stats
    calls = []

    def poisoned(params, X, xi, estimator, include_direct):
        grads, mean_loss, map_err = real(params, X, xi, estimator, include_direct)
        calls.append(1)
        if len(calls) == 8:
            grads.dU[0, 0] = np.nan
        return grads, mean_loss, map_err

    monkeypatch.setattr(training_module, "_batch_stats", poisoned)
    data = synth_mixture(200, 5, 2, 1.0, 3)
    cfg = TrainConfig(steps=20, bits=4, batch_size=10, decay_horizon=10, seed=4)
    with pytest.raises(TrainingError) as exc:
        train(data, cfg, window=5)
    err = exc.value
    assert (err.step, err.last_good_step) == (7, 5)
    # the snapshot is the model after the first 5 steps of the same run
    monkeypatch.setattr(training_module, "_batch_stats", real)
    want, _ = train(data, TrainConfig(steps=5, bits=4, batch_size=10, decay_horizon=10, seed=4))
    _assert_params_equal(err.params, want)
