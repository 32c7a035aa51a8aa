import math
import warnings

import numpy as np
import pytest

from genhash.codes import PLUS_MINUS, ZERO_ONE, HashCode, bits_to_values
from genhash.data_io import synth_mixture
from genhash.errors import CapabilityError, InputError, TrainingError
from genhash.model import (
    ModelParams,
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
    ESTIMATOR_UNBIASED,
    GradientSet,
    OptimizerState,
    TrainConfig,
    adam_step,
    exact_grad_check,
    expected_grad_decoder,
    expected_grad_w_unbiased,
    grad_decoder,
    grad_w_approx,
    grad_w_unbiased,
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


@pytest.mark.parametrize("field", [{"steps": -1}, {"bits": 0}, {"lr": 0.0}, {"seed": -1}])
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
@pytest.mark.parametrize("d,l", [(5, 4), (32, 32), (16, 70)])
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
