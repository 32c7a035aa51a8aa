"""Minibatch SGD over the code distribution with two encoder-gradient estimators.

Decoder parameters (U, beta, log_rho) get ordinary analytic gradients. The
encoder weights W sit behind a discontinuous threshold sampler, so their
gradient comes from either

  * the unbiased per-bit finite-difference estimator: column k weighted by
    [loss with bit k on] - [loss with bit k off], times p_k (1 - p_k), or
  * the one-pass approximation that replaces that finite difference with
    d(loss)/d(h_k) evaluated at the sampled code.

Both are rank-1 in x per bit. All of this mathematics lives in one batched
kernel, _grad_kernel, which returns the weighted mean of the per-row
gradients over rows (x, p, b) with weights w. It has three callers:

  * the training step (_batch_stats): the sampled minibatch, weights 1;
  * the public per-sample grad_decoder / grad_w_*: one row, weight 1;
  * the enumeration expectations expected_grad_*: every code h of length l
    for one x, weighted by q(h|x). Exhaustive enumeration (small l)
    recovers the true gradient of the exact objective and is used by
    exact_grad_check.

The kernel also returns two per-row terms it needs anyway: log(P), from which
it forms the logit, and the squared residual norms ||x - U h||^2, from which
it forms dlog_rho. The training step reuses them for the posterior and the
reconstruction terms of its sampled loss rather than computing them again.
"""

import time
from dataclasses import dataclass

import numpy as np

from .codes import ZERO_ONE, HashCode, bits_to_values
from .errors import CapabilityError, InputError, TrainingError
from .model import (
    ModelParams,
    clamp_probs,
    code_log_q,
    encode_probs,
    enumerate_codes,
    exact_objective,
    sigmoid,
    softplus,
)

ESTIMATOR_UNBIASED = "unbiased"
ESTIMATOR_APPROX = "approx"
ESTIMATORS = (ESTIMATOR_UNBIASED, ESTIMATOR_APPROX)

OPTIMIZER_ADAM = "adam"
OPTIMIZER_SGD = "sgd"
OPTIMIZERS = (OPTIMIZER_ADAM, OPTIMIZER_SGD)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# training-log aggregation window, in steps
LOG_WINDOW = 500

# exact_grad_check enumerates 2^l codes per finite-difference probe
GRAD_CHECK_MAX_BITS = 12


@dataclass
class TrainConfig:
    """Hyperparameters of one training run."""

    steps: int
    bits: int
    batch_size: int = 500
    lr: float = 0.01
    decay_horizon: int | None = None  # None -> 10*steps/11
    estimator: str = ESTIMATOR_UNBIASED
    include_direct_logq_grad: bool = False
    seed: int = 0
    optimizer: str = OPTIMIZER_SGD
    code_domain: str = ZERO_ONE

    def __post_init__(self):
        if self.steps < 0:
            raise InputError("steps must be >= 0")
        if self.bits < 1:
            raise InputError("bits must be >= 1")
        if self.batch_size < 1:
            raise InputError("batch_size must be >= 1")
        if self.lr <= 0:
            raise InputError("lr must be positive")
        if self.estimator not in ESTIMATORS:
            raise InputError(f"estimator must be one of {ESTIMATORS}")
        if self.optimizer not in OPTIMIZERS:
            raise InputError(f"optimizer must be one of {OPTIMIZERS}")
        if self.seed < 0:
            raise InputError("seed must be >= 0")

    def effective_decay_horizon(self) -> int:
        if self.decay_horizon is not None:
            if self.decay_horizon < 1:
                raise InputError("decay_horizon must be >= 1")
            return self.decay_horizon
        return max(1, round(10 * self.steps / 11))


@dataclass
class GradientSet:
    """Gradients shaped like ModelParams."""

    dW: np.ndarray
    dU: np.ndarray
    dbeta: np.ndarray
    dlog_rho: float

    def finite(self) -> bool:
        return bool(
            np.all(np.isfinite(self.dW))
            and np.all(np.isfinite(self.dU))
            and np.all(np.isfinite(self.dbeta))
            and np.isfinite(self.dlog_rho)
        )


@dataclass
class OptimizerState:
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
    def zeros_like(cls, params: ModelParams) -> "OptimizerState":
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


def lr_at(config: TrainConfig, step: int) -> float:
    """Inverse-time decayed stepsize lr / (1 + step / decay_horizon)."""
    return config.lr / (1.0 + step / config.effective_decay_horizon())


# ---------------------------------------------------------------------------
# the gradient kernel and its per-sample wrappers
# ---------------------------------------------------------------------------

# the kernel's logit log(p/(1-p)) of the clamped p equals W^T x only while
# |W^T x| < CLAMP_LOGIT; beyond it the clamp saturates
CLAMP_LOGIT = np.log((1.0 - 1e-7) / 1e-7)


def _grad_kernel(params: ModelParams, X, P, bits, weights, estimator: str, include_direct: bool):
    """Weighted-mean GradientSet over rows (x, p, b) of X, P, bits; also log(P) and ||r||^2.

    Row i contributes the decoder gradients of grad_decoder and the encoder
    estimate x c^T, where c_k is the flip delta (unbiased) or the loss slope
    (approx) times p_k (1 - p_k), plus b_k - p_k with include_direct. The
    mean is sum_i w_i g_i / sum_i w_i; with unit weights it is bit-identical
    to the plain batch mean.
    """
    total = weights.sum()
    rho2 = np.exp(2.0 * params.log_rho)
    log_p = np.log(P)
    logit = log_p - np.log1p(-P)
    values = bits_to_values(bits, params.code_domain)
    R = X - values @ params.U.T

    dU = -(R.T @ (values * weights[:, None])) / (total * rho2)
    dbeta = sigmoid(params.beta) - (weights @ bits) / total
    rsq = (R * R).sum(axis=1)
    dlog_rho = params.d - float((rsq * weights).sum() / total) / rho2

    s = R @ params.U  # r . u_k per bit
    usq = (params.U * params.U).sum(axis=0)
    unbiased = estimator == ESTIMATOR_UNBIASED
    if params.code_domain == ZERO_ONE:
        # flip delta loss(b_k = 1) - loss(b_k = 0), or slope d(loss)/d(b_k)
        if unbiased:
            per_bit = ((1.0 - 2.0 * values) * usq - 2.0 * s) / (2.0 * rho2) - params.beta + logit
        else:
            per_bit = -s / rho2 - params.beta + logit
    else:
        # flip delta loss(h_k = +1) - loss(h_k = -1), or slope d(loss)/d(h_k),
        # where the prior and posterior see b_k = (1 + h_k) / 2
        if unbiased:
            per_bit = (-4.0 * s - 4.0 * values * usq) / (2.0 * rho2) - params.beta + logit
        else:
            per_bit = -s / rho2 + 0.5 * (-params.beta + logit)
    coeff = per_bit * P * (1.0 - P)
    if include_direct:
        coeff = coeff + (bits - P)
    dW = X.T @ (coeff * weights[:, None]) / total
    return GradientSet(dW, dU, dbeta, dlog_rho), log_p, rsq


def _sample_grads(params: ModelParams, x, h: HashCode, estimator=ESTIMATOR_UNBIASED,
                  include_direct=False) -> GradientSet:
    P = encode_probs(params, x)[None, :]
    if h.l != params.l:
        raise InputError(f"code length {h.l} != model code length {params.l}")
    X = np.asarray(x, dtype=np.float64)[None, :]
    bits = h.to_bits().astype(np.float64)[None, :]
    return _grad_kernel(params, X, P, bits, np.ones(1), estimator, include_direct)[0]


def grad_decoder(params: ModelParams, x, h: HashCode):
    """Analytic loss gradients w.r.t. (U, beta, log_rho) at a fixed code.

    With residual r = x - U h: dU = -(1/rho^2) r h^T, dbeta = sigmoid(beta) - b,
    dlog_rho = d - ||r||^2 / rho^2, where b is the 0/1 bit vector.
    """
    g = _sample_grads(params, x, h)
    return g.dU, g.dbeta, g.dlog_rho


def grad_w_unbiased(params: ModelParams, x, h: HashCode, include_direct: bool = False):
    """Per-bit finite-difference estimator of the encoder-weight gradient.

    Column k is [loss(bit k on) - loss(bit k off)] * p_k (1-p_k) * x, with the
    flip computed incrementally from the residual. With include_direct, the
    zero-mean term (b - p) x^T from differentiating log q at the fixed code
    is added.
    """
    return _sample_grads(params, x, h, ESTIMATOR_UNBIASED, include_direct).dW


def grad_w_approx(params: ModelParams, x, h: HashCode, include_direct: bool = False):
    """One-pass estimator: the flip difference is replaced by d(loss)/d(h_k).

    At the sampled code, g_k = -(r . u_k)/rho^2 - beta_k + logit(p_k) for the
    zero-one domain; under plus-minus the prior/posterior parts carry the 1/2
    from the (1 +- h)/2 exponents.
    """
    return _sample_grads(params, x, h, ESTIMATOR_APPROX, include_direct).dW


# ---------------------------------------------------------------------------
# optimizer steps
# ---------------------------------------------------------------------------


def adam_step(
    state: OptimizerState, params: ModelParams, grads: GradientSet, lr_t: float
) -> tuple[ModelParams, OptimizerState]:
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


def sgd_step(
    state: OptimizerState, params: ModelParams, grads: GradientSet, lr_t: float
) -> tuple[ModelParams, OptimizerState]:
    """Plain gradient step."""
    if not grads.finite():
        raise TrainingError("non-finite gradient in optimizer step", step=state.step)
    state.step += 1
    params.W -= lr_t * grads.dW
    params.U -= lr_t * grads.dU
    params.beta -= lr_t * grads.dbeta
    params.log_rho -= lr_t * grads.dlog_rho
    return params, state


# ---------------------------------------------------------------------------
# batched gradients and the training loop
# ---------------------------------------------------------------------------


def _batch_stats(params: ModelParams, X, xi, estimator: str, include_direct: bool):
    """Mean GradientSet over a batch, plus mean sampled loss and MAP recon error.

    Overflow here surfaces as a non-finite loss/gradient caught by the abort
    policy, so IEEE special values flow through without warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rho2 = np.exp(2.0 * params.log_rho)
        Z = X @ params.W
        P = clamp_probs(sigmoid(Z))
        bits = (P >= xi).astype(np.float64)
        grads, log_p, rsq = _grad_kernel(
            params, X, P, bits, np.ones(len(X)), estimator, include_direct
        )

        # mean sampled loss of the batch; the posterior term blends rather
        # than selects, since a select on a random mask is branch-bound
        sp = softplus(params.beta)
        mean_loss = float(
            (rsq / (2.0 * rho2)).mean()
            + 0.5 * params.d * np.log(2.0 * np.pi * rho2)
            + (-(bits @ params.beta) + sp.sum()).mean()
            + (bits * log_p + (1.0 - bits) * np.log(1.0 - P)).sum(axis=1).mean()
        )

        # MAP reconstruction error ||x - U h_map(x)||^2, reusing the logits
        map_values = bits_to_values(Z >= 0.0, params.code_domain)
        map_resid = X - map_values @ params.U.T
        map_err = float((map_resid * map_resid).sum(axis=1).mean())
    return grads, mean_loss, map_err


@dataclass
class TrainingLog:
    """Per-step training trace plus per-window wall-clock timings.

    wall_ms is measurement noise and excluded from determinism comparisons.
    """

    window: int
    loss: np.ndarray
    recon_error: np.ndarray
    lr: np.ndarray
    wall_ms: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.loss)

    def window_means(self):
        """Aggregate rows (step, window_mean_loss, window_mean_recon_error, lr_t, wall_ms)."""
        rows = []
        for w in range(len(self.wall_ms)):
            lo = w * self.window
            hi = min((w + 1) * self.window, self.steps)
            rows.append(
                (
                    hi,
                    float(self.loss[lo:hi].mean()),
                    float(self.recon_error[lo:hi].mean()),
                    float(self.lr[hi - 1]),
                    float(self.wall_ms[w]),
                )
            )
        return rows

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            f.write("step,window_mean_loss,window_mean_recon_error,lr_t,wall_ms\n")
            for step, wloss, wrec, lr_t, wall in self.window_means():
                f.write(f"{step},{wloss!r},{wrec!r},{lr_t!r},{wall!r}\n")


def init_params(rows: np.ndarray, config: TrainConfig, rng: np.random.Generator) -> ModelParams:
    """Seeded initialization.

    Encoder columns are N(0, 1/d); the codebook starts as the encoder scaled
    by the mean per-dimension data standard deviation (decoder roughly inverts
    encoder); prior logits are zero (maximum-entropy prior); log_rho is the
    log of that same mean standard deviation.
    """
    d = rows.shape[1]
    data_std = float(rows.std(axis=0).mean()) if rows.shape[0] > 1 else 1.0
    if data_std <= 0.0:
        data_std = 1.0
    W = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, config.bits))
    U = W * data_std
    beta = np.zeros(config.bits)
    return ModelParams(W, U, beta, np.log(data_std), config.code_domain)


def train(dataset, config: TrainConfig, window: int = LOG_WINDOW):
    """Run the stochastic training loop; returns (ModelParams, TrainingLog).

    Each step samples a minibatch with replacement and fresh uniform draws
    per example per bit, averages the configured estimator over the batch,
    and applies the optimizer at the decayed stepsize. A non-finite
    objective aborts with a reference to the last window-boundary snapshot.
    """
    rows = np.asarray(getattr(dataset, "rows", dataset), dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise InputError("dataset must be a non-empty (N, d) matrix")
    n = rows.shape[0]
    if config.batch_size > n:
        raise InputError(f"batch_size {config.batch_size} exceeds dataset size {n}")

    init_seq, loop_seq = np.random.SeedSequence(config.seed).spawn(2)
    params = init_params(rows, config, np.random.Generator(np.random.Philox(init_seq)))
    rng = np.random.Generator(np.random.Philox(loop_seq))

    state = OptimizerState.zeros_like(params)
    step_fn = adam_step if config.optimizer == OPTIMIZER_ADAM else sgd_step

    loss_trace = np.zeros(config.steps)
    recon_trace = np.zeros(config.steps)
    lr_trace = np.zeros(config.steps)
    walls = []
    last_good = params.copy()
    last_good_step = 0
    t0 = time.perf_counter()

    for step in range(config.steps):
        idx = rng.integers(0, n, size=config.batch_size)
        X = rows[idx]
        xi = rng.random(size=(config.batch_size, config.bits))
        grads, mean_loss, map_err = _batch_stats(
            params, X, xi, config.estimator, config.include_direct_logq_grad
        )
        if not np.isfinite(mean_loss):
            raise TrainingError(
                f"non-finite objective at step {step}; last good snapshot at step {last_good_step}",
                step=step,
                last_good_step=last_good_step,
                params=last_good,
            )
        lr_t = lr_at(config, step)
        try:
            params, state = step_fn(state, params, grads, lr_t)
        except TrainingError as err:
            err.step = step
            err.last_good_step = last_good_step
            err.params = last_good
            raise
        loss_trace[step] = mean_loss
        recon_trace[step] = map_err
        lr_trace[step] = lr_t
        if (step + 1) % window == 0 or step + 1 == config.steps:
            t1 = time.perf_counter()
            walls.append((t1 - t0) * 1000.0)
            t0 = t1
            last_good = params.copy()
            last_good_step = step + 1

    log = TrainingLog(window, loss_trace, recon_trace, lr_trace, np.asarray(walls))
    return params, log


# ---------------------------------------------------------------------------
# enumeration-based gradient verification
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    """Max relative errors of each analytic/estimated block vs finite differences."""

    max_rel_err_w: float
    max_rel_err_u: float
    max_rel_err_beta: float
    max_rel_err_log_rho: float
    clamped_bits: np.ndarray
    fd_step: float

    def ok(self, w_tol: float = 1e-6, decoder_tol: float = 1e-4) -> bool:
        return (
            self.max_rel_err_w < w_tol
            and self.max_rel_err_u < decoder_tol
            and self.max_rel_err_beta < decoder_tol
            and self.max_rel_err_log_rho < decoder_tol
        )

    def summary(self) -> str:
        lines = [
            f"max rel err W        {self.max_rel_err_w:.3e}",
            f"max rel err U        {self.max_rel_err_u:.3e}",
            f"max rel err beta     {self.max_rel_err_beta:.3e}",
            f"max rel err log_rho  {self.max_rel_err_log_rho:.3e}",
        ]
        if self.clamped_bits.any():
            idx = np.flatnonzero(self.clamped_bits)
            lines.append(f"clamp-saturated bits excluded from W check: {list(idx)}")
        return "\n".join(lines)


def _rel_err(a, b, floor: float = 1e-3) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b) / denom))


def _expected_grads(params: ModelParams, x) -> GradientSet:
    bits = enumerate_codes(params.l).astype(np.float64)
    q = np.exp(code_log_q(params, x, bits))
    X = np.broadcast_to(np.asarray(x, dtype=np.float64), (len(bits), params.d))
    P = np.broadcast_to(encode_probs(params, x), bits.shape)
    return _grad_kernel(params, X, P, bits, q, ESTIMATOR_UNBIASED, False)[0]


def expected_grad_w_unbiased(params: ModelParams, x) -> np.ndarray:
    """Enumeration expectation of the unbiased estimator over h ~ q(.|x)."""
    return _expected_grads(params, x).dW


def expected_grad_decoder(params: ModelParams, x):
    """Enumeration expectation of grad_decoder over h ~ q(.|x)."""
    g = _expected_grads(params, x)
    return g.dU, g.dbeta, g.dlog_rho


def exact_grad_check(params: ModelParams, x, fd_step: float = 1e-5) -> GradCheckReport:
    """Compare enumerated estimator expectations against central finite differences.

    (a) the expected unbiased encoder-weight estimator vs d/dW of the exact
    objective for every W entry; (b) expected analytic decoder gradients vs
    finite differences of the same objective. Bits whose activation
    saturates the probability clamp are flagged and excluded from (a): the
    clamp makes the true derivative zero there while the estimator keeps
    the tiny sigmoid slope.
    """
    if params.l > GRAD_CHECK_MAX_BITS:
        raise CapabilityError(
            f"gradient check enumerates 2^l codes per probe; l={params.l} exceeds "
            f"{GRAD_CHECK_MAX_BITS}"
        )
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
    err_w = _rel_err(est_w[:, free], fd_w[:, free])

    dU, dbeta, dlog_rho = expected_grad_decoder(params, x)
    fd_u = np.array([[fd(params.U, i, j) for j in range(params.l)] for i in range(params.d)])
    fd_beta = np.array([fd(params.beta, i) for i in range(params.l)])
    fd_rho = fd(None, 0)

    return GradCheckReport(
        max_rel_err_w=err_w,
        max_rel_err_u=_rel_err(dU, fd_u),
        max_rel_err_beta=_rel_err(dbeta, fd_beta),
        max_rel_err_log_rho=_rel_err(dlog_rho, fd_rho),
        clamped_bits=clamped,
        fd_step=fd_step,
    )
