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

The kernel also returns three per-row terms it has at hand: log(P), from
which it forms the logit, log(1 - P) of the 1 - P it weights the encoder
estimate by, and the squared residual norms ||x - U h||^2, from which it
forms dlog_rho. The training step hands them to model.loss_terms for the
posterior and reconstruction terms of its sampled loss. The step's
elementwise passes write into arrays their call allocates (out=), so a step
allocates a few (B, l) and (B, d) arrays, not one per operation.

The optimizers and exact_grad_check loop over ModelParams.BLOCKS; train has
one abort site, for a non-finite loss or gradient.
"""

import time
from dataclasses import dataclass

import numpy as np

from .codes import ZERO_ONE, HashCode, bits_to_values, check_length
from .errors import CapabilityError, InputError, TrainingError
from .model import (
    BLOCK_BYTES,
    ModelParams,
    as_rows,
    block_rows,
    clamp_probs,
    code_log_q,
    column_sums,
    encode_probs,
    enumerate_codes,
    exact_objective,
    loss_terms,
    row_blocks,
    sigmoid,
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
        check_length(self.bits)
        if self.batch_size < 1:
            raise InputError("batch_size must be >= 1")
        if not 0 < self.lr < np.inf:  # also false for NaN
            raise InputError("lr must be positive and finite")
        if self.estimator not in ESTIMATORS:
            raise InputError(f"estimator must be one of {ESTIMATORS}")
        if self.optimizer not in OPTIMIZERS:
            raise InputError(f"optimizer must be one of {OPTIMIZERS}")
        if self.seed < 0:
            raise InputError("seed must be >= 0")
        if self.decay_horizon is not None and self.decay_horizon < 1:
            raise InputError("decay_horizon must be >= 1")

    def effective_decay_horizon(self) -> int:
        return self.decay_horizon or max(1, round(10 * self.steps / 11))


@dataclass
class GradientSet:
    """Gradients shaped like ModelParams."""

    dW: np.ndarray
    dU: np.ndarray
    dbeta: np.ndarray
    dlog_rho: float

    def blocks(self) -> list:
        """d<name> for each name of ModelParams.BLOCKS, in that order."""
        return [getattr(self, "d" + name) for name in ModelParams.BLOCKS]

    def finite(self) -> bool:
        return all(np.isfinite(g).all() for g in self.blocks())


@dataclass
class OptimizerState:
    """Adam first and second moments, one per ModelParams block (unused by plain SGD).

    The log_rho moments are 0-d arrays, so every moment updates in place.
    """

    m: list
    v: list
    step: int = 0

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "OptimizerState":
        return cls([np.zeros_like(b) for b in params.blocks()],
                   [np.zeros_like(b) for b in params.blocks()])


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
    """Weighted-mean GradientSet over rows (x, p, b) of X, P, bits; also log(P),
    log(1 - P) and ||r||^2.

    Row i contributes the decoder gradients of grad_decoder and the encoder
    estimate x c^T, where c_k is the flip delta (unbiased) or the loss slope
    (approx) times p_k (1 - p_k), plus b_k - p_k with include_direct. The
    mean is sum_i w_i g_i / sum_i w_i; with unit weights it is bit-identical
    to the plain batch mean.

    With the domain's code levels (off, on) = bits_to_values([0, 1]) and
    code values h, the flip delta loss(h_k = on) - loss(h_k = off) is
    (on - off) ((on + off - 2 h_k) ||u_k||^2 - 2 r . u_k) / (2 rho^2)
    - beta_k + logit(p_k), one expression for both domains.

    Each (B, l) and (B, d) pass writes into an array the call allocates
    (out=), in the order of the plain expressions, so the bytes are theirs.
    """
    total = weights.sum()
    rho2 = np.exp(2.0 * params.log_rho)
    log_p = np.log(P)
    logit = np.negative(P)
    np.subtract(log_p, np.log1p(logit, out=logit), out=logit)
    values = bits_to_values(bits, params.code_domain)
    R = values @ params.U.T
    np.subtract(X, R, out=R)  # now the residual x - U h

    dU = -(R.T @ (values * weights[:, None])) / (total * rho2)
    dbeta = sigmoid(params.beta) - (weights @ bits) / total
    s = R @ params.U  # r . u_k per bit
    rsq = np.multiply(R, R, out=R).sum(axis=1)
    dlog_rho = params.d - float((rsq * weights).sum() / total) / rho2

    usq = (params.U * params.U).sum(axis=0)
    if estimator == ESTIMATOR_UNBIASED:
        off, on = bits_to_values(np.array([0, 1]), params.code_domain)
        step = on - off  # scales the (l,) and scalar factors, not a (B, l) array
        per_bit = np.multiply(2.0, values)
        np.subtract(on + off, per_bit, out=per_bit)
        np.multiply(per_bit, step * usq, out=per_bit)
        np.subtract(per_bit, np.multiply(2.0 * step, s, out=s), out=per_bit)
        np.divide(per_bit, 2.0 * rho2, out=per_bit)
        np.subtract(per_bit, params.beta, out=per_bit)
        np.add(per_bit, logit, out=per_bit)
    else:
        per_bit = np.divide(np.negative(s, out=s), rho2, out=s)
        if params.code_domain == ZERO_ONE:
            np.subtract(per_bit, params.beta, out=per_bit)
            np.add(per_bit, logit, out=per_bit)
        else:  # the prior and posterior see b_k = (1 + h_k) / 2
            np.add(-params.beta, logit, out=logit)
            np.add(per_bit, np.multiply(0.5, logit, out=logit), out=per_bit)
    one_minus_p = np.subtract(1.0, P)
    coeff = np.multiply(per_bit, P, out=per_bit)
    np.multiply(coeff, one_minus_p, out=coeff)
    if include_direct:
        np.add(coeff, np.subtract(bits, P, out=logit), out=coeff)
    dW = X.T @ np.multiply(coeff, weights[:, None], out=coeff) / total
    log_1mp = np.log(one_minus_p, out=one_minus_p)
    return GradientSet(dW, dU, dbeta, dlog_rho), log_p, log_1mp, rsq


def _sample_grads(params: ModelParams, x, h: HashCode, estimator=ESTIMATOR_UNBIASED,
                  include_direct=False) -> GradientSet:
    P = encode_probs(params, x)[None, :]
    X = np.asarray(x, dtype=np.float64)[None, :]
    bits = params._bits(h).astype(np.float64)[None, :]
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
    c1 = 1.0 - ADAM_BETA1**state.step
    c2 = 1.0 - ADAM_BETA2**state.step
    for name, m, v, g in zip(ModelParams.BLOCKS, state.m, state.v, grads.blocks()):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        step = (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        setattr(params, name, getattr(params, name) - lr_t * step)
    return params, state


def sgd_step(
    state: OptimizerState, params: ModelParams, grads: GradientSet, lr_t: float
) -> tuple[ModelParams, OptimizerState]:
    """Plain gradient step."""
    if not grads.finite():
        raise TrainingError("non-finite gradient in optimizer step", step=state.step)
    state.step += 1
    for name, g in zip(ModelParams.BLOCKS, grads.blocks()):
        setattr(params, name, getattr(params, name) - lr_t * g)
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
        Z = X @ params.W
        P = clamp_probs(sigmoid(Z))
        bits = (P >= xi).astype(np.float64)
        grads, log_p, log_1mp, rsq = _grad_kernel(
            params, X, P, bits, np.ones(len(X)), estimator, include_direct
        )

        # mean sampled loss of the batch
        recon, norm, prior, posterior = loss_terms(params, rsq, bits, log_p, log_1mp)
        mean_loss = float(recon.mean() + norm + prior.mean() + posterior.mean())

        # MAP reconstruction error ||x - U h_map(x)||^2, reusing the logits
        map_resid = params.decode_batch(Z >= 0.0)
        np.subtract(X, map_resid, out=map_resid)
        map_err = float(np.multiply(map_resid, map_resid, out=map_resid).sum(axis=1).mean())
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


def column_std(rows) -> np.ndarray:
    """rows.std(axis=0) of an (N, d) float64 matrix or model.Rows, byte for
    byte, without an (N, d) temporary.

    numpy takes the column mean as rows.sum(axis=0) / N (model.column_sums),
    sums the squared deviations (x - mean)**2 down each column, divides by
    N and takes the root. Its sum follows the layout. Where the column axis
    has the smaller stride (C order, a row view such as X[::2], a Rows of a
    vector file) it adds the rows in order; the squares are formed one
    model.row_blocks block at a time in a buffer whose row 0 carries each
    column's running sum, so the blocked sum adds in that order. Where a
    column is the contiguous run (Rows.pairwise: d = 1, Fortran order)
    numpy sums it pairwise, so the squares are formed a few whole columns
    at a time (about BLOCK_BYTES) and summed the same way. A column cannot
    be split there without changing that order, so past BLOCK_BYTES / 8
    rows the temporary is one column of N float64s: at d = 1 as large as
    the rows, which is numpy's own (N, d) temporary.
    """
    rows = as_rows(rows)
    n, d = rows.shape
    mean = column_sums(rows) / n
    if rows.pairwise:
        matrix = rows.matrix()
        sq = np.empty(d)
        width = max(1, BLOCK_BYTES // (8 * n))
        buf = np.empty((n, min(width, d)), order="F")  # columns contiguous, as numpy's
        for a in range(0, d, width):
            dev = buf[:, : min(width, d - a)]
            np.square(np.subtract(matrix[:, a : a + width], mean[a : a + width], out=dev), out=dev)
            sq[a : a + width] = dev.sum(axis=0)
    else:
        bounds = row_blocks(n, block_rows(d))
        buf = np.empty((max(b - a for a, b in bounds) + 1, d))
        sq = np.full(d, -0.0)  # -0.0 + y is y for every y, so the first block adds from 0
        for a, b in bounds:
            buf[0] = sq
            dev = buf[1 : b - a + 1]
            np.square(np.subtract(rows[a:b], mean, out=dev), out=dev)
            np.add.reduce(buf[: b - a + 1], axis=0, out=sq)
    return np.sqrt(np.divide(sq, n, out=sq), out=sq)


def init_params(rows, config: TrainConfig, rng: np.random.Generator) -> ModelParams:
    """Seeded initialization.

    rows is an (N, d) float64 matrix or model.Rows. Encoder columns are
    N(0, 1/d); the codebook starts as the encoder scaled
    by the mean per-dimension data standard deviation (decoder roughly inverts
    encoder); prior logits are zero (maximum-entropy prior); log_rho is the
    log of that same mean standard deviation (1 where that mean is 0). The
    spread comes from column_std: the column sums, then the squared
    deviations in row blocks of about 1 MB, with no (N, d) temporary
    (except at d = 1 and in Fortran order; see column_std). A
    column whose spread is not finite (NaN or inf in the rows, or values
    too large to square) is an InputError, raised before any parameter is
    drawn.
    """
    d = rows.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        spread = column_std(rows)
    bad = np.flatnonzero(~np.isfinite(spread))
    if bad.size:
        raise InputError(
            f"dataset column {bad[0]} has a non-finite spread: it holds NaN or inf, "
            "or values too large to square"
        )
    data_std = float(spread.mean())
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
    and applies the optimizer at the decayed stepsize. A non-finite loss or
    gradient aborts with a reference to the last window-boundary snapshot.

    dataset is an (N, d) float64 matrix or a model.Rows (a data_io.Dataset
    is one). A Rows is read a row block at a time for the initial spread,
    and each step gathers its batch rows[idx] as float64 (Rows.gather),
    so a vector file is never upcast whole.
    """
    rows = as_rows(dataset)
    if len(rows.shape) != 2 or 0 in rows.shape:
        raise InputError(f"dataset must be a non-empty (N, d) matrix with d >= 1, got {rows.shape}")
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
    gather = rows.gather(config.batch_size)
    t0 = time.perf_counter()

    for step in range(config.steps):
        idx = rng.integers(0, n, size=config.batch_size)
        X = gather(idx)
        xi = rng.random(size=(config.batch_size, config.bits))
        grads, mean_loss, map_err = _batch_stats(
            params, X, xi, config.estimator, config.include_direct_logq_grad
        )
        if not (np.isfinite(mean_loss) and grads.finite()):
            raise TrainingError(
                f"non-finite objective or gradient at step {step}; "
                f"last good snapshot at step {last_good_step}",
                step=step,
                last_good_step=last_good_step,
                params=last_good,
            )
        lr_t = lr_at(config, step)
        params, state = step_fn(state, params, grads, lr_t)
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

    def _errors(self) -> tuple:
        """The four errors, in ModelParams.BLOCKS order."""
        return (self.max_rel_err_w, self.max_rel_err_u, self.max_rel_err_beta,
                self.max_rel_err_log_rho)

    def ok(self, w_tol: float = 1e-6, decoder_tol: float = 1e-4) -> bool:
        err_w, *err_decoder = self._errors()
        return err_w < w_tol and all(err < decoder_tol for err in err_decoder)

    def summary(self) -> str:
        lines = [f"max rel err {name:<9}{err:.3e}"
                 for name, err in zip(ModelParams.BLOCKS, self._errors())]
        if self.clamped_bits.any():
            idx = np.flatnonzero(self.clamped_bits)
            lines.append(f"clamp-saturated bits excluded from W check: {idx.tolist()}")
        return "\n".join(lines)


def _rel_err(a, b, floor: float = 1e-3) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom, initial=0.0))


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

    def fd(name):
        """Central differences of the exact objective in every entry of one block."""
        saved = getattr(params, name)
        probe = np.array(saved, dtype=np.float64)  # a writable copy, 0-d for log_rho
        setattr(params, name, probe)
        grad = np.empty(probe.shape)
        for idx in np.ndindex(probe.shape):
            orig = probe[idx]
            probe[idx] = orig + fd_step
            hi = exact_objective(params, x)
            probe[idx] = orig - fd_step
            lo = exact_objective(params, x)
            probe[idx] = orig
            grad[idx] = (hi - lo) / (2.0 * fd_step)
        setattr(params, name, saved)
        return grad

    est = _expected_grads(params, x)
    fd_w, fd_u, fd_beta, fd_rho = map(fd, ModelParams.BLOCKS)
    free = ~clamped
    return GradCheckReport(
        max_rel_err_w=_rel_err(est.dW[:, free], fd_w[:, free]),
        max_rel_err_u=_rel_err(est.dU, fd_u),
        max_rel_err_beta=_rel_err(est.dbeta, fd_beta),
        max_rel_err_log_rho=_rel_err(est.dlog_rho, fd_rho),
        clamped_bits=clamped,
        fd_step=fd_step,
    )
