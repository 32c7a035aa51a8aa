"""Generative hashing model: Gaussian decoder, Bernoulli encoder, per-sample loss.

The decoder reconstructs an input as a (signed) sum of codebook columns,
x ~ N(U h, rho^2 I), with a factorized Bernoulli prior on the code bits.
The encoder is a factorized Bernoulli with per-bit probability
sigmoid(w_k.x); its MAP code is a linear projection followed by a sign.

All operations here are pure and treat ModelParams as read-only, so they
are safe to call concurrently on shared parameters. Data points are plain
1-D float arrays; encoder probabilities are plain 1-D arrays clamped into
(0, 1).
"""

from dataclasses import dataclass

import numpy as np

from .codes import CODE_DOMAINS, ZERO_ONE, HashCode, bits_to_values, pack_bits, unpack_bits
from .errors import CapabilityError, InputError

# probabilities are clamped to [PROB_CLAMP, 1 - PROB_CLAMP] before any log
PROB_CLAMP = 1e-7

# exhaustive enumeration over 2^l codes is refused above this length
ENUM_MAX_BITS = 20


@dataclass
class ModelParams:
    """Learned quantities: encoder weights, codebook, prior logits, noise scale.

    W, U are (d, l); column k of W is the encoder weight for bit k and
    column k of U is its codeword. beta holds the prior log-odds. rho is
    stored as log_rho so positivity needs no constraint handling.
    code_domain is fixed at construction.
    """

    W: np.ndarray
    U: np.ndarray
    beta: np.ndarray
    log_rho: float
    code_domain: str = ZERO_ONE

    def __post_init__(self):
        self.W = np.ascontiguousarray(self.W, dtype=np.float64)
        self.U = np.ascontiguousarray(self.U, dtype=np.float64)
        self.beta = np.ascontiguousarray(self.beta, dtype=np.float64)
        self.log_rho = float(self.log_rho)
        if self.W.ndim != 2:
            raise InputError("W must be a (d, l) matrix")
        if self.U.shape != self.W.shape:
            raise InputError(f"U shape {self.U.shape} != W shape {self.W.shape}")
        if self.beta.shape != (self.W.shape[1],):
            raise InputError(f"beta must have length {self.W.shape[1]}")
        if self.code_domain not in CODE_DOMAINS:
            raise InputError(f"unknown code domain: {self.code_domain!r}")
        if not (
            np.all(np.isfinite(self.W))
            and np.all(np.isfinite(self.U))
            and np.all(np.isfinite(self.beta))
            and np.isfinite(self.log_rho)
        ):
            raise InputError("model parameters must be finite")

    @property
    def d(self) -> int:
        return self.W.shape[0]

    @property
    def l(self) -> int:
        return self.W.shape[1]

    @property
    def rho(self) -> float:
        return float(np.exp(self.log_rho))

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.W.copy(), self.U.copy(), self.beta.copy(), self.log_rho, self.code_domain
        )

    def encode_batch(self, X) -> np.ndarray:
        """MAP codes of the (already centred) rows of X as packed words."""
        return encode_map_batch(self, X)

    def reconstruct_batch(self, X) -> np.ndarray:
        """Decoder means of the MAP codes of the rows of X."""
        bits = unpack_bits(encode_map_batch(self, X), self.l)
        return bits_to_values(bits, self.code_domain) @ self.U.T

    def templates(self) -> np.ndarray:
        """One input-space template per bit: the codebook columns, as (l, d)."""
        return self.U.T


def sigmoid(z):
    """Numerically stable logistic function, without per-sign gathers.

    With e = exp(-|z|), which cannot overflow, it is 1 / (1 + e) where
    z >= 0 and e / (1 + e) elsewhere; the numerator max(e, z >= 0) picks 1
    or e without a data-dependent branch. -|z| is taken as min(z, -z),
    which passes a NaN through with its sign and payload, so the result
    equals the two-branch form bit for bit, at +-0, +-inf and NaN too.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(np.minimum(z, -z))
    return np.maximum(e, z >= 0) / (1.0 + e)


def softplus(z):
    """log(1 + exp(z)) via the overflow-safe max(z,0) + log1p(exp(-|z|)) branch."""
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def clamp_probs(p):
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def _check_point(params: ModelParams, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.d,):
        raise InputError(f"data point has shape {x.shape}, expected ({params.d},)")
    return x


def encode_logits(params: ModelParams, x) -> np.ndarray:
    """Pre-sigmoid encoder activations W^T x."""
    x = _check_point(params, x)
    return params.W.T @ x


def encode_probs(params: ModelParams, x) -> np.ndarray:
    """Per-bit Bernoulli probabilities sigmoid(W^T x), clamped into (0, 1)."""
    return clamp_probs(sigmoid(encode_logits(params, x)))


def encode_map(params: ModelParams, x) -> HashCode:
    """MAP code: bit k = 1 iff w_k.x >= 0 (sign(0) = +1)."""
    return HashCode.from_bits(encode_logits(params, x) >= 0.0)


def encode_map_batch(params: ModelParams, X) -> np.ndarray:
    """MAP-encode the rows of X; returns (N, ceil(l/64)) packed words."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.d:
        raise InputError(f"expected (N, {params.d}) data matrix, got {X.shape}")
    return pack_bits(X @ params.W >= 0.0)


def stochastic_neuron(p: float, xi: float) -> int:
    """Threshold draw: 1 if p >= xi else 0, for p in (0,1) and xi in [0,1).

    Deterministic given xi, and P(output=1) = p when xi is uniform. Bit 1
    reads as +1 under the plus-minus domain.
    """
    if not 0.0 < p < 1.0:
        raise InputError(f"probability must lie in (0,1), got {p}")
    if not 0.0 <= xi < 1.0:
        raise InputError(f"uniform draw must lie in [0,1), got {xi}")
    return int(p >= xi)


def encode_sample(params: ModelParams, x, xi) -> HashCode:
    """Sampled code: per-bit stochastic neuron at probabilities encode_probs(x)."""
    xi = np.asarray(xi, dtype=np.float64)
    if xi.shape != (params.l,):
        raise InputError(f"xi must have length {params.l}")
    if np.any(xi < 0.0) or np.any(xi >= 1.0):
        raise InputError("uniform draws must lie in [0,1)")
    return HashCode.from_bits(encode_probs(params, x) >= xi)


def _code_bits(params: ModelParams, h: HashCode) -> np.ndarray:
    if h.l != params.l:
        raise InputError(f"code length {h.l} != model code length {params.l}")
    return h.to_bits()


def decode(params: ModelParams, h: HashCode) -> np.ndarray:
    """Decoder mean: sum of codebook columns selected (or signed) by the code."""
    bits = _code_bits(params, h)
    return params.U @ bits_to_values(bits, params.code_domain)


def loss_bits(params: ModelParams, bits, x) -> np.ndarray:
    """Per-sample description-length loss for one x and a (..., l) array of codes.

    -log p(x,h) + log q(h|x), expanded as
      ||x - U h||^2 / (2 rho^2) + (d/2) log(2 pi rho^2)     reconstruction
      - beta.b + sum_k softplus(beta_k)                      prior
      + sum_k [b_k log p_k + (1-b_k) log(1-p_k)]             posterior
    where b is the 0/1 bit vector (the plus-minus domain keeps b = (1+h)/2
    in the prior/posterior exponents) and only the reconstruction term sees
    the mapped code values.
    """
    x = _check_point(params, x)
    bits = np.asarray(bits)
    if bits.shape[-1] != params.l:
        raise InputError(f"codes must have {params.l} bits")
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


def loss(params: ModelParams, h: HashCode, x) -> float:
    """Description-length loss of one (code, input) pair."""
    return float(loss_bits(params, _code_bits(params, h), x))


def enumerate_codes(l: int) -> np.ndarray:
    """All 2^l codes as a (2^l, l) boolean array; row index c has bit k = (c>>k)&1."""
    if l > ENUM_MAX_BITS:
        raise CapabilityError(f"enumeration over 2^{l} codes exceeds the {ENUM_MAX_BITS}-bit guard")
    c = np.arange(1 << l, dtype=np.uint64)[:, None]
    return ((c >> np.arange(l, dtype=np.uint64)) & np.uint64(1)).astype(bool)


def code_log_q(params: ModelParams, x, bits) -> np.ndarray:
    """log q(h|x) for a (..., l) array of codes."""
    p = encode_probs(params, x)
    b = np.asarray(bits).astype(np.float64)
    return b @ np.log(p) + (1.0 - b) @ np.log(1.0 - p)


def exact_objective(params: ModelParams, x) -> float:
    """Exhaustive variational free energy: sum_h q(h|x) loss(h, x).

    Feasible only for l <= ENUM_MAX_BITS; this is the oracle every gradient
    estimator is checked against.
    """
    bits = enumerate_codes(params.l)
    q = np.exp(code_log_q(params, x, bits))
    return float(q @ loss_bits(params, bits, x))


def log_marginal(params: ModelParams, x) -> float:
    """Exact -free-energy lower bound target: log p(x) by code enumeration."""
    bits = enumerate_codes(params.l)
    log_q = code_log_q(params, x, bits)
    # log p(x,h) = log q - loss, so log p(x) = logsumexp over codes
    log_joint = log_q - loss_bits(params, bits, x)
    m = log_joint.max()
    return float(m + np.log(np.exp(log_joint - m).sum()))
