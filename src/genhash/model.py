"""Generative hashing model: Gaussian decoder, Bernoulli encoder, per-sample loss.

The decoder reconstructs an input as a (signed) sum of codebook columns,
x ~ N(U h, rho^2 I), with a factorized Bernoulli prior on the code bits.
The encoder is a factorized Bernoulli with per-bit probability
sigmoid(w_k.x); its MAP code is a linear projection followed by a sign.

All operations here are pure and treat ModelParams as read-only, so they
are safe to call concurrently on shared parameters. Data points are plain
1-D float arrays; encoder probabilities are plain 1-D arrays clamped into
(0, 1).

Written once here: Hasher's input checks for every model, the decoder mean
ModelParams.decode_batch, loss_terms, the batched loss terms that
loss_bits, code_log_q and the training step use, sign_blocks, the MAP
sign rule of every batch encoder, and Rows, the one source of float64 data
rows, with as_rows, its one (N, d) data-matrix check, _column_reduce, the
one column reduction in numpy's order (column_sums, column_std), and
check_columns, the one finiteness check of a column statistic.
sign_blocks projects and thresholds one row block (row_blocks) at a
time. The encoders pack each block into the output words as it comes
(sign_words), so encoding N rows holds the packed words and one block:
about 1 MB of float64 projections and its bools, never the whole (N, l)
product or N*l bools. reconstruct_batch gathers the blocks' bits into one
(N, l) bool array (sign_bits).

A Rows upcasts, scales and centres the rows it is asked for, so a file's
float32 or uint8 values (data_io.Dataset) reach the encoders, training and
the baselines one block at a time, and never as a whole float64 copy. An
encoder's block is sized by l, so its converted rows are block_rows(l) to
2 block_rows(l) rows of d float64 values: about d/l to 2 d/l MB, 126 MB at
most at d = 960, l = 16.
"""

import copy
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .codes import CODE_DOMAINS, ZERO_ONE, HashCode, bits_to_values, check_length, n_words, pack_bits
from .errors import CapabilityError, InputError

# probabilities are clamped to [PROB_CLAMP, 1 - PROB_CLAMP] before any log
PROB_CLAMP = 1e-7

# exhaustive enumeration over 2^l codes is refused above this length
ENUM_MAX_BITS = 20

# a row block holds about this many bytes of float64 values, l per row
BLOCK_BYTES = 1 << 20


def block_rows(l: int) -> int:
    """Rows per block of l float64 values each: a multiple of 4, 2048 at l=64."""
    return max(4, BLOCK_BYTES // (8 * l) // 4 * 4)


def row_blocks(n: int, block: int) -> list:
    """(start, stop) bounds of n // block nearly equal blocks over n rows.

    With block a multiple of 4, each block holds a multiple of 4 rows, from
    block to under 2 block (fewer than 2 block rows make one block), and
    the last block also the last n mod 4 rows. A product taken block by
    block then keeps the bytes of one product over all n rows. The BLAS
    dgemv sums the last rows mod 4 of a call in another order, and here, as
    in the whole product, only the last n mod 4 rows take it. No block is
    short, because numpy computes a one-row product as a dot product and
    OpenBLAS some products of at most 100**3 multiply-adds with a
    small-matrix kernel, each in yet another order.
    """
    groups = n // 4
    count = max(1, groups // (block // 4))
    bounds = [4 * (groups * i // count) for i in range(count)] + [n]
    return list(zip(bounds, bounds[1:]))


class Rows:
    """The rows of an (N, d) matrix as float64, a selection at a time.

    stored holds the values as they are kept: a float64 matrix, or a
    file's float32 or uint8 values (data_io maps them read-only). rows[sel]
    (sel a slice, an int or an index array) is stored[sel] upcast to
    float64, divided by scale, less mean, in that order. Each step is exact
    and elementwise, so a selection holds the bytes of the same rows of the
    whole float64 matrix, matrix(). A float64 matrix with neither scale nor
    mean is used as it is: rows[a:b] is a view of it, and matrix() is it.
    """

    def __init__(self, stored, scale=None, mean=None):
        self.stored = stored
        self.scale = scale
        self.mean = mean

    @property
    def shape(self) -> tuple:
        return self.stored.shape

    @property
    def n(self) -> int:
        return self.stored.shape[0]

    @property
    def d(self) -> int:
        return self.stored.shape[1]

    def __len__(self) -> int:
        return len(self.stored)

    @property
    def converts(self) -> bool:
        """Whether a selection is computed, rather than a view of stored."""
        return self.stored.dtype != np.float64 or self.scale is not None or self.mean is not None

    def take(self, sel, out=None) -> np.ndarray:
        """rows[sel], written into the float64 array out when one is given."""
        rows = self.stored[sel]
        if out is not None:
            np.copyto(out, rows)
            rows = out
        elif not self.converts:
            return rows
        elif rows.dtype != np.float64 or np.may_share_memory(rows, self.stored):
            rows = rows.astype(np.float64)
        return self._scale_and_centre(rows, self.mean)

    def _scale_and_centre(self, rows, mean) -> np.ndarray:
        """Float64 rows, divided by scale and less mean in place."""
        if self.scale is not None:
            np.divide(rows, self.scale, out=rows)
        if mean is not None:
            np.subtract(rows, mean, out=rows)
        return rows

    def __getitem__(self, sel) -> np.ndarray:
        return self.take(sel)

    def gather(self, size: int):
        """A function that gives rows[idx] for a (size,) index array idx.

        When rows converts, every call writes into one (size, d) float64
        buffer, which the next call overwrites, and subtracts the mean as a
        (size, d) tile made once: numpy subtracts a (d,) mean one row at a
        time, at about twice the cost.
        """
        if not self.converts:
            return self.take
        out = np.empty((size, self.d))
        tile = None if self.mean is None else np.tile(self.mean, (size, 1))

        def gather(idx):
            np.copyto(out, self.stored[idx])
            return self._scale_and_centre(out, tile)

        return gather

    def matrix(self) -> np.ndarray:
        """The whole (N, d) float64 matrix: stored itself, or a new array."""
        return self.take(slice(None)) if self.converts else self.stored

    def with_mean(self, mean) -> "Rows":
        """The same stored values, scale and class, less mean instead."""
        rows = copy.copy(self)
        rows.mean = mean
        return rows

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix(), dtype=dtype, copy=copy)


def as_rows(X) -> Rows:
    """X as a Rows: X itself if it is one (a data_io.Dataset is), else its
    float64 matrix. InputError unless it is 2-D: the one data-matrix check."""
    rows = X if isinstance(X, Rows) else Rows(np.asarray(X, dtype=np.float64))
    if len(rows.shape) != 2:
        raise InputError(f"expected an (N, d) data matrix, got shape {rows.shape}")
    return rows


def check_columns(stat: np.ndarray, name: str) -> np.ndarray:
    """stat, a (d,) or (d, d) statistic called name of the data columns, if
    it is finite, else an InputError naming the first column where it is
    not. Callers take stat under np.errstate(over="ignore", invalid="ignore"),
    so values too large to sum or square fail here, not as a warning."""
    bad = np.flatnonzero(~np.isfinite(stat.reshape(len(stat), -1)).all(axis=1))
    if bad.size:
        raise InputError(
            f"dataset column {bad[0]} has a non-finite {name}: it holds NaN or inf, "
            "or values too large to sum or square"
        )
    return stat


def column_sums(rows: Rows) -> np.ndarray:
    """matrix().sum(axis=0), byte for byte (_column_reduce)."""
    return _column_reduce(rows)


def column_std(rows) -> np.ndarray:
    """rows.std(axis=0) of an (N, d) float64 matrix or Rows, byte for byte:
    as numpy, the column sums over N give the mean, and the column sums of
    the squared deviations over N give the variance (_column_reduce)."""
    rows = as_rows(rows)
    sq = _column_reduce(rows, column_sums(rows) / rows.n)
    return np.sqrt(np.divide(sq, rows.n, out=sq), out=sq)


def _column_reduce(rows: Rows, centre=None) -> np.ndarray:
    """The column sums of matrix(), or with centre those of its squared
    deviations (x - centre)**2, in numpy's summation order.

    numpy's sum follows the layout. Where the column axis has the smaller
    stride (C order, a row view such as X[::2], a file's records) it adds
    the rows in order, so the terms are formed one row_blocks block at a
    time in a buffer whose row 0 carries each column's running sum. Where a
    column is the contiguous run (d = 1, Fortran order; conversion keeps
    the layout) numpy sums it pairwise, which no split of a column keeps:
    the sums are those of matrix(), and the squares are formed a few whole
    columns at a time (about BLOCK_BYTES, at least one column of N float64s,
    at d = 1 as large as the rows).
    """
    n, d = rows.shape
    row_stride, col_stride = (abs(stride) for stride in rows.stored.strides)
    pairwise = d == 1 or 0 < row_stride < col_stride
    if centre is None and (pairwise or not rows.converts):
        return rows.matrix().sum(axis=0)
    if pairwise:
        matrix, sq = rows.matrix(), np.empty(d)
        width = max(1, BLOCK_BYTES // (8 * n))
        buf = np.empty((n, min(width, d)), order="F")  # columns contiguous, as numpy's
        for a in range(0, d, width):
            dev = buf[:, : min(width, d - a)]
            np.square(np.subtract(matrix[:, a : a + width], centre[a : a + width], out=dev), out=dev)
            sq[a : a + width] = dev.sum(axis=0)
        return sq
    bounds = row_blocks(n, block_rows(d))
    buf = np.empty((max(b - a for a, b in bounds) + 1, d))
    sums = np.full(d, -0.0)  # -0.0 + y is y for every y, so the first block adds from 0
    for a, b in bounds:
        buf[0] = sums
        block = buf[1 : b - a + 1]
        if centre is None:
            rows.take(slice(a, b), out=block)
        else:
            np.square(np.subtract(rows[a:b], centre, out=block), out=block)
        np.add.reduce(buf[: b - a + 1], axis=0, out=sums)
    return sums


def sign_blocks(project, X, l: int):
    """Yield (a, b, project(X[a:b]) >= 0.0) for each row block of an (N, d)
    matrix or Rows: the MAP sign rule of every encoder (sign(0) = +1).

    project maps a block of rows to their (rows, l) projections, row by
    row. It runs on one row block at a time, so only one block of
    projections, and of a Rows' converted rows, exists at once. Blocks are
    sized by l (about 1 MB of projections), so a block of converted rows is
    under 2 block_rows(l) x d float64 values, d/l times the projections.
    """
    for a, b in row_blocks(len(X), block_rows(l)):
        yield a, b, project(X[a:b]) >= 0.0


def sign_bits(project, X, l: int) -> np.ndarray:
    """The (N, l) bits of sign_blocks."""
    bits = np.empty((len(X), l), dtype=bool)
    for a, b, block in sign_blocks(project, X, l):
        bits[a:b] = block
    return bits


def sign_words(project, X, l: int) -> np.ndarray:
    """The bits of sign_blocks as (N, ceil(l/64)) packed words, each block
    packed as it comes, so no (N, l) bools exist."""
    words = np.empty((len(X), n_words(l)), dtype=np.uint64)
    for a, b, block in sign_blocks(project, X, l):
        words[a:b] = pack_bits(block)
    return words


class Hasher:
    """Input checks shared by every model with input width d and code length l."""

    def _check(self):
        """InputError unless d >= 1 and check_length(l) holds. Each model runs
        it when built and save_checkpoint before it writes."""
        if self.d < 1:
            raise InputError(f"input width d must be >= 1, got {self.d}")
        check_length(self.l)

    def _rows(self, X) -> Rows:
        X = as_rows(X)
        if X.d != self.d:
            raise InputError(f"expected (N, {self.d}) data matrix, got {X.shape}")
        return X

    def _point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d,):
            raise InputError(f"data point has shape {x.shape}, expected ({self.d},)")
        return x

    def _bits(self, h: HashCode) -> np.ndarray:
        if h.l != self.l:
            raise InputError(f"code length {h.l} != model code length {self.l}")
        return h.to_bits()


@dataclass
class ModelParams(Hasher):
    """Learned quantities: encoder weights, codebook, prior logits, noise scale.

    W, U are (d, l); column k of W is the encoder weight for bit k and
    column k of U is its codeword. beta holds the prior log-odds. rho is
    stored as log_rho so positivity needs no constraint handling.
    code_domain is fixed at construction. BLOCKS names the trained blocks,
    in the order blocks() returns them and training updates them.
    """

    BLOCKS: ClassVar[tuple] = ("W", "U", "beta", "log_rho")

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
        self._check()
        if self.U.shape != self.W.shape:
            raise InputError(f"U shape {self.U.shape} != W shape {self.W.shape}")
        if self.beta.shape != (self.W.shape[1],):
            raise InputError(f"beta must have length {self.W.shape[1]}")
        if self.code_domain not in CODE_DOMAINS:
            raise InputError(f"unknown code domain: {self.code_domain!r}")
        if not all(np.isfinite(block).all() for block in self.blocks()):
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

    def blocks(self) -> list:
        """The trained blocks W, U, beta, log_rho, in BLOCKS order."""
        return [getattr(self, name) for name in self.BLOCKS]

    def copy(self) -> "ModelParams":
        return ModelParams(*map(np.copy, self.blocks()), self.code_domain)

    def encode_batch(self, X) -> np.ndarray:
        """MAP codes of the (already centred) rows of X as packed words."""
        return encode_map_batch(self, X)

    def reconstruct_batch(self, X) -> np.ndarray:
        """Decoder means of the MAP codes of the rows of X."""
        return self.decode_batch(sign_bits(self._project, self._rows(X), self.l))

    def _project(self, X) -> np.ndarray:
        """Encoder activations X W of (N, d) rows, as (N, l)."""
        return X @ self.W

    def decode_batch(self, bits) -> np.ndarray:
        """Decoder means U h of a (..., l) array of 0/1 codes, as (..., d)."""
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
    Each pass writes into one of two arrays the call allocates.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.negative(z, out=np.empty_like(z))
    np.exp(np.minimum(z, e, out=e), out=e)
    denom = np.add(1.0, e)
    return np.divide(np.maximum(e, z >= 0, out=e), denom, out=e)[()]


def softplus(z):
    """log(1 + exp(z)) via the overflow-safe max(z,0) + log1p(exp(-|z|)) branch."""
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def clamp_probs(p):
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def encode_logits(params: ModelParams, x) -> np.ndarray:
    """Pre-sigmoid encoder activations W^T x."""
    return params.W.T @ params._point(x)


def encode_probs(params: ModelParams, x) -> np.ndarray:
    """Per-bit Bernoulli probabilities sigmoid(W^T x), clamped into (0, 1)."""
    return clamp_probs(sigmoid(encode_logits(params, x)))


def encode_map(params: ModelParams, x) -> HashCode:
    """MAP code: bit k = 1 iff w_k.x >= 0 (sign(0) = +1)."""
    return HashCode.from_bits(encode_logits(params, x) >= 0.0)


def encode_map_batch(params: ModelParams, X) -> np.ndarray:
    """MAP-encode the rows of X, one row block at a time (sign_words);
    returns (N, ceil(l/64)) packed words."""
    return sign_words(params._project, params._rows(X), params.l)


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


def decode(params: ModelParams, h: HashCode) -> np.ndarray:
    """Decoder mean: sum of codebook columns selected (or signed) by the code."""
    return params.decode_batch(params._bits(h))


def loss_terms(params: ModelParams, rsq, bits, log_p, log_1mp):
    """Description-length terms of (..., l) float codes b, given rsq = ||x - U h||^2:

      ||x - U h||^2 / (2 rho^2)                  reconstruction
      (d/2) log(2 pi rho^2)                      normaliser, a scalar
      - beta.b + sum_k softplus(beta_k)          prior
      sum_k [b_k log p_k + (1-b_k) log(1-p_k)]   posterior log q(h|x)

    with log_p = log(p) and log_1mp = log(1 - p). Their sum is the loss
    -log p(x,h) + log q(h|x). The plus-minus domain keeps b = (1+h)/2 in
    the prior and posterior exponents.
    """
    rho2 = np.exp(2.0 * params.log_rho)
    recon = rsq / (2.0 * rho2)
    norm = 0.5 * params.d * np.log(2.0 * np.pi * rho2)
    prior = -(bits @ params.beta) + softplus(params.beta).sum()
    # a blend rather than a select, since a select on a random mask is branch-bound
    blend = np.multiply(bits, log_p)
    off = np.subtract(1.0, bits)
    posterior = np.add(blend, np.multiply(off, log_1mp, out=off), out=blend).sum(axis=-1)
    return recon, norm, prior, posterior


def loss_bits(params: ModelParams, bits, x) -> np.ndarray:
    """Per-sample description-length loss for one x and a (..., l) array of codes."""
    return sum(_code_terms(params, x, bits))


def _code_terms(params: ModelParams, x, bits):
    """loss_terms of a (..., l) array of codes for one x."""
    x = params._point(x)
    bits = np.asarray(bits)
    if bits.shape[-1] != params.l:
        raise InputError(f"codes must have {params.l} bits")
    resid = x - params.decode_batch(bits)
    p = encode_probs(params, x)
    rsq = (resid * resid).sum(axis=-1)
    return loss_terms(params, rsq, bits.astype(np.float64), np.log(p), np.log(1.0 - p))


def loss(params: ModelParams, h: HashCode, x) -> float:
    """Description-length loss of one (code, input) pair."""
    return float(loss_bits(params, params._bits(h), x))


def enumerate_codes(l: int) -> np.ndarray:
    """All 2^l codes as a (2^l, l) boolean array; row index c has bit k = (c>>k)&1."""
    if l > ENUM_MAX_BITS:
        raise CapabilityError(f"enumeration over 2^{l} codes exceeds the {ENUM_MAX_BITS}-bit guard")
    c = np.arange(1 << l, dtype=np.uint64)[:, None]
    return ((c >> np.arange(l, dtype=np.uint64)) & np.uint64(1)).astype(bool)


def code_log_q(params: ModelParams, x, bits) -> np.ndarray:
    """log q(h|x) for a (..., l) array of codes."""
    return _code_terms(params, x, bits)[3]


def exact_objective(params: ModelParams, x) -> float:
    """Exhaustive variational free energy: sum_h q(h|x) loss(h, x).

    Feasible only for l <= ENUM_MAX_BITS; this is the oracle every gradient
    estimator is checked against.
    """
    terms = _code_terms(params, x, enumerate_codes(params.l))
    return float(np.exp(terms[3]) @ sum(terms))


def log_marginal(params: ModelParams, x) -> float:
    """Exact -free-energy lower bound target: log p(x) by code enumeration."""
    terms = _code_terms(params, x, enumerate_codes(params.l))
    # log p(x,h) = log q - loss, so log p(x) = logsumexp over codes
    log_joint = terms[3] - sum(terms)
    m = log_joint.max()
    return float(m + np.log(np.exp(log_joint - m).sum()))
