"""PCA and rotation-refined binary quantization baselines.

The quantization baseline projects centered data onto the top-l principal
directions, then alternates between snapping the projections to the nearest
sign pattern and solving the orthogonal Procrustes problem for the rotation
that best aligns projections with their sign patterns. Its codes are
directly comparable to the learned hash codes downstream.

PcaModel, ItqModel and the learned ModelParams share one hasher surface:
d, l, encode_batch(X), reconstruct_batch(X) and templates(), and the input
checks of model.Hasher. PCA has no binary code, so its encode_batch raises
InputError. The per-sample functions wrap the batch code: ItqModel._project,
ItqModel._decode and PcaModel.reconstruct_batch. Data may be a model.Rows
(a data_io.Dataset is one), read a row block at a time. ITQ encodes through
model.sign_words and reconstructs through model.sign_bits, one row block
at a time. Beyond its packed words (encode) or its (N, l) bools
(reconstruct), a batch holds two of one block's arrays at once: the
centred rows and their projections, then the projections and their
rotation (about 1 MB each at d = l; the centred rows are d/l times the
projections).

pca_fit and itq_fit hold one float64 matrix of the centred rows for the
covariance, and itq_fit also for V; it is freed before the alternation.
It is built a row block at a time, so from a file's float32 or uint8
values it is the one (N, d) float64 matrix they make, since one product
over all rows fixes the covariance's bytes. itq_fit then holds the (N, l)
projections V, one float64 (N, l) work buffer and two (N, l) one-byte
arrays, the next signs as bools and the current ones as int8, during its
alternation: about 2.25 times V.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .codes import PLUS_MINUS, HashCode, bits_to_values
from .codes import pack_bits  # a patch point in bench/timing.py PATCH_POINTS
from .errors import InputError
from .model import (
    Hasher, as_rows, block_rows, check_columns, column_sums, row_blocks, sign_bits, sign_words,
)

DEFAULT_ITQ_ITERATIONS = 50

# eigenvalues below this fraction of the largest count as rank-deficient
RANK_RTOL = 1e-10


class _Projection(Hasher):
    """What both baselines share: a data mean and (d, l) principal directions W_pca."""

    def __post_init__(self):
        self._check()

    @property
    def d(self) -> int:
        return self.W_pca.shape[0]

    @property
    def l(self) -> int:
        return self.W_pca.shape[1]


@dataclass
class PcaModel(_Projection):
    """Mean and orthonormal top-l principal directions (d, l)."""

    mean: np.ndarray
    W_pca: np.ndarray

    def _check(self):
        """d >= 1 and l >= 1; PCA has no codes, so l has no code-length cap."""
        if self.d < 1 or self.l < 1:
            raise InputError(f"PCA needs d, l >= 1, got d={self.d}, l={self.l}")

    def encode_batch(self, X) -> np.ndarray:
        raise InputError("PCA models do not define an encoder")

    def reconstruct_batch(self, X) -> np.ndarray:
        """Projections of the rows of X onto the principal subspace."""
        c = self._rows(X).matrix() - self.mean
        return self.mean + c @ self.W_pca @ self.W_pca.T

    def templates(self) -> np.ndarray:
        """The principal directions, one per row: (l, d)."""
        return self.W_pca.T


@dataclass
class ItqModel(_Projection):
    """PCA projection plus learned orthogonal rotation and binarization scale.

    scale holds the per-rotated-dimension mean magnitude of the training
    projections, used to map sign codes back to input space. quant_losses
    records ||B - V R||_F^2 after every alternation. rank_ok is False when
    the covariance could not support the requested number of bits.
    """

    mean: np.ndarray
    W_pca: np.ndarray
    R: np.ndarray
    iterations: int
    scale: np.ndarray = field(default_factory=lambda: np.zeros(0))
    quant_losses: list = field(default_factory=list)
    rank_ok: bool = True

    def _check(self):
        super()._check()
        if self.iterations < 0:
            raise InputError(f"iterations must be >= 0, got {self.iterations}")

    def encode_batch(self, X) -> np.ndarray:
        return itq_encode_batch(self, X)

    def reconstruct_batch(self, X) -> np.ndarray:
        """Sign codes of the rows of X mapped back through the scaled binary cube."""
        return self._decode(sign_bits(self._project, self._rows(X), self.l))

    def _project(self, X) -> np.ndarray:
        """Rotated projections (X - mean) W_pca R of a (d,) point or (N, d) rows."""
        return (X - self.mean) @ self.W_pca @ self.R

    def _decode(self, bits) -> np.ndarray:
        """Input-space points of (..., l) sign codes: mean + (scale * signs) R^T W_pca^T."""
        signs = bits_to_values(bits, PLUS_MINUS)
        return self.mean + (signs * self.scale) @ self.R.T @ self.W_pca.T

    def templates(self) -> np.ndarray:
        """Per-bit input-space directions of the rotated projection: (l, d)."""
        return (self.W_pca @ self.R).T


def _centred(rows, mean) -> np.ndarray:
    """The float64 matrix of rows less mean, one row block at a time, each
    converted into its place and centred there."""
    centred = np.empty(rows.shape)
    for a, b in row_blocks(rows.n, block_rows(rows.d)):
        block = rows.take(slice(a, b), out=centred[a:b])
        np.subtract(block, mean, out=block)
    return centred


def pca_fit(dataset, l: int):
    """Top-l principal directions of the mean-centered data.

    Returns (mean, W_pca) with eigenvalue-descending orthonormal columns;
    the largest-magnitude entry of each column is made positive so the
    decomposition is sign-deterministic. If the covariance has rank < l the
    available rank (at least 1) is returned with a warning. A column whose
    mean or covariance is not finite (NaN or inf in the rows, or values too
    large to square) is an InputError; both checks cost O(d^2), not O(N d).
    """
    return _pca(as_rows(dataset), l)[:2]


def _pca(rows, l: int):
    """pca_fit's (mean, W_pca), and the centred rows the covariance came from."""
    n, d = rows.shape
    if n < 2:
        raise InputError("need at least 2 samples to fit principal directions")
    if l < 1 or l > d:
        raise InputError(f"l must lie in [1, {d}], got {l}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = check_columns(column_sums(rows) / n, "mean")
        centered = _centred(rows, mean)
        cov = check_columns(centered.T @ centered / (n - 1), "covariance")
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    rank = int((eigvals > max(eigvals[0], 0.0) * RANK_RTOL).sum())
    if rank < l:
        warnings.warn(
            f"covariance rank {rank} below requested {l} components; returning {max(rank, 1)}",
            stacklevel=3,
        )
        l = max(rank, 1)
    W = eigvecs[:, :l]
    flip = np.sign(W[np.abs(W).argmax(axis=0), np.arange(l)])
    flip[flip == 0] = 1.0
    return mean, W * flip, centered


def itq_fit(dataset, l: int, iterations: int = DEFAULT_ITQ_ITERATIONS, rotation_seed=None):
    """Alternating sign/rotation quantizer on the top-l PCA projections.

    The rotation starts at identity (or a seeded random orthogonal matrix
    when rotation_seed is given) and is refined by the Procrustes solution:
    with M = B^T V decomposed as S_hat diag(s) S^T, the minimizer of
    ||B - V R||_F^2 over orthogonal R is R = S S_hat^T. Each half-step is an
    exact minimizer, so the recorded quantization loss never increases.
    """
    requested = l
    mean, W_pca, centered = _pca(as_rows(dataset), l)
    rank = W_pca.shape[1]
    V = centered @ W_pca
    del centered  # the alternation below needs only V
    if rotation_seed is None:
        R = np.eye(rank)
    else:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(rotation_seed)))
        q, r = np.linalg.qr(rng.normal(size=(rank, rank)))
        R = q * np.sign(np.diag(r))

    # one float64 (N, rank) buffer holds B, then V R, then the loss terms;
    # on holds the next signs and signs the current ones as int8 +-1, so
    # V R - signs is one rounding and squares to (B - V R)^2 exactly
    losses = []
    buf = np.matmul(V, R)
    on = buf >= 0.0
    signs = np.empty(buf.shape, dtype=np.int8)
    for _ in range(iterations):
        np.subtract(np.multiply(on, np.int8(2), out=signs), 1, out=signs)
        np.copyto(buf, signs)
        s_hat, _, s_t = np.linalg.svd(buf.T @ V)
        R = s_t.T @ s_hat.T
        np.matmul(V, R, out=buf)
        np.greater_equal(buf, 0.0, out=on)
        np.subtract(buf, signs, out=buf)
        losses.append(float(np.square(buf, out=buf).sum()))

    scale = np.abs(np.matmul(V, R, out=buf), out=buf).mean(axis=0)
    return ItqModel(
        mean=mean,
        W_pca=W_pca,
        R=R,
        iterations=iterations,
        scale=scale,
        quant_losses=losses,
        rank_ok=(rank == requested),
    )


def itq_project(model: ItqModel, x) -> np.ndarray:
    return model._project(model._point(x))


def itq_encode(model: ItqModel, x) -> HashCode:
    """Bit k = 1 iff the rotated projection of (x - mean) is >= 0."""
    return HashCode.from_bits(itq_project(model, x) >= 0.0)


def itq_encode_batch(model: ItqModel, X) -> np.ndarray:
    """Sign codes of the rows of X as (N, ceil(l/64)) packed words, packed
    one row block at a time (model.sign_words)."""
    return sign_words(model._project, model._rows(X), model.l)


def itq_reconstruct(model: ItqModel, h: HashCode) -> np.ndarray:
    """Map a sign code back to input space through the scaled binary cube."""
    return model._decode(model._bits(h))


def pca_reconstruct(model: PcaModel, x) -> np.ndarray:
    """Project onto the principal subspace and lift back: mean + W W^T (x - mean)."""
    return model.reconstruct_batch(model._point(x)[None, :])[0]
