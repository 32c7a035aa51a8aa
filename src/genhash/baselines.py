"""PCA and rotation-refined binary quantization baselines.

The quantization baseline projects centered data onto the top-l principal
directions, then alternates between snapping the projections to the nearest
sign pattern and solving the orthogonal Procrustes problem for the rotation
that best aligns projections with their sign patterns. Its codes are
directly comparable to the learned hash codes downstream.

PcaModel, ItqModel and the learned ModelParams share one hasher surface:
d, l, encode_batch(X), reconstruct_batch(X) and templates(). PCA has no
binary code, so its encode_batch raises InputError.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .codes import HashCode, pack_bits, unpack_bits
from .errors import InputError

DEFAULT_ITQ_ITERATIONS = 50

# eigenvalues below this fraction of the largest count as rank-deficient
RANK_RTOL = 1e-10


class _Projection:
    """What both baselines share: a data mean and (d, l) principal directions W_pca."""

    @property
    def d(self) -> int:
        return self.W_pca.shape[0]

    @property
    def l(self) -> int:
        return self.W_pca.shape[1]

    def _matrix(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise InputError(f"expected (N, {self.d}) data matrix, got {X.shape}")
        return X


@dataclass
class PcaModel(_Projection):
    """Mean and orthonormal top-l principal directions (d, l)."""

    mean: np.ndarray
    W_pca: np.ndarray

    def encode_batch(self, X) -> np.ndarray:
        raise InputError("PCA models do not define an encoder")

    def reconstruct_batch(self, X) -> np.ndarray:
        """Projections of the rows of X onto the principal subspace."""
        c = self._matrix(X) - self.mean
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

    def encode_batch(self, X) -> np.ndarray:
        return itq_encode_batch(self, X)

    def reconstruct_batch(self, X) -> np.ndarray:
        """Sign codes of the rows of X mapped back through the scaled binary cube."""
        signs = 2.0 * unpack_bits(itq_encode_batch(self, X), self.l) - 1.0
        return self.mean + (signs * self.scale) @ self.R.T @ self.W_pca.T

    def templates(self) -> np.ndarray:
        """Per-bit input-space directions of the rotated projection: (l, d)."""
        return (self.W_pca @ self.R).T


def _rows(dataset) -> np.ndarray:
    rows = np.asarray(getattr(dataset, "rows", dataset), dtype=np.float64)
    if rows.ndim != 2:
        raise InputError("expected a (N, d) data matrix")
    return rows


def pca_fit(dataset, l: int):
    """Top-l principal directions of the mean-centered data.

    Returns (mean, W_pca) with eigenvalue-descending orthonormal columns;
    the largest-magnitude entry of each column is made positive so the
    decomposition is sign-deterministic. If the covariance has rank < l the
    available rank is returned with a warning.
    """
    rows = _rows(dataset)
    n, d = rows.shape
    if n < 2:
        raise InputError("need at least 2 samples to fit principal directions")
    if l < 1 or l > d:
        raise InputError(f"l must lie in [1, {d}], got {l}")
    mean = rows.mean(axis=0)
    centered = rows - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    rank = int((eigvals > max(eigvals[0], 0.0) * RANK_RTOL).sum())
    if rank < l:
        warnings.warn(
            f"covariance rank {rank} below requested {l} components; returning {rank}",
            stacklevel=2,
        )
        l = max(rank, 1)
    W = eigvecs[:, :l]
    flip = np.sign(W[np.abs(W).argmax(axis=0), np.arange(l)])
    flip[flip == 0] = 1.0
    return mean, W * flip


def itq_fit(dataset, l: int, iterations: int = DEFAULT_ITQ_ITERATIONS, rotation_seed=None):
    """Alternating sign/rotation quantizer on the top-l PCA projections.

    The rotation starts at identity (or a seeded random orthogonal matrix
    when rotation_seed is given) and is refined by the Procrustes solution:
    with M = B^T V decomposed as S_hat diag(s) S^T, the minimizer of
    ||B - V R||_F^2 over orthogonal R is R = S S_hat^T. Each half-step is an
    exact minimizer, so the recorded quantization loss never increases.
    """
    rows = _rows(dataset)
    if iterations < 0:
        raise InputError("iterations must be >= 0")
    requested = l
    mean, W_pca = pca_fit(rows, l)
    rank = W_pca.shape[1]
    V = (rows - mean) @ W_pca
    if rotation_seed is None:
        R = np.eye(rank)
    else:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(rotation_seed)))
        q, r = np.linalg.qr(rng.normal(size=(rank, rank)))
        R = q * np.sign(np.diag(r))

    # V @ R for the current R serves the loss, the next sign step and scale;
    # the signs come from arithmetic on the mask, since a select on a random
    # mask is branch-bound and these are the same values
    losses = []
    VR = V @ R
    for _ in range(iterations):
        B = (VR >= 0.0) * 2.0 - 1.0
        s_hat, _, s_t = np.linalg.svd(B.T @ V)
        R = s_t.T @ s_hat.T
        VR = V @ R
        losses.append(float(((B - VR) ** 2).sum()))

    scale = np.abs(VR).mean(axis=0)
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
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.mean.shape[0],):
        raise InputError(f"data point has shape {x.shape}, expected {model.mean.shape}")
    return (x - model.mean) @ model.W_pca @ model.R


def itq_encode(model: ItqModel, x) -> HashCode:
    """Bit k = 1 iff the rotated projection of (x - mean) is >= 0."""
    return HashCode.from_bits(itq_project(model, x) >= 0.0)


def itq_encode_batch(model: ItqModel, X) -> np.ndarray:
    return pack_bits((model._matrix(X) - model.mean) @ model.W_pca @ model.R >= 0.0)


def itq_reconstruct(model: ItqModel, h: HashCode) -> np.ndarray:
    """Map a sign code back to input space through the scaled binary cube."""
    if h.l != model.l:
        raise InputError(f"code length {h.l} != model bits {model.l}")
    signs = 2.0 * h.to_bits() - 1.0
    return model.mean + model.W_pca @ (model.R @ (model.scale * signs))


def pca_reconstruct(model: PcaModel, x) -> np.ndarray:
    """Project onto the principal subspace and lift back: mean + W W^T (x - mean)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.mean.shape[0],):
        raise InputError(f"data point has shape {x.shape}, expected {model.mean.shape}")
    c = x - model.mean
    return model.mean + model.W_pca @ (model.W_pca.T @ c)
