"""Dataset readers/writers, the synthetic generator, and checkpoint persistence.

Vector files follow the classic ANN-benchmark record layout: a 4-byte
little-endian int dimension prefix per record, then that many elements
(float32 / uint8 / int32 for .fvecs / .bvecs / .ivecs). All records must
share one dimension and files must contain whole records. The digit-image
reader takes the big-endian IDX format. Checkpoints are a little-endian
binary container with a trailing FNV-1a checksum; loads are bit-exact. The
writer, the size check and the reader all follow one per-kind table.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .baselines import ItqModel, PcaModel
from .codes import CODE_DOMAINS, check_padding, n_words
from .errors import FormatError, InputError
from .model import ModelParams

CHECKPOINT_MAGIC = b"GHCKPT\x00\x00"
CHECKPOINT_VERSION = 1
CODES_MAGIC = b"GHCODES\x00"

KIND_SGH = "SGH"
KIND_ITQ = "ITQ"
KIND_PCA = "PCA"

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


@dataclass
class Dataset:
    """Dense feature matrix, float64 in memory (32-bit on disk); np.asarray gives the rows."""

    rows: np.ndarray
    mean: np.ndarray | None = None
    source: str = ""

    def __post_init__(self):
        self.rows = np.ascontiguousarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2:
            raise InputError("dataset rows must form a (N, d) matrix")
        if self.rows.size and not np.all(np.isfinite(self.rows)):
            raise InputError("dataset contains non-finite values")

    def __array__(self, dtype=None, copy=None):
        return np.array(self.rows, dtype=dtype, copy=copy)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    def centered(self) -> "Dataset":
        """Subtract the column means; the removed mean rides along."""
        mean = self.rows.mean(axis=0)
        return Dataset(self.rows - mean, mean=mean, source=self.source)


# ---------------------------------------------------------------------------
# fvecs / bvecs / ivecs
# ---------------------------------------------------------------------------

_VEC_ELEMENT = {"fvecs": ("<f4", 4), "bvecs": ("u1", 1), "ivecs": ("<i4", 4)}


def _read_vecs(path, flavor: str) -> np.ndarray:
    dtype, elem_size = _VEC_ELEMENT[flavor]
    with open(path, "rb") as f:
        raw = f.read()
    if not raw:
        return np.empty((0, 0), dtype=np.dtype(dtype))
    if len(raw) < 4:
        raise FormatError(f"{path}: truncated dimension prefix at byte 0")
    d = struct.unpack_from("<i", raw, 0)[0]
    if d <= 0:
        raise FormatError(f"{path}: non-positive dimension {d} at byte 0")
    record = 4 + d * elem_size
    if len(raw) % record != 0:
        offset = (len(raw) // record) * record
        raise FormatError(
            f"{path}: file size {len(raw)} is not a whole number of "
            f"{record}-byte records (trailing data at byte {offset})"
        )
    n = len(raw) // record
    buf = np.frombuffer(raw, dtype=np.uint8).reshape(n, record)
    dims = buf[:, :4].copy().view("<i4").ravel()
    bad = np.flatnonzero(dims != d)
    if bad.size:
        raise FormatError(
            f"{path}: record {bad[0]} has dimension {dims[bad[0]]} != {d} "
            f"(at byte {bad[0] * record})"
        )
    return buf[:, 4:].copy().view(dtype)


def read_fvecs(path) -> Dataset:
    """Read float32 vectors; see module docstring for the record layout."""
    return Dataset(_read_vecs(path, "fvecs").astype(np.float64), source=str(path))


def read_bvecs(path) -> Dataset:
    """Read uint8 vectors, widened to float64."""
    return Dataset(_read_vecs(path, "bvecs").astype(np.float64), source=str(path))


def read_ivecs(path) -> np.ndarray:
    """Read int32 id lists as an (N, k) array."""
    return _read_vecs(path, "ivecs").astype(np.int32)


def _write_vecs(path, rows, flavor: str):
    dtype, _ = _VEC_ELEMENT[flavor]
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise InputError("can only write a (N, d) matrix")
    if flavor == "bvecs" and (np.any(rows < 0) or np.any(rows > 255)):
        raise InputError("bvecs values must lie in [0, 255]")
    n, d = rows.shape
    records = np.empty(n, dtype=[("d", "<i4"), ("v", dtype, (d,))])
    records["d"] = d
    records["v"] = rows
    with open(path, "wb") as f:
        records.tofile(f)


def write_fvecs(path, rows):
    _write_vecs(path, rows, "fvecs")


def write_bvecs(path, rows):
    _write_vecs(path, rows, "bvecs")


def write_ivecs(path, rows):
    _write_vecs(path, rows, "ivecs")


# ---------------------------------------------------------------------------
# IDX digit images
# ---------------------------------------------------------------------------

IDX_IMAGE_MAGIC = 0x00000803


def read_mnist_idx(path) -> Dataset:
    """Read a big-endian IDX image file; pixels are scaled into [0, 1]."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 16:
        raise FormatError(f"{path}: IDX header truncated")
    magic, count, rows_, cols = struct.unpack_from(">iiii", raw, 0)
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(f"{path}: bad IDX magic {magic:#010x}")
    expected = 16 + count * rows_ * cols
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(count, rows_ * cols)
    return Dataset(pixels.astype(np.float64) / 255.0, source=str(path))


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


def synth_mixture(n: int, d: int, n_clusters: int, spread: float, seed: int) -> Dataset:
    """Seeded Gaussian mixture: centers uniform on a sphere of radius 10*spread,
    per-cluster standard deviation = spread. Pure function of its arguments."""
    if n < 1 or d < 1 or n_clusters < 1:
        raise InputError("n, d and n_clusters must be positive")
    if n_clusters > n:
        raise InputError(f"n_clusters {n_clusters} exceeds n {n}")
    if spread <= 0:
        raise InputError("spread must be positive")
    if seed < 0:
        raise InputError("seed must be >= 0")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    centers = rng.normal(size=(n_clusters, d))
    norms = np.linalg.norm(centers, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    centers = centers / norms * (10.0 * spread)
    assignment = rng.integers(0, n_clusters, size=n)
    rows = centers[assignment] + rng.normal(0.0, spread, size=(n, d))
    return Dataset(rows, source=f"synth(n={n},d={d},clusters={n_clusters},spread={spread},seed={seed})")


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


# Each kind's header tag, model class, and payload as float64 blocks in file
# order: attribute -> shape. SGH appends a centred flag byte and a (d,) mean
# and sets the header's domain byte; ITQ sets its extra field (iterations).
_LAYOUTS = {
    KIND_SGH: (0, ModelParams, lambda d, l: {"W": (d, l), "U": (d, l), "beta": (l,), "log_rho": ()}),
    KIND_ITQ: (1, ItqModel, lambda d, l: {"mean": (d,), "W_pca": (d, l), "R": (l, l), "scale": (l,)}),
    KIND_PCA: (2, PcaModel, lambda d, l: {"mean": (d,), "W_pca": (d, l)}),
}
_TAG_KINDS = {tag: kind for kind, (tag, _, _) in _LAYOUTS.items()}


def _block(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_checkpoint(path, model, center_mean=None):
    """Serialize a model (with optional preprocessing mean) to a binary file."""
    kind = next((k for k, (_, cls, _) in _LAYOUTS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise InputError(f"cannot checkpoint model of type {type(model).__name__}")
    d, l = model.d, model.l
    blocks = _LAYOUTS[kind][2](d, l)
    for attr, shape in blocks.items():
        got = np.shape(getattr(model, attr))
        if got != shape:
            raise InputError(f"{kind} block {attr} has shape {got}, expected {shape}")
    payload = b"".join(_block(getattr(model, attr)) for attr in blocks)
    domain = CODE_DOMAINS.index(model.code_domain) if kind == KIND_SGH else 0
    extra = model.iterations if kind == KIND_ITQ else 0
    if kind == KIND_SGH:
        mean = np.zeros(d) if center_mean is None else np.asarray(center_mean, dtype=np.float64)
        if mean.shape != (d,):
            raise InputError(f"center mean must have length {d}")
        payload += struct.pack("<B", 0 if center_mean is None else 1) + _block(mean)

    header = CHECKPOINT_MAGIC + struct.pack(
        "<IBBIIq", CHECKPOINT_VERSION, _LAYOUTS[kind][0], domain, d, l, extra
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)
        f.write(struct.pack("<Q", fnv1a_64(payload)))


def load_checkpoint(path, expect_kind=None):
    """Load a checkpoint; returns (model, center_mean_or_None).

    Rejects unknown versions, checksum mismatches, and (when expect_kind is
    given) checkpoints of a different model kind.
    """
    with open(path, "rb") as f:
        raw = f.read()
    head_size = len(CHECKPOINT_MAGIC) + struct.calcsize("<IBBIIq")
    if len(raw) < head_size + 8:
        raise FormatError(f"{path}: checkpoint truncated")
    if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    version, tag, domain, d, l, extra = struct.unpack_from(
        "<IBBIIq", raw, len(CHECKPOINT_MAGIC)
    )
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    if tag not in _TAG_KINDS:
        raise FormatError(f"{path}: unknown model kind tag {tag}")
    kind = _TAG_KINDS[tag]
    if expect_kind is not None and kind != expect_kind:
        raise FormatError(f"{path}: checkpoint holds a {kind} model, expected {expect_kind}")
    # the header is outside the checksum: check it against the payload
    # before any block is read from it
    domains = len(CODE_DOMAINS) if kind == KIND_SGH else 1
    if domain >= domains:
        raise FormatError(f"{path}: bad code domain byte {domain} for a {kind} checkpoint")
    payload = raw[head_size:-8]
    blocks = _LAYOUTS[kind][2](d, l)
    expected = 8 * sum(map(math.prod, blocks.values()))
    if kind == KIND_SGH:
        expected += 1 + 8 * d
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, but a {kind} checkpoint with "
            f"d={d}, l={l} holds {expected}"
        )
    (stored,) = struct.unpack("<Q", raw[-8:])
    if fnv1a_64(payload) != stored:
        raise FormatError(f"{path}: checksum mismatch; file is corrupted")

    fields, offset = {}, 0
    for attr, shape in blocks.items():
        count = math.prod(shape)
        fields[attr] = np.frombuffer(payload, "<f8", count, offset).reshape(shape).copy()
        offset += 8 * count
    if kind == KIND_SGH:
        fields["code_domain"] = CODE_DOMAINS[domain]
    elif kind == KIND_ITQ:
        fields["iterations"] = int(extra)
    model = _LAYOUTS[kind][1](**fields)
    centred = kind == KIND_SGH and payload[offset]
    return model, (np.frombuffer(payload, "<f8", d, offset + 1).copy() if centred else None)


# ---------------------------------------------------------------------------
# packed-code files
# ---------------------------------------------------------------------------


def write_packed_codes(path, codes: np.ndarray, l: int):
    """Header (magic, N, l) followed by N*ceil(l/64) little-endian words."""
    if l < 1:
        raise InputError(f"code length must be >= 1, got {l}")
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    if codes.ndim != 2 or codes.shape[1] != n_words(l):
        raise InputError(f"codes must be (N, {n_words(l)}) for {l} bits")
    check_padding(codes, l)
    with open(path, "wb") as f:
        f.write(CODES_MAGIC)
        f.write(struct.pack("<QI", codes.shape[0], l))
        f.write(codes.astype("<u8").tobytes())


def read_packed_codes(path):
    """Returns (codes, l) as written by write_packed_codes."""
    with open(path, "rb") as f:
        raw = f.read()
    head = len(CODES_MAGIC) + struct.calcsize("<QI")
    if len(raw) < head:
        raise FormatError(f"{path}: code file truncated")
    if raw[: len(CODES_MAGIC)] != CODES_MAGIC:
        raise FormatError(f"{path}: not a packed-code file")
    count, l = struct.unpack_from("<QI", raw, len(CODES_MAGIC))
    if l < 1:
        raise FormatError(f"{path}: code length {l} must be >= 1")
    expected = head + count * n_words(l) * 8
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    words = np.frombuffer(raw, dtype="<u8", offset=head).reshape(count, n_words(l))
    try:
        check_padding(words, l)
    except InputError as err:
        raise FormatError(f"{path}: {err}") from None
    return words.astype(np.uint64), l
