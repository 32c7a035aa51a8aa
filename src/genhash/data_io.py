"""Dataset readers/writers, the synthetic generator, and checkpoint persistence.

Each format has one layout, shared by its writer, size check and reader,
and writers refuse what readers reject. Vector files are records
(_vec_record) of a little-endian int32 dimension d >= 1, then d float32 /
uint8 / int32 elements for .fvecs / .bvecs / .ivecs, one d per file; fvecs
values are finite. Images come in big-endian IDX files. Checkpoints are
little-endian, with per-kind payload fields (_LAYOUTS) and a trailing FNV-1a
checksum; loads are bit-exact. Code files hold words that pass check_words.

Readers map a file read-only (_file_bytes) rather than read it. The fvecs,
bvecs and IDX readers check every record in one row-blocked pass over the
map and give a Dataset of the values as they are on disk, upcast a row
block at a time by its users, so reading a file makes no float64 copy.
"""

import math
import os
import stat
import struct

import numpy as np

from .baselines import ItqModel, PcaModel
from .codes import CODE_DOMAINS, check_words, n_words
from .errors import FormatError, InputError
from .model import ModelParams, Rows, block_rows, check_columns, column_sums, row_blocks

CHECKPOINT_MAGIC = b"GHCKPT\x00\x00"
CHECKPOINT_VERSION = 1
CODES_MAGIC = b"GHCODES\x00"

KIND_SGH = "SGH"
KIND_ITQ = "ITQ"
KIND_PCA = "PCA"

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3

# the headers after each magic
_CHECKPOINT_HEAD = struct.Struct("<IBBIIq")  # version, kind tag, code domain, d, l, extra
_CHECKSUM = struct.Struct("<Q")  # FNV-1a of the checkpoint payload, after it
_CODES_HEAD = struct.Struct("<QI")  # number of codes, code length l
_IDX_HEAD = struct.Struct(">iii")  # image count, rows, columns


def _file_bytes(path) -> np.ndarray:
    """A file's bytes as a read-only uint8 array: a memory map of a regular
    file, or the bytes read (an empty file, a pipe). The file must not
    change while the array is in use."""
    with open(path, "rb") as f:
        info = os.fstat(f.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size:
            return np.memmap(f, dtype=np.uint8, mode="r").view(np.ndarray)
        return np.frombuffer(f.read(), dtype=np.uint8)


def _read_headed(path, magic: bytes, head: struct.Struct, what: str, tail: int = 0):
    """A file's header fields and a view of the bytes after them; FormatError if
    it is shorter than magic, header and tail bytes, or starts with another magic."""
    raw = memoryview(_file_bytes(path))
    if len(raw) < len(magic) + head.size + tail:
        raise FormatError(f"{path}: {what} truncated")
    if raw[: len(magic)] != magic:
        raise FormatError(f"{path}: bad magic, not a {what}")
    return head.unpack_from(raw, len(magic)), raw[len(magic) + head.size :]


class Dataset(Rows):
    """A dense feature matrix: a model.Rows, whose float64 rows come a
    selection or a row block at a time, and the name of its source.

    Built from a matrix, it holds it as C-ordered float64, checked finite.
    A reader's Dataset holds the file's values as they are on disk, checked
    when read: a read-only memory map of its float32 or uint8 values (IDX
    pixels with scale 255). mean, which only centered() sets, is
    subtracted from every row given out. rows and np.asarray give the whole
    float64 matrix: the one it was built from, else a new array.
    """

    def __init__(self, rows, *, source: str = ""):
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise InputError("dataset rows must form a (N, d) matrix")
        # one row block at a time, so no (N, d) bools; block_rows needs d >= 1
        blocks = row_blocks(len(rows), block_rows(rows.shape[1])) if rows.size else []
        if not all(np.isfinite(rows[a:b]).all() for a, b in blocks):
            raise InputError("dataset contains non-finite values")
        super().__init__(rows)
        self.source = source

    @classmethod
    def _checked(cls, stored, source: str, scale=None) -> "Dataset":
        """A Dataset of values already checked, built without another pass over them."""
        dataset = cls.__new__(cls)
        Rows.__init__(dataset, stored, scale)
        dataset.source = source
        return dataset

    @property
    def rows(self) -> np.ndarray:
        return self.matrix()

    def centered(self) -> "Dataset":
        """Subtract the column means (model.column_sums, model.check_columns);
        the removed mean rides along. The stored values are shared, not
        copied: the mean comes off each row as it is read."""
        base = self if self.mean is None else Dataset(self.rows, source=self.source)
        with np.errstate(over="ignore", invalid="ignore"):  # no rows: 0 / 0
            mean = column_sums(base) / base.n
            if base.n:
                check_columns(mean, "mean")
        return base.with_mean(mean)


# ---------------------------------------------------------------------------
# fvecs / bvecs / ivecs
# ---------------------------------------------------------------------------

_VEC_ELEMENT = {"fvecs": np.dtype("<f4"), "bvecs": np.dtype("u1"), "ivecs": np.dtype("<i4")}


def _vec_record(flavor: str, d: int) -> np.dtype:
    """One record: the int32 dimension prefix, then d elements."""
    return np.dtype([("d", "<i4"), ("v", _VEC_ELEMENT[flavor], (d,))])


def _read_vecs(path, flavor: str) -> np.ndarray | None:
    """A vector file's values as a read-only (N, d) view of its map, every
    record checked in one row-blocked pass: a FormatError for the first
    dimension prefix other than the file's d, else an InputError if an
    fvecs value is not finite. None for an empty file."""
    raw = _file_bytes(path)
    if not raw.size:
        return None
    if raw.size < 4:
        raise FormatError(f"{path}: truncated dimension prefix at byte 0")
    d = int(raw[:4].view("<i4")[0])
    if d <= 0:
        raise FormatError(f"{path}: non-positive dimension {d} at byte 0")
    # sized in Python ints: numpy refuses a record dtype larger than a C int
    record = 4 + d * _VEC_ELEMENT[flavor].itemsize
    if raw.size % record != 0:
        offset = (raw.size // record) * record
        raise FormatError(
            f"{path}: file size {raw.size} is not a whole number of "
            f"{record}-byte records (trailing data at byte {offset})"
        )
    records = raw.view(_vec_record(flavor, d))
    finite = True
    for a, b in row_blocks(len(records), block_rows(d)):
        bad = np.flatnonzero(records["d"][a:b] != d)
        if bad.size:
            at = a + bad[0]
            raise FormatError(
                f"{path}: record {at} has dimension {records['d'][at]} != {d} "
                f"(at byte {at * record})"
            )
        if finite and flavor == "fvecs":
            finite = bool(np.isfinite(records["v"][a:b]).all())
    if not finite:
        raise InputError("dataset contains non-finite values")
    return records["v"]


def _read_dataset(path, flavor: str) -> Dataset:
    values = _read_vecs(path, flavor)
    if values is None:
        return Dataset(np.empty((0, 0)), source=str(path))
    return Dataset._checked(values, str(path))


def read_fvecs(path) -> Dataset:
    """Read float32 vectors; see module docstring for the record layout."""
    return _read_dataset(path, "fvecs")


def read_bvecs(path) -> Dataset:
    """Read uint8 vectors, widened to float64 as they are read."""
    return _read_dataset(path, "bvecs")


def read_ivecs(path) -> np.ndarray:
    """Read int32 id lists as an (N, k) array."""
    values = _read_vecs(path, "ivecs")
    return np.empty((0, 0), dtype=np.int32) if values is None else values.astype(np.int32)


def _write_vecs(path, rows, flavor: str):
    element = _VEC_ELEMENT[flavor]
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise InputError("can only write a (N, d) matrix")
    n, d = rows.shape
    if n and d < 1:
        raise InputError("a vecs record needs at least one element")
    if element.kind in "iu" and rows.size:
        info = np.iinfo(element)
        if not info.min <= rows.min() <= rows.max() <= info.max:
            raise InputError(f"{flavor} values must lie in [{info.min}, {info.max}]")
    records = np.empty(n, dtype=_vec_record(flavor, d))
    records["d"] = d
    with np.errstate(over="ignore"):
        records["v"] = rows
    if not np.isfinite(records["v"]).all():
        raise InputError(f"{flavor} values must be finite as {element.name}")
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
    magic = IDX_IMAGE_MAGIC.to_bytes(4, "big")
    (count, rows_, cols), body = _read_headed(path, magic, _IDX_HEAD, "IDX image file")
    if min(count, rows_, cols) < 0:
        raise FormatError(f"{path}: negative IDX dimension in {count}x{rows_}x{cols}")
    if rows_ * cols == 0:  # as a vecs d >= 1: an image has at least one pixel
        raise FormatError(f"{path}: {rows_}x{cols}-pixel images hold no pixels")
    if rows_ * cols > np.iinfo(np.intp).max // 8:  # over numpy's size limit for a float64 row
        raise FormatError(f"{path}: {rows_}x{cols}-pixel images are too large")
    if len(body) != count * rows_ * cols:
        raise FormatError(f"{path}: {count}x{rows_}x{cols} pixels, {len(body)} bytes")
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(count, rows_ * cols)
    return Dataset._checked(pixels, str(path), scale=255.0)


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
    # the noise takes its centre one row block at a time: no (n, d) gather
    # array, and the same sums, since IEEE addition is commutative
    rows = rng.normal(0.0, spread, size=(n, d))
    for a, b in row_blocks(n, block_rows(d)):
        rows[a:b] += centers[assignment[a:b]]
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


_F8 = "<f8"
# Each kind's header tag, model class, and payload fields in file order:
# name -> (dtype, shape). The fields are model attributes, except SGH's
# centred flag byte and centre mean. SGH sets the header's domain byte and
# ITQ its extra field (the iteration count).
_LAYOUTS = {
    KIND_SGH: (0, ModelParams, lambda d, l: {"W": (_F8, (d, l)), "U": (_F8, (d, l)),
               "beta": (_F8, (l,)), "log_rho": (_F8, ()), "centred": ("u1", ()),
               "center_mean": (_F8, (d,))}),
    KIND_ITQ: (1, ItqModel, lambda d, l: {"mean": (_F8, (d,)), "W_pca": (_F8, (d, l)),
               "R": (_F8, (l, l)), "scale": (_F8, (l,))}),
    KIND_PCA: (2, PcaModel, lambda d, l: {"mean": (_F8, (d,)), "W_pca": (_F8, (d, l))}),
}
_TAG_KINDS = {tag: kind for kind, (tag, _, _) in _LAYOUTS.items()}


def save_checkpoint(path, model, center_mean=None):
    """Serialize a model (an SGH model with an optional centre mean) to a binary file."""
    kind = next((k for k, (_, cls, _) in _LAYOUTS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise InputError(f"cannot checkpoint model of type {type(model).__name__}")
    if center_mean is not None and kind != KIND_SGH:
        raise InputError(f"a {kind} checkpoint holds no centre mean; only SGH models are centred")
    model._check()
    d, l = model.d, model.l
    mean = np.zeros(d) if center_mean is None else center_mean
    values = {"centred": center_mean is not None, "center_mean": mean, **vars(model)}
    blocks = []
    for name, (dtype, shape) in _LAYOUTS[kind][2](d, l).items():
        if np.shape(values[name]) != shape:
            got = np.shape(values[name])
            raise InputError(f"{kind} block {name} has shape {got}, expected {shape}")
        blocks.append(np.ascontiguousarray(values[name], dtype=dtype).tobytes())
    payload = b"".join(blocks)
    domain = CODE_DOMAINS.index(model.code_domain) if kind == KIND_SGH else 0
    extra = model.iterations if kind == KIND_ITQ else 0
    header = _CHECKPOINT_HEAD.pack(CHECKPOINT_VERSION, _LAYOUTS[kind][0], domain, d, l, extra)
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + header)
        f.write(payload)
        f.write(_CHECKSUM.pack(fnv1a_64(payload)))


def load_checkpoint(path, expect_kind=None):
    """Load a checkpoint; returns (model, center_mean_or_None).

    Rejects unknown versions, checksum mismatches, and (when expect_kind is
    given) checkpoints of a different model kind.
    """
    (version, tag, domain, d, l, extra), body = _read_headed(
        path, CHECKPOINT_MAGIC, _CHECKPOINT_HEAD, "checkpoint", _CHECKSUM.size
    )
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    if tag not in _TAG_KINDS:
        raise FormatError(f"{path}: unknown model kind tag {tag}")
    kind = _TAG_KINDS[tag]
    if expect_kind is not None and kind != expect_kind:
        raise FormatError(f"{path}: checkpoint holds a {kind} model, expected {expect_kind}")
    # the header is outside the checksum: check it against the payload
    # before any field is read from it
    domains = len(CODE_DOMAINS) if kind == KIND_SGH else 1
    if domain >= domains:
        raise FormatError(f"{path}: bad code domain byte {domain} for a {kind} checkpoint")
    payload, (stored,) = body[: -_CHECKSUM.size], _CHECKSUM.unpack(body[-_CHECKSUM.size :])
    fields = _LAYOUTS[kind][2](d, l)
    expected = sum(np.dtype(dtype).itemsize * math.prod(shape) for dtype, shape in fields.values())
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, but a {kind} checkpoint with "
            f"d={d}, l={l} holds {expected}"
        )
    if fnv1a_64(payload) != stored:
        raise FormatError(f"{path}: checksum mismatch; file is corrupted")

    values, offset = {}, 0
    for name, (dtype, shape) in fields.items():
        values[name] = np.frombuffer(payload, dtype, math.prod(shape), offset).reshape(shape).copy()
        offset += values[name].nbytes
    if kind == KIND_SGH:
        values["code_domain"] = CODE_DOMAINS[domain]
    elif kind == KIND_ITQ:
        values["iterations"] = int(extra)
    centred, mean = values.pop("centred", 0), values.pop("center_mean", None)
    # the only flag and mean bytes save_checkpoint writes, so a load is bit-exact
    if centred > 1:
        raise FormatError(f"{path}: bad centred flag byte {centred}, expected 0 or 1")
    if not centred and mean is not None and mean.view(np.uint64).any():
        raise FormatError(f"{path}: an uncentred checkpoint holds a non-zero centre mean")
    try:
        return _LAYOUTS[kind][1](**values), (mean if centred else None)
    except InputError as err:
        raise FormatError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# packed-code files
# ---------------------------------------------------------------------------


def write_packed_codes(path, codes: np.ndarray, l: int):
    """Header (magic, N, l) followed by N*ceil(l/64) little-endian words."""
    codes = check_words(codes, l, 2)
    with open(path, "wb") as f:
        f.write(CODES_MAGIC)
        f.write(_CODES_HEAD.pack(codes.shape[0], l))
        codes.astype("<u8", copy=False).tofile(f)


def read_packed_codes(path):
    """Returns (codes, l) as written by write_packed_codes."""
    (count, l), body = _read_headed(path, CODES_MAGIC, _CODES_HEAD, "packed-code file")
    if len(body) != 8 * count * n_words(l):
        raise FormatError(f"{path}: {count} codes of {l} bits, {len(body)} bytes")
    words = np.frombuffer(body, dtype="<u8").reshape(-1, max(n_words(l), 1))  # l = 0 fails below
    try:
        return check_words(words, l, 2).copy(), l
    except InputError as err:
        raise FormatError(f"{path}: {err}") from None
