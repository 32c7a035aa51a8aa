import struct
import tracemalloc

import numpy as np
import pytest

from genhash.baselines import ItqModel, PcaModel, itq_fit, pca_fit
from genhash.cli import main
from genhash.codes import CODE_DOMAINS, MAX_BITS, PLUS_MINUS, WORD_BITS, n_words, pack_bits
from genhash.data_io import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CODES_MAGIC,
    IDX_IMAGE_MAGIC,
    KIND_ITQ,
    KIND_PCA,
    KIND_SGH,
    Dataset,
    fnv1a_64,
    load_checkpoint,
    read_bvecs,
    read_fvecs,
    read_ivecs,
    read_mnist_idx,
    read_packed_codes,
    save_checkpoint,
    synth_mixture,
    write_bvecs,
    write_fvecs,
    write_ivecs,
    write_packed_codes,
)
from genhash.data_io import _CHECKPOINT_HEAD, _CODES_HEAD, _IDX_HEAD
from genhash.errors import FormatError, InputError
from genhash.model import ModelParams

from conftest import HEADER_CORRUPTIONS, checkpoint_model, random_params, write_corrupt_checkpoint


# ---------------------------------------------------------------------------
# vector files
# ---------------------------------------------------------------------------


def test_fvecs_empty_file(tmp_path):
    path = tmp_path / "empty.fvecs"
    path.write_bytes(b"")
    ds = read_fvecs(path)
    assert ds.rows.shape == (0, 0)


def test_fvecs_hand_written_fixture(tmp_path):
    # one record: d=2, values 1.0, 2.0 -> 12 bytes
    path = tmp_path / "one.fvecs"
    path.write_bytes(struct.pack("<iff", 2, 1.0, 2.0))
    ds = read_fvecs(path)
    assert ds.rows.shape == (1, 2)
    assert np.allclose(ds.rows, [[1.0, 2.0]])


@pytest.mark.parametrize(
    "writer,reader",
    [
        (write_fvecs, read_fvecs),
        (write_bvecs, read_bvecs),
    ],
)
def test_vecs_round_trip(tmp_path, rng, writer, reader):
    rows = rng.random((13, 7)).astype(np.float32)
    if writer is write_bvecs:
        rows = (rows * 255).astype(np.uint8)
    path = tmp_path / "data.vecs"
    writer(path, rows)
    back = reader(path)
    assert np.array_equal(back.rows, rows.astype(np.float64))


def test_ivecs_round_trip(tmp_path, rng):
    lists = rng.integers(0, 1000, size=(9, 10)).astype(np.int32)
    path = tmp_path / "truth.ivecs"
    write_ivecs(path, lists)
    assert np.array_equal(read_ivecs(path), lists)


@pytest.mark.parametrize(
    "writer,fmt,rows",
    [
        (write_fvecs, "<f4", np.arange(12.0).reshape(4, 3) / 7),
        (write_bvecs, "u1", np.arange(12).reshape(3, 4) * 21),
        (write_ivecs, "<i4", np.arange(10).reshape(2, 5) - 3),
        (write_fvecs, "<f4", np.empty((0, 3))),
    ],
)
def test_vecs_writer_matches_record_layout(tmp_path, writer, fmt, rows):
    # one record per row: int32 dimension prefix, then the row's elements
    path = tmp_path / "data.vecs"
    writer(path, rows)
    d = rows.shape[1]
    expected = b"".join(struct.pack("<i", d) + row.astype(fmt).tobytes() for row in rows)
    assert path.read_bytes() == expected


@pytest.mark.parametrize("value", [-1, 256])
def test_bvecs_writer_rejects_out_of_range(tmp_path, value):
    path = tmp_path / "data.bvecs"
    with pytest.raises(InputError):
        write_bvecs(path, np.array([[0, value]]))
    assert not path.exists()


def test_vecs_rejects_trailing_garbage(tmp_path):
    path = tmp_path / "bad.fvecs"
    path.write_bytes(struct.pack("<iff", 2, 1.0, 2.0) + b"\x01\x02")
    with pytest.raises(FormatError, match="byte"):
        read_fvecs(path)


def test_vecs_rejects_inconsistent_dimension(tmp_path):
    path = tmp_path / "bad.ivecs"
    path.write_bytes(struct.pack("<iii", 2, 5, 6) + struct.pack("<iii", 1, 7, 8))
    with pytest.raises(FormatError, match="dimension"):
        read_ivecs(path)


def test_vecs_rejects_negative_dimension(tmp_path):
    path = tmp_path / "bad.fvecs"
    path.write_bytes(struct.pack("<i", -1))
    with pytest.raises(FormatError):
        read_fvecs(path)


# ---------------------------------------------------------------------------
# IDX images
# ---------------------------------------------------------------------------


def _idx_fixture(pixels: np.ndarray) -> bytes:
    n, rows_, cols = pixels.shape
    return struct.pack(">iiii", 0x00000803, n, rows_, cols) + pixels.tobytes()


def test_idx_reader(tmp_path):
    pixels = np.arange(2 * 2 * 3, dtype=np.uint8).reshape(2, 2, 3)
    path = tmp_path / "imgs.idx"
    path.write_bytes(_idx_fixture(pixels))
    ds = read_mnist_idx(path)
    assert ds.rows.shape == (2, 6)
    assert np.allclose(ds.rows, pixels.reshape(2, 6) / 255.0)
    assert ds.rows.min() >= 0.0 and ds.rows.max() <= 1.0


def test_idx_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">iiii", 0x00000801, 1, 1, 1) + b"\x00")
    with pytest.raises(FormatError, match="magic"):
        read_mnist_idx(path)


def test_idx_truncated(tmp_path):
    pixels = np.zeros((2, 2, 3), dtype=np.uint8)
    path = tmp_path / "short.idx"
    path.write_bytes(_idx_fixture(pixels)[:-2])
    with pytest.raises(FormatError):
        read_mnist_idx(path)


# ---------------------------------------------------------------------------
# synthetic mixture
# ---------------------------------------------------------------------------


def test_synth_mixture_deterministic():
    a = synth_mixture(100, 8, 4, 0.5, 42)
    b = synth_mixture(100, 8, 4, 0.5, 42)
    assert np.array_equal(a.rows, b.rows)
    c = synth_mixture(100, 8, 4, 0.5, 43)
    assert not np.array_equal(a.rows, c.rows)


def test_synth_mixture_single_tight_cluster():
    ds = synth_mixture(500, 6, 1, 1e-9, 0)
    center = ds.rows.mean(axis=0)
    assert np.linalg.norm(ds.rows - center, axis=1).max() < 1e-6
    assert abs(np.linalg.norm(center) - 1e-8) < 1e-9  # radius 10*spread


def test_synth_mixture_cluster_spread_statistics():
    spread = 2.0
    ds = synth_mixture(100_000, 4, 3, spread, 7)
    # recover assignments by nearest center; per-cluster std within 5% of spread
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
    centers = rng.normal(size=(3, 4))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers *= 10.0 * spread
    d2 = ((ds.rows[:, None, :] - centers[None]) ** 2).sum(axis=2)
    assign = d2.argmin(axis=1)
    for c in range(3):
        member = ds.rows[assign == c] - centers[c]
        std = member.std()
        assert abs(std - spread) / spread < 0.05


@pytest.mark.parametrize("n, d, clusters", [(1, 1, 1), (7, 3, 2), (50_003, 16, 10),
                                             (20_003, 128, 20), (33_333, 9, 33_333)])
def test_synth_mixture_equals_the_gather_expression(n, d, clusters):
    """Rows are bit-identical to the one-expression form it replaced."""
    spread, seed = 1.5, n
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    centers = rng.normal(size=(clusters, d))
    norms = np.linalg.norm(centers, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    centers = centers / norms * (10.0 * spread)
    assignment = rng.integers(0, clusters, size=n)
    rows = centers[assignment] + rng.normal(0.0, spread, size=(n, d))
    assert synth_mixture(n, d, clusters, spread, seed).rows.tobytes() == rows.tobytes()


def test_synth_mixture_input_validation():
    with pytest.raises(InputError):
        synth_mixture(5, 4, 10, 1.0, 0)
    with pytest.raises(InputError):
        synth_mixture(10, 4, 2, -1.0, 0)
    with pytest.raises(InputError):
        synth_mixture(10, 4, 2, 1.0, -1)


def test_dataset_centering():
    ds = synth_mixture(1000, 5, 3, 1.0, 11)
    centered = ds.centered()
    col_std = centered.rows.std(axis=0)
    assert np.all(np.abs(centered.rows.mean(axis=0)) <= 1e-5 * np.maximum(col_std, 1.0))
    assert centered.mean is not None
    assert np.allclose(centered.rows + centered.mean, ds.rows)


def test_dataset_converts_to_its_rows():
    ds = synth_mixture(40, 3, 2, 1.0, 4)
    assert np.asarray(ds) is ds.rows
    assert np.asarray(ds, dtype=np.float64) is ds.rows
    assert np.array_equal(np.asarray(ds, dtype=np.float32), ds.rows.astype(np.float32))
    copied = np.array(ds)
    assert copied is not ds.rows and np.array_equal(copied, ds.rows)
    # functions taking a matrix take the Dataset and give the same result
    from genhash.evaluation import mean_recon_error
    from genhash.search import knn_exact_ip, knn_exact_l2_batch

    expected = knn_exact_l2_batch(ds.rows, ds.rows[:3], 5)
    assert np.array_equal(knn_exact_l2_batch(ds, ds.rows[:3], 5), expected)
    assert np.array_equal(knn_exact_ip(ds, ds.rows[0], 5), knn_exact_ip(ds.rows, ds.rows[0], 5))
    model = itq_fit(ds, 2, iterations=3)
    assert np.array_equal(model.R, itq_fit(ds.rows, 2, iterations=3).R)
    assert mean_recon_error(model, ds) == mean_recon_error(model, ds.rows)


def test_dataset_finiteness_check_is_bounded_by_its_block(rng):
    rows = rng.normal(size=(200_000, 128))
    tracemalloc.start()
    try:
        Dataset(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one row block of bools; the whole (N, d) bool array would take 25.6 MB
    assert peak < 4 * 2**20, peak
    rows[123_456, 7] = np.nan
    with pytest.raises(InputError, match="non-finite"):
        Dataset(rows)
    for shape in ((0, 3), (4, 0), (0, 0)):
        assert Dataset(np.zeros(shape)).rows.shape == shape


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_fnv1a_known_vectors():
    # standard FNV-1a 64-bit reference values
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C


@pytest.mark.parametrize("domain", ["zero-one", PLUS_MINUS])
def test_checkpoint_round_trip_model(tmp_path, rng, domain):
    params = random_params(rng, 6, 5, domain)
    mean = rng.normal(size=6)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, center_mean=mean)
    loaded, loaded_mean = load_checkpoint(path)
    assert np.array_equal(loaded.W, params.W)
    assert np.array_equal(loaded.U, params.U)
    assert np.array_equal(loaded.beta, params.beta)
    assert loaded.log_rho == params.log_rho
    assert loaded.code_domain == domain
    assert np.array_equal(loaded_mean, mean)


def test_checkpoint_round_trip_without_mean(tmp_path, rng):
    params = random_params(rng, 4, 3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    _, mean = load_checkpoint(path)
    assert mean is None


def test_checkpoint_round_trip_itq(tmp_path, rng):
    model = itq_fit(rng.normal(size=(80, 6)), 4, iterations=7)
    path = tmp_path / "itq.ckpt"
    save_checkpoint(path, model)
    loaded, _ = load_checkpoint(path)
    assert isinstance(loaded, ItqModel)
    assert np.array_equal(loaded.W_pca, model.W_pca)
    assert np.array_equal(loaded.R, model.R)
    assert np.array_equal(loaded.scale, model.scale)
    assert loaded.iterations == 7


def test_checkpoint_round_trip_pca(tmp_path, rng):
    model = PcaModel(*pca_fit(rng.normal(size=(50, 5)), 3))
    path = tmp_path / "pca.ckpt"
    save_checkpoint(path, model)
    loaded, _ = load_checkpoint(path)
    assert isinstance(loaded, PcaModel)
    assert np.array_equal(loaded.W_pca, model.W_pca)


def test_checkpoint_corruption_detected(tmp_path, rng):
    params = random_params(rng, 4, 3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    raw = bytearray(path.read_bytes())
    raw[60] ^= 0x01  # flip one payload bit
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="checksum"):
        load_checkpoint(path)


def test_checkpoint_kind_mismatch_rejected(tmp_path, rng):
    params = random_params(rng, 4, 3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    with pytest.raises(FormatError, match="kind|expected"):
        load_checkpoint(path, expect_kind=KIND_ITQ)
    load_checkpoint(path, expect_kind=KIND_SGH)


def test_checkpoint_version_rejected(tmp_path, rng):
    params = random_params(rng, 4, 3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    raw = bytearray(path.read_bytes())
    raw[8] = 99  # bump the version field
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(path)


@pytest.mark.parametrize("kind", ["SGH", "ITQ", "PCA"])
@pytest.mark.parametrize("corruption", sorted(HEADER_CORRUPTIONS))
def test_checkpoint_header_corruption_rejected(tmp_path, rng, kind, corruption):
    path = tmp_path / "model.ckpt"
    write_corrupt_checkpoint(path, kind, corruption, rng)
    with pytest.raises(FormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("kind", ["ITQ", "PCA"])
def test_checkpoint_baseline_domain_must_be_zero(tmp_path, rng, kind):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, checkpoint_model(kind, rng))
    raw = bytearray(path.read_bytes())
    raw[13] = 1
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="domain"):
        load_checkpoint(path)


def _wrong_shaped(kind, rng):
    """A model of `kind` with one block that disagrees with its (d, l): (model, block)."""
    if kind == KIND_SGH:
        params = random_params(rng, 6, 5, PLUS_MINUS)
        params.beta = np.zeros(4)
        return params, "beta"
    if kind == KIND_ITQ:
        # built by hand without scale, whose default is an empty array
        return ItqModel(mean=np.zeros(4), W_pca=np.eye(4)[:, :2], R=np.eye(2), iterations=0), "scale"
    return PcaModel(np.zeros(5), np.eye(6)[:, :3]), "mean"


@pytest.mark.parametrize("kind", [KIND_SGH, KIND_ITQ, KIND_PCA])
def test_save_checkpoint_rejects_wrong_block_shape(tmp_path, rng, kind):
    model, block = _wrong_shaped(kind, rng)
    path = tmp_path / "model.ckpt"
    with pytest.raises(InputError, match=f"{kind} block {block} has shape"):
        save_checkpoint(path, model)
    assert not path.exists()


@pytest.mark.parametrize("kind", [KIND_ITQ, KIND_PCA])
def test_save_checkpoint_refuses_a_centre_mean_for_a_baseline(tmp_path, rng, kind):
    # only an SGH checkpoint holds a centre mean: a baseline's would load back as None
    model = checkpoint_model(kind, rng)
    path = tmp_path / "model.ckpt"
    with pytest.raises(InputError, match="holds no centre mean"):
        save_checkpoint(path, model, center_mean=rng.normal(size=model.d))
    assert not path.exists()


def _reseal_payload(path, edits):
    """Set a checkpoint's payload bytes {offset: byte} and write a checksum that fits."""
    raw = path.read_bytes()
    start = len(CHECKPOINT_MAGIC) + _CHECKPOINT_HEAD.size
    payload = bytearray(raw[start : -struct.calcsize("<Q")])
    for at, byte in edits.items():
        payload[at] = byte
    path.write_bytes(raw[:start] + bytes(payload) + struct.pack("<Q", fnv1a_64(bytes(payload))))


def test_checkpoint_centred_flag_and_mean_are_only_what_save_writes(tmp_path, rng):
    # the SGH payload ends with the centred flag byte and the (d,) centre mean;
    # behind a recomputed checksum, a flag other than 0 or 1, or any mean byte
    # under flag 0, would load into a model that does not save back the same
    d, l = 4, 3
    flag = 8 * (2 * d * l + l + 1)  # W, U, beta, log_rho
    path, out = tmp_path / "model.ckpt", tmp_path / "out"
    data = ["--data", f"n=6,d={d},clusters=2,spread=1.0", "--format", "synth"]
    for centred, edits, message in [
        (True, {flag: 7}, "centred flag byte 7"),
        (True, {flag: 0}, "non-zero centre mean"),
        (False, {flag + 8 * d: 0x80}, "non-zero centre mean"),  # -0.0 as the last mean value
        (False, {flag + 1: 0x01}, "non-zero centre mean"),  # the smallest subnormal as the first
    ]:
        save_checkpoint(path, random_params(rng, d, l), rng.normal(size=d) if centred else None)
        _reseal_payload(path, {})
        assert (load_checkpoint(path)[1] is not None) == centred  # resealed unchanged, it loads
        _reseal_payload(path, edits)
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path)
        assert main(["encode", "--ckpt", str(path), *data, "--out", str(out)]) == 3
        assert not out.exists()


# checkpoints whose header sizes no model takes: d = 0, l = 0, l over the code
# cap, or a negative ITQ iteration count. The writer refuses them, so they
# are written by hand: header, a zero payload of the size it names, checksum.
_BAD_SIZES = [
    (KIND_SGH, 3, 0, 0),
    (KIND_SGH, 0, 2, 0),
    (KIND_SGH, 3, MAX_BITS + 1, 0),
    (KIND_ITQ, 3, 0, 0),
    (KIND_ITQ, 0, 2, 0),
    (KIND_ITQ, 3, 2, -1),
    (KIND_PCA, 3, 0, 0),
    (KIND_PCA, 0, 2, 0),
]


def _zero_model(kind, d, l, extra):
    """Build the model of `kind` with all-zero blocks of sizes (d, l)."""
    if kind == KIND_SGH:
        return ModelParams(np.zeros((d, l)), np.zeros((d, l)), np.zeros(l), 0.0)
    if kind == KIND_ITQ:
        return ItqModel(np.zeros(d), np.zeros((d, l)), np.zeros((l, l)), extra, np.zeros(l))
    return PcaModel(np.zeros(d), np.zeros((d, l)))


@pytest.mark.parametrize("kind,d,l,extra", _BAD_SIZES)
def test_checkpoint_sizes_no_model_takes_fail_closed(tmp_path, kind, d, l, extra):
    with pytest.raises(InputError):
        _zero_model(kind, d, l, extra)
    path = tmp_path / "bad.ckpt"
    payload = bytes(_payload_size(kind, d, l))
    header = _CHECKPOINT_HEAD.pack(CHECKPOINT_VERSION, _KIND_TAGS[kind], 0, d, l, extra)
    path.write_bytes(CHECKPOINT_MAGIC + header + payload + struct.pack("<Q", fnv1a_64(payload)))
    with pytest.raises(FormatError):
        load_checkpoint(path)
    data = ["--data", "n=6,d=4,clusters=2,spread=1.0", "--format", "synth"]
    out = ["--out", str(tmp_path / "out")]
    assert main(["encode", "--ckpt", str(path), *data, *out]) == 3
    assert main(["reconstruct", "--ckpt", str(path), *data, "--shape", "2x2", *out]) == 3
    assert not (tmp_path / "out").exists()


def test_save_checkpoint_rechecks_sizes_changed_after_building(tmp_path, rng):
    itq = checkpoint_model("ITQ", rng)
    itq.iterations = -1
    sgh = checkpoint_model("SGH", rng)
    sgh.W = sgh.U = np.zeros((6, 0))
    for model in (itq, sgh):
        path = tmp_path / "model.ckpt"
        with pytest.raises(InputError):
            save_checkpoint(path, model)
        assert not path.exists()


# The checkpoint writer and reader as written before the per-kind layout
# table, kept verbatim (bar the two public names and the reader's rule that
# an ITQ iteration count is >= 0) as the byte-level reference.

_KIND_TAGS = {KIND_SGH: 0, KIND_ITQ: 1, KIND_PCA: 2}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}


def _block(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _reference_save_checkpoint(path, model, center_mean=None):
    """Serialize a model (with optional preprocessing mean) to a binary file."""
    if isinstance(model, ModelParams):
        kind = KIND_SGH
        d, l = model.d, model.l
        domain = CODE_DOMAINS.index(model.code_domain)
        mean = np.zeros(d) if center_mean is None else np.asarray(center_mean, dtype=np.float64)
        if mean.shape != (d,):
            raise InputError(f"center mean must have length {d}")
        payload = (
            _block(model.W)
            + _block(model.U)
            + _block(model.beta)
            + _block([model.log_rho])
            + struct.pack("<B", 0 if center_mean is None else 1)
            + _block(mean)
        )
        extra = 0
    elif isinstance(model, ItqModel):
        kind = KIND_ITQ
        d, l = model.W_pca.shape
        domain = 0
        payload = (
            _block(model.mean)
            + _block(model.W_pca)
            + _block(model.R)
            + _block(model.scale)
        )
        extra = model.iterations
    elif isinstance(model, PcaModel):
        kind = KIND_PCA
        d, l = model.W_pca.shape
        domain = 0
        payload = _block(model.mean) + _block(model.W_pca)
        extra = 0
    else:
        raise InputError(f"cannot checkpoint model of type {type(model).__name__}")

    header = CHECKPOINT_MAGIC + struct.pack(
        "<IBBIIq", CHECKPOINT_VERSION, _KIND_TAGS[kind], domain, d, l, extra
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)
        f.write(struct.pack("<Q", fnv1a_64(payload)))


def _payload_size(kind: str, d: int, l: int) -> int:
    """Bytes of payload that save_checkpoint writes for (kind, d, l)."""
    if kind == KIND_SGH:
        return 8 * (2 * d * l + l + 1 + d) + 1  # W, U, beta, log_rho, mean; centred flag
    if kind == KIND_ITQ:
        return 8 * (d + d * l + l * l + l)  # mean, W_pca, R, scale
    return 8 * (d + d * l)  # mean, W_pca


def _take(buf: memoryview, count: int, shape):
    n_bytes = 8 * count
    arr = np.frombuffer(buf[:n_bytes], dtype="<f8").reshape(shape).copy()
    return arr, buf[n_bytes:]


def _reference_load_checkpoint(path, expect_kind=None):
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
    expected = _payload_size(kind, d, l)
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, but a {kind} checkpoint with "
            f"d={d}, l={l} holds {expected}"
        )
    (stored,) = struct.unpack("<Q", raw[-8:])
    if fnv1a_64(payload) != stored:
        raise FormatError(f"{path}: checksum mismatch; file is corrupted")

    buf = memoryview(bytes(payload))
    if kind == KIND_SGH:
        W, buf = _take(buf, d * l, (d, l))
        U, buf = _take(buf, d * l, (d, l))
        beta, buf = _take(buf, l, (l,))
        log_rho, buf = _take(buf, 1, (1,))
        centered = buf[0]
        buf = buf[1:]
        mean, buf = _take(buf, d, (d,))
        params = ModelParams(W, U, beta, float(log_rho[0]), CODE_DOMAINS[domain])
        return params, (mean if centered else None)
    if kind == KIND_ITQ:
        if extra < 0:
            raise FormatError(f"{path}: iterations must be >= 0, got {extra}")
        mean, buf = _take(buf, d, (d,))
        W_pca, buf = _take(buf, d * l, (d, l))
        R, buf = _take(buf, l * l, (l, l))
        scale, buf = _take(buf, l, (l,))
        return ItqModel(mean=mean, W_pca=W_pca, R=R, iterations=int(extra), scale=scale), None
    mean, buf = _take(buf, d, (d,))
    W_pca, buf = _take(buf, d * l, (d, l))
    return PcaModel(mean=mean, W_pca=W_pca), None


_MODEL_FIELDS = {
    ModelParams: ("W", "U", "beta", "log_rho", "code_domain"),
    ItqModel: ("mean", "W_pca", "R", "scale", "iterations"),
    PcaModel: ("mean", "W_pca"),
}


def _oracle_models(rng):
    """(name, model, center_mean) for every kind, both SGH domains and means."""
    for domain in CODE_DOMAINS:
        for d, l in ((6, 5), (16, 70)):
            params = random_params(rng, d, l, domain)
            yield f"SGH-{domain}-{d}x{l}", params, None
            yield f"SGH-{domain}-{d}x{l}-centred", params, rng.normal(size=d)
    for d, l in ((6, 4), (5, 5)):
        yield f"ITQ-{d}x{l}", itq_fit(rng.normal(size=(80, d)), l, iterations=3), None
        yield f"PCA-{d}x{l}", PcaModel(*pca_fit(rng.normal(size=(50, d)), l)), None


def test_checkpoint_bytes_and_arrays_equal_reference(tmp_path, rng):
    for name, model, mean in _oracle_models(rng):
        ours, ref = tmp_path / f"{name}.ckpt", tmp_path / f"{name}.ref.ckpt"
        save_checkpoint(ours, model, center_mean=mean)
        _reference_save_checkpoint(ref, model, center_mean=mean)
        assert ours.read_bytes() == ref.read_bytes(), name
        got, got_mean = load_checkpoint(ours)
        want, want_mean = _reference_load_checkpoint(ref)
        assert type(got) is type(want), name
        for attr in _MODEL_FIELDS[type(want)]:
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), (name, attr)
        assert (got_mean is None) == (want_mean is None), name
        if want_mean is not None:
            assert np.array_equal(got_mean, want_mean), name


# ---------------------------------------------------------------------------
# packed-code files
# ---------------------------------------------------------------------------


def test_packed_codes_round_trip(tmp_path, rng):
    from genhash.codes import pack_bits

    codes = pack_bits(rng.random((20, 70)) < 0.5)
    path = tmp_path / "codes.bin"
    write_packed_codes(path, codes, 70)
    back, l = read_packed_codes(path)
    assert l == 70
    assert np.array_equal(back, codes)


def test_packed_codes_truncation_detected(tmp_path, rng):
    from genhash.codes import pack_bits

    codes = pack_bits(rng.random((5, 32)) < 0.5)
    path = tmp_path / "codes.bin"
    write_packed_codes(path, codes, 32)
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(FormatError):
        read_packed_codes(path)


def test_packed_codes_zero_length_rejected(tmp_path):
    with pytest.raises(InputError):
        write_packed_codes(tmp_path / "codes.bin", np.zeros((3, 0), dtype=np.uint64), 0)
    # three 0-bit codes take no words, so the header alone passes the size check
    path = tmp_path / "zero.bin"
    path.write_bytes(b"GHCODES\x00" + struct.pack("<QI", 3, 0))
    with pytest.raises(FormatError, match="code length"):
        read_packed_codes(path)


@pytest.mark.parametrize("l", [1, 8, 63, 70])
def test_packed_codes_padding_bits_fail_closed(tmp_path, l):
    codes = np.zeros((2, -(-l // 64)), dtype=np.uint64)
    codes[1, -1] = np.uint64(1) << np.uint64(63)  # the top bit pads every length here
    path = tmp_path / "codes.bin"
    with pytest.raises(InputError, match="padding"):
        write_packed_codes(path, codes, l)
    assert not path.exists()
    # the same words written by hand: the reader rejects the file as malformed
    path.write_bytes(b"GHCODES\x00" + struct.pack("<QI", 2, l) + codes.astype("<u8").tobytes())
    with pytest.raises(FormatError, match="padding"):
        read_packed_codes(path)
    codes[1, -1] = np.uint64(1) << np.uint64((l - 1) % 64)  # the last code bit is data
    write_packed_codes(path, codes, l)
    back, back_l = read_packed_codes(path)
    assert back_l == l and np.array_equal(back, codes)


# ---------------------------------------------------------------------------
# readers as written before the shared layouts and headers, kept verbatim
# (bar the names) as references
# ---------------------------------------------------------------------------

_REFERENCE_VEC_ELEMENT = {"fvecs": ("<f4", 4), "bvecs": ("u1", 1), "ivecs": ("<i4", 4)}


def _reference_read_vecs(path, flavor: str) -> np.ndarray:
    dtype, elem_size = _REFERENCE_VEC_ELEMENT[flavor]
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


def _reference_read_mnist_idx(path) -> Dataset:
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


def _reference_check_padding(words, l: int):
    """Raise InputError if a padding bit beyond l is set in (..., n_words(l)) words."""
    pad = n_words(l) * WORD_BITS - l
    if pad and np.any(words[..., -1] >> np.uint64(WORD_BITS - pad)):
        raise InputError("padding bits beyond the code length must be zero")


def _reference_read_packed_codes(path):
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
        _reference_check_padding(words, l)
    except InputError as err:
        raise FormatError(f"{path}: {err}") from None
    return words.astype(np.uint64), l


def _reference_read_fvecs(path):
    return Dataset(_reference_read_vecs(path, "fvecs").astype(np.float64), source=str(path))


def _reference_read_bvecs(path):
    return Dataset(_reference_read_vecs(path, "bvecs").astype(np.float64), source=str(path))


def _reference_read_ivecs(path):
    return _reference_read_vecs(path, "ivecs").astype(np.int32)


def _loaded_arrays(loaded):
    """What a reader returned, as a flat list of arrays and scalars to compare."""
    if isinstance(loaded, Dataset):
        return [loaded.rows]
    if isinstance(loaded, np.ndarray):
        return [loaded]
    first, second = loaded
    if isinstance(first, np.ndarray):  # (codes, l)
        return [first, second]
    fields = [getattr(first, attr) for attr in _MODEL_FIELDS[type(first)]]
    return [type(first).__name__, *fields, second is None] + ([] if second is None else [second])


def _assert_same_load(got, want):
    got, want = _loaded_arrays(got), _loaded_arrays(want)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        else:
            assert a == b


_READERS = {
    "fvecs": (read_fvecs, _reference_read_fvecs),
    "bvecs": (read_bvecs, _reference_read_bvecs),
    "ivecs": (read_ivecs, _reference_read_ivecs),
    "codes": (read_packed_codes, _reference_read_packed_codes),
    "idx": (read_mnist_idx, _reference_read_mnist_idx),
    "ckpt": (load_checkpoint, _reference_load_checkpoint),
}


def _write_valid_files(tmp_path, rng):
    """Write valid files of every format, edge shapes included; yields (path, _READERS key)."""
    for n, d in ((5, 3), (1, 1), (0, 3)):
        for flavor, writer, rows in (
            ("fvecs", write_fvecs, rng.normal(size=(n, d)).astype(np.float32)),
            ("bvecs", write_bvecs, rng.integers(0, 256, size=(n, d))),
            ("ivecs", write_ivecs, rng.integers(-(2**31), 2**31, size=(n, d))),
        ):
            path = tmp_path / f"{n}x{d}.{flavor}"
            writer(path, rows)
            yield path, flavor
    for l in (1, 8, 63, 64, 65, 130, MAX_BITS):
        for n in (0, 4):
            path = tmp_path / f"{n}x{l}.codes"
            write_packed_codes(path, pack_bits(rng.random((n, l)) < 0.5), l)
            yield path, "codes"
    for shape in ((3, 2, 2), (0, 28, 28), (2, 1, 5)):
        path = tmp_path / ("x".join(map(str, shape)) + ".idx")
        path.write_bytes(_idx_fixture(rng.integers(0, 256, size=shape, dtype=np.uint8)))
        yield path, "idx"
    for name, model, mean in _oracle_models(rng):
        path = tmp_path / f"{name}.ckpt"
        save_checkpoint(path, model, center_mean=mean)
        yield path, "ckpt"


def test_readers_equal_reference_on_valid_files(tmp_path, rng):
    for path, key in _write_valid_files(tmp_path, rng):
        read, reference = _READERS[key]
        _assert_same_load(read(path), reference(path))
        if key == "codes":
            words, _ = read(path)
            assert words.flags.writeable and words.flags.c_contiguous, path.name


# ---------------------------------------------------------------------------
# writers refuse what readers reject
# ---------------------------------------------------------------------------


def test_packed_codes_over_the_bit_cap_fail_closed(tmp_path):
    l = MAX_BITS + 904  # 5000 bits
    words = np.zeros((2, n_words(l)), dtype=np.uint64)
    path = tmp_path / "codes.bin"
    with pytest.raises(InputError, match="code length"):
        write_packed_codes(path, words, l)
    assert not path.exists()
    # the same words written by hand: the reference reader loads them
    path.write_bytes(CODES_MAGIC + struct.pack("<QI", 2, l) + words.astype("<u8").tobytes())
    with pytest.raises(FormatError, match="code length"):
        read_packed_codes(path)
    assert _reference_read_packed_codes(path)[1] == l


@pytest.mark.parametrize(
    "writer,rows",
    [
        (write_ivecs, [[2**40, 3]]),
        (write_ivecs, [[-(2**31) - 1, 0]]),
        (write_ivecs, [[np.nan, 1.0]]),
        (write_bvecs, [[2.0, np.nan]]),
        (write_fvecs, [[1e300, 3.0]]),
        (write_fvecs, [[-1e39, 3.0]]),
        (write_fvecs, [[1.0, np.nan]]),
        (write_fvecs, [[np.inf, 0.0]]),
        (write_fvecs, np.zeros((2, 0))),
        (write_ivecs, np.zeros((1, 0), dtype=np.int32)),
    ],
)
def test_vecs_writers_refuse_what_readers_reject(tmp_path, writer, rows):
    path = tmp_path / "data.vecs"
    with pytest.raises(InputError):
        writer(path, rows)
    assert not path.exists()


def test_vecs_writers_keep_the_extremes_of_each_type(tmp_path):
    path = tmp_path / "data.vecs"
    write_ivecs(path, [[-(2**31), 2**31 - 1]])
    assert read_ivecs(path).tolist() == [[-(2**31), 2**31 - 1]]
    big = float(np.finfo(np.float32).max)
    write_fvecs(path, [[big, -big]])
    assert read_fvecs(path).rows.tolist() == [[big, -big]]
    write_bvecs(path, [[0, 255]])
    assert read_bvecs(path).rows.tolist() == [[0.0, 255.0]]
    write_fvecs(path, np.empty((0, 0)))  # no records: an empty file, read back as (0, 0)
    assert path.read_bytes() == b"" and read_fvecs(path).rows.shape == (0, 0)


@pytest.mark.parametrize("reader", [read_fvecs, read_bvecs, read_ivecs])
def test_vecs_huge_dimension_prefix_is_a_format_error(tmp_path, reader):
    path = tmp_path / "data.vecs"
    path.write_bytes(struct.pack("<i", 2**31 - 1) + bytes(12))
    with pytest.raises(FormatError):
        reader(path)


def _assert_idx_format_error(tmp_path, dims, match):
    path = tmp_path / "imgs.idx"
    path.write_bytes(struct.pack(">iiii", 0x803, *dims))
    with pytest.raises(FormatError, match=match):
        read_mnist_idx(path)
    with pytest.raises(ValueError):  # the reference reader fails open with numpy's error
        _reference_read_mnist_idx(path)


def test_idx_negative_dimension_is_a_format_error(tmp_path):
    _assert_idx_format_error(tmp_path, (0, -3, 5), "negative")


def test_idx_images_too_large_for_memory_are_a_format_error(tmp_path):
    _assert_idx_format_error(tmp_path, (0, 2**30, 2**30), "too large")


@pytest.mark.parametrize("dims", [(10, 0, 5), (10, 5, 0), (0, 0, 0)])
def test_idx_images_without_pixels_are_a_format_error(tmp_path, dims):
    path = tmp_path / "imgs.idx"
    path.write_bytes(struct.pack(">iiii", 0x803, *dims))
    with pytest.raises(FormatError, match="no pixels"):
        read_mnist_idx(path)
    argv = ["train", "--data", str(path), "--format", "idx", "--bits", "4", "--steps", "3",
            "--batch", "5", "--out", str(tmp_path / "m.ckpt")]
    assert main(argv) == 3
    assert not (tmp_path / "m.ckpt").exists()


# ---------------------------------------------------------------------------
# byte sweep: every truncation and single-byte flip of a small file of each
# format is rejected as malformed or loads as the reference reader loads it
# ---------------------------------------------------------------------------

_SWEEP_D = 4  # data width of the sweep's checkpoints and data files
_SWEEP_KINDS = ("SGH", "ITQ", "PCA", "codes", "fvecs", "bvecs", "ivecs", "idx")


def _mutations(raw: bytes):
    """Every proper prefix of raw, and raw with one byte XORed by 0x01 or by 0xFF."""
    for end in range(len(raw)):
        yield raw[:end]
    for at in range(len(raw)):
        for mask in (0x01, 0xFF):
            flipped = bytearray(raw)
            flipped[at] ^= mask
            yield bytes(flipped)


def _outcome(read, path):
    """The reader's outcome: ("load", result), ("format", None) or ("input", None)."""
    try:
        return "load", read(path)
    except FormatError:
        return "format", None
    except InputError:
        return "input", None


def _sweep_case(kind, tmp_path, rng):
    """A small valid file of `kind`, and the CLI argv that reads it (None marks its path)."""
    sgh = tmp_path / "sgh.ckpt"
    save_checkpoint(sgh, random_params(rng, _SWEEP_D, 2), center_mean=rng.normal(size=_SWEEP_D))
    codes = tmp_path / "codes.bin"
    write_packed_codes(codes, pack_bits(rng.random((3, 8)) < 0.5), 8)
    truth = tmp_path / "truth.ivecs"
    write_ivecs(truth, [[0, 1], [1, 2], [2, 0]])
    out = tmp_path / "out"
    if kind in ("SGH", "ITQ", "PCA"):
        X = rng.normal(size=(40, _SWEEP_D))
        baselines = {"ITQ": itq_fit(X, 2, iterations=2), "PCA": PcaModel(*pca_fit(X, 2))}
        if kind in baselines:
            save_checkpoint(sgh, baselines[kind])
        argv = ["reconstruct", "--ckpt", None, "--data", f"n=6,d={_SWEEP_D},clusters=2,spread=1.0",
                "--format", "synth", "--shape", "2x2", "--count", "2", "--out", out]
        return sgh.read_bytes(), argv
    if kind == "codes":
        argv = ["eval", "--codes", None, "--query-codes", None, "--truth", truth, "--k", "1",
                "--out", out]
        return codes.read_bytes(), argv
    if kind == "ivecs":
        argv = ["eval", "--codes", codes, "--query-codes", codes, "--truth", None, "--k", "2",
                "--out", out]
        return truth.read_bytes(), argv
    data = tmp_path / "data"
    if kind == "idx":
        data.write_bytes(_idx_fixture(rng.integers(1, 255, size=(3, 2, 2), dtype=np.uint8)))
    elif kind == "fvecs":
        write_fvecs(data, rng.normal(size=(3, _SWEEP_D)) + 3.0)
    else:
        write_bvecs(data, rng.integers(1, 255, size=(3, _SWEEP_D)))
    return data.read_bytes(), ["encode", "--ckpt", sgh, "--data", None, "--format", kind, "--out", out]


def _cli_exit(kind, outcome, loaded):
    """The exit code the command must give for a file with this reader outcome."""
    if outcome != "load":
        return {"format": 3, "input": 2}[outcome]
    # a truth file cut at a record boundary is valid, but holds fewer lists than
    # there are queries: eval rejects that as an input mismatch
    if kind == "ivecs" and loaded.shape != (3, 2):
        return 2
    return 0


@pytest.mark.parametrize("kind", _SWEEP_KINDS)
def test_byte_sweep_fails_closed_and_matches_reference(tmp_path, rng, kind):
    raw, argv = _sweep_case(kind, tmp_path, rng)
    read, reference = _READERS["ckpt" if kind in ("SGH", "ITQ", "PCA") else kind]
    path = tmp_path / "sweep"
    argv = [path if arg is None else arg for arg in argv]
    seen = set()
    for mutated in _mutations(raw):
        path.write_bytes(mutated)
        outcome, loaded = _outcome(read, path)
        ref_outcome, ref_loaded = _outcome(reference, path)
        assert outcome == ref_outcome, (kind, mutated)
        if outcome == "load":
            _assert_same_load(loaded, ref_loaded)
        # non-finite values are the only input error a reader raises
        assert outcome != "input" or kind == "fvecs", (kind, mutated)
        assert main([str(arg) for arg in argv]) == _cli_exit(kind, outcome, loaded), (kind, mutated)
        seen.add(outcome)
    assert {"load", "format"} <= seen


# ---------------------------------------------------------------------------
# extreme header values, which the byte sweep cannot reach: each written into
# every header field whose type can hold it is rejected (exit 3) or loads
# (exit 0)
# ---------------------------------------------------------------------------

_EXTREME_VALUES = (0, 1, -1, 2**30, 2**31 - 1, 2**63 - 1)
_EXTREME_CASES = ("SGH", "ITQ", "codes-index", "codes-query", "idx", "fvecs", "ivecs")


def _header_fields(kind):
    """(byte offset, struct format) of each header field of a file of `kind`."""
    if kind in ("fvecs", "ivecs"):
        return [(0, "<i")]  # the first record's dimension prefix, which sets d
    magic, head = {
        "SGH": (CHECKPOINT_MAGIC, _CHECKPOINT_HEAD),
        "ITQ": (CHECKPOINT_MAGIC, _CHECKPOINT_HEAD),
        "codes": (CODES_MAGIC, _CODES_HEAD),
        "idx": (IDX_IMAGE_MAGIC.to_bytes(4, "big"), _IDX_HEAD),
    }[kind]
    order, codes = head.format[0], head.format[1:]
    return [(len(magic) + struct.calcsize(order + codes[:i]), order + code)
            for i, code in enumerate(codes)]


@pytest.mark.parametrize("case", _EXTREME_CASES)
def test_extreme_header_values_exit_0_or_3(tmp_path, rng, case):
    kind, _, role = case.partition("-")
    raw, argv = _sweep_case(kind, tmp_path, rng)
    valid, path = tmp_path / "valid", tmp_path / "extreme"
    valid.write_bytes(raw)
    # the codes case reads two code files: the one under test takes the
    # mutated file, the other the valid one
    slots = [i for i, arg in enumerate(argv) if arg is None]
    target = slots[1] if role == "query" else slots[0]
    argv = [path if i == target else valid if arg is None else arg for i, arg in enumerate(argv)]
    tried = 0
    for offset, fmt in _header_fields(kind):
        for value in _EXTREME_VALUES:
            try:
                field = struct.pack(fmt, value)
            except struct.error:  # the field's type cannot hold the value
                continue
            path.write_bytes(raw[:offset] + field + raw[offset + len(field) :])
            assert main([str(arg) for arg in argv]) in (0, 3), (case, offset, fmt, value)
            tried += 1
    assert tried >= 5
