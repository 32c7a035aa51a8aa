import struct

import numpy as np
import pytest

from genhash.baselines import ItqModel, PcaModel, itq_fit, pca_fit
from genhash.codes import CODE_DOMAINS, PLUS_MINUS
from genhash.data_io import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    KIND_ITQ,
    KIND_PCA,
    KIND_SGH,
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


# The checkpoint writer and reader as written before the per-kind layout
# table, kept verbatim (bar the two public names) as the byte-level reference.

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
