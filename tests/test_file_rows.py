"""Vector and image files reach encode, train and baseline a row block at a
time (model.Rows): each command writes the bytes the library writes for the
same rows as an in-memory float64 matrix, a fault at the far end of a file
still fails closed, and no command holds the file as a float64 matrix."""

import struct
import tracemalloc

import numpy as np
import pytest

from genhash.baselines import PcaModel, itq_fit, pca_fit
from genhash.cli import main
from genhash.data_io import (
    Dataset,
    _vec_record,
    read_packed_codes,
    save_checkpoint,
    write_bvecs,
    write_fvecs,
    write_packed_codes,
)
from genhash.model import Rows, block_rows, column_sums
from genhash.training import TrainConfig, column_std, train

from conftest import random_params


def run(*argv):
    return main([str(a) for a in argv])


def _data_file(tmp_path, fmt, n, d, rng):
    """A file of n rows of width d, and the float64 matrix its rows stand for."""
    path = tmp_path / f"data.{fmt}"
    if fmt == "fvecs":
        # over several magnitudes, so that sums taken in another order round otherwise
        values = rng.lognormal(0.0, 2.0, size=(n, d)) - rng.uniform(0.0, 10.0, size=d)
        values = values.astype(np.float32)
        write_fvecs(path, values)
        return path, values.astype(np.float64)
    values = rng.integers(0, 256, size=(n, d), dtype=np.uint8)
    if fmt == "bvecs":
        write_bvecs(path, values)
        return path, values.astype(np.float64)
    path.write_bytes(struct.pack(">iiii", 0x803, n, 1, d) + values.tobytes())  # 1 x d images
    return path, values.astype(np.float64) / 255.0


def _same_bytes(a, b):
    return a.read_bytes() == b.read_bytes()


# 25,003 rows: several row blocks at d = 16, and N mod 4 = 3
@pytest.mark.parametrize("d", [16, 1])
@pytest.mark.parametrize("fmt", ["fvecs", "bvecs", "idx"])
def test_file_commands_write_the_bytes_of_the_in_memory_rows(tmp_path, rng, fmt, d):
    path, X = _data_file(tmp_path, fmt, 25_003, d, rng)
    data = ["--data", path, "--format", fmt]
    got, want = tmp_path / "got", tmp_path / "want"

    # encode: SGH with and without a centre mean, and ITQ
    bits = min(4, d)
    mean = rng.normal(size=d)
    itq = itq_fit(X, bits, iterations=3)
    for model, center in ((random_params(rng, d, 8), mean), (random_params(rng, d, 8), None),
                          (itq, None)):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, model, center_mean=center)
        assert run("encode", "--ckpt", ckpt, *data, "--out", got) == 0
        rows = X if center is None else X - center
        write_packed_codes(want, model.encode_batch(rows), model.l)
        assert _same_bytes(got, want), (type(model).__name__, center is None)

    # train --center on|off
    config = TrainConfig(steps=30, bits=8, batch_size=100, seed=3)
    for center in ("on", "off"):
        assert run("train", *data, "--bits", 8, "--steps", 30, "--batch", 100, "--seed", 3,
                   "--center", center, "--out", got) == 0
        mean = X.mean(axis=0) if center == "on" else None
        params, _ = train(X if mean is None else X - mean, config)
        save_checkpoint(want, params, center_mean=mean)
        assert _same_bytes(got, want), center

    # baseline --method itq|pca
    assert run("baseline", *data, "--bits", bits, "--method", "itq", "--iterations", 3,
               "--out", got) == 0
    save_checkpoint(want, itq)
    assert _same_bytes(got, want)
    assert run("baseline", *data, "--bits", bits, "--method", "pca", "--out", got) == 0
    save_checkpoint(want, PcaModel(*pca_fit(X, bits)))
    assert _same_bytes(got, want)


@pytest.mark.parametrize("d", [1, 2, 7, 128])
def test_column_sums_and_std_of_file_rows_equal_numpy(d, rng):
    # float32 records less a mean, and uint8 pixels over a scale: numpy sums
    # the rows of their float64 matrix in order, at d = 1 pairwise
    block = block_rows(d)
    for n in (3, block - 1, block + 1, 3 * block + 1):
        records = np.zeros(n, dtype=_vec_record("fvecs", d))
        records["v"] = rng.lognormal(0.0, 3.0, size=(n, d)) - rng.uniform(0.0, 10.0, size=d)
        mean = rng.normal(size=d)
        pixels = rng.integers(0, 256, size=(n, d), dtype=np.uint8)
        for rows, X in ((Rows(records["v"], mean=mean), records["v"].astype(np.float64) - mean),
                        (Rows(pixels, scale=255.0), pixels.astype(np.float64) / 255.0)):
            assert rows.matrix().tobytes() == X.tobytes()
            assert column_sums(rows).tobytes() == X.sum(axis=0).tobytes(), (n, d)
            assert column_std(rows).tobytes() == X.std(axis=0).tobytes(), (n, d)


def test_batch_gather_gives_the_bytes_of_the_matrix_rows(rng):
    # each call overwrites one buffer, so every call is checked as it comes
    n, d, size = 1_003, 7, 50
    values = rng.normal(size=(n, d)).astype(np.float32)
    pixels = rng.integers(0, 256, size=(n, d), dtype=np.uint8)
    mean = rng.normal(size=d)
    for rows in (Rows(values.astype(np.float64)), Rows(values), Rows(values, mean=mean),
                 Rows(pixels, scale=255.0), Rows(pixels, scale=255.0, mean=mean)):
        gather, X = rows.gather(size), rows.matrix()
        for _ in range(3):
            idx = rng.integers(0, n, size=size)
            assert gather(idx).tobytes() == X[idx].tobytes()


def test_dataset_mean_comes_off_each_row_and_centering_copies_nothing(rng):
    X = rng.normal(size=(1_001, 5)) * 7.0 + 3.0
    dataset = Dataset(X)
    centered = dataset.centered()
    assert centered.stored is dataset.stored  # shared, not copied
    mean = X.mean(axis=0)
    assert centered.mean.tobytes() == mean.tobytes()
    assert centered.rows.tobytes() == (X - mean).tobytes()
    assert centered[[7, 3, 7]].tobytes() == (X - mean)[[7, 3, 7]].tobytes()
    with pytest.raises(TypeError):  # only centered() sets a mean, so rows are centred once
        Dataset(centered.rows, mean=mean)


def _faulty_file(tmp_path, fmt, fault, rng, n=25_003, d=16):
    """A valid file but for one fault in its last record: a NaN value or a
    dimension prefix of d + 1."""
    path, _ = _data_file(tmp_path, fmt, n, d, rng)
    raw = bytearray(path.read_bytes())
    record = 4 + d * (4 if fmt == "fvecs" else 1)
    last = (n - 1) * record
    if fault == "nan":
        struct.pack_into("<f", raw, last + record - 4, float("nan"))
    else:
        struct.pack_into("<i", raw, last, d + 1)
    path.write_bytes(bytes(raw))
    return path


@pytest.mark.parametrize("command", ["encode", "train", "baseline"])
@pytest.mark.parametrize("fmt,fault,code", [("fvecs", "nan", 2), ("fvecs", "prefix", 3),
                                            ("bvecs", "prefix", 3)])
def test_a_fault_in_the_last_row_block_fails_closed(tmp_path, rng, command, fmt, fault, code):
    path = _faulty_file(tmp_path, fmt, fault, rng)
    ckpt, out = tmp_path / "model.ckpt", tmp_path / "out"
    save_checkpoint(ckpt, random_params(rng, 16, 8), center_mean=rng.normal(size=16))
    data = ["--data", path, "--format", fmt, "--out", out]
    argv = {
        "encode": ["encode", "--ckpt", ckpt, *data],
        "train": ["train", *data, "--bits", 8, "--steps", 2, "--batch", 10],
        "baseline": ["baseline", *data, "--bits", 4, "--iterations", 2],
    }[command]
    assert run(*argv) == code
    assert not out.exists()


# the float64 matrix of the 2e5 x 32 file alone takes 51.2 MB
@pytest.mark.parametrize("command", ["encode", "train"])
def test_file_commands_hold_no_float64_matrix(tmp_path, rng, command):
    path, _ = _data_file(tmp_path, "fvecs", 200_000, 32, rng)
    ckpt, out = tmp_path / "model.ckpt", tmp_path / "out"
    save_checkpoint(ckpt, random_params(rng, 32, 32), center_mean=rng.normal(size=32))
    data = ["--data", path, "--format", "fvecs", "--out", out]
    argv = {
        "encode": ["encode", "--ckpt", ckpt, *data],
        "train": ["train", *data, "--center", "on", "--bits", 32, "--steps", 2],
    }[command]
    tracemalloc.start()
    try:
        assert run(*argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # row blocks of about 1 MB, and for encode the 1.6 MB of packed codes
    assert peak < 8 * 2**20, peak


def test_write_packed_codes_makes_no_copy_of_the_words(tmp_path, rng):
    words = rng.integers(0, 2**63, size=(1_000_000, 1), dtype=np.uint64)  # 8 MB
    path = tmp_path / "codes.bin"
    tracemalloc.start()
    try:
        write_packed_codes(path, words, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    back, l = read_packed_codes(path)
    assert l == 64 and np.array_equal(back, words)
