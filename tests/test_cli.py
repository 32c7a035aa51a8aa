import struct

import numpy as np
import pytest

from genhash import data_io
from genhash.cli import main

from conftest import write_corrupt_checkpoint


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def synth_args():
    return ["--data", "n=400,d=8,clusters=3,spread=1.0", "--format", "synth", "--seed", "5"]


def test_train_smoke_writes_checkpoint_and_log(tmp_path):
    ckpt = tmp_path / "model.ckpt"
    log = tmp_path / "log.csv"
    code = run(
        "train", "--data", "n=2000,d=16,clusters=4,spread=1.0", "--format", "synth",
        "--bits", "8", "--steps", "500", "--batch", "100", "--seed", "1",
        "--out", ckpt, "--log", log,
    )
    assert code == 0
    assert ckpt.exists() and log.exists()
    model, mean = data_io.load_checkpoint(ckpt)
    assert model.l == 8 and model.d == 16
    assert mean is not None  # centering defaults on
    assert log.read_text().startswith("step,")


def test_train_zero_steps_round_trips_init(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    args = [
        "train", "--data", "n=300,d=8,clusters=3,spread=1.0", "--format", "synth",
        "--bits", "4", "--steps", "0", "--batch", "50", "--seed", "3",
    ]
    assert run(*args, "--out", a) == 0
    assert run(*args, "--out", b) == 0
    ma, _ = data_io.load_checkpoint(a)
    mb, _ = data_io.load_checkpoint(b)
    assert np.array_equal(ma.W, mb.W)


def test_bad_format_flag_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("train", "--data", "x", "--format", "parquet", "--bits", "4",
            "--steps", "1", "--out", tmp_path / "m.ckpt")
    assert exc.value.code == 2


def test_missing_file_exits_2(tmp_path):
    assert run("encode", "--ckpt", tmp_path / "absent.ckpt", "--data", "x",
               "--format", "fvecs", "--out", tmp_path / "c.bin") == 2


def test_corrupt_checkpoint_exits_3(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all, definitely")
    assert run("encode", "--ckpt", path, "--data", "n=10,d=4,clusters=2,spread=1.0",
               "--format", "synth", "--out", tmp_path / "c.bin") == 3


@pytest.mark.parametrize("kind", ["SGH", "ITQ", "PCA"])
@pytest.mark.parametrize("corruption", ["d+1", "l+1", "domain"])
def test_corrupt_checkpoint_header_exits_3(tmp_path, rng, kind, corruption):
    path = tmp_path / "model.ckpt"
    write_corrupt_checkpoint(path, kind, corruption, rng)
    assert run("encode", "--ckpt", path, "--data", "n=10,d=6,clusters=2,spread=1.0",
               "--format", "synth", "--out", tmp_path / "c.bin") == 3


def test_threads_flag_removed(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("encode", "--ckpt", tmp_path / "m.ckpt", "--data", "x", "--format", "fvecs",
            "--out", tmp_path / "c.bin", "--threads", "2")
    assert exc.value.code == 2


def test_encode_empty_dataset(tmp_path):
    ckpt = tmp_path / "m.ckpt"
    run("train", "--data", "n=100,d=4,clusters=2,spread=1.0", "--format", "synth",
        "--bits", "4", "--steps", "0", "--batch", "10", "--out", ckpt)
    empty = tmp_path / "empty.fvecs"
    empty.write_bytes(b"")
    out = tmp_path / "codes.bin"
    assert run("encode", "--ckpt", ckpt, "--data", empty, "--format", "fvecs", "--out", out) == 0
    words, bits = data_io.read_packed_codes(out)
    assert bits == 4 and words.shape == (0, 1)


def test_encode_deterministic_bytes(tmp_path):
    data = "n=150,d=8,clusters=3,spread=1.0,seed=6"
    ckpt = tmp_path / "m.ckpt"
    run("train", "--data", data, "--format", "synth", "--bits", "8", "--steps", "100",
        "--batch", "50", "--seed", "2", "--out", ckpt)
    a, b = tmp_path / "a.codes", tmp_path / "b.codes"
    run("encode", "--ckpt", ckpt, "--data", data, "--format", "synth", "--out", a)
    run("encode", "--ckpt", ckpt, "--data", data, "--format", "synth", "--out", b)
    assert a.read_bytes() == b.read_bytes()


def _full_pipeline(tmp_path, tag, seed=9):
    base = tmp_path / tag
    base.mkdir()
    data = "n=2000,d=16,clusters=4,spread=1.0,seed=77"
    queries = "n=50,d=16,clusters=4,spread=1.0,seed=78"
    ckpt, dbcodes, qcodes = base / "m.ckpt", base / "db.codes", base / "q.codes"
    truth, recall = base / "truth.ivecs", base / "recall.csv"
    assert run("train", "--data", data, "--format", "synth", "--bits", "16",
               "--steps", "800", "--batch", "200", "--seed", seed, "--out", ckpt) == 0
    assert run("encode", "--ckpt", ckpt, "--data", data, "--format", "synth",
               "--seed", seed, "--out", dbcodes) == 0
    assert run("encode", "--ckpt", ckpt, "--data", queries, "--format", "synth",
               "--seed", seed, "--out", qcodes) == 0
    assert run("groundtruth", "--data", data, "--format", "synth",
               "--queries", queries, "--queries-format", "synth",
               "--k", "10", "--seed", seed, "--out", truth) == 0
    assert run("eval", "--codes", dbcodes, "--query-codes", qcodes, "--truth", truth,
               "--k", "10", "--method", "sgh", "--out", recall) == 0
    return recall.read_bytes()


def test_pipeline_deterministic_across_runs(tmp_path):
    first = _full_pipeline(tmp_path, "run1")
    second = _full_pipeline(tmp_path, "run2")
    assert first == second
    assert first.startswith(b"method,bits,K,N,recall\nsgh,16,10,1,")


def test_eval_mismatched_bit_widths_exits_2(tmp_path):
    base = tmp_path
    data = "n=300,d=8,clusters=3,spread=1.0,seed=5"
    c8, c16 = base / "m8.ckpt", base / "m16.ckpt"
    run("train", "--data", data, "--format", "synth", "--bits", "8", "--steps", "0",
        "--batch", "50", "--out", c8)
    run("train", "--data", data, "--format", "synth", "--bits", "16", "--steps", "0",
        "--batch", "50", "--out", c16)
    db8, q16 = base / "db8.codes", base / "q16.codes"
    run("encode", "--ckpt", c8, "--data", data, "--format", "synth", "--out", db8)
    run("encode", "--ckpt", c16, "--data", data, "--format", "synth", "--out", q16)
    truth = base / "t.ivecs"
    run("groundtruth", "--data", data, "--format", "synth", "--queries", data,
        "--queries-format", "synth", "--k", "5", "--out", truth)
    assert run("eval", "--codes", db8, "--query-codes", q16, "--truth", truth,
               "--out", base / "r.csv") == 2


def test_eval_asymmetric_mode(tmp_path):
    data = "n=500,d=8,clusters=3,spread=1.0,seed=21"
    queries = "n=20,d=8,clusters=3,spread=1.0,seed=22"
    ckpt, dbcodes = tmp_path / "m.ckpt", tmp_path / "db.codes"
    truth, recall = tmp_path / "t.ivecs", tmp_path / "r.csv"
    run("train", "--data", data, "--format", "synth", "--bits", "8", "--steps", "300",
        "--batch", "100", "--seed", "2", "--out", ckpt)
    run("encode", "--ckpt", ckpt, "--data", data, "--format", "synth", "--out", dbcodes)
    run("groundtruth", "--data", data, "--format", "synth", "--queries", queries,
        "--queries-format", "synth", "--metric", "ip", "--k", "5", "--out", truth)
    assert run("eval", "--codes", dbcodes, "--truth", truth, "--mode", "asym",
               "--ckpt", ckpt, "--queries", queries, "--queries-format", "synth",
               "--k", "5", "--method", "sgh-asym", "--out", recall) == 0
    assert recall.read_text().startswith("method,bits,K,N,recall\nsgh-asym,8,5,")


def test_baseline_and_downstream_compatibility(tmp_path):
    data = "n=600,d=8,clusters=3,spread=1.0,seed=31"
    ckpt = tmp_path / "itq.ckpt"
    assert run("baseline", "--data", data, "--format", "synth", "--bits", "8",
               "--method", "itq", "--iterations", "20", "--out", ckpt) == 0
    codes = tmp_path / "db.codes"
    assert run("encode", "--ckpt", ckpt, "--data", data, "--format", "synth",
               "--out", codes) == 0
    words, bits = data_io.read_packed_codes(codes)
    assert bits == 8 and words.shape == (600, 1)
    pca = tmp_path / "pca.ckpt"
    assert run("baseline", "--data", data, "--format", "synth", "--bits", "4",
               "--method", "pca", "--out", pca) == 0
    # PCA checkpoints reconstruct but do not encode
    assert run("encode", "--ckpt", pca, "--data", data, "--format", "synth",
               "--out", tmp_path / "x.codes") == 2


def test_reconstruct_writes_pgm(tmp_path):
    data = "n=200,d=16,clusters=3,spread=1.0,seed=41"
    ckpt = tmp_path / "m.ckpt"
    run("train", "--data", data, "--format", "synth", "--bits", "8", "--steps", "200",
        "--batch", "50", "--seed", "4", "--out", ckpt)
    out = tmp_path / "grid.pgm"
    assert run("reconstruct", "--ckpt", ckpt, "--data", data, "--format", "synth",
               "--shape", "4x4", "--count", "6", "--out", out) == 0
    assert out.read_bytes().startswith(b"P5\n")


@pytest.mark.parametrize(
    "shape,count", [("2xq", 8), ("4x4x1", 8), ("-4x-4", 8), ("4x4", 0), ("4x4", -3)]
)
def test_reconstruct_malformed_numbers_exit_2(tmp_path, shape, count):
    data = "n=200,d=16,clusters=3,spread=1.0,seed=41"
    ckpt = tmp_path / "m.ckpt"
    assert run("train", "--data", data, "--format", "synth", "--bits", "4", "--steps", "1",
               "--batch", "50", "--out", ckpt) == 0
    out = tmp_path / "grid.pgm"
    assert run("reconstruct", "--ckpt", ckpt, "--data", data, "--format", "synth",
               f"--shape={shape}", f"--count={count}", "--out", out) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "spec", ["n=abc,d=8", "n=200,d=8.5", "n=200,spread=wide", "n=200,seed=x", "n=200,seed=-1"]
)
def test_malformed_synth_spec_exits_2(tmp_path, spec):
    assert run("train", "--data", spec, "--format", "synth", "--bits", "4", "--steps", "1",
               "--batch", "10", "--out", tmp_path / "m.ckpt") == 2


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_malformed_seed_exits_2(seed):
    with pytest.raises(SystemExit) as exc:
        run("gradcheck", "--seed", seed)
    assert exc.value.code == 2


@pytest.mark.parametrize("size", [["--dim", "0"], ["--dim=-1"], ["--bits", "0"], ["--bits", "13"]])
def test_gradcheck_bad_size_exits_2(size):
    assert run("gradcheck", *size) == 2


def test_gradcheck_command():
    assert run("gradcheck", "--dim", "4", "--bits", "3", "--seed", "8") == 0
    assert run("gradcheck", "--dim", "4", "--bits", "3", "--domain", "plus-minus",
               "--seed", "8") == 0


def _wrong_width_checkpoint(tmp_path, kind):
    """A checkpoint for d=16 data: centred SGH, ITQ or PCA."""
    data = "n=300,d=16,clusters=3,spread=1.0,seed=7"
    ckpt = tmp_path / f"{kind}.ckpt"
    if kind == "SGH":
        argv = ["train", "--bits", "8", "--steps", "1", "--batch", "50", "--center", "on"]
    else:
        argv = ["baseline", "--bits", "8", "--method", kind.lower()]
    assert run(*argv, "--data", data, "--format", "synth", "--out", ckpt) == 0
    return ckpt


@pytest.mark.parametrize(
    "command,kind",
    [("encode", "SGH"), ("encode", "ITQ"), ("reconstruct", "SGH"), ("reconstruct", "ITQ"),
     ("reconstruct", "PCA"), ("eval-asym", "SGH")],
)
def test_wrong_width_data_exits_2(tmp_path, command, kind):
    ckpt = _wrong_width_checkpoint(tmp_path, kind)
    narrow = ["n=50,d=9,clusters=3,spread=1.0,seed=8", "--format", "synth"]
    out = tmp_path / "out"
    if command == "encode":
        argv = ["encode", "--ckpt", ckpt, "--data", *narrow, "--out", out]
    elif command == "reconstruct":
        argv = ["reconstruct", "--ckpt", ckpt, "--data", *narrow, "--shape", "3x3", "--out", out]
    else:
        data = "n=300,d=16,clusters=3,spread=1.0,seed=7"
        codes, truth = tmp_path / "db.codes", tmp_path / "t.ivecs"
        assert run("encode", "--ckpt", ckpt, "--data", data, "--format", "synth",
                   "--out", codes) == 0
        assert run("groundtruth", "--data", data, "--format", "synth", "--queries", data,
                   "--queries-format", "synth", "--k", "5", "--out", truth) == 0
        argv = ["eval", "--codes", codes, "--truth", truth, "--mode", "asym", "--ckpt", ckpt,
                "--queries", narrow[0], "--queries-format", "synth", "--k", "5", "--out", out]
    assert run(*argv) == 2
    assert not out.exists()


def test_groundtruth_empty_inputs_exit_2(tmp_path):
    empty = tmp_path / "empty.fvecs"
    empty.write_bytes(b"")
    out = tmp_path / "t.ivecs"
    assert run("groundtruth", "--data", empty, "--format", "fvecs", "--queries", empty,
               "--queries-format", "fvecs", "--out", out) == 2
    assert not out.exists()


def test_eval_zero_bit_code_file_exits_3(tmp_path):
    codes = tmp_path / "zero.codes"
    codes.write_bytes(b"GHCODES\x00" + struct.pack("<QI", 3, 0))
    truth = tmp_path / "t.ivecs"
    data_io.write_ivecs(truth, np.zeros((3, 1), dtype=np.int32))
    assert run("eval", "--codes", codes, "--query-codes", codes, "--truth", truth,
               "--k", "1", "--out", tmp_path / "r.csv") == 3
