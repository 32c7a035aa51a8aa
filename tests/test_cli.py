import hashlib
import struct

import numpy as np
import pytest

from genhash import data_io
from genhash.cli import main

from conftest import write_corrupt_checkpoint

IDX_NEGATIVE_DIMENSION = struct.pack(">iiii", 0x803, 0, -3, 5)
IDX_HUGE_IMAGES = struct.pack(">iiii", 0x803, 0, 2**30, 2**30)


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


def test_gradcheck_fail_exits_1(capsys):
    # no relative error is below a zero tolerance
    assert run("gradcheck", "--dim", "4", "--bits", "3", "--seed", "8", "--w-tol", "0") == 1
    assert capsys.readouterr().out.splitlines()[-1] == "gradcheck FAIL"


@pytest.mark.parametrize("flag", ["--w-tol", "--decoder-tol"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-6"])
def test_gradcheck_malformed_tolerance_exits_2_before_any_work(capsys, monkeypatch, flag, tol):
    def no_check(*args, **kwargs):
        raise AssertionError("the gradient check ran")

    monkeypatch.setattr("genhash.cli.exact_grad_check", no_check)
    assert run("gradcheck", f"{flag}={tol}") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err


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


@pytest.mark.parametrize("metric", ["l2", "ip"])
def test_groundtruth_query_width_mismatch_exits_2(tmp_path, metric):
    out = tmp_path / "t.ivecs"
    assert run("groundtruth", "--data", "n=50,d=8,clusters=3,spread=1.0", "--format", "synth",
               "--queries", "n=5,d=9,clusters=2,spread=1.0", "--queries-format", "synth",
               "--metric", metric, "--out", out) == 2
    assert not out.exists()


def test_train_domain_flag_sets_code_domain(tmp_path):
    ckpt = tmp_path / "pm.ckpt"
    assert run("train", "--data", "n=300,d=8,clusters=3,spread=1.0", "--format", "synth",
               "--bits", "4", "--steps", "2", "--batch", "50", "--domain", "plus-minus",
               "--out", ckpt) == 0
    assert data_io.load_checkpoint(ckpt)[0].code_domain == "plus-minus"
    with pytest.raises(SystemExit) as exc:
        run("train", "--data", "n=300,d=8", "--format", "synth", "--bits", "4", "--steps", "2",
            "--domain", "pm", "--out", ckpt)
    assert exc.value.code == 2


def test_eval_code_file_with_padding_bit_exits_3(tmp_path):
    codes = tmp_path / "pad.codes"
    codes.write_bytes(b"GHCODES\x00" + struct.pack("<QI", 1, 8) + struct.pack("<Q", 1 << 63))
    truth = tmp_path / "t.ivecs"
    data_io.write_ivecs(truth, np.zeros((1, 1), dtype=np.int32))
    assert run("eval", "--codes", codes, "--query-codes", codes, "--truth", truth,
               "--k", "1", "--out", tmp_path / "r.csv") == 3
    assert not (tmp_path / "r.csv").exists()


def test_data_formats_share_one_reader_table(monkeypatch, capsys):
    from genhash import cli

    flags = {"train": ["--format"], "encode": ["--format"], "reconstruct": ["--format"],
             "baseline": ["--format"], "groundtruth": ["--format", "--queries-format"],
             "eval": ["--queries-format"]}
    for command, names in flags.items():
        with pytest.raises(SystemExit):
            run(command, "--help")
        usage = capsys.readouterr().out
        for name in names:
            assert f"{name} {{fvecs,bvecs,idx,synth}}" in usage, (command, name)
    # each entry looks its reader up when called, so a patched reader is seen
    seen = []
    monkeypatch.setattr(data_io, "read_fvecs", lambda path: seen.append(path) or "rows")
    assert cli._load_data("x.fvecs", "fvecs", 0) == "rows" and seen == ["x.fvecs"]
    with pytest.raises(SystemExit) as exc:
        run("encode", "--ckpt", "m.ckpt", "--data", "x", "--format", "npy", "--out", "c")
    assert exc.value.code == 2


def test_groundtruth_zero_k_exits_2_and_writes_nothing(tmp_path):
    out = tmp_path / "t.ivecs"
    assert run("groundtruth", "--data", "n=50,d=8,clusters=3,spread=1.0", "--format", "synth",
               "--queries", "n=5,d=8,clusters=2,spread=1.0", "--queries-format", "synth",
               "--k", "0", "--out", out) == 2
    assert not out.exists()


def _train_on_idx(tmp_path, header):
    path = tmp_path / "imgs.idx"
    path.write_bytes(header)
    out = tmp_path / "m.ckpt"
    code = run("train", "--data", path, "--format", "idx", "--bits", "4", "--steps", "1",
               "--batch", "1", "--out", out)
    return code, out.exists()


def test_train_on_idx_with_negative_dimension_exits_3(tmp_path):
    assert _train_on_idx(tmp_path, IDX_NEGATIVE_DIMENSION) == (3, False)


def test_train_on_idx_with_images_too_large_exits_3(tmp_path):
    assert _train_on_idx(tmp_path, IDX_HUGE_IMAGES) == (3, False)


@pytest.mark.parametrize("flag", [("--lr", "nan"), ("--lr", "inf"), ("--bits", "5000")])
def test_train_bad_config_exits_2_and_writes_nothing(tmp_path, synth_args, flag):
    out = tmp_path / "m.ckpt"
    # the last of a repeated flag wins
    assert run("train", *synth_args, "--bits", "4", "--steps", "5", "--batch", "50",
               "--out", out, *flag) == 2
    assert not out.exists()


def test_eval_code_file_over_the_bit_cap_exits_3(tmp_path):
    codes = tmp_path / "wide.codes"
    words = np.zeros((1, 79), dtype="<u8")  # 5000 bits take 79 words
    codes.write_bytes(b"GHCODES\x00" + struct.pack("<QI", 1, 5000) + words.tobytes())
    truth = tmp_path / "t.ivecs"
    data_io.write_ivecs(truth, np.zeros((1, 1), dtype=np.int32))
    assert run("eval", "--codes", codes, "--query-codes", codes, "--truth", truth,
               "--k", "1", "--out", tmp_path / "r.csv") == 3
    assert not (tmp_path / "r.csv").exists()


def _seeded_outputs(base):
    """sha256 of every file of a seeded train → encode → groundtruth → eval run,
    zero-one codes for the Hamming eval and plus-minus codes for the asymmetric one."""
    data = "n=600,d=8,clusters=3,spread=1.0,seed=51"
    queries = "n=30,d=8,clusters=3,spread=1.0,seed=52"
    synth = ["--format", "synth", "--seed", "6"]
    for domain in ("zero-one", "plus-minus"):
        assert run("train", "--data", data, *synth, "--bits", "12", "--steps", "300",
                   "--batch", "100", "--domain", domain, "--out", base / f"{domain}.ckpt") == 0
        for name, rows in (("db", data), ("q", queries)):
            assert run("encode", "--ckpt", base / f"{domain}.ckpt", "--data", rows, *synth,
                       "--out", base / f"{domain}-{name}.codes") == 0
    for metric in ("l2", "ip"):
        assert run("groundtruth", "--data", data, *synth, "--queries", queries,
                   "--queries-format", "synth", "--metric", metric, "--k", "10",
                   "--out", base / f"{metric}.ivecs") == 0
    assert run("eval", "--codes", base / "zero-one-db.codes", "--truth", base / "l2.ivecs",
               "--query-codes", base / "zero-one-q.codes", "--k", "10",
               "--out", base / "hamming.csv") == 0
    assert run("eval", "--codes", base / "plus-minus-db.codes", "--truth", base / "ip.ivecs",
               "--mode", "asym", "--ckpt", base / "plus-minus.ckpt", "--queries", queries,
               "--queries-format", "synth", "--seed", "6", "--k", "10",
               "--out", base / "asym.csv") == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(base.iterdir())}


# _seeded_outputs digests recorded before eval handed its arrays to recall_curve
# and the gradient kernel took one flip-delta expression for both domains. The
# checkpoint, code and recall bytes follow the BLAS build's rounding, so a
# different BLAS may need them recorded again from a commit known to be good.
SEEDED_SHA256 = {
    "asym.csv": "e41d54f6f4a6b58777f0267fe604d5dcf3ff48bb62dc01d7df6f58959bfb3893",
    "hamming.csv": "067d204341cbfc0b2ce8fbf9786edb8e1ea4fd54b107e6dd82c9cb437a06b86f",
    "ip.ivecs": "75cf1893a5160140da6b3891c5bf072a999b64b5730550fdbc2626ba6d9e2bff",
    "l2.ivecs": "19a1b60f402ef00535aeecd5aab9b0c94d7175c61975ae807af200d924030239",
    "plus-minus-db.codes": "1020d0a3badc626993431a1a9674a06a29e4b04500bee0a5a2cb432bffa16f41",
    "plus-minus-q.codes": "93174946700785789087df7b108e9ced9c7f03dce158a7f7f0fb3d0a18a442c1",
    "plus-minus.ckpt": "d6ee4dcb663671d4a0e9f815380e1b9dc8cc628a061db4373007e216244210e2",
    "zero-one-db.codes": "6cfe67d7e1af85a54d1b206d1e7d76f1e9af4eb036d025bdad74c1ff5651474e",
    "zero-one-q.codes": "0599add3f7ed2d204f26fb6bf9288fd0a930bc47bec73e5c839dcedfb0426a2c",
    "zero-one.ckpt": "6bdf75080d88fbbd625aed85d8d764714cfff1b4ce63fc42173ebd2bca7124a1",
}


def test_seeded_outputs_match_recorded_digests(tmp_path):
    assert _seeded_outputs(tmp_path) == SEEDED_SHA256


def _encoded_outputs(base):
    """sha256 of the checkpoints and `genhash encode` files of an SGH (64-bit)
    and an ITQ (12-bit) model on seeded synth rows: 12 and 2 row blocks, the
    last one with a remainder."""
    data = "n=25003,d=16,clusters=8,spread=1.0,seed=61"
    synth = ["--format", "synth", "--seed", "7"]
    assert run("train", "--data", data, *synth, "--bits", "64", "--steps", "20",
               "--batch", "200", "--out", base / "sgh.ckpt") == 0
    assert run("baseline", "--data", data, *synth, "--bits", "12", "--iterations", "5",
               "--out", base / "itq.ckpt") == 0
    for kind in ("sgh", "itq"):
        assert run("encode", "--ckpt", base / f"{kind}.ckpt", "--data", data, *synth,
                   "--out", base / f"{kind}.codes") == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(base.iterdir())}


# _encoded_outputs digests recorded before the encoders went row-blocked
ENCODED_SHA256 = {
    "itq.ckpt": "6d16bc002a5c1288a7207fc48faa5f9928e1608136aa2249441594e7f4ad27d4",
    "itq.codes": "4e5a6ffd13462112737246f8fb77b4b1fddbb80f7a089d7124075d78be431e3b",
    "sgh.ckpt": "52e2869727455bb51a5bb577152ad2210225302fff36d62a7c3837371baec4bd",
    "sgh.codes": "44066fb837d09bbfce745f17806707dbb000044601e2506c9c2d08db11a4f6a9",
}


def test_encode_outputs_match_recorded_digests(tmp_path):
    assert _encoded_outputs(tmp_path) == ENCODED_SHA256


@pytest.mark.parametrize("mode", ["hamming", "asym"])
def test_eval_on_an_index_with_no_codes_exits_2_and_writes_no_csv(tmp_path, mode):
    queries = "n=2,d=8,clusters=2,spread=1.0,seed=6"
    ckpt, codes, qcodes = tmp_path / "m.ckpt", tmp_path / "db.codes", tmp_path / "q.codes"
    assert run("train", "--data", "n=100,d=8,clusters=2,spread=1.0", "--format", "synth",
               "--bits", "8", "--steps", "1", "--batch", "50", "--out", ckpt) == 0
    data_io.write_packed_codes(codes, np.zeros((0, 1), dtype=np.uint64), 8)
    assert run("encode", "--ckpt", ckpt, "--data", queries, "--format", "synth",
               "--out", qcodes) == 0
    truth = tmp_path / "t.ivecs"
    data_io.write_ivecs(truth, np.zeros((2, 3), dtype=np.int32))
    if mode == "hamming":
        queried = ["--query-codes", qcodes]
    else:
        queried = ["--mode", "asym", "--ckpt", ckpt, "--queries", queries,
                   "--queries-format", "synth"]
    out = tmp_path / "r.csv"
    assert run("eval", "--codes", codes, "--truth", truth, *queried, "--k", "3",
               "--out", out) == 2
    assert not out.exists()


@pytest.mark.parametrize("mode", ["hamming", "asym"])
def test_eval_query_truth_count_mismatch_exits_2_before_any_search(tmp_path, monkeypatch, mode):
    from genhash import search

    data = "n=200,d=8,clusters=3,spread=1.0,seed=5"
    queries = "n=4,d=8,clusters=3,spread=1.0,seed=6"
    ckpt, codes, qcodes = tmp_path / "m.ckpt", tmp_path / "db.codes", tmp_path / "q.codes"
    assert run("train", "--data", data, "--format", "synth", "--bits", "8", "--steps", "1",
               "--batch", "50", "--out", ckpt) == 0
    for rows, out in ((data, codes), (queries, qcodes)):
        assert run("encode", "--ckpt", ckpt, "--data", rows, "--format", "synth",
                   "--out", out) == 0
    truth = tmp_path / "t.ivecs"
    data_io.write_ivecs(truth, np.zeros((3, 5), dtype=np.int32))  # 3 lists for 4 queries
    searched = []
    for name in ("knn_hamming", "asymmetric_ip_search"):
        monkeypatch.setattr(search, name, lambda *a, **kw: searched.append(a))
    if mode == "hamming":
        queried = ["--query-codes", qcodes]
    else:
        queried = ["--mode", "asym", "--ckpt", ckpt, "--queries", queries,
                   "--queries-format", "synth"]
    out = tmp_path / "r.csv"
    assert run("eval", "--codes", codes, "--truth", truth, *queried, "--k", "5",
               "--out", out) == 2
    assert searched == [] and not out.exists()


def _fvecs_and_checkpoint(tmp_path):
    """A small fvecs file and an 8-bit checkpoint trained on it."""
    data, ckpt = tmp_path / "x.fvecs", tmp_path / "m.ckpt"
    data_io.write_fvecs(data, np.random.default_rng(3).normal(size=(40, 6)))
    assert run("train", "--data", data, "--format", "fvecs", "--bits", "8", "--steps", "1",
               "--batch", "20", "--out", ckpt) == 0
    return data, ckpt


@pytest.mark.parametrize("case", ["encode --out", "encode --ckpt", "encode --data",
                                  "train --log", "encode --out file/x"])
def test_a_directory_or_a_path_through_a_file_exits_2(tmp_path, capsys, case):
    data, ckpt = _fvecs_and_checkpoint(tmp_path)
    folder = tmp_path / "folder"
    folder.mkdir()
    command, flag = case.split()[:2]
    paths = {"--data": data, "--ckpt": ckpt, "--out": tmp_path / "c.codes"}
    if command == "train":
        paths = {"--data": data, "--out": tmp_path / "n.ckpt", "--log": tmp_path / "log.csv"}
        extra = ["--bits", "8", "--steps", "1", "--batch", "20"]
    else:
        extra = []
    # IsADirectoryError for a directory, NotADirectoryError for a path through a file
    paths[flag] = data / "x" if case.endswith("file/x") else folder
    argv = [command, "--format", "fvecs", *extra]
    for name, path in paths.items():
        argv += [name, path]
    capsys.readouterr()
    assert run(*argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # an output path error fails before any work: train leaves no checkpoint
    assert not (tmp_path / "n.ckpt").exists() and not (tmp_path / "c.codes").exists()


@pytest.mark.parametrize("flag", ["--out", "--log"])
def test_an_output_path_in_no_directory_exits_2_before_training(tmp_path, monkeypatch, flag):
    from genhash import cli

    monkeypatch.setattr(cli, "train", lambda *a: pytest.fail("trained before the path check"))
    paths = {"--out": tmp_path / "m.ckpt", "--log": tmp_path / "log.csv"}
    paths[flag] = tmp_path / "absent" / "file"
    assert run("train", "--data", "n=40,d=4", "--format", "synth", "--bits", "4",
               "--steps", "1", *[a for item in paths.items() for a in item]) == 2
    assert list(tmp_path.iterdir()) == []


def test_main_runs_the_current_cmd_and_survives_a_parse_error(tmp_path, monkeypatch, capsys):
    from genhash import cli

    data, ckpt = _fvecs_and_checkpoint(tmp_path)  # main has run once
    out = tmp_path / "c.codes"
    encode = ["encode", "--ckpt", ckpt, "--data", data, "--format", "fvecs", "--out", out]
    # a cmd_* function replaced after a first main call is the one that runs
    with monkeypatch.context() as patch:
        seen = []
        patch.setattr(cli, "cmd_encode", lambda args: seen.append(args.out) or 0)
        assert run(*encode) == 0
        assert seen == [str(out)] and not out.exists()
    # an argparse error does not stop the next command in the same process
    with pytest.raises(SystemExit) as exc:
        run("encode")
    assert exc.value.code == 2
    assert run(*encode) == 0 and out.exists()
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run("encode", "--help")
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and "--ckpt" in helps[0]
