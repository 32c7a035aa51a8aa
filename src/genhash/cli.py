"""Command-line workflows: train, encode, ground truth, eval, reconstruct,
gradcheck, baseline.

Every command is deterministic given its flags (all randomness flows from
--seed through splittable counter-based generators) and never mutates its
inputs. Exit codes: 0 ok, 2 input error, 3 file-format error, 4 training
abort. Commands that read a checkpoint use the model's hasher surface
(encode_batch, reconstruct_batch, templates) on data checked against the
model's width and centred by the SGH checkpoint's mean.

train, encode and baseline read their data a row block at a time
(a data_io.Dataset), as float64 upcast, scaled and centred on the way.
groundtruth, and eval's query rows, take the whole float64 matrix.
"""

import argparse
import sys

import numpy as np

from . import data_io, evaluation, search, training
from .baselines import itq_encode_batch  # a patch point in bench/timing.py PATCH_POINTS
from .baselines import itq_fit, pca_fit, PcaModel
from .codes import CODE_DOMAINS, ZERO_ONE, HashCode
from .errors import CapabilityError, FormatError, InputError, TrainingError
from .model import encode_map_batch  # a patch point in bench/timing.py PATCH_POINTS
from .model import ModelParams
from .training import TrainConfig, exact_grad_check, train

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FORMAT = 3
EXIT_TRAINING = 4

def _synth(spec: str, default_seed: int) -> data_io.Dataset:
    """The --format synth data of a spec "n=2000,d=16,clusters=10,spread=1.0[,seed=S]"."""
    fields = {"n": 2000, "d": 16, "clusters": 10, "spread": 1.0, "seed": None}
    if spec:
        for part in spec.split(","):
            if "=" not in part:
                raise InputError(f"bad synth spec entry {part!r}; use key=value")
            key, value = part.split("=", 1)
            key = key.strip()
            if key not in fields:
                raise InputError(f"unknown synth spec key {key!r}")
            try:
                fields[key] = float(value) if key == "spread" else int(value)
            except ValueError:
                raise InputError(f"synth spec {key}={value!r} is not a number") from None
    if fields["seed"] is None:
        # derive a child stream so synth data and training draws stay independent
        fields["seed"] = int(np.random.SeedSequence(default_seed).spawn(1)[0].generate_state(1)[0])
    return data_io.synth_mixture(
        fields["n"], fields["d"], fields["clusters"], fields["spread"], fields["seed"]
    )


# --format value -> reader(path, seed); each looks its data_io function up when called
_READERS = {
    "fvecs": lambda path, seed: data_io.read_fvecs(path),
    "bvecs": lambda path, seed: data_io.read_bvecs(path),
    "idx": lambda path, seed: data_io.read_mnist_idx(path),
    "synth": _synth,
}


def _load_data(path: str, fmt: str, seed: int) -> data_io.Dataset:
    return _READERS[fmt](path, seed)


def _load_model_and_rows(ckpt: str, path: str, fmt: str, seed: int, expect_kind=None):
    """A checkpoint's model and the data rows it takes: the (N, model.d)
    dataset less the SGH checkpoint's mean if it has one; an empty file
    gives (0, d)."""
    model, mean = data_io.load_checkpoint(ckpt, expect_kind)
    dataset = _load_data(path, fmt, seed)
    rows = dataset if dataset.n else data_io.Dataset(np.empty((0, model.d)))
    return model, model._rows(rows.with_mean(mean))


def cmd_train(args) -> int:
    dataset = _load_data(args.data, args.format, args.seed)
    mean = None
    if args.center == "on":
        dataset = dataset.centered()
        mean = dataset.mean
    config = TrainConfig(
        steps=args.steps,
        bits=args.bits,
        batch_size=args.batch,
        lr=args.lr,
        estimator=args.estimator,
        seed=args.seed,
        optimizer=args.optimizer,
        code_domain=args.domain,
    )
    params, log = train(dataset, config)
    data_io.save_checkpoint(args.out, params, center_mean=mean)
    if args.log:
        log.to_csv(args.log)
    return EXIT_OK


def cmd_encode(args) -> int:
    model, rows = _load_model_and_rows(args.ckpt, args.data, args.format, args.seed)
    data_io.write_packed_codes(args.out, model.encode_batch(rows), model.l)
    return EXIT_OK


def cmd_groundtruth(args) -> int:
    dataset = _load_data(args.data, args.format, args.seed)
    queries = _load_data(args.queries, args.queries_format, args.seed + 1)
    if dataset.n == 0 or queries.n == 0:
        raise InputError("ground truth needs a non-empty dataset and query set")
    rows, query_rows = dataset.rows, queries.rows
    if args.metric == "l2":
        lists = search.knn_exact_l2_batch(rows, query_rows, args.k)
    else:
        lists = np.stack([search.knn_exact_ip(rows, q, args.k) for q in query_rows])
    data_io.write_ivecs(args.out, lists)
    return EXIT_OK


def cmd_eval(args) -> int:
    codes, bits = data_io.read_packed_codes(args.codes)
    index = search.BinaryIndex(codes, bits)
    truth = data_io.read_ivecs(args.truth)
    config = {"method": args.method, "bits": bits}

    if args.mode == "hamming":
        if not args.query_codes:
            raise InputError("--mode hamming requires --query-codes")
        queries, qbits = data_io.read_packed_codes(args.query_codes)
        if qbits != bits:
            raise InputError(f"query codes are {qbits}-bit but index is {bits}-bit")

        def searcher(q, n):
            return search.knn_hamming(index, HashCode(q, bits), n)

    else:
        if not (args.ckpt and args.queries):
            raise InputError("--mode asym requires --ckpt and --queries")
        model, queries = _load_model_and_rows(
            args.ckpt, args.queries, args.queries_format, args.seed, data_io.KIND_SGH
        )
        queries = queries.matrix()
        if model.l != bits:
            raise InputError(f"checkpoint is {model.l}-bit but index is {bits}-bit")

        def searcher(q, n):
            return search.asymmetric_ip_search(index, model, q, n)

    report = evaluation.recall_curve(queries, searcher, truth, args.k, config=config)
    report.write_csv(args.out)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    model, rows = _load_model_and_rows(args.ckpt, args.data, args.format, args.seed)
    try:
        shape = tuple(int(v) for v in args.shape.split("x"))
    except ValueError:
        shape = ()
    if len(shape) != 2:
        raise InputError(f"--shape must look like 28x28, got {args.shape!r}")
    if args.count < 1:
        raise InputError("--count must be >= 1")
    grid = evaluation.reconstruction_grid(model, rows[: args.count], shape)
    evaluation.write_pgm(args.out, grid)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.dim < 1 or args.bits < 1:
        raise InputError("--dim and --bits must be >= 1")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
    params = ModelParams(
        rng.normal(size=(args.dim, args.bits)),
        rng.normal(size=(args.dim, args.bits)),
        rng.normal(size=args.bits),
        float(rng.normal(scale=0.3)),
        args.domain,
    )
    x = rng.normal(size=args.dim)
    report = exact_grad_check(params, x)
    print(report.summary())
    if report.ok(w_tol=args.w_tol, decoder_tol=args.decoder_tol):
        print("gradcheck PASS")
        return EXIT_OK
    print("gradcheck FAIL")
    return 1


def cmd_baseline(args) -> int:
    dataset = _load_data(args.data, args.format, args.seed)
    if args.method == "itq":
        model = itq_fit(dataset, args.bits, iterations=args.iterations)
    else:
        mean, W = pca_fit(dataset, args.bits)
        model = PcaModel(mean, W)
    data_io.save_checkpoint(args.out, model)
    return EXIT_OK


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=_seed, default=0, help="root seed for all randomness")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genhash",
        description="Learn binary hash codes with a generative model; encode, search, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a hashing model")
    p.add_argument("--data", required=True, help="input path (or synth spec for --format synth)")
    p.add_argument("--format", required=True, choices=_READERS)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--batch", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--estimator", choices=["approx", "unbiased"], default="unbiased")
    p.add_argument("--domain", choices=CODE_DOMAINS, default=ZERO_ONE)
    p.add_argument("--optimizer", choices=["sgd", "adam"], default=training.OPTIMIZER_SGD)
    p.add_argument("--center", choices=["on", "off"], default="on")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--log", default=None, help="training log CSV path")
    _add_common(p)
    p.set_defaults(run=cmd_train)

    p = sub.add_parser("encode", help="MAP-encode a dataset with a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", required=True, choices=_READERS)
    p.add_argument("--out", required=True, help="packed-code output path")
    _add_common(p)
    p.set_defaults(run=cmd_encode)

    p = sub.add_parser("groundtruth", help="exact nearest-neighbor lists")
    p.add_argument("--data", required=True)
    p.add_argument("--format", required=True, choices=_READERS)
    p.add_argument("--queries", required=True)
    p.add_argument("--queries-format", required=True, choices=_READERS)
    p.add_argument("--metric", choices=["l2", "ip"], default="l2")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", required=True, help="ivecs output path")
    _add_common(p)
    p.set_defaults(run=cmd_groundtruth)

    p = sub.add_parser("eval", help="recall curve from codes + ground truth")
    p.add_argument("--codes", required=True, help="database packed-code file")
    p.add_argument("--truth", required=True, help="ivecs ground-truth lists")
    p.add_argument("--mode", choices=["hamming", "asym"], default="hamming")
    p.add_argument("--query-codes", default=None, help="packed query codes (hamming mode)")
    p.add_argument("--ckpt", default=None, help="model checkpoint (asym mode)")
    p.add_argument("--queries", default=None, help="raw query vectors (asym mode)")
    p.add_argument("--queries-format", default="fvecs", choices=_READERS)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--method", default="genhash", help="method label for the CSV")
    p.add_argument("--out", required=True, help="recall CSV output path")
    _add_common(p)
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("reconstruct", help="render originals/reconstructions/templates as PGM")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", required=True, choices=_READERS)
    p.add_argument("--shape", required=True, help="image shape, e.g. 28x28")
    p.add_argument("--count", type=int, default=8, help="number of sample columns")
    p.add_argument("--out", required=True, help="PGM output path")
    _add_common(p)
    p.set_defaults(run=cmd_reconstruct)

    p = sub.add_parser("gradcheck", help="verify estimator gradients against enumeration")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--bits", type=int, default=3)
    p.add_argument("--domain", choices=CODE_DOMAINS, default=ZERO_ONE)
    p.add_argument("--w-tol", type=float, default=1e-6)
    p.add_argument("--decoder-tol", type=float, default=1e-4)
    _add_common(p)
    p.set_defaults(run=cmd_gradcheck)

    p = sub.add_parser("baseline", help="fit an ITQ or PCA baseline")
    p.add_argument("--data", required=True)
    p.add_argument("--format", required=True, choices=_READERS)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--method", choices=["itq", "pca"], default="itq")
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(run=cmd_baseline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except TrainingError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_TRAINING
    except FormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FORMAT
    except (InputError, CapabilityError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
