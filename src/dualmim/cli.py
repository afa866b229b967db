"""Command-line interface.

Subcommands: pretrain, linear-probe, knn-eval, export-metrics, gradcheck,
make-data. Any other `--name value` (or `--name=value`) sets the
TrainConfig field at that dotted path, top-level ones included, e.g.
`--loss.lambda_c 0`, `--teacher_mode single` or `--seed 5`.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric abort.
"""

import argparse
import sys

from . import gradcheck as gc
from . import train as train_mod
from .config import load_config
from .data import load_data_dir, make_synthetic_cifar, Dataset
from .errors import ConfigError, DataError, NumericError
from .train import Trainer


def _parse(argv):
    parser = argparse.ArgumentParser(
        prog="dualmim",
        description="Dual-teacher masked-image-modeling pretraining")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="YAML config file")
        p.add_argument("--data-dir", default=None)
        p.add_argument("--out", default="run")

    p = sub.add_parser("pretrain", help="run the pretraining pipeline")
    common(p)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.add_argument("--max-iters", type=int, default=None)

    p = sub.add_parser("linear-probe", help="linear probe a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--probe-epochs", type=int, default=10)
    p.add_argument("--holdout", type=int, default=2000,
                   help="records held out for evaluation")

    p = sub.add_parser("knn-eval", help="kNN-classify on frozen features")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("-k", type=int, default=20)
    p.add_argument("--holdout", type=int, default=2000)

    p = sub.add_parser("export-metrics", help="re-emit metrics CSV + summary")
    common(p)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    common(p)

    p = sub.add_parser("make-data", help="write a synthetic CIFAR-format file")
    common(p)
    p.add_argument("--n", type=int, default=12000)

    # config overrides are collected from the unknown remainder
    args, rest = parser.parse_known_args(argv)
    overrides = {}
    i = 0
    while i < len(rest):
        tok = rest[i]
        if not tok.startswith("--"):
            parser.error(f"unrecognized argument: {tok}")
        if "=" in tok:
            key, val = tok[2:].split("=", 1)
        else:
            if i + 1 >= len(rest):
                parser.error(f"missing value for {tok}")
            key, val = tok[2:], rest[i + 1]
            i += 1
        overrides[key] = val
        i += 1
    return args, overrides


def _split(dataset, holdout):
    if not 0 < holdout < len(dataset):
        raise DataError(f"holdout {holdout} not in 1..{len(dataset) - 1}")
    train = Dataset(labels=dataset.labels[:-holdout],
                    images=dataset.images[:-holdout])
    test = Dataset(labels=dataset.labels[-holdout:],
                   images=dataset.images[-holdout:])
    return train, test


def main(argv=None):
    args, overrides = _parse(argv if argv is not None else sys.argv[1:])
    try:
        # every command checks its overrides; pretrain and make-data use them
        cfg = load_config(args.config, overrides)
        if args.command == "pretrain":
            if args.data_dir is None:
                raise DataError("pretrain needs --data-dir")
            ds = load_data_dir(args.data_dir)
            train_mod.pretrain(cfg, ds, args.out, resume=args.resume,
                               max_iters=args.max_iters)
            print(f"done; checkpoint and metrics under {args.out}")

        elif args.command in ("linear-probe", "knn-eval"):
            if args.data_dir is None:
                raise DataError(f"{args.command} needs --data-dir")
            probe = args.command == "linear-probe"
            if probe and args.probe_epochs < 0:
                raise ConfigError(
                    f"--probe-epochs {args.probe_epochs} must be >= 0")
            if not probe and args.k < 1:
                raise ConfigError(f"-k {args.k} must be >= 1")
            trainer = Trainer.load(args.checkpoint)
            ds = load_data_dir(args.data_dir)
            train_ds, test_ds = _split(ds, args.holdout)
            f_train, f_test = (train_mod.encode_features(
                trainer.encoder, trainer.cfg.model, split, trainer.cfg.augment)
                for split in (train_ds, test_ds))
            if probe:
                acc = train_mod.linear_probe(
                    f_train, train_ds.labels, f_test, test_ds.labels,
                    args.probe_epochs, seed=trainer.cfg.seed)
                print(f"linear probe top-1: {acc:.4f}")
            else:
                acc = train_mod.knn_eval(f_train, train_ds.labels,
                                         f_test, test_ds.labels, args.k)
                print(f"knn top-1 (k={args.k}): {acc:.4f}")

        elif args.command == "export-metrics":
            rows, skipped, _ = train_mod.export_metrics(args.out)
            print(f"exported {rows} rows ({skipped} skipped) to {args.out}")

        elif args.command == "gradcheck":
            if not gc.run_suite(verbose=True):
                return 1

        elif args.command == "make-data":
            if args.data_dir is None:
                raise DataError("make-data needs --data-dir (output file)")
            if args.n < 1:
                raise ConfigError(f"--n {args.n} must be >= 1")
            make_synthetic_cifar(args.data_dir, args.n, cfg.seed)
            print(f"wrote {args.n} synthetic records to {args.data_dir}")

    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
