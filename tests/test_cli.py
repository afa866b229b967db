"""CLI surface tests: subcommands, overrides, exit codes."""

import os

import numpy as np
import pytest

from dualmim.checkpoint import load_checkpoint, save_checkpoint
from dualmim.cli import main
from dualmim.data import write_cifar10


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "train.bin")
    assert main(["make-data", "--data-dir", path, "--n", "64",
                 "--seed", "3"]) == 0
    return path


TINY = ["--model.image_size", "32", "--model.patch_size", "8",
        "--model.embed_dim", "8", "--model.depth", "2",
        "--model.num_heads", "2", "--model.decoder_dim", "8",
        "--model.decoder_depth", "1", "--head.hidden_dim", "16",
        "--head.output_dim", "8", "--optim.batch_size", "8",
        "--optim.total_epochs", "2", "--optim.warmup_epochs", "1"]


def test_pretrain_and_export(tmp_path, data_file):
    out = str(tmp_path / "run")
    rc = main(["pretrain", "--data-dir", data_file, "--out", out,
               "--max-iters", "3", "--seed", "5"] + TINY)
    assert rc == 0
    assert os.path.exists(os.path.join(out, "metrics.csv"))
    assert os.path.exists(os.path.join(out, "checkpoint.bin"))
    assert main(["export-metrics", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "export.csv"))
    assert os.path.exists(os.path.join(out, "summary.txt"))


def test_probe_and_knn_commands(tmp_path, data_file):
    out = str(tmp_path / "run")
    assert main(["pretrain", "--data-dir", data_file, "--out", out,
                 "--max-iters", "2", "--seed", "5"] + TINY) == 0
    ckpt = os.path.join(out, "checkpoint.bin")
    assert main(["linear-probe", "--data-dir", data_file,
                 "--checkpoint", ckpt, "--probe-epochs", "1",
                 "--holdout", "16"]) == 0
    assert main(["knn-eval", "--data-dir", data_file, "--checkpoint", ckpt,
                 "-k", "3", "--holdout", "16"]) == 0


def test_config_error_exit_code_2(tmp_path, data_file):
    rc = main(["pretrain", "--data-dir", data_file,
               "--out", str(tmp_path / "x"),
               "--masking.num_folds", "5"])  # 48 masked, not divisible
    assert rc == 2


def test_unknown_override_exit_code_2(tmp_path, data_file):
    rc = main(["pretrain", "--data-dir", data_file,
               "--out", str(tmp_path / "x"), "--optim.nonsense", "1"])
    assert rc == 2


def test_data_error_exit_code_3(tmp_path):
    rc = main(["pretrain", "--data-dir", str(tmp_path / "missing"),
               "--out", str(tmp_path / "x")] + TINY)
    assert rc == 3


def test_malformed_data_exit_code_3(tmp_path):
    bad = str(tmp_path / "bad.bin")
    labels = np.array([3, 200], np.uint8)  # label 200 is invalid
    images = np.zeros((2, 32, 32, 3), np.uint8)
    write_cifar10(bad, labels, images)
    rc = main(["pretrain", "--data-dir", bad,
               "--out", str(tmp_path / "x")] + TINY)
    assert rc == 3


def test_missing_data_dir_required(tmp_path):
    assert main(["pretrain", "--out", str(tmp_path / "x")] + TINY) == 3


def _resume_rejected(tmp_path, data_file, other_n, strip_fingerprint):
    """Pretrain on `data_file`, then resume on another dataset of `other_n`
    records: exit 3, and the checkpoint keeps its bytes."""
    out = str(tmp_path / "run")
    assert main(["pretrain", "--data-dir", data_file, "--out", out,
                 "--max-iters", "2", "--seed", "5"] + TINY) == 0
    ckpt = os.path.join(out, "checkpoint.bin")
    if strip_fingerprint:   # as written before the fingerprint existed
        config_json, state, records = load_checkpoint(ckpt)
        del state["data_fingerprint"]
        save_checkpoint(ckpt, config_json, state, records)
    before = open(ckpt, "rb").read()
    other = str(tmp_path / "other.bin")
    assert main(["make-data", "--data-dir", other, "--n", str(other_n),
                 "--seed", "4"]) == 0
    assert main(["pretrain", "--data-dir", other, "--out", out,
                 "--resume", ckpt, "--seed", "5"] + TINY) == 3
    assert open(ckpt, "rb").read() == before


def test_resume_on_different_dataset_exit_code_3(tmp_path, data_file):
    # same record count, so the same iters_per_epoch: only the
    # fingerprint tells the datasets apart
    _resume_rejected(tmp_path, data_file, 64, strip_fingerprint=False)


def test_resume_without_fingerprint_checks_iters_per_epoch(tmp_path,
                                                           data_file):
    # 48 records at batch 8 give 6 iterations an epoch, not 8
    _resume_rejected(tmp_path, data_file, 48, strip_fingerprint=True)
