"""CLI surface tests: subcommands, overrides, exit codes."""

import os
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import dualmim
from dualmim.checkpoint import load_checkpoint, save_checkpoint
from dualmim.cli import main
from dualmim.config import load_config
from dualmim.data import write_cifar10
from dualmim.tensor import Tensor
from dualmim.train import Trainer
from dualmim.vit import INFER_BLOCK_TOKENS


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


def test_teacher_temperature_below_floor_exit_code_2(tmp_path, data_file):
    rc = main(["pretrain", "--data-dir", data_file,
               "--out", str(tmp_path / "x"),
               "--sinkhorn.teacher_temperature", "0.02"] + TINY)
    assert rc == 2


def test_student_temperature_below_floor_exit_code_2(tmp_path, data_file,
                                                     capsys):
    rc = main(["pretrain", "--data-dir", data_file,
               "--out", str(tmp_path / "x"),
               "--sinkhorn.student_temperature", "0.01"] + TINY)
    assert rc == 2
    err = capsys.readouterr().err
    assert "student_temperature" in err and "Traceback" not in err


def test_override_of_wrong_type_exit_code_2(tmp_path, data_file, capsys):
    rc = main(["pretrain", "--data-dir", data_file,
               "--out", str(tmp_path / "x")]
              + TINY + ["--optim.batch_size", "2.5"])
    assert rc == 2
    assert "'optim.batch_size' must be an integer" in capsys.readouterr().err


def test_unknown_override_exit_code_2(tmp_path, data_file):
    rc = main(["pretrain", "--data-dir", data_file,
               "--out", str(tmp_path / "x"), "--optim.nonsense", "1"])
    assert rc == 2


def test_top_level_fields_same_from_flags_and_yaml(tmp_path, data_file):
    """Top-level fields are overrides like dotted ones: the paper's three
    ablation switches and log_every given as flags make the same checkpoint
    bytes and metric rows (all but the seconds column) as the same values
    in a --config file."""
    fields = {"teacher_mode": "single", "augmentation_mode": "simple_only",
              "multifold_pseudo_labeling": "false", "log_every": "2"}
    yaml_file = tmp_path / "ablation.yaml"
    yaml_file.write_text("".join(f"{k}: {v}\n" for k, v in fields.items()))
    runs = []
    for name, extra in (("flags", [a for kv in fields.items() for a in
                                   (f"--{kv[0]}", kv[1])]),
                        ("yaml", ["--config", str(yaml_file)])):
        out = tmp_path / name
        assert main(["pretrain", "--data-dir", data_file, "--out", str(out),
                     "--max-iters", "4", "--seed", "5"] + TINY + extra) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        runs.append(([line.rsplit(",", 1)[0] if line[0].isdigit() else line
                      for line in lines],
                     (out / "checkpoint.bin").read_bytes()))
    assert runs[0] == runs[1]
    rows = runs[0][0]
    assert '"teacher_mode": "single"' in rows[0]
    assert '"multifold_pseudo_labeling": false' in rows[0]
    assert [row.split(",")[1] for row in rows[2:]] == ["2", "4"]


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "seed -1 must be >= 0"),
    ("--log_every", "0", "log_every must be positive")])
def test_negative_seed_and_zero_log_every_exit_code_2(tmp_path, data_file,
                                                      capsys, flag, value,
                                                      message):
    """Config errors caught before the run starts, not a numpy
    SeedSequence error or a modulo by zero after the first step."""
    out = tmp_path / "run"
    assert main(["pretrain", "--data-dir", data_file, "--out", str(out),
                 "--max-iters", "1", flag, value] + TINY) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_misspelt_flag_of_an_eval_command_exit_code_2(tmp_path, capsys):
    """A command that reads no config still checks its overrides, so a
    misspelt flag is refused, not ignored; raised before the checkpoint
    is read: the checkpoint named here does not exist."""
    assert main(["knn-eval", "--checkpoint", str(tmp_path / "missing.bin"),
                 "--holdot", "16"]) == 2
    assert "unknown config key at '.': holdot" in capsys.readouterr().err


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


def test_make_data_into_missing_directory_exit_code_3(tmp_path, capsys):
    path = tmp_path / "missing" / "x.bin"
    assert main(["make-data", "--data-dir", str(path), "--n", "4"]) == 3
    assert "data error: cannot write" in capsys.readouterr().err
    assert not path.parent.exists()


def test_pretrain_on_images_of_another_shape_exit_code_3(tmp_path,
                                                          data_file, capsys):
    """32x32 records against a 16x16 model: exit 3 before metrics.csv or a
    checkpoint exists."""
    out = tmp_path / "run"
    rc = main(["pretrain", "--data-dir", data_file, "--out", str(out),
               "--max-iters", "1"] + TINY
              + ["--model.image_size", "16", "--model.patch_size", "4"])
    assert rc == 3
    assert "the model takes (16, 16, 3)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["knn-eval", "linear-probe"])
def test_eval_on_images_of_another_shape_exit_code_3(tmp_path, data_file,
                                                      capsys, command):
    """A checkpoint of a 16x16 model evaluated on 32x32 records."""
    args = TINY + ["--model.image_size", "16", "--model.patch_size", "4"]
    cfg = load_config(None, {k[2:]: v for k, v in zip(args[::2], args[1::2])})
    ckpt = str(tmp_path / "checkpoint.bin")
    Trainer(cfg, iters_per_epoch=8).save(ckpt)
    assert main([command, "--data-dir", data_file, "--checkpoint", ckpt,
                 "--holdout", "16"]) == 3
    assert "the model takes (16, 16, 3)" in capsys.readouterr().err


def test_missing_data_dir_required(tmp_path):
    assert main(["pretrain", "--out", str(tmp_path / "x")] + TINY) == 3


def test_resume_on_different_dataset_exit_code_3(tmp_path, data_file):
    """Same record count, so the same iterations per epoch: only the
    fingerprint tells the datasets apart. Exit 3, and the checkpoint keeps
    its bytes."""
    out = str(tmp_path / "run")
    assert main(["pretrain", "--data-dir", data_file, "--out", out,
                 "--max-iters", "2", "--seed", "5"] + TINY) == 0
    ckpt = os.path.join(out, "checkpoint.bin")
    before = Path(ckpt).read_bytes()
    other = str(tmp_path / "other.bin")
    assert main(["make-data", "--data-dir", other, "--n", "64",
                 "--seed", "4"]) == 0
    assert main(["pretrain", "--data-dir", other, "--out", out,
                 "--resume", ckpt, "--seed", "5"] + TINY) == 3
    assert Path(ckpt).read_bytes() == before


def _rewrite(edit):
    """A corruption that rewrites (run state, records) through the format."""
    def corrupt(path):
        config_json, state, records = load_checkpoint(path)
        save_checkpoint(path, config_json, *edit(state, records))
    return corrupt


def _drop_state_key(key):
    return _rewrite(lambda state, records: (
        {k: v for k, v in state.items() if k != key}, records))


def _edit_bytes(edit, reseal):
    """A corruption that edits the raw bytes in place; with `reseal`, the
    CRC-32 trailer is rewritten to match, so the load gets past it."""
    def corrupt(path):
        raw = bytearray(Path(path).read_bytes())
        raw = edit(raw)
        if reseal:
            raw[-4:] = struct.pack("<I", zlib.crc32(raw[:-4]))
        Path(path).write_bytes(raw)
    return corrupt


def _first_byte(blob, value):
    """Overwrite the first byte of the config or run-state JSON."""
    def edit(raw):
        (clen,) = struct.unpack_from("<Q", raw, 12)  # after magic, version
        raw[20 if blob == "config" else 28 + clen] = value
        return raw
    return _edit_bytes(edit, reseal=True)


def _first_name_byte(raw):
    (clen,) = struct.unpack_from("<Q", raw, 12)
    (slen,) = struct.unpack_from("<Q", raw, 20 + clen)
    raw[28 + clen + slen + 6] = 0xFF   # past the record count, name length
    return raw


def _flip_payload_bit(raw):
    raw[-5] ^= 0x10   # the last payload byte, just before the trailer
    return raw


def _as_v1(raw):
    raw[8:12] = struct.pack("<I", 1)
    return raw[:-4]


# fault -> (corruption, the stderr text of the check that must catch it)
_MALFORMED = {
    "adamw_record_missing": (_rewrite(lambda state, records: (state, [
        r for r in records if r[0] != "adamw.m.encoder.cls_token"])),
        "mismatch under 'adamw.m.': missing=['encoder.cls_token']"),
    "adamw_record_extra": (_rewrite(lambda state, records: (state, records + [
        ("adamw.v.encoder.extra", np.zeros(1, np.float32))])),
        "mismatch under 'adamw.v.': missing=[] extra=['encoder.extra']"),
    "adamw_record_shape": (_rewrite(lambda state, records: (state, [
        (n, np.zeros(1, np.float32) if n == "adamw.v.decoder.pred.b" else a)
        for n, a in records])),
        "shape mismatch at 'adamw.v.decoder.pred.b'"),
    "stray_record": (_rewrite(lambda state, records: (state, records + [
        ("bogus", np.zeros(1, np.float32))])),
        "stray checkpoint records ['bogus']"),
    "other_teacher_record": (_rewrite(lambda state, records: (
        state, records + [("teacher_single.encoder.cls_token",
                           np.zeros((1, 1, 8), np.float32))])),
        "stray checkpoint records ['teacher_single.encoder.cls_token']"),
    "run_state_key_missing": (_drop_state_key("adamw_step"),
                              "run state has no 'adamw_step'"),
    "iters_done_in_epoch_missing": (_drop_state_key("iters_done_in_epoch"),
                                    "run state has no 'iters_done_in_epoch'"),
    "data_fingerprint_missing": (_drop_state_key("data_fingerprint"),
                                 "run state has no 'data_fingerprint'"),
    "run_state_not_object": (_rewrite(lambda state, records: ([1], records)),
                             "run state is not a JSON object"),
    "run_state_not_json": (_first_byte("state", ord("x")),
                           "run state is not UTF-8 JSON: Expecting value"),
    "config_not_json": (_first_byte("config", ord("x")),
                        "config is not UTF-8 JSON: Expecting value"),
    "config_not_utf8": (_first_byte("config", 0xFF),
                        "config is not UTF-8 JSON: 'utf-8' codec"),
    "record_name_not_utf8": (_edit_bytes(_first_name_byte, reseal=True),
                             "record 0 name is not UTF-8: 'utf-8' codec"),
    "crc_mismatch": (_edit_bytes(_flip_payload_bit, reseal=False),
                     "CRC-32 mismatch"),
    "v1_file": (_edit_bytes(_as_v1, reseal=False),
                "unsupported checkpoint version 1"),
}


@pytest.fixture(scope="module")
def pristine_checkpoint(tmp_path_factory, data_file):
    out = str(tmp_path_factory.mktemp("pristine") / "run")
    assert main(["pretrain", "--data-dir", data_file, "--out", out,
                 "--max-iters", "2", "--seed", "5"] + TINY) == 0
    return os.path.join(out, "checkpoint.bin")


@pytest.mark.parametrize("fault", list(_MALFORMED))
def test_malformed_checkpoint_exit_code_3(tmp_path, data_file,
                                          pristine_checkpoint, fault, capsys):
    """A resume from a malformed checkpoint exits 3, not with a traceback
    or a failure later in the run, from the check meant for that fault, and
    leaves the checkpoint's bytes."""
    ckpt = str(tmp_path / "checkpoint.bin")
    shutil.copy(pristine_checkpoint, ckpt)
    corrupt, message = _MALFORMED[fault]
    corrupt(ckpt)
    before = Path(ckpt).read_bytes()
    assert main(["pretrain", "--data-dir", data_file, "--out", str(tmp_path),
                 "--resume", ckpt, "--seed", "5"] + TINY) == 3
    assert message in capsys.readouterr().err
    assert Path(ckpt).read_bytes() == before


@pytest.mark.parametrize("command", ["knn-eval", "linear-probe"])
@pytest.mark.parametrize("holdout", ["0", "-1", "64"])
def test_eval_holdout_outside_the_data_exit_code_3(data_file,
                                                   pristine_checkpoint,
                                                   command, holdout, capsys):
    """A holdout that leaves no test or no training records (the data file
    holds 64) exits 3 with the range, not with a traceback."""
    assert main([command, "--data-dir", data_file, "--checkpoint",
                 pristine_checkpoint, "--holdout", holdout]) == 3
    assert f"holdout {holdout} not in 1..63" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "-2"])
def test_knn_k_below_one_exit_code_2(tmp_path, data_file, k, capsys):
    """-k below 1 is a config error, raised before the checkpoint is read:
    the checkpoint named here does not exist."""
    assert main(["knn-eval", "--data-dir", data_file, "--checkpoint",
                 str(tmp_path / "missing.bin"), "-k", k]) == 2
    assert f"-k {k} must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("iters", ["0", "-3"])
def test_pretrain_max_iters_below_one_exit_code_2(tmp_path, data_file, iters,
                                                 capsys):
    """--max-iters below 1 is a config error: no step runs and the output
    directory is not made."""
    out = tmp_path / "run"
    assert main(["pretrain", "--data-dir", data_file, "--out", str(out),
                 "--max-iters", iters] + TINY) == 2
    assert f"max_iters {iters} must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-5"])
def test_make_data_n_below_one_exit_code_2(tmp_path, n, capsys):
    """--n below 1 is a config error, and no file is written."""
    path = tmp_path / "train.bin"
    assert main(["make-data", "--data-dir", str(path), "--n", n]) == 2
    assert f"--n {n} must be >= 1" in capsys.readouterr().err
    assert not path.exists()


def test_probe_epochs_below_zero_exit_code_2(tmp_path, data_file,
                                             pristine_checkpoint, capsys):
    """--probe-epochs below 0 is a config error, raised before the
    checkpoint is read (the one named does not exist); 0 epochs is an
    untrained probe, and allowed."""
    assert main(["linear-probe", "--data-dir", data_file, "--checkpoint",
                 str(tmp_path / "missing.bin"), "--probe-epochs", "-1"]) == 2
    assert "--probe-epochs -1 must be >= 0" in capsys.readouterr().err
    assert main(["linear-probe", "--data-dir", data_file, "--checkpoint",
                 pristine_checkpoint, "--probe-epochs", "0",
                 "--holdout", "16"]) == 0


def test_gradcheck_command(capsys):
    """`dualmim gradcheck` runs the finite-difference suite and passes."""
    assert main(["gradcheck"]) == 0
    assert "PASS attention:" in capsys.readouterr().out


@pytest.mark.parametrize("overrides", [
    pytest.param([], id="pseudo"),
    pytest.param(["--loss.lambda_c", "0", "--loss.lambda_p", "0"],
                 id="recon")])
def test_non_finite_gradient_exit_code_4(tmp_path, data_file, monkeypatch,
                                         overrides):
    """A NaN gradient behind a finite loss stops the run before AdamW
    steps: exit 4, and the abort checkpoint holds the weights from before
    that step, which are those a clean run saves one step earlier."""
    args = (["pretrain", "--data-dir", data_file, "--seed", "5"] + TINY
            + overrides)
    clean = str(tmp_path / "clean")
    assert main(args + ["--out", clean, "--max-iters", "1"]) == 0

    trainers = []
    compute_loss, backward = Trainer.compute_loss, Tensor.backward

    def spy_loss(self, *a, **kw):
        trainers.append(self)
        return compute_loss(self, *a, **kw)

    def poisoned_backward(self):
        backward(self)
        if len(trainers) == 2:   # the second step
            p = trainers[-1].student_params["encoder.cls_token"]
            p.grad = np.full_like(p.grad, np.nan)

    monkeypatch.setattr(Trainer, "compute_loss", spy_loss)
    monkeypatch.setattr(Tensor, "backward", poisoned_backward)
    run = str(tmp_path / "run")
    assert main(args + ["--out", run, "--max-iters", "2"]) == 4
    _, _, aborted = load_checkpoint(os.path.join(run, "checkpoint.abort.bin"))
    _, _, expected = load_checkpoint(os.path.join(clean, "checkpoint.bin"))
    assert [n for n, _ in aborted] == [n for n, _ in expected]
    for (name, a), (_, b) in zip(aborted, expected):
        assert np.array_equal(a, b), name


def test_cli_import_loads_no_scipy():
    """scipy is a test oracle only: the runtime never imports it."""
    src = os.path.dirname(os.path.dirname(dualmim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, dualmim.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_encode_features_same_under_one_and_two_blas_threads(tmp_path):
    """Frozen class-token features of a fixed checkpoint are the same
    bytes under 1 and 2 OpenBLAS threads. With 64 patches a 64-image batch
    holds 64 x 65 tokens, so the class-only encoder runs it as 2 row blocks
    on one thread and 4 on two."""
    n = 64
    assert n * (64 + 1) > INFER_BLOCK_TOKENS
    data = str(tmp_path / "train.bin")
    assert main(["make-data", "--data-dir", data, "--n", str(n),
                 "--seed", "3"]) == 0
    tiny = dict(zip(TINY[::2], TINY[1::2]), **{"--model.patch_size": "4"})
    ckpt = str(tmp_path / "checkpoint.bin")
    Trainer(load_config(None, {k[2:]: v for k, v in tiny.items()}),
            iters_per_epoch=1).save(ckpt)
    script = ("import sys\n"
              "from dualmim.data import load_data_dir\n"
              "from dualmim.train import Trainer, encode_features\n"
              "t = Trainer.load(sys.argv[1])\n"
              "f = encode_features(t.encoder, t.cfg.model, "
              "load_data_dir(sys.argv[2]), t.cfg.augment)\n"
              "sys.stdout.buffer.write(f.tobytes())\n")
    src = os.path.dirname(os.path.dirname(dualmim.__file__))
    feats = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        feats.append(subprocess.run(
            [sys.executable, "-c", script, ckpt, data], env=env, check=True,
            capture_output=True).stdout)
    assert len(feats[0]) == n * 8 * 4
    assert np.frombuffer(feats[0], np.float32).std() > 0
    assert feats[0] == feats[1]


@pytest.mark.xfail(raises=AssertionError, reason=(
    "OpenBLAS may split the K sum of a skinny GEMM by thread count: the "
    "decoder mlp node's weight gradients, each one 7056-row block here "
    "([8, 7056] @ [7056, 32] for fc1, [32, 7056] @ [7056, 8] for fc2), "
    "differ in their last bits between 1 and 2 threads"))
def test_pretrain_same_under_one_and_two_blas_threads(tmp_path):
    """A fixed-seed pretrain writes the same checkpoint bytes and metric
    rows under 1 and 2 OpenBLAS threads. At batch 144 with 16-position
    folds the no-tape teacher passes run in threaded row blocks under 2."""
    batch = 144
    assert batch * (16 + 1) > INFER_BLOCK_TOKENS
    data = str(tmp_path / "train.bin")
    assert main(["make-data", "--data-dir", data, "--n", str(batch),
                 "--seed", "3"]) == 0
    tiny = dict(zip(TINY[::2], TINY[1::2]))
    tiny.update({"--model.patch_size": "4", "--optim.batch_size": str(batch)})
    src = os.path.dirname(os.path.dirname(dualmim.__file__))
    runs = []
    for threads in ("1", "2"):
        out = str(tmp_path / f"threads{threads}")
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "dualmim.cli", "pretrain",
                        "--data-dir", data, "--out", out, "--max-iters", "2",
                        "--seed", "5", *(a for kv in tiny.items() for a in kv)],
                       env=env, check=True, capture_output=True)
        with open(os.path.join(out, "metrics.csv")) as fh:
            rows = [line.split(",")[:11] for line in fh if line[0].isdigit()]
        with open(os.path.join(out, "checkpoint.bin"), "rb") as fh:
            runs.append((rows, fh.read()))
    assert len(runs[0][0]) == 2
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
