"""Training-loop, evaluation, and metrics-export tests on tiny configs."""

import os
import weakref

import numpy as np
import pytest

from dualmim import ema as ema_mod
from dualmim import vit
from dualmim.checkpoint import load_checkpoint, save_checkpoint
from dualmim.config import TrainConfig
from dualmim.data import (AugmentConfig, Dataset, load_cifar10, make_batch,
                          make_synthetic_cifar, standardize)
from dualmim.errors import DataError
from dualmim.gradcheck import tiny_config
from dualmim.tensor import Tensor, no_grad
from dualmim.train import (METRICS_HEADER, Trainer, encode_features,
                           export_metrics, knn_eval, linear_probe, pretrain)
from dualmim.vit import Encoder, patchify_batch


@pytest.fixture(scope="module")
def tiny_ds(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "train.bin")
    make_synthetic_cifar(path, 64, seed=11)
    return load_cifar10(path)


def _tiny_cfg(**kw):
    cfg = tiny_config()
    cfg.optim.batch_size = 8
    cfg.optim.total_epochs = 4
    cfg.optim.warmup_epochs = 1
    cfg.model.image_size = 32   # trainable on real 32x32 records
    cfg.model.patch_size = 8    # 16 patches -> 12 masked, 3 folds of 4
    for k, v in kw.items():
        node = cfg
        parts = k.split(".")
        for p in parts[:-1]:
            node = getattr(node, p)
        setattr(node, parts[-1], v)
    cfg.validate()
    return cfg


def _metrics_rows(out_dir):
    rows = []
    with open(os.path.join(out_dir, "metrics.csv")) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("epoch,"):
                continue
            rows.append(line.strip().split(","))
    return rows


def test_reconstruction_only_emits_zero_pseudo(tmp_path, tiny_ds):
    cfg = _tiny_cfg(**{"loss.lambda_c": 0.0, "loss.lambda_p": 0.0})
    out = str(tmp_path / "run")
    pretrain(cfg, tiny_ds, out, max_iters=4)
    rows = _metrics_rows(out)
    assert rows, "no metrics written"
    for r in rows:
        assert float(r[3]) == 0.0 and float(r[4]) == 0.0  # loss_c, loss_p
        assert float(r[2]) == float(r[5])                 # total == loss_m


def test_metrics_header_exact(tmp_path, tiny_ds):
    cfg = _tiny_cfg()
    out = str(tmp_path / "run")
    pretrain(cfg, tiny_ds, out, max_iters=2)
    lines = open(os.path.join(out, "metrics.csv")).read().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == METRICS_HEADER
    assert METRICS_HEADER == ("epoch,iter,loss_m,loss_c,loss_p,total,"
                              "patch_entropy,class_entropy,m_rec,m_cl,"
                              "lr,seconds")


def test_50_iteration_descent(tmp_path, tiny_ds):
    cfg = _tiny_cfg(**{"optim.total_epochs": 8})
    out = str(tmp_path / "run")
    pretrain(cfg, tiny_ds, out, max_iters=50)
    tot = np.array([float(r[5]) for r in _metrics_rows(out)])
    assert len(tot) == 50
    assert tot[39:50].mean() < tot[0:10].mean()


def test_interrupt_resume_bit_exact(tmp_path, tiny_ds):
    cfg = _tiny_cfg(**{"optim.total_epochs": 2})
    full = str(tmp_path / "full")
    pretrain(cfg, tiny_ds, full)

    part = str(tmp_path / "part")
    pretrain(cfg, tiny_ds, part, max_iters=len(tiny_ds) // 8)  # one epoch
    pretrain(cfg, tiny_ds, part, resume=os.path.join(part, "checkpoint.bin"))

    full_rows = _metrics_rows(full)
    part_rows = _metrics_rows(part)
    assert len(full_rows) == len(part_rows)
    for a, b in zip(full_rows, part_rows):
        assert a[:11] == b[:11]  # everything except wall-clock seconds
    ck_a = open(os.path.join(full, "checkpoint.bin"), "rb").read()
    ck_b = open(os.path.join(part, "checkpoint.bin"), "rb").read()
    assert ck_a == ck_b


_RESUME_CONFIGS = {
    "default": ({}, ["teacher_rec", "teacher_cl"]),
    "single": ({"teacher_mode": "single"}, ["teacher_single"]),
    "recon": ({"loss.lambda_c": 0.0, "loss.lambda_p": 0.0}, ["teacher_rec"]),
}


@pytest.mark.parametrize("mode,stop_at", [
    pytest.param(mode, stop_at,
                 id=str(stop_at) if mode == "default" else f"{mode}-{stop_at}")
    for mode in _RESUME_CONFIGS for stop_at in (2, 3)])
def test_mid_epoch_resume_bit_exact(tmp_path, tiny_ds, mode, stop_at):
    # 4 iterations per epoch; stop inside the first epoch, then resume
    overrides, teachers = _RESUME_CONFIGS[mode]
    cfg = _tiny_cfg(**{"optim.total_epochs": 2, "optim.batch_size": 16},
                    **overrides)
    full = str(tmp_path / "full")
    pretrain(cfg, tiny_ds, full)

    part = str(tmp_path / "part")
    pretrain(cfg, tiny_ds, part, max_iters=stop_at)
    pretrain(cfg, tiny_ds, part, resume=os.path.join(part, "checkpoint.bin"))

    full_rows = _metrics_rows(full)
    part_rows = _metrics_rows(part)
    assert len(full_rows) == len(part_rows) == 8
    for a, b in zip(full_rows, part_rows):
        assert a[:11] == b[:11]  # everything except wall-clock seconds
    ck_a = open(os.path.join(full, "checkpoint.bin"), "rb").read()
    ck_b = open(os.path.join(part, "checkpoint.bin"), "rb").read()
    assert ck_a == ck_b
    # record groups in order: student, the teachers, then AdamW's moments
    _, _, records = load_checkpoint(os.path.join(part, "checkpoint.bin"))
    prefixes = ["student", *teachers, "adamw.m", "adamw.v"]
    groups = [name[:7] if name.startswith("adamw.") else name.split(".")[0]
              for name, _ in records]
    assert list(dict.fromkeys(groups)) == prefixes
    assert groups == sorted(groups, key=prefixes.index)


def test_resume_state_without_in_epoch_iteration(tmp_path, tiny_ds):
    # checkpoints from before the in-epoch counter resume at the epoch start
    cfg = _tiny_cfg(**{"optim.total_epochs": 2, "optim.batch_size": 16})
    out = str(tmp_path / "run")
    pretrain(cfg, tiny_ds, out, max_iters=4)
    path = os.path.join(out, "checkpoint.bin")
    config_json, state, records = load_checkpoint(path)
    assert state.pop("iters_done_in_epoch") == 0
    save_checkpoint(path, config_json, state, records)
    assert Trainer.load(path).iters_done_in_epoch == 0


def test_resume_config_mismatch_rejected(tmp_path, tiny_ds):
    cfg = _tiny_cfg(**{"optim.total_epochs": 2})
    out = str(tmp_path / "run")
    pretrain(cfg, tiny_ds, out, max_iters=4)
    other = _tiny_cfg(**{"optim.total_epochs": 2, "seed": 99})
    with pytest.raises(DataError, match="different config"):
        pretrain(other, tiny_ds, out,
                 resume=os.path.join(out, "checkpoint.bin"))


def test_single_teacher_without_pseudo_labels_logs_no_cl_momentum(
        tmp_path, tiny_ds):
    # with no pseudo-label stream there is no t_cl: single mode logs what
    # dual mode logs, m_cl 0 included
    runs = {}
    for teacher_mode in ("dual", "single"):
        cfg = _tiny_cfg(teacher_mode=teacher_mode,
                        **{"loss.lambda_c": 0.0, "loss.lambda_p": 0.0})
        out = str(tmp_path / teacher_mode)
        pretrain(cfg, tiny_ds, out, max_iters=3)
        runs[teacher_mode] = [r[:11] for r in _metrics_rows(out)]
        _, state, _ = load_checkpoint(os.path.join(out, "checkpoint.bin"))
        assert state["t_cl_updates"] == 0
    assert runs["single"] == runs["dual"]
    assert all(float(r[9]) == 0.0 for r in runs["single"])


def test_teacher_update_strictly_after_optimizer(tiny_ds, monkeypatch):
    from dualmim.data import epoch_order
    maybe_update = ema_mod.maybe_update
    for teacher_mode, n_teachers in (("dual", 2), ("single", 1)):
        cfg = _tiny_cfg(teacher_mode=teacher_mode)
        trainer = Trainer(cfg, iters_per_epoch=8)
        idx = epoch_order(len(tiny_ds), cfg.seed, 0)[:8]
        batch = make_batch(tiny_ds, idx, cfg.seed, 0)
        updated = []

        def spy(teacher, *args):
            # the optimizer has already stepped at every teacher update
            assert trainer.optimizer.step_count == 1
            updated.append(teacher)
            return maybe_update(teacher, *args)

        monkeypatch.setattr(ema_mod, "maybe_update", spy)
        trainer.train_step(batch, 0, 0)
        assert len(trainer.teachers) == n_teachers
        assert updated == list(trainer.teachers.values())


def test_train_step_releases_its_tape(tiny_ds, monkeypatch):
    cfg = _tiny_cfg()
    trainer = Trainer(cfg, iters_per_epoch=len(tiny_ds) // 8)
    seen = []
    backward = Tensor.backward

    def spy(self):
        seen.append(weakref.ref(self))
        return backward(self)

    monkeypatch.setattr(Tensor, "backward", spy)
    batch = make_batch(tiny_ds, np.arange(8), cfg.seed, 0, cfg.augment)
    report, *_ = trainer.train_step(batch, 0, 0)
    assert len(seen) == 1
    assert report.total_tensor is None and report.total > 0
    # nothing keeps the step's graph alive once the step has returned
    assert seen[0]() is None


def test_eval_derives_class_count_from_labels(tiny_ds):
    cfg = _tiny_cfg()
    enc = Encoder(cfg.model, np.random.default_rng(7))
    # a 12-class dataset: labels 10 and 11 lie beyond CIFAR-10's 0..9
    ds = Dataset(labels=(np.arange(len(tiny_ds)) % 12).astype(np.uint8),
                 images=tiny_ds.images)
    assert 0.0 <= linear_probe(enc, cfg.model, ds, ds, probe_epochs=1) <= 1.0
    ds = Dataset(labels=np.full(len(tiny_ds), 11, np.uint8),
                 images=tiny_ds.images)
    assert linear_probe(enc, cfg.model, ds, ds, probe_epochs=3) == 1.0
    rng = np.random.default_rng(8)
    labels = np.arange(48) % 12
    feats = rng.standard_normal((48, 16)).astype(np.float32)
    assert knn_eval(feats, labels, feats, labels, k=1) == 1.0
    assert knn_eval(feats, labels, feats[labels >= 10], labels[labels >= 10],
                    k=1) == 1.0


def test_random_probe_near_chance(tiny_ds):
    cfg = _tiny_cfg()
    enc = Encoder(cfg.model, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 10, 200).astype(np.uint8)
    images = rng.integers(0, 256, (200, 32, 32, 3)).astype(np.uint8)
    ds = Dataset(labels=labels, images=images)
    acc = linear_probe(enc, cfg.model, ds, ds, probe_epochs=0)
    assert abs(acc - 0.10) <= 0.06  # random features, random labels


def test_probe_constant_labels_perfect(tiny_ds):
    cfg = _tiny_cfg()
    enc = Encoder(cfg.model, np.random.default_rng(2))
    ds = Dataset(labels=np.full(len(tiny_ds), 4, np.uint8),
                 images=tiny_ds.images)
    acc = linear_probe(enc, cfg.model, ds, ds, probe_epochs=3)
    assert acc == 1.0


def test_knn_self_neighbor_perfect():
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((40, 16)).astype(np.float32)
    labels = rng.integers(0, 10, 40)
    assert knn_eval(feats, labels, feats, labels, k=1) == 1.0


def test_knn_k_equals_dataset_is_majority():
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((30, 8)).astype(np.float32)
    labels = np.array([7] * 18 + list(rng.integers(0, 7, 12)))
    acc = knn_eval(feats, labels, feats, labels, k=30)
    majority = (labels == 7).mean()
    assert acc == pytest.approx(majority)


def test_knn_matches_brute_force():
    rng = np.random.default_rng(5)
    train = rng.standard_normal((100, 12)).astype(np.float32)
    test = rng.standard_normal((25, 12)).astype(np.float32)
    tl = rng.integers(0, 10, 100)
    sl = rng.integers(0, 10, 25)
    k = 5
    got = knn_eval(train, tl, test, sl, k=k)
    tu = train / np.linalg.norm(train, axis=1, keepdims=True)
    su = test / np.linalg.norm(test, axis=1, keepdims=True)
    correct = 0
    for i in range(25):
        sims = su[i] @ tu.T
        nbr = np.argsort(-sims, kind="stable")[:k]
        counts = np.bincount(tl[nbr], minlength=10)
        if counts.argmax() == sl[i]:
            correct += 1
    assert got == pytest.approx(correct / 25)


def test_export_metrics_header_only(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    (run / "metrics.csv").write_text(METRICS_HEADER + "\n")
    n, skipped, summary = export_metrics(str(run))
    assert n == 0 and skipped == 0
    exported = (run / "export.csv").read_text().splitlines()
    assert exported == [METRICS_HEADER]


def test_export_metrics_rows_and_summary(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    lines = [METRICS_HEADER]
    ents = []
    for i in range(10):
        ent = 2.0 + 0.1 * ((i * 7) % 5)
        ents.append(ent)
        lines.append(f"0,{i + 1},1.0,2.0,3.0,6.0,{ent},3.0,0.96,0.996,"
                     f"0.001,{i * 1.5}")
    lines.append("garbage,row")
    (run / "metrics.csv").write_text("\n".join(lines) + "\n")
    n, skipped, summary = export_metrics(str(run))
    assert n == 10 and skipped == 1
    data = [l for l in (run / "export.csv").read_text().splitlines()[1:] if l]
    assert len(data) == 10
    assert summary["min_patch_entropy"] == pytest.approx(min(ents))


def test_encode_features_uses_class_token(tiny_ds):
    cfg = _tiny_cfg()
    enc = Encoder(cfg.model, np.random.default_rng(6))
    feats = encode_features(enc, cfg.model, tiny_ds)
    assert feats.shape == (len(tiny_ds), cfg.model.embed_dim)
    again = encode_features(enc, cfg.model, tiny_ds)
    assert np.array_equal(feats, again)


def test_encode_features_records_no_tape(tiny_ds):
    cfg = _tiny_cfg()
    enc = Encoder(cfg.model, np.random.default_rng(6))
    outs = []

    def spy(patches, idx):
        outs.append(enc(patches, idx))
        return outs[-1]

    feats = encode_features(spy, cfg.model, tiny_ds, batch_size=24)
    assert len(outs) == 3
    assert all(not o.requires_grad and o._parents == () for o in outs)
    # the taped forward of the same batches gives the same features, bit
    # for bit
    imgs = standardize(tiny_ds.images.astype(np.float32) / 255.0,
                       AugmentConfig())
    for lo in range(0, len(tiny_ds), 24):
        taped = enc(patchify_batch(imgs[lo:lo + 24], cfg.model.patch_size),
                    np.arange(cfg.model.num_patches))
        assert taped.requires_grad
        assert np.array_equal(feats[lo:lo + 24], taped.data[:, 0, :])


def _count_calls(monkeypatch, owner, name):
    calls = []
    raw = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return raw(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_encode_features_row_blocks_match_unblocked(tiny_ds, monkeypatch,
                                                   fake_blas):
    cfg = _tiny_cfg()
    enc = Encoder(cfg.model, np.random.default_rng(6))
    whole = encode_features(enc, cfg.model, tiny_ds, batch_size=21)
    # two workers whose blocks in flight hold at most 3 images of 17
    # tokens: a 21-image batch runs as 14 blocks, and the last batch holds
    # one image
    fake_blas(2)
    monkeypatch.setattr(vit, "INFER_BLOCK_TOKENS", 3 * 17)
    calls = _count_calls(monkeypatch, Encoder, "__call__")
    blocks = _count_calls(monkeypatch, Encoder, "_forward")
    blocked = encode_features(enc, cfg.model, tiny_ds, batch_size=21)
    assert np.array_equal(blocked, whole)
    assert len(calls) == 4                  # one call per batch
    assert len(blocks) == 3 * 14 + 1


@pytest.mark.parametrize("batch", [1, 2, 7, 11])
def test_teacher_encoder_row_blocks_match_unblocked(tiny_ds, monkeypatch,
                                                    fake_blas, batch):
    cfg = _tiny_cfg()
    trainer = Trainer(cfg)
    teacher, student = trainer.t_rec_encoder, trainer.encoder
    rng = np.random.default_rng(batch)
    patches = rng.standard_normal(
        (batch, 5, cfg.model.patch_size ** 2 * 3)).astype(np.float32)
    idx = rng.choice(cfg.model.num_patches, 5, replace=False)
    whole = teacher(patches, idx).data
    # two workers whose blocks in flight hold at most 3 images of 6
    # tokens, ragged for 7 and 11 images
    fake_blas(2)
    monkeypatch.setattr(vit, "INFER_BLOCK_TOKENS", 3 * 6)
    blocks = _count_calls(monkeypatch, Encoder, "_forward")
    out = teacher(patches, idx)
    assert not out.requires_grad
    assert np.array_equal(out.data, whole)
    n_blocks = min(batch, -(-batch * 2 // 3)) if batch > 3 else 1
    assert len(blocks) == n_blocks
    # a student call records a tape, so it runs as one block
    taped = student(patches, idx)
    assert taped.requires_grad and len(blocks) == n_blocks + 1
    with no_grad():
        frozen = student(patches, idx)
    assert np.array_equal(frozen.data, taped.data)
