"""Training-loop, evaluation, and metrics-export tests on tiny configs."""

import os
import weakref
from pathlib import Path

import numpy as np
import pytest

from dualmim import ema as ema_mod
from dualmim import pseudolabel as pl
from dualmim import train as train_mod
from dualmim import vit
from dualmim.checkpoint import load_checkpoint
from dualmim.config import TrainConfig
from dualmim.data import (AugmentConfig, Batch, Dataset, load_cifar10,
                          make_batch, make_synthetic_cifar, standardize)
from dualmim.errors import DataError
from dualmim.optim import AdamW
from dualmim.tensor import Tensor, no_grad
from dualmim.train import (KNN_BLOCK_ROWS, METRICS_HEADER, Trainer,
                           encode_features, export_metrics, knn_eval,
                           linear_probe, pretrain)
from dualmim.vit import Encoder, patchify_batch

from tape_memory import tape_bytes
from tape_ref import fold_major_patch_loss, matmul, student_assign
from tiny_model import composed_setup, tiny_config


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
    lines = Path(out, "metrics.csv").read_text().splitlines()
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
    ck_a = Path(full, "checkpoint.bin").read_bytes()
    ck_b = Path(part, "checkpoint.bin").read_bytes()
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
    ck_a = Path(full, "checkpoint.bin").read_bytes()
    ck_b = Path(part, "checkpoint.bin").read_bytes()
    assert ck_a == ck_b
    # record groups in order: student, the teachers, then AdamW's moments
    _, _, records = load_checkpoint(os.path.join(part, "checkpoint.bin"))
    prefixes = ["student", *teachers, "adamw.m", "adamw.v"]
    groups = [name[:7] if name.startswith("adamw.") else name.split(".")[0]
              for name, _ in records]
    assert list(dict.fromkeys(groups)) == prefixes
    assert groups == sorted(groups, key=prefixes.index)


# One transformer block's parameters, in record order.
_BLOCK_NAMES = ["norm1.gamma", "norm1.beta",
                "attn.qkv.w", "attn.qkv.b", "attn.proj.w", "attn.proj.b",
                "norm2.gamma", "norm2.beta",
                "mlp.fc1.w", "mlp.fc1.b", "mlp.fc2.w", "mlp.fc2.b"]


def _blocks(n):
    return [f"blocks.{i}.{name}" for i in range(n) for name in _BLOCK_NAMES]


def test_checkpoint_record_names_exact(tmp_path):
    """The parameter walker takes names and order from attribute order;
    these are the record names of checkpoint format 2, so reordering a
    module's attributes fails here instead of breaking saved checkpoints."""
    encoder = (["patch_embed.w", "patch_embed.b", "cls_token"] + _blocks(2)
               + ["norm.gamma", "norm.beta"])
    decoder = (["embed.w", "embed.b", "mask_token"] + _blocks(1)
               + ["norm.gamma", "norm.beta", "pred.w", "pred.b"])
    head = ["shared.0.w", "shared.0.b", "shared.1.w", "shared.1.b",
            "class_out.w", "patch_out.w"]
    student = ([f"encoder.{n}" for n in encoder]
               + [f"decoder.{n}" for n in decoder]
               + [f"head.{n}" for n in head])
    expected = ([f"student.{n}" for n in student]
                + [f"teacher_rec.encoder.{n}" for n in encoder]
                + [f"teacher_cl.encoder.{n}" for n in encoder]
                + [f"teacher_cl.head.{n}" for n in head]
                + [f"adamw.m.{n}" for n in student]
                + [f"adamw.v.{n}" for n in student])
    path = str(tmp_path / "checkpoint.bin")
    Trainer(tiny_config()).save(path)
    _, _, records = load_checkpoint(path)
    assert [name for name, _ in records] == expected


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


@pytest.mark.parametrize("teacher_mode", ["dual", "single"])
def test_prototype_columns_stay_unit(tiny_ds, teacher_mode):
    """After every step the student's prototype columns are unit; the
    pseudo-labeling teacher's, EMAs of unit columns, are at most unit."""
    from dualmim.data import epoch_order
    cfg = _tiny_cfg(teacher_mode=teacher_mode)
    trainer = Trainer(cfg, iters_per_epoch=len(tiny_ds) // 8)
    order = epoch_order(len(tiny_ds), cfg.seed, 0)
    for it in range(len(tiny_ds) // 8):
        batch = make_batch(tiny_ds, order[it * 8:(it + 1) * 8], cfg.seed, 0,
                           cfg.augment)
        trainer.train_step(batch, 0, it, at_epoch_end=(it == 7))
        for name in ("class_out", "patch_out"):
            for head, unit in ((trainer.head, True),
                               (trainer.t_cl.head, False)):
                norms = np.linalg.norm(getattr(head, name).w.data, axis=0)
                assert norms.max() <= 1.0 + 1e-6
                assert not unit or norms.min() >= 1.0 - 1e-6


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


def _forward_tape_bytes(cfg):
    """`tape_bytes` of one taped forward at `cfg`, on a batch of noise with
    a complex view when the pseudo-label losses are on."""
    trainer = Trainer(cfg.validate(), iters_per_epoch=1)
    imgs = np.random.default_rng(0).normal(
        0, 1, (2, cfg.optim.batch_size, 32, 32, 3)).astype(np.float32)
    batch = Batch(simple=imgs[0],
                  complex=imgs[1] if trainer.pseudo_enabled else None)
    ctx = trainer.prepare_step(batch, 0, 0)
    report, _ = trainer.compute_loss(batch, *ctx, train=True,
                                     dp_rng=np.random.default_rng(1))
    return tape_bytes(report.total_tensor)


def test_recon_forward_tape_at_most_145_mib():
    """The tape of one reconstruction-only forward at the default model and
    batch 128 holds at most 145 MiB: the MLPs keep their fc1 outputs and
    tanh, not their GELU outputs (which added about 23 MiB)."""
    cfg = TrainConfig()
    cfg.loss.lambda_c = cfg.loss.lambda_p = 0.0
    assert cfg.optim.batch_size == 128
    assert _forward_tape_bytes(cfg) <= 145 << 20


def test_default_forward_tape_at_most_150_mib():
    """The tape of one forward at the default config (K_c = 4096, dual
    teachers, a complex view) and batch 128 holds at most 150 MiB; it read
    145.49 MiB when this bound was set."""
    cfg = TrainConfig()
    assert cfg.optim.batch_size == 128 and cfg.head.output_dim == 4096
    assert _forward_tape_bytes(cfg) <= 150 << 20


def test_patch_targets_share_one_buffer_freed_before_backward(tiny_ds,
                                                             monkeypatch):
    """Every patch fold's Sinkhorn writes the same buffer, so no two fold
    tables are alive at once, and that buffer is gone when backward runs."""
    cfg = _tiny_cfg()
    assert cfg.loss.lambda_p > 0 and cfg.masking.num_folds == 3
    trainer = Trainer(cfg, iters_per_epoch=len(tiny_ds) // 8)
    patch_weight = trainer.t_cl.head.patch_out.w.data
    written, alive_at_backward = [], []
    sinkhorn, backward = pl.sinkhorn_normalize, Tensor.backward

    def sinkhorn_spy(feats, weight, *args, out=None):
        if weight is patch_weight:
            buf = out if out.base is None else out.base
            # an earlier fold's table is this same buffer, or gone
            assert all(ref() is None or ref() is buf for _, ref in written)
            written.append((out.ctypes.data, weakref.ref(buf)))
        return sinkhorn(feats, weight, *args, out=out)

    def backward_spy(self):
        alive_at_backward.append([ref() is not None for _, ref in written])
        return backward(self)

    monkeypatch.setattr(pl, "sinkhorn_normalize", sinkhorn_spy)
    monkeypatch.setattr(Tensor, "backward", backward_spy)
    batch = make_batch(tiny_ds, np.arange(8), cfg.seed, 0, cfg.augment)
    trainer.train_step(batch, 0, 0)
    assert len(written) == 3
    assert len({addr for addr, _ in written}) == 1
    assert alive_at_backward == [[False] * 3]


def _capture_patch_loss(monkeypatch):
    """Record the arguments of each `patch_loss` call `compute_loss` makes."""
    calls, real = [], train_mod.patch_loss

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(train_mod, "patch_loss", spy)
    return calls, real


@pytest.mark.parametrize("empty_fold", [None, 0, 1, 2])
def test_streamed_patch_loss_matches_fold_major_table(monkeypatch,
                                                      empty_fold):
    """The per-fold stream against one fold-major table of all folds' targets,
    on the frozen-match path the composed gradient check uses; a match may
    leave a fold with no rows."""
    trainer, batch, ctx, match, _ = composed_setup(seed=3)
    assert ctx[5].shape[0] == 3    # K = 3 folds
    if empty_fold is not None:
        moved = np.where(match[0] == empty_fold, (empty_fold + 1) % 3,
                         match[0])
        match = (moved, match[1], match[2])
        assert not (match[0] == empty_fold).any()
    calls, patch_loss = _capture_patch_loss(monkeypatch)
    monkeypatch.setattr(pl, "nearest_patch_match_batch", lambda *_: match)
    report, got = trainer.compute_loss(batch, *ctx, train=False)
    assert got is match and len(calls) == 1
    feats, weight, _, teacher_feats, teacher_weight, sk = calls[0]
    out = []
    for fn in (patch_loss, fold_major_patch_loss):
        x = Tensor(feats.data, requires_grad=True)
        w = Tensor(weight.data, requires_grad=True)
        loss, entropy = fn(x, w, match, teacher_feats, teacher_weight, sk)
        loss.backward()
        out.append((float(loss.data), entropy, x.grad, w.grad))
    (ls, es, xs, ws), (lr, er, xr, wr) = out
    assert abs(report.loss_p - lr) <= 1e-6
    assert abs(ls - lr) <= 1e-6 and abs(es - er) <= 1e-6
    assert report.patch_target_entropy == es
    assert np.abs(xs - xr).max() <= 1e-6
    assert np.abs(ws - wr).max() <= 1e-6


def test_single_fold_pseudo_labeling_trains(tmp_path, tiny_ds, monkeypatch):
    """`multifold_pseudo_labeling: false` streams the patch loss as one fold
    of all M masked positions, and reruns reproduce it."""
    cfg = _tiny_cfg(multifold_pseudo_labeling=False)
    calls, _ = _capture_patch_loss(monkeypatch)
    runs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        pretrain(cfg, tiny_ds, out, max_iters=3)
        runs.append([r[:11] for r in _metrics_rows(out)])
    assert runs[0] == runs[1] and len(runs[0]) == 3
    assert all(np.isfinite(float(r[4])) and float(r[4]) > 0 for r in runs[0])
    teacher_feats = calls[0][3]
    assert teacher_feats.shape[:3] == (1, 8, 12)   # K = 1, B = 8, F = M


def test_eval_derives_class_count_from_labels(tiny_ds):
    cfg = _tiny_cfg()
    enc = Encoder(cfg.model, np.random.default_rng(7))
    # a 12-class dataset: labels 10 and 11 lie beyond CIFAR-10's 0..9
    f = encode_features(enc, cfg.model, tiny_ds)
    labels = (np.arange(len(tiny_ds)) % 12).astype(np.uint8)
    assert 0.0 <= linear_probe(f, labels, f, labels, probe_epochs=1) <= 1.0
    labels = np.full(len(tiny_ds), 11, np.uint8)
    assert linear_probe(f, labels, f, labels, probe_epochs=3) == 1.0
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
    f = encode_features(enc, cfg.model, Dataset(labels=labels, images=images))
    acc = linear_probe(f, labels, f, labels, probe_epochs=0)
    assert abs(acc - 0.10) <= 0.06  # random features, random labels


def test_probe_constant_labels_perfect(tiny_ds):
    cfg = _tiny_cfg()
    enc = Encoder(cfg.model, np.random.default_rng(2))
    f = encode_features(enc, cfg.model, tiny_ds)
    labels = np.full(len(tiny_ds), 4, np.uint8)
    acc = linear_probe(f, labels, f, labels, probe_epochs=3)
    assert acc == 1.0


def test_probe_matches_composed_reference_bit_for_bit(tiny_ds, monkeypatch):
    """The probe's fused `linear` and `softmax` train the same w and b,
    bit for bit, as the composed matmul + add + student_assign(., 1) they
    replaced, over 8 AdamW steps, and give the same accuracy."""
    cfg = _tiny_cfg()
    enc = Encoder(cfg.model, np.random.default_rng(9))
    opts = []

    class Spy(AdamW):
        def __init__(self, params, **kw):
            super().__init__(params, **kw)
            opts.append(self)

    monkeypatch.setattr(train_mod, "AdamW", Spy)
    f, labels = encode_features(enc, cfg.model, tiny_ds), tiny_ds.labels
    acc = linear_probe(f, labels, f, labels, probe_epochs=2, batch_size=16)
    monkeypatch.setattr(train_mod, "linear", lambda x, w, b: matmul(x, w) + b)
    monkeypatch.setattr(train_mod, "softmax", lambda z: student_assign(z, 1.0))
    ref = linear_probe(f, labels, f, labels, probe_epochs=2, batch_size=16)
    fused, composed = opts
    assert fused.step_count == composed.step_count == 8
    for name in ("w", "b"):
        assert np.array_equal(fused.params[name].data,
                              composed.params[name].data)
    assert acc == ref


def test_eval_rejects_images_of_another_shape(tiny_ds, tmp_path):
    """Records whose shape is not the model's input stop `pretrain` before
    it writes anything, and stop `encode_features`."""
    cfg = _tiny_cfg()
    cfg.model.image_size = 16
    out = tmp_path / "run"
    with pytest.raises(DataError, match=r"the model takes \(16, 16, 3\)"):
        pretrain(cfg, tiny_ds, str(out), max_iters=1)
    assert not out.exists()
    enc = Encoder(cfg.model, np.random.default_rng(0))
    with pytest.raises(DataError, match="per record"):
        encode_features(enc, cfg.model, tiny_ds)


def _knn_reference(train_feats, train_labels, test_feats, k):
    """The unblocked kNN: predictions from one [test, train] similarity
    matrix and one stable argsort."""
    def unit(x):
        return x / (np.linalg.norm(x, axis=1, keepdims=True) + 1e-12)

    sims = unit(np.asarray(test_feats)) @ unit(np.asarray(train_feats)).T
    nbr = np.argsort(-sims, axis=1, kind="stable")[:, :min(k, sims.shape[1])]
    votes = np.asarray(train_labels)[nbr]
    return np.array([np.bincount(v).argmax() for v in votes]), sims


@pytest.mark.parametrize("n_test", [1, KNN_BLOCK_ROWS, 2 * KNN_BLOCK_ROWS + 5])
def test_blocked_knn_matches_full_matrix_on_ties(n_test):
    """Rows of four ones in 16 dims have unit entries of exactly 0.5, so
    every cosine is a multiple of 1/4 and neighbors tie exactly: the
    blocked kNN predicts what the full-matrix reference does, query by
    query (an accuracy of 1 against the reference's predictions)."""
    rng = np.random.default_rng(n_test)

    def four_hot(n):
        x = np.zeros((n, 16), np.float32)
        for row in x:
            row[rng.choice(16, 4, replace=False)] = 1.0
        return x

    train, test = four_hot(300), four_hot(n_test)
    labels = rng.integers(0, 10, 300)
    for k in (1, 5, 20, 300, 400):
        pred, sims = _knn_reference(train, labels, test, k)
        if k < 300:   # the k-th and (k+1)-th neighbors tie somewhere
            top = -np.sort(-sims, axis=1)
            assert (top[:, k - 1] == top[:, k]).any()
        assert knn_eval(train, labels, test, pred, k) == 1.0
    gauss = rng.standard_normal((n_test, 16)).astype(np.float32)
    pred, _ = _knn_reference(train, labels, gauss, 7)
    assert knn_eval(train, labels, gauss, pred, 7) == 1.0


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

    def spy(patches, idx, **kw):
        outs.append(enc(patches, idx, **kw))
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
    teacher, student = trainer.t_rec.encoder, trainer.encoder
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
