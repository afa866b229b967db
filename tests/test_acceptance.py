"""Acceptance suite: nine behavioral criteria, one PASS/FAIL line each.

Each test prints `criterion N: PASS|FAIL - <detail>` so the suite's verdict
can be read off the pytest output directly. The slow training criteria (6, 7)
build their own synthetic datasets and stay inside the stated wall-clock
budgets on a single CPU core.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import dualmim.ema as ema_mod
import dualmim.losses as losses_mod
from dualmim.checkpoint import load_checkpoint, save_checkpoint
from dualmim.config import TrainConfig
from dualmim.data import (load_cifar10, make_batch, make_synthetic_cifar,
                          epoch_order, write_cifar10)
from dualmim.errors import DataError
from dualmim.gradcheck import adamw_convergence, max_violation, op_suite
from dualmim.masking import gen_mask, split_folds, validate_masking
from dualmim.errors import ConfigError
from dualmim.optim import AdamW, lr_at
from dualmim.pseudolabel import (assignments, nearest_patch_match_batch,
                                 sinkhorn_normalize)
from dualmim.train import Trainer, encode_features, linear_probe, pretrain
from dualmim.vit import patchify_batch

from f64_oracle import OracleLoss, oracle_finite_diff
from tiny_model import composed_setup, tiny_config


def _metric_rows(run_dir):
    """The rows of a run's metrics.csv, split on commas."""
    with open(os.path.join(run_dir, "metrics.csv")) as fh:
        return [line.split(",") for line in fh if line[0].isdigit()]


def _verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n} failed: {detail}"


# -- criterion 1: gradient suite ----------------------------------------------

def test_criterion_1_gradient_suite():
    t0 = time.time()
    results = op_suite()
    worst_op = max(v for _, v in results)
    ok_ops = all(v <= 1.0 for _, v in results)

    # composed total loss on the tiny model (N=16 patches, D=8, K_c=8),
    # checked against an independent float64 forward reimplementation
    trainer, batch, ctx, match, build = composed_setup(seed=0)
    trainer.optimizer.zero_grad()
    loss = build()
    loss.backward()
    oracle = OracleLoss(trainer, batch, ctx, match)
    assert abs(float(loss.data) - oracle()) < 1e-3
    worst_comp = 0.0
    for name, p in trainer.student_params.items():
        fd = oracle_finite_diff(oracle, name)
        worst_comp = max(worst_comp,
                         max_violation(p.grad, fd, rel_tol=1e-3,
                                       abs_floor=1e-4))
    adamw_final = adamw_convergence()
    dt = time.time() - t0
    ok = ok_ops and worst_comp <= 1.0 and adamw_final < 1e-4 and dt < 120
    _verdict(1, ok, f"ops worst {worst_op:.3f}, composed worst "
                    f"{worst_comp:.3f}, adamw final {adamw_final:.2e}, "
                    f"{dt:.0f}s")


# -- criterion 2: sinkhorn -----------------------------------------------------

def test_criterion_2_sinkhorn():
    rng = np.random.default_rng(0)
    worst_row = 0.0
    for _ in range(20):
        b = int(rng.integers(2, 128))
        kc = int(rng.integers(2, 512))
        # cosine-similarity domain: the head emits unit-norm dot products
        scores = rng.uniform(-1.0, 1.0, (b, kc)).astype(np.float32)
        q = assignments(*sinkhorn_normalize(
            scores, np.eye(kc, dtype=np.float32), 3, 0.05)[:3])
        worst_row = max(worst_row, float(np.abs(q.sum(axis=1) - 1.0).max()))

    scores = np.array([[1.0, 0.0], [0.0, 1.0]], np.float32)
    oracle = np.exp(scores.astype(np.float64))
    for _ in range(1000):
        oracle /= oracle.sum(axis=0, keepdims=True)
        oracle /= oracle.sum(axis=1, keepdims=True)
    fixed_err = float(np.abs(assignments(*sinkhorn_normalize(
        scores, np.eye(2, dtype=np.float32), 1000, 1.0)[:3]) - oracle).max())

    uniform = assignments(*sinkhorn_normalize(
        np.zeros((8, 16), np.float32), np.eye(16, dtype=np.float32), 3,
        0.05)[:3])
    uni_err = float(np.abs(uniform - 1.0 / 16).max())

    ok = worst_row < 1e-5 and fixed_err < 1e-4 and uni_err < 1e-7
    _verdict(2, ok, f"row-sum err {worst_row:.2e}, 2x2 fixed-point err "
                    f"{fixed_err:.2e}, uniform err {uni_err:.2e}")


# -- criterion 3: fold arithmetic ----------------------------------------------

def test_criterion_3_fold_arithmetic():
    rng = np.random.default_rng(1)
    big = gen_mask(196, 0.75, rng)
    big_folds = split_folds(big, 3, rng)
    ok_196 = (big.visible_indices.size == 49 and
              big_folds.shape == (3, 49))

    small = gen_mask(64, 0.75, rng)
    small_folds = split_folds(small, 3, rng)
    ok_64 = (small.visible_indices.size == 16 and
             small_folds.shape == (3, 16))

    try:
        validate_masking(64, 0.75, 5)
        rejected = False
    except ConfigError:
        rejected = True

    ok = ok_196 and ok_64 and rejected
    _verdict(3, ok, f"196->49+3x49 {ok_196}, 64->16+3x16 {ok_64}, "
                    f"non-divisible rejected {rejected}")


# -- criterion 4: EMA ------------------------------------------------------------

def test_criterion_4_ema():
    from dualmim.tensor import Tensor
    rec = ema_mod.EmaSchedule(0.96, 0.99, ema_mod.PER_EPOCH, 20)
    cl = ema_mod.EmaSchedule(0.996, 1.0, ema_mod.PER_ITERATION, 1000)
    ok_ends = (ema_mod.momentum_at(rec, 0) == 0.96 and
               ema_mod.momentum_at(rec, 20) == 0.99 and
               ema_mod.momentum_at(cl, 0) == 0.996 and
               ema_mod.momentum_at(cl, 1000) == 1.0)

    student = {"w": Tensor(np.full(8, 4.0, np.float32), requires_grad=True)}
    t = ema_mod.TeacherState({"w": Tensor(np.full(8, 2.0, np.float32))}, rec)
    before = t.params["w"].data.copy()
    ema_mod.ema_update(t, student, 1.0)
    ok_m1 = np.array_equal(t.params["w"].data, before)
    ema_mod.ema_update(t, student, 0.0)
    ok_m0 = np.array_equal(t.params["w"].data, student["w"].data)

    # geometric law: constant student, n fixed-momentum updates shrink the
    # gap by exactly m^n (in f32 arithmetic)
    t.params["w"].data[...] = 1.0
    student["w"].data[...] = 0.0
    m = np.float32(0.875)  # exactly representable
    gap = np.float32(1.0)
    for _ in range(10):
        ema_mod.ema_update(t, student, m)
        gap = np.float32(m * gap)
    ok_geo = np.array_equal(t.params["w"].data, np.full(8, gap, np.float32))

    ok = ok_ends and ok_m1 and ok_m0 and ok_geo
    _verdict(4, ok, f"endpoints {ok_ends}, m=1 identity {ok_m1}, "
                    f"m=0 copy {ok_m0}, geometric law {ok_geo}")


# -- criterion 5: matching oracle ------------------------------------------------

def test_criterion_5_matching_oracle():
    rng = np.random.default_rng(2)
    mismatches = 0
    for inst in range(200):
        m = int(rng.integers(1, 17))
        k = int(rng.integers(1, 4))
        f = int(rng.integers(1, 9))
        d = int(rng.integers(2, 33))
        s = rng.standard_normal((m, d)).astype(np.float32)
        folds = [rng.standard_normal((f, d)).astype(np.float32)
                 for _ in range(k)]
        if inst % 5 == 0:  # forced exact ties: every teacher row identical
            for fold in folds:
                fold[:] = folds[0][0]
        fold_idx, row_idx, _ = nearest_patch_match_batch(
            s[None], [fold[None] for fold in folds])
        su = s / np.linalg.norm(s, axis=1, keepdims=True)
        t_all = np.concatenate(folds, axis=0)
        tu = t_all / np.linalg.norm(t_all, axis=1, keepdims=True)
        dist = 1.0 - su @ tu.T
        for i in range(m):
            best_flat, best_d = None, np.inf
            for j in range(k * f):          # exhaustive, first-wins ties
                if dist[i, j] < best_d:
                    best_d, best_flat = dist[i, j], j
            if (fold_idx[0, i], row_idx[0, i]) != (best_flat // f,
                                                   best_flat % f):
                mismatches += 1
    _verdict(5, mismatches == 0, f"{mismatches} mismatches over 200 instances")


# -- criterion 6: training descent -----------------------------------------------

def _desk_fast_config():
    """Desk defaults with the sanctioned fast-test prototype count."""
    cfg = TrainConfig()
    cfg.head.output_dim = 256
    return cfg


@pytest.fixture(scope="module")
def synth_2k(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("c6") / "train.bin")
    make_synthetic_cifar(path, 2000, seed=7, noise=0.2)
    return load_cifar10(path)


def test_criterion_6_training_descent(tmp_path, synth_2k):
    cfg = _desk_fast_config()
    out = str(tmp_path / "run")
    t0 = time.time()
    pretrain(cfg, synth_2k, out, max_iters=200)
    dt = time.time() - t0
    rows = _metric_rows(out)
    total = np.array([float(r[5]) for r in rows])
    patch_h = np.array([float(r[6]) for r in rows])
    early = total[:50].mean()
    late = total[149:200].mean()
    drop = (early - late) / early
    floor = 0.1 * np.log(cfg.head.output_dim)
    ok = drop >= 0.15 and patch_h.min() >= floor and dt < 600
    _verdict(6, ok, f"drop {drop * 100:.1f}% (early {early:.3f} late "
                    f"{late:.3f}), min patch entropy {patch_h.min():.3f} "
                    f"(floor {floor:.3f}), {dt:.0f}s")


# -- criterion 7: representation sanity -------------------------------------------

def test_criterion_7_representation_sanity(tmp_path):
    t0 = time.time()
    data_path = str(tmp_path / "train.bin")
    make_synthetic_cifar(data_path, 12000, seed=13, noise=0.2)
    full = load_cifar10(data_path)
    from dualmim.data import Dataset
    train_ds = Dataset(labels=full.labels[:10000], images=full.images[:10000])
    test_ds = Dataset(labels=full.labels[10000:], images=full.images[10000:])

    cfg = _desk_fast_config()
    cfg.optim.total_epochs = 5
    cfg.optim.warmup_epochs = 1
    out = str(tmp_path / "run")
    trainer = pretrain(cfg, train_ds, out)

    def probe(encoder):
        f_train, f_test = (encode_features(encoder, cfg.model, ds)
                           for ds in (train_ds, test_ds))
        return linear_probe(f_train, train_ds.labels, f_test, test_ds.labels,
                            5, seed=cfg.seed)

    acc = probe(trainer.encoder)
    baseline = Trainer(cfg, iters_per_epoch=1)  # random init, never stepped
    acc0 = probe(baseline.encoder)
    dt = time.time() - t0
    ok = acc >= acc0 + 0.05 and acc > 0.20 and dt < 2400
    _verdict(7, ok, f"pretrained probe {acc * 100:.1f}%, random-init probe "
                    f"{acc0 * 100:.1f}%, {dt:.0f}s")


# -- criterion 8: ablation structure ----------------------------------------------

def _mae_reference_run(cfg, dataset, iters_per_epoch, n_iters):
    """Reconstruction-only pipeline assembled without any pseudo branch.

    Deliberately re-built from the module-level pieces (not Trainer) so the
    lambda=(1,0,0) parity check compares two independent constructions.
    """
    from dualmim.train import _RNG_DROPPATH, _RNG_INIT, _RNG_MASK, _RNG_FOLD, \
        _stream
    from dualmim.vit import Decoder, Encoder

    init_rng = _stream(cfg.seed, 0, 0, _RNG_INIT)
    encoder = Encoder(cfg.model, init_rng)
    decoder = Decoder(cfg.model, init_rng)
    params = {f"encoder.{k}": v for k, v in encoder.params().items()}
    params |= {f"decoder.{k}": v for k, v in decoder.params().items()}

    t_enc = Encoder(cfg.model, np.random.default_rng(0))
    teacher = ema_mod.TeacherState(
        {f"encoder.{k}": v for k, v in t_enc.params().items()},
        ema_mod.EmaSchedule(cfg.ema_rec.start_momentum,
                            cfg.ema_rec.end_momentum, cfg.ema_rec.frequency,
                            cfg.optim.total_epochs),
        init_from=params)
    opt = AdamW(params, lr=cfg.optim.lr,
                betas=(cfg.optim.beta1, cfg.optim.beta2),
                weight_decay=cfg.optim.weight_decay)
    total_iters = cfg.optim.total_epochs * iters_per_epoch
    losses = []
    it_global = 0
    for epoch in range(cfg.optim.total_epochs):
        order = epoch_order(len(dataset), cfg.seed, epoch)
        for it in range(iters_per_epoch):
            idx = order[it * cfg.optim.batch_size:
                        (it + 1) * cfg.optim.batch_size]
            batch = make_batch(dataset, idx, cfg.seed, epoch, cfg.augment,
                               need_complex=False)
            mask = gen_mask(cfg.model.num_patches, cfg.masking.ratio,
                            _stream(cfg.seed, epoch, it, _RNG_MASK))
            folds = split_folds(mask, cfg.masking.num_folds,
                                _stream(cfg.seed, epoch, it, _RNG_FOLD))
            patches = patchify_batch(batch.simple, cfg.model.patch_size)
            rec_tokens = []
            for fold in folds:
                toks = t_enc(np.take(patches, fold, axis=1), fold)
                rec_tokens.append(toks.data[:, 1:, :])
            dp_rng = _stream(cfg.seed, epoch, it, _RNG_DROPPATH)
            visible = np.take(patches, mask.visible_indices, axis=1)
            enc_out = encoder(visible, mask.visible_indices, train=True,
                              rng=dp_rng)
            dec_out = decoder(enc_out, mask.visible_indices,
                              folds.reshape(-1))
            loss = losses_mod.recon_loss(dec_out, np.stack(rec_tokens))
            opt.zero_grad()
            loss.backward()
            opt.step(lr_at(it_global,
                           total_iters,
                           cfg.optim.warmup_epochs * iters_per_epoch,
                           cfg.optim.lr))
            last = it == iters_per_epoch - 1
            ema_mod.maybe_update(teacher, params, it_global, epoch, last)
            losses.append(float(loss.data))
            it_global += 1
            if it_global >= n_iters:
                return params, losses
    return params, losses


@pytest.fixture(scope="module")
def synth_small(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("c8") / "train.bin")
    make_synthetic_cifar(path, 64, seed=21)
    return load_cifar10(path)


def test_criterion_8_ablation_structure(tmp_path, synth_small):
    cfg = tiny_config()
    cfg.model.image_size = 32
    cfg.model.patch_size = 8
    cfg.optim.batch_size = 8
    cfg.optim.total_epochs = 2
    cfg.optim.warmup_epochs = 1
    cfg.loss.lambda_c = 0.0
    cfg.loss.lambda_p = 0.0
    cfg.validate()

    out = str(tmp_path / "mae")
    n_iters = 2 * (len(synth_small) // 8)
    trainer = pretrain(cfg, synth_small, out)
    ref_params, ref_losses = _mae_reference_run(cfg, synth_small,
                                                len(synth_small) // 8, n_iters)
    rows = _metric_rows(out)
    zeros = all(float(r[3]) == 0.0 and float(r[4]) == 0.0 for r in rows)
    bit_equal = all(np.array_equal(trainer.student_params[k].data, v.data)
                    for k, v in ref_params.items())
    loss_equal = (len(rows) == len(ref_losses) and
                  all(r[2] == f"{v:.6f}" for r, v in zip(rows, ref_losses)))

    # single-teacher mode vs dual mode under one shared schedule
    cfg2 = tiny_config()
    cfg2.model.image_size = 32
    cfg2.model.patch_size = 8
    cfg2.optim.batch_size = 8
    cfg2.optim.total_epochs = 2
    cfg2.optim.warmup_epochs = 1
    cfg2.ema_cl = type(cfg2.ema_rec)(cfg2.ema_rec.start_momentum,
                                     cfg2.ema_rec.end_momentum,
                                     cfg2.ema_rec.frequency)
    cfg2.validate()
    dual = pretrain(cfg2, synth_small, str(tmp_path / "dual"))

    cfg3 = TrainConfig.from_json(cfg2.to_json())
    cfg3.teacher_mode = "single"
    single = pretrain(cfg3, synth_small, str(tmp_path / "single"))
    params_equal = all(
        np.array_equal(dual.student_params[k].data,
                       single.student_params[k].data)
        for k in dual.student_params)
    rows_d = [r[:8] for r in _metric_rows(tmp_path / "dual")]
    rows_s = [r[:8] for r in _metric_rows(tmp_path / "single")]
    metrics_equal = rows_d == rows_s

    ok = zeros and bit_equal and loss_equal and params_equal and metrics_equal
    _verdict(8, ok, f"pseudo losses zero {zeros}, MAE-parity bits {bit_equal}, "
                    f"losses {loss_equal}, single=dual params {params_equal}, "
                    f"metrics {metrics_equal}")


# -- criterion 9: determinism & persistence ---------------------------------------

def test_criterion_9_determinism_persistence(tmp_path, synth_small):
    cfg = tiny_config()
    cfg.model.image_size = 32
    cfg.model.patch_size = 8
    cfg.optim.batch_size = 8
    cfg.optim.total_epochs = 2
    cfg.optim.warmup_epochs = 1
    cfg.validate()

    # save -> load -> save byte identity
    full = str(tmp_path / "full")
    trainer = pretrain(cfg, synth_small, full)
    p1 = os.path.join(full, "checkpoint.bin")
    c, s, r = load_checkpoint(p1)
    p2 = str(tmp_path / "resaved.bin")
    save_checkpoint(p2, c, s, r)
    bytes_ok = Path(p1).read_bytes() == Path(p2).read_bytes()

    # interrupted vs continuous metrics (wall-clock column excluded)
    part = str(tmp_path / "part")
    pretrain(cfg, synth_small, part, max_iters=len(synth_small) // 8)
    pretrain(cfg, synth_small, part,
             resume=os.path.join(part, "checkpoint.bin"))
    rows_f = [r[:11] for r in _metric_rows(full)]
    rows_p = [r[:11] for r in _metric_rows(part)]
    resume_ok = rows_f == rows_p and Path(
        part, "checkpoint.bin").read_bytes() == Path(p1).read_bytes()

    # malformed CIFAR files rejected with byte offsets
    bad_label = str(tmp_path / "bad_label.bin")
    labels = np.array([1, 2, 77], np.uint8)
    write_cifar10(bad_label, labels, np.zeros((3, 32, 32, 3), np.uint8))
    try:
        load_cifar10(bad_label)
        label_ok = False
    except DataError as e:
        label_ok = "record 2" in str(e) and str(2 * 3073) in str(e)

    trunc = str(tmp_path / "trunc.bin")
    with open(trunc, "wb") as fh:
        fh.write(b"\x00" * (2 * 3073 - 100))
    try:
        load_cifar10(trunc)
        trunc_ok = False
    except DataError as e:
        trunc_ok = str(3073) in str(e)

    ok = bytes_ok and resume_ok and label_ok and trunc_ok
    _verdict(9, ok, f"save/load/save bytes {bytes_ok}, resume metrics "
                    f"{resume_ok}, bad label offset {label_ok}, truncation "
                    f"{trunc_ok}")
