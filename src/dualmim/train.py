"""Pretraining orchestration: the full dual-teacher pipeline, checkpoints,
metrics emission, and the frozen-feature evaluations (linear probe, kNN).

Determinism: every random draw comes from a stream derived from
(seed, epoch, iteration, purpose), so an interrupted run resumed from its
checkpoint, mid-epoch included, reproduces the continuous run bit-exactly.
"""

import os
import time
import zlib

import numpy as np

from . import checkpoint as ckpt
from . import data as data_mod
from . import ema as ema_mod
from . import losses as losses_mod
from . import pseudolabel as pl
from .config import TEACHER_SINGLE, TrainConfig
from .errors import ConfigError, DataError, NumericError
from .masking import gen_mask, split_folds
from .optim import AdamW, lr_at
from .tensor import Tensor, linear, no_grad, softmax
from .vit import Decoder, Encoder, Module, ProjectionHead, patchify_batch

METRICS_HEADER = ("epoch,iter,loss_m,loss_c,loss_p,total,"
                  "patch_entropy,class_entropy,m_rec,m_cl,lr,seconds")

# purpose tags for per-iteration RNG streams
_RNG_MASK, _RNG_FOLD, _RNG_DROPPATH, _RNG_INIT = 2, 3, 4, 0x1717
KNN_BLOCK_ROWS = 256   # kNN query rows per similarity block


def _stream(seed, epoch, it, purpose):
    return np.random.default_rng(
        np.random.SeedSequence([seed, epoch, it, purpose]))


class Trainer:
    """Owns the student, the teacher(s), and the optimizer for one run."""

    def __init__(self, config: TrainConfig, iters_per_epoch=1):
        config.validate()
        self.cfg = config
        self.iters_per_epoch = iters_per_epoch
        w = config.loss
        self.pseudo_enabled = (w.lambda_c > 0 or w.lambda_p > 0)

        init_rng = _stream(config.seed, 0, 0, _RNG_INIT)
        self.encoder = Encoder(config.model, init_rng)
        self.decoder = Decoder(config.model, init_rng)
        self.head = (ProjectionHead(config.head, init_rng, config.model.embed_dim)
                     if self.pseudo_enabled else None)

        self.student_params = Module(encoder=self.encoder, decoder=self.decoder,
                                     head=self.head).params()

        total_iters = config.optim.total_epochs * iters_per_epoch
        self._build_teachers(total_iters)

        self.optimizer = AdamW(
            self.student_params, lr=config.optim.lr,
            betas=(config.optim.beta1, config.optim.beta2),
            weight_decay=config.optim.weight_decay)
        self.total_iters = total_iters
        self.warmup_iters = config.optim.warmup_epochs * iters_per_epoch
        self.global_iter = 0
        self.epochs_done = 0
        self.iters_done_in_epoch = 0   # steps already taken in epoch epochs_done
        self.data_fingerprint = None   # set by `pretrain` from its dataset

    def _build_teachers(self, total_iters):
        """`self.teachers` maps each checkpoint prefix to its TeacherState
        (with its encoder and head): `teacher_single`, or `teacher_rec` plus
        `teacher_cl` when the pseudo-label losses are on. The first serves
        the reconstruction stream, the last the pseudo-label one."""
        cfg = self.cfg
        throwaway = np.random.default_rng(0)

        def teacher(e, with_head):
            enc = Encoder(cfg.model, throwaway)
            head = (ProjectionHead(cfg.head, throwaway, cfg.model.embed_dim)
                    if with_head else None)
            total = (total_iters if e.frequency == ema_mod.PER_ITERATION
                     else cfg.optim.total_epochs)
            schedule = ema_mod.EmaSchedule(e.start_momentum, e.end_momentum,
                                           e.frequency, total)
            return ema_mod.TeacherState(
                Module(encoder=enc, head=head).params(), schedule,
                init_from=self.student_params, encoder=enc, head=head)

        if cfg.teacher_mode == TEACHER_SINGLE:
            # one teacher serves both streams
            self.teachers = {"teacher_single": teacher(cfg.ema_rec,
                                                       self.pseudo_enabled)}
        else:
            self.teachers = {"teacher_rec": teacher(cfg.ema_rec, False)}
            if self.pseudo_enabled:
                self.teachers["teacher_cl"] = teacher(cfg.ema_cl, True)
        roles = list(self.teachers.values())
        self.t_rec = roles[0]
        self.t_cl = roles[-1] if self.pseudo_enabled else None

    # -- forward pieces -----------------------------------------------------

    def _teacher_fold_tokens(self, encoder, patches, folds, head=None):
        """Run a frozen teacher encoder over each row of the [K, F] `folds`.

        Returns its [K, B, F, D] patch tokens (class rows stripped) and,
        with `head`, the head's [K, B, hidden] class and [K, B, F, hidden]
        patch features (else None); all plain arrays.
        """
        k, f = folds.shape
        b, hidden = patches.shape[0], self.cfg.head.hidden_dim
        tokens = np.empty((k, b, f, self.cfg.model.embed_dim), np.float32)
        cls_feats = patch_feats = None
        if head is not None:
            cls_feats = np.empty((k, b, hidden), np.float32)
            patch_feats = np.empty((k, b, f, hidden), np.float32)
        for i, fold in enumerate(folds):
            out = encoder(np.take(patches, fold, axis=1), fold)
            assert not out.requires_grad, "teacher output joined the tape"
            tokens[i] = out.data[:, 1:]
            if head is not None:
                cf, pf = head(out)
                cls_feats[i], patch_feats[i] = cf.data, pf.data
        return tokens, cls_feats, patch_feats

    def compute_loss(self, batch, mask, folds, rec_tokens, teacher_feats,
                     class_target, patch_feats, patch_weight,
                     train=True, dp_rng=None):
        """Student forward + all enabled loss terms -> (report, match).

        Everything teacher-side arrives precomputed as constants (see
        `prepare_step`); `patch_loss` makes the patch targets from the
        head's patch features and prototypes. The decoder returns the
        class row, then the masked rows fold-major, as the [K, B, F, D]
        teacher tokens are, and every loss reads those rows as they are.
        """
        cfg = self.cfg
        w = cfg.loss
        patches = patchify_batch(batch.simple, cfg.model.patch_size)
        visible = np.take(patches, mask.visible_indices, axis=1)
        encoded = self.encoder(visible, mask.visible_indices,
                               train=train, rng=dp_rng)
        dec_out = self.decoder(encoded, mask.visible_indices,
                               folds.reshape(-1))

        loss_m = None
        if w.lambda_m > 0:
            loss_m = losses_mod.recon_loss(dec_out, rec_tokens)

        loss_c = loss_p = match = None
        patch_entropy = class_entropy = 0.0
        if self.pseudo_enabled:
            cls_feat, patch_feat = self.head(dec_out)
            if w.lambda_p > 0:
                match = pl.nearest_patch_match_batch(
                    dec_out.data[:, 1:], teacher_feats)
                loss_p, patch_entropy = patch_loss(
                    patch_feat, self.head.patch_out.w, match, patch_feats,
                    patch_weight, cfg.sinkhorn)
            if w.lambda_c > 0:
                rows = np.arange(len(class_target))
                one = np.ones(1, np.float32)    # the table itself: u = v = 1
                loss_c = losses_mod.tempered_cross_entropy(
                    [(class_target, one, one, rows, rows)], cls_feat,
                    self.head.class_out.w, cfg.sinkhorn.student_temperature)
                class_entropy = pl.mean_row_entropy(class_target)

        report = losses_mod.total_loss(
            w, loss_m=loss_m, loss_c=loss_c, loss_p=loss_p,
            patch_entropy=patch_entropy, class_entropy=class_entropy)
        return report, match

    def prepare_step(self, batch, epoch, it_in_epoch):
        """Mask, folds, and every teacher-side constant for one iteration:
        (mask, folds, rec_tokens, [K, B, F, D] teacher_feats, [B, K_c]
        class_target, [K, B, F, hidden] patch_feats, patch_weight)."""
        cfg = self.cfg
        n = cfg.model.num_patches
        mask = gen_mask(n, cfg.masking.ratio,
                        _stream(cfg.seed, epoch, it_in_epoch, _RNG_MASK))
        folds = split_folds(mask, cfg.masking.num_folds,
                            _stream(cfg.seed, epoch, it_in_epoch, _RNG_FOLD))

        p = cfg.model.patch_size
        rec_tokens = None
        if cfg.loss.lambda_m > 0:
            rec_tokens, _, _ = self._teacher_fold_tokens(
                self.t_rec.encoder, patchify_batch(batch.simple, p), folds)
        if not self.pseudo_enabled:
            return mask, folds, rec_tokens, None, None, None, None
        pseudo_folds = (folds if cfg.multifold_pseudo_labeling
                        else folds.reshape(1, -1))
        view = (batch.complex if cfg.augmentation_mode == "dual"
                else batch.simple)
        head = self.t_cl.head
        teacher_feats, cls_feats, patch_feats = self._teacher_fold_tokens(
            self.t_cl.encoder, patchify_batch(view, p), pseudo_folds, head)
        # the fold mean of the class targets; `patch_loss` makes the patch
        # targets fold by fold
        sk = cfg.sinkhorn
        class_target = np.mean([pl.assignments(*pl.teacher_targets(
            c, head.class_out.w.data, sk.n_iters, sk.teacher_temperature)[:3])
            for c in cls_feats], axis=0)
        return (mask, folds, rec_tokens, teacher_feats, class_target,
                patch_feats, head.patch_out.w.data)

    def train_step(self, batch, epoch, it_in_epoch, at_epoch_end=False):
        """One optimization step; returns (LossReport, m_rec, m_cl, lr)."""
        cfg = self.cfg
        ctx = self.prepare_step(batch, epoch, it_in_epoch)
        dp_rng = _stream(cfg.seed, epoch, it_in_epoch, _RNG_DROPPATH)
        self.optimizer.zero_grad()
        report, _ = self.compute_loss(batch, *ctx, train=True, dp_rng=dp_rng)
        # the teacher-side constants are read only in the forward
        del ctx
        lr = lr_at(self.global_iter, self.total_iters, self.warmup_iters,
                   cfg.optim.lr)
        if report.total_tensor.requires_grad:
            report.total_tensor.backward()
            # a non-finite gradient stops the run before it reaches the weights
            sq = sum(float(np.vdot(p.grad, p.grad)) for p in
                     self.student_params.values() if p.grad is not None)
            if not np.isfinite(sq):
                raise NumericError(f"non-finite gradient at iteration "
                                   f"{self.global_iter}")
            self.optimizer.step(lr)
            if self.head is not None:
                self.head.normalize_prototypes()
        # backward has freed the closures and inner gradients; the total
        # still holds the forward outputs, so drop it before the next step
        report.total_tensor = None
        # teacher EMA strictly after the optimizer step
        for st in self.teachers.values():
            ema_mod.maybe_update(st, self.student_params, self.global_iter,
                                 epoch, at_epoch_end)
        self.global_iter += 1
        # momentum of the most recent applied update, read off the
        # checkpointed update_count so it survives resume:
        # momentum(update_count) is exactly the value used when
        # update_count was incremented
        m_rec = self.t_rec.momentum(self.t_rec.update_count)
        m_cl = (self.t_cl.momentum(self.t_cl.update_count)
                if self.t_cl is not None else 0.0)
        return report, m_rec, m_cl, lr

    # -- persistence --------------------------------------------------------

    def _groups(self):
        """The checkpoint's record groups in record order, prefix -> {name:
        array}: the student, each teacher, then AdamW's two moments."""
        tensors = {"student.": self.student_params} | {
            f"{prefix}.": st.params for prefix, st in self.teachers.items()}
        return {prefix: {k: p.data for k, p in params.items()}
                for prefix, params in tensors.items()} | {
            "adamw.m.": self.optimizer.m, "adamw.v.": self.optimizer.v}

    def run_state(self):
        return {"epochs_done": self.epochs_done,
                "iters_done_in_epoch": self.iters_done_in_epoch,
                "global_iter": self.global_iter,
                "adamw_step": self.optimizer.step_count,
                "t_rec_updates": self.t_rec.update_count,
                "t_cl_updates": (self.t_cl.update_count
                                 if self.t_cl is not None else 0),
                "iters_per_epoch": self.iters_per_epoch,
                "data_fingerprint": self.data_fingerprint}

    def save(self, path):
        records = [(prefix + k, v) for prefix, group in self._groups().items()
                   for k, v in group.items()]
        ckpt.save_checkpoint(path, self.cfg.to_json(), self.run_state(),
                             records)

    @classmethod
    def load(cls, path):
        config_json, state, records = ckpt.load_checkpoint(path)

        def need(key):
            if key not in state:
                raise DataError(f"{path}: run state has no '{key}'")
            return state[key]

        cfg = TrainConfig.from_json(config_json)
        tr = cls(cfg, iters_per_epoch=need("iters_per_epoch"))
        groups = tr._groups()
        stray = [n for n, _ in records if not n.startswith(tuple(groups))]
        if stray:
            raise DataError(f"{path}: stray checkpoint records {stray[:3]}")
        for prefix, group in groups.items():
            ckpt.restore_into(records, group, prefix)
        tr.optimizer.step_count = need("adamw_step")
        tr.global_iter = need("global_iter")
        tr.epochs_done = need("epochs_done")
        tr.iters_done_in_epoch = need("iters_done_in_epoch")
        tr.data_fingerprint = need("data_fingerprint")
        tr.t_rec.update_count = need("t_rec_updates")
        if tr.t_cl is not None:
            tr.t_cl.update_count = need("t_cl_updates")
        return tr


def patch_loss(feats, weight, match, teacher_feats, teacher_weight, sk):
    """The patch loss of the student's [B, M, hidden] `feats` against
    prototypes `weight`, and the mean entropy of its targets.

    Fold k's Sinkhorn targets, from the teacher head's [K, B, F, hidden]
    `teacher_feats` and its prototypes, are made when the cross entropy
    reaches the student rows `match` puts in fold k, as the factors (E, u,
    v) of Q with E in one [B*F, K_c] buffer that every fold reuses and
    that is freed once the last fold is read.
    """
    b, m = match[0].shape
    f = teacher_feats.shape[2]
    entropies = []

    def groups():
        table = np.empty((b * f, teacher_weight.shape[1]), np.float32)
        for i, fold in enumerate(teacher_feats):
            e, u, v, ent = pl.teacher_targets(
                fold, teacher_weight, sk.n_iters, sk.teacher_temperature,
                out=table)
            entropies.append(ent)
            at = np.flatnonzero(match[0] == i)    # student rows in fold i
            yield e, u, v, at // m * f + np.take(match[1], at), at

    loss = losses_mod.tempered_cross_entropy(
        groups(), feats.reshape((b * m, -1)), weight, sk.student_temperature)
    return loss, float(np.mean(entropies))


# -- the pretraining entry point ---------------------------------------------


def _data_fingerprint(dataset):
    """Record count plus a CRC-32 of the labels and then the images."""
    crc = zlib.crc32(np.ascontiguousarray(dataset.labels))
    return {"records": len(dataset),
            "crc32": zlib.crc32(np.ascontiguousarray(dataset.images), crc)}


def check_images(dataset, model_cfg):
    """Raise DataError unless the images fit the model's input shape."""
    want = (model_cfg.image_size,) * 2 + (model_cfg.in_channels,)
    if dataset.images.shape[1:] != want:
        raise DataError(f"images are {dataset.images.shape[1:]} per record; "
                        f"the model takes {want}")


def pretrain(config, dataset, out_dir, resume=None, max_iters=None):
    """Run (or resume) pretraining; writes metrics.csv and checkpoint.bin.

    `max_iters` (>= 1) caps total iterations for smoke runs. Returns the
    Trainer.
    """
    if max_iters is not None and max_iters < 1:
        raise ConfigError(f"max_iters {max_iters} must be >= 1")
    check_images(dataset, config.model)
    os.makedirs(out_dir, exist_ok=True)
    iters_per_epoch = len(dataset) // config.optim.batch_size
    if iters_per_epoch < 1:
        raise DataError(
            f"dataset of {len(dataset)} records is smaller than one batch "
            f"({config.optim.batch_size})")
    fingerprint = _data_fingerprint(dataset)
    if resume:
        trainer = Trainer.load(resume)
        if trainer.cfg.to_json() != config.to_json():
            raise DataError("resume checkpoint was built with a different config")
        if trainer.data_fingerprint != fingerprint:
            raise DataError("resume dataset differs from the one the "
                            "checkpoint was trained on")
    else:
        trainer = Trainer(config, iters_per_epoch=iters_per_epoch)
    trainer.data_fingerprint = fingerprint

    metrics_path = os.path.join(out_dir, "metrics.csv")
    new_file = not (resume and os.path.exists(metrics_path))
    mode = "a" if not new_file else "w"
    ckpt_path = os.path.join(out_dir, "checkpoint.bin")
    t0 = time.time()
    done = 0
    with open(metrics_path, mode) as mf:
        if new_file:
            mf.write(f"# config {config.to_json()}\n")
            mf.write(METRICS_HEADER + "\n")
        try:
            for epoch in range(trainer.epochs_done, config.optim.total_epochs):
                order = data_mod.epoch_order(len(dataset), config.seed, epoch)
                # a resumed epoch skips the batches it already consumed
                for it in range(trainer.iters_done_in_epoch, iters_per_epoch):
                    idx = order[it * config.optim.batch_size:
                                (it + 1) * config.optim.batch_size]
                    batch = data_mod.make_batch(
                        dataset, idx, config.seed, epoch, config.augment,
                        need_complex=(trainer.pseudo_enabled and
                                      config.augmentation_mode == "dual"))
                    last = (it == iters_per_epoch - 1)
                    rep, m_rec, m_cl, lr = trainer.train_step(
                        batch, epoch, it, at_epoch_end=last)
                    if trainer.global_iter % config.log_every == 0 or last:
                        mf.write(f"{epoch},{trainer.global_iter},"
                                 f"{rep.loss_m:.6f},{rep.loss_c:.6f},"
                                 f"{rep.loss_p:.6f},{rep.total:.6f},"
                                 f"{rep.patch_target_entropy:.6f},"
                                 f"{rep.class_target_entropy:.6f},"
                                 f"{m_rec:.6f},{m_cl:.6f},{lr:.8f},"
                                 f"{time.time() - t0:.3f}\n")
                    done += 1
                    if max_iters is not None and done >= max_iters:
                        trainer.epochs_done, trainer.iters_done_in_epoch = (
                            (epoch + 1, 0) if last else (epoch, it + 1))
                        trainer.save(ckpt_path)
                        return trainer
                trainer.epochs_done, trainer.iters_done_in_epoch = epoch + 1, 0
                trainer.save(ckpt_path)
        except NumericError:
            trainer.save(os.path.join(out_dir, "checkpoint.abort.bin"))
            raise
    return trainer


# -- evaluation -----------------------------------------------------------------


def encode_features(encoder, model_cfg, dataset, augment_cfg=None,
                    batch_size=256):
    """Frozen class-token features for every record (no masking, no crops)."""
    check_images(dataset, model_cfg)
    aug = augment_cfg or data_mod.AugmentConfig()
    n = len(dataset)
    feats = np.empty((n, model_cfg.embed_dim), np.float32)
    all_idx = np.arange(model_cfg.num_patches)
    for lo in range(0, n, batch_size):
        imgs = dataset.images[lo:lo + batch_size].astype(np.float32)
        imgs /= 255.0
        imgs = data_mod.standardize(imgs, aug)
        patches = patchify_batch(imgs, model_cfg.patch_size)
        with no_grad():
            tokens = encoder(patches, all_idx, class_only=True)
        feats[lo:lo + imgs.shape[0]] = tokens.data[:, 0, :]
    return feats


def linear_probe(f_train, train_labels, f_test, test_labels, probe_epochs,
                 seed=0, lr=0.01, batch_size=256):
    """Top-1 of a linear classifier on frozen `encode_features` output."""
    rng = np.random.default_rng(seed)
    d = f_train.shape[1]
    n_classes = int(max(train_labels.max(), test_labels.max())) + 1
    w = Tensor(rng.normal(0, 0.01, (d, n_classes)).astype(np.float32),
               requires_grad=True)
    b = Tensor(np.zeros(n_classes, np.float32), requires_grad=True)
    opt = AdamW({"w": w, "b": b}, lr=lr, weight_decay=0.0)
    onehot = np.eye(n_classes, dtype=np.float32)[train_labels]
    for _ in range(probe_epochs):
        order = rng.permutation(len(train_labels))
        for lo in range(0, len(order), batch_size):
            idx = order[lo:lo + batch_size]
            probs = softmax(linear(Tensor(f_train[idx]), w, b))
            loss = losses_mod.cross_entropy(onehot[idx], probs)
            opt.zero_grad()
            loss.backward()
            opt.step()
    pred = (f_test @ w.data + b.data).argmax(axis=1)
    return float((pred == test_labels).mean())


def knn_eval(train_feats, train_labels, test_feats, test_labels, k):
    """Cosine-similarity k-nearest-neighbor top-1 accuracy, over query
    blocks of KNN_BLOCK_ROWS rows. A tied neighbor goes to the lowest train
    index, a tied vote to the lowest label."""
    if k < 1:
        raise ValueError(f"knn_eval needs k >= 1, got {k}")

    def unit(x):
        return x / (np.linalg.norm(x, axis=1, keepdims=True) + 1e-12)

    train_t = unit(np.asarray(train_feats)).T
    test = unit(np.asarray(test_feats))
    labels, pred = np.asarray(train_labels), []
    k = min(k, len(labels))
    for lo in range(0, len(test), KNN_BLOCK_ROWS):
        dist = np.negative(test[lo:lo + KNN_BLOCK_ROWS] @ train_t)
        # every entry below the k-th smallest distance, then as many of
        # those tied at it as are still needed, lowest index first
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1, None]
        nbr = dist < kth
        tied = dist == kth
        need = k - nbr.sum(axis=1)
        over = np.flatnonzero(tied.sum(axis=1) > need)
        tied[over] &= np.cumsum(tied[over], axis=1) <= need[over, None]
        pred += [np.bincount(labels[row]).argmax() for row in nbr | tied]
    return float((np.array(pred) == np.asarray(test_labels)).mean())


# -- metrics export ----------------------------------------------------------


def export_metrics(run_dir, out_dir=None):
    """Re-emit metrics.csv (skipping corrupt rows) plus a summary text file.

    Returns (n_rows, n_skipped, summary dict).
    """
    out_dir = out_dir or run_dir
    src = os.path.join(run_dir, "metrics.csv")
    if not os.path.exists(src):
        raise DataError(f"no metrics.csv under {run_dir}")
    cols = METRICS_HEADER.split(",")
    rows, skipped, config_line = [], 0, None
    with open(src) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# config "):
                config_line = line[len("# config "):]
                continue
            if not line or line == METRICS_HEADER:
                continue
            parts = line.split(",")
            if len(parts) != len(cols):
                skipped += 1
                continue
            try:
                rows.append([int(parts[0]), int(parts[1])] +
                            [float(x) for x in parts[2:]])
            except ValueError:
                skipped += 1
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "export.csv"), "w") as fh:
        fh.write(METRICS_HEADER + "\n")
        for r in rows:
            fh.write(",".join(str(x) for x in r) + "\n")
    summary = {}
    if rows:
        arr = np.array([r[2:] for r in rows], dtype=np.float64)
        names = cols[2:]
        final = {n: arr[-1, i] for i, n in enumerate(names)}
        summary = {
            "rows": len(rows), "skipped": skipped,
            "final_loss_m": final["loss_m"], "final_loss_c": final["loss_c"],
            "final_loss_p": final["loss_p"], "final_total": final["total"],
            "min_patch_entropy": float(arr[:, names.index("patch_entropy")].min()),
            "lr_first": float(arr[0, names.index("lr")]),
            "lr_last": float(arr[-1, names.index("lr")]),
            "m_rec_last": final["m_rec"], "m_cl_last": final["m_cl"],
        }
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        if config_line:
            fh.write(f"config: {config_line}\n")
        for key, val in summary.items():
            fh.write(f"{key}: {val}\n")
        if skipped:
            fh.write(f"warning: skipped {skipped} corrupt rows\n")
    return len(rows), skipped, summary
