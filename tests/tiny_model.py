"""The tiny model the composed-loss gradient check and the determinism
tests run on, the frozen-target loss closure that `f64_oracle` mirrors,
and the default-shape patch loss the memory and thread-count pins run.
"""

import hashlib

import numpy as np

from dualmim import pseudolabel as pl
from dualmim.config import TrainConfig
from dualmim.data import Batch
from dualmim.tensor import Tensor
from dualmim.train import Trainer, patch_loss
from dualmim.vit import ProjectionHeadConfig, ViTConfig


def tiny_config(prototypes=8):
    """16-token desk-minimum config used by the composed-loss check."""
    cfg = TrainConfig(
        model=ViTConfig(image_size=16, patch_size=4, embed_dim=8, depth=2,
                        num_heads=2, mlp_ratio=2.0, decoder_depth=1,
                        decoder_dim=8),
        head=ProjectionHeadConfig(num_shared_layers=2, hidden_dim=16,
                                  output_dim=prototypes),
    )
    cfg.optim.batch_size = 2
    cfg.optim.total_epochs = 2
    cfg.optim.warmup_epochs = 1
    return cfg.validate()


def composed_setup(seed=0):
    """Build the tiny model, one batch, and a frozen-target loss closure.

    Teacher targets and the patch matching are computed once and frozen,
    matching the stop-gradient semantics of the training objective: `build()`
    stubs `nearest_patch_match_batch` to return the frozen match, so it is a
    pure function of the student parameters.

    Returns (trainer, batch, ctx, match, build) where `ctx` is the frozen
    prepare_step output and `build()` re-runs the student forward and
    returns the total loss tensor.
    """
    cfg = tiny_config()
    trainer = Trainer(cfg, iters_per_epoch=1)
    rng = np.random.default_rng(seed)
    imgs = rng.normal(0, 1, (2, 16, 16, 3)).astype(np.float32)
    batch = Batch(simple=imgs, complex=imgs[::-1].copy())
    ctx = trainer.prepare_step(batch, 0, 0)
    _, match = trainer.compute_loss(batch, *ctx, train=False)

    def build():
        real = pl.nearest_patch_match_batch
        pl.nearest_patch_match_batch = lambda *_: match
        try:
            report, _ = trainer.compute_loss(batch, *ctx, train=False)
        finally:
            pl.nearest_patch_match_batch = real
        return report.total_tensor

    return trainer, batch, ctx, match, build


def default_patch_loss_args(seed=0):
    """`train.patch_loss` arguments at the default config's shapes (batch
    128, K = 3 folds of F = 16 of the 48 masked positions, hidden 16,
    K_c = 4096): unit student and teacher feature rows, unit prototype
    columns, a random match. The student features and prototypes are
    arrays; wrap them as Tensors to take gradients."""
    cfg = TrainConfig()
    b, k = cfg.optim.batch_size, cfg.masking.num_folds
    m = int(round(cfg.masking.ratio * cfg.model.num_patches))
    h, kc = cfg.head.hidden_dim, cfg.head.output_dim
    rng = np.random.default_rng(seed)

    def unit(shape, axis):
        a = rng.standard_normal(shape).astype(np.float32)
        return a / np.linalg.norm(a, axis=axis, keepdims=True)

    match = (rng.integers(0, k, (b, m)), rng.integers(0, m // k, (b, m)),
             None)
    return (unit((b, m, h), -1), unit((h, kc), 0), match,
            unit((k, b, m // k, h), -1), unit((h, kc), 0), cfg.sinkhorn)


def patch_loss_digest(seed=0):
    """SHA-256 of one default-shape `patch_loss` call: the loss, its
    entropy and both gradients."""
    feats, weight, *rest = default_patch_loss_args(seed)
    x = Tensor(feats, requires_grad=True)
    w = Tensor(weight, requires_grad=True)
    loss, entropy = patch_loss(x, w, *rest)
    loss.backward()
    h = hashlib.sha256()
    for a in (loss.data, np.float64(entropy), x.grad, w.grad):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()
