"""End-to-end miniature pretraining run.

Generates a small synthetic dataset, pretrains a tiny dual-teacher model for
two epochs, then evaluates the frozen class-token features with a linear
probe and a kNN classifier. Runs in a few seconds on a laptop CPU. The same
flow is available from the command line:

    dualmim make-data --data-dir /tmp/demo.bin --n 512
    dualmim pretrain --data-dir /tmp/demo.bin --out /tmp/demo_run \
        --model.embed_dim 32 --optim.total_epochs 2
"""

import os
import tempfile

from dualmim.config import TrainConfig
from dualmim.data import load_cifar10, make_synthetic_cifar
from dualmim.train import (encode_features, export_metrics, knn_eval,
                           linear_probe, pretrain)
from dualmim.vit import ProjectionHeadConfig, ViTConfig

workdir = tempfile.mkdtemp(prefix="dualmim_demo_")
data_path = os.path.join(workdir, "train.bin")
make_synthetic_cifar(data_path, n=768, seed=0, noise=0.2)
ds = load_cifar10(data_path)
train_ds = type(ds)(labels=ds.labels[:512], images=ds.images[:512])
test_ds = type(ds)(labels=ds.labels[512:], images=ds.images[512:])

cfg = TrainConfig(
    model=ViTConfig(image_size=32, patch_size=8, embed_dim=32, depth=2,
                    num_heads=2, decoder_depth=1, decoder_dim=32),
    head=ProjectionHeadConfig(hidden_dim=16, output_dim=64),
)
cfg.optim.batch_size = 64
cfg.optim.total_epochs = 2
cfg.optim.warmup_epochs = 1
cfg.validate()

out = os.path.join(workdir, "run")
print(f"pretraining 2 epochs on 512 synthetic images -> {out}")
trainer = pretrain(cfg, train_ds, out)

n_rows, n_skipped, summary = export_metrics(out)
print(f"metrics: {n_rows} rows, final total loss "
      f"{summary['final_total']:.4f}, min patch entropy "
      f"{summary['min_patch_entropy']:.3f}")

# both evaluations read the same frozen class-token features; at this
# miniature scale the linear probe is noisy, and the kNN accuracy is the
# more telling readout
feats_tr = encode_features(trainer.encoder, cfg.model, train_ds)
feats_te = encode_features(trainer.encoder, cfg.model, test_ds)
acc = linear_probe(feats_tr, train_ds.labels, feats_te, test_ds.labels,
                   probe_epochs=30, lr=0.03, batch_size=64)
print(f"linear probe on frozen features: {acc * 100:.1f}%")

knn = knn_eval(feats_tr, train_ds.labels, feats_te, test_ds.labels, k=5)
print(f"5-NN on frozen features: {knn * 100:.1f}%")
