"""Dual-teacher masked-image-modeling pretraining, desk scale.

A sparse ViT student reconstructs token embeddings of masked patches
against a slowly-updated EMA teacher, while an auxiliary pseudo-labeling
task matches Sinkhorn-balanced cluster assignments from a second,
fast-updated EMA teacher across K masked-token folds.
"""

from .config import TrainConfig, load_config
from .errors import ConfigError, DataError, NumericError
from .losses import LossReport, LossWeights
from .masking import MaskSpec, gen_mask, split_folds
from .tensor import Tensor, concat, gelu, layernorm, softmax
from .train import Trainer, knn_eval, linear_probe, pretrain

__all__ = [
    "ConfigError", "DataError", "LossReport", "LossWeights",
    "MaskSpec", "NumericError", "Tensor", "TrainConfig", "Trainer",
    "concat", "gelu", "gen_mask", "knn_eval", "layernorm", "linear_probe",
    "load_config", "pretrain", "softmax", "split_folds",
]

__version__ = "0.1.0"
