"""Random token masking and the K-fold partition of masked tokens.

A MASKED token is dropped from the student input and handed to the
teachers, which process the masked set split into K equal folds; the
student sees the visible set.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass
class MaskSpec:
    visible_indices: np.ndarray  # sorted ascending
    masked_indices: np.ndarray   # sorted ascending


def validate_masking(n_tokens, ratio, num_folds):
    """Reject configurations whose fold arithmetic does not come out even."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"mask ratio must be in (0, 1), got {ratio}")
    if num_folds < 1:
        raise ConfigError(f"fold count must be >= 1, got {num_folds}")
    n_masked = int(round(ratio * n_tokens))
    if n_masked == 0 or n_masked == n_tokens:
        raise ConfigError(
            f"mask ratio {ratio} leaves no {'masked' if n_masked == 0 else 'visible'} "
            f"tokens for N={n_tokens}")
    if n_masked % num_folds != 0:
        raise ConfigError(
            f"masked count must divide evenly into folds: N={n_tokens}, "
            f"ratio={ratio} -> {n_masked} masked, K={num_folds}")
    return n_masked


def gen_mask(n_tokens, ratio, rng):
    """Uniformly random MaskSpec with round(ratio*N) masked tokens."""
    n_masked = int(round(ratio * n_tokens))
    perm = rng.permutation(n_tokens)
    return MaskSpec(visible_indices=np.sort(perm[n_masked:]),
                    masked_indices=np.sort(perm[:n_masked]))


def split_folds(mask, num_folds, rng):
    """Randomly permute the masked indices and chunk them into K folds.

    Returns a [K, F] index array; its rows are disjoint and together cover
    the masked set.
    """
    n_masked = mask.masked_indices.shape[0]
    if n_masked % num_folds != 0:
        raise ConfigError(
            f"{n_masked} masked tokens do not split into {num_folds} folds")
    return rng.permutation(mask.masked_indices).reshape(num_folds, -1)
