"""Masking and fold-splitting tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualmim.errors import ConfigError
from dualmim.masking import gen_mask, split_folds, validate_masking


def test_mask_counts_196():
    rng = np.random.default_rng(0)
    spec = gen_mask(196, 0.75, rng)
    assert spec.masked_indices.size == 147
    assert spec.visible_indices.size == 49


def test_mask_counts_64():
    rng = np.random.default_rng(0)
    spec = gen_mask(64, 0.75, rng)
    assert spec.masked_indices.size == 48
    assert spec.visible_indices.size == 16
    assert np.array_equal(spec.masked_indices, np.unique(spec.masked_indices))
    # masked/visible partition the index set
    union = np.union1d(spec.masked_indices, spec.visible_indices)
    assert np.array_equal(union, np.arange(64))


def test_mask_determinism():
    a = gen_mask(64, 0.75, np.random.default_rng(123))
    b = gen_mask(64, 0.75, np.random.default_rng(123))
    assert np.array_equal(a.masked_indices, b.masked_indices)
    assert np.array_equal(a.visible_indices, b.visible_indices)


def test_folds_147_into_3x49():
    spec = gen_mask(196, 0.75, np.random.default_rng(1))
    folds = split_folds(spec, 3, np.random.default_rng(2))
    assert folds.shape == (3, 49)
    merged = np.sort(folds.reshape(-1))
    assert np.array_equal(merged, spec.masked_indices)


def test_folds_48_into_3x16():
    spec = gen_mask(64, 0.75, np.random.default_rng(1))
    folds = split_folds(spec, 3, np.random.default_rng(2))
    assert folds.shape == (3, 16)


def test_single_fold_is_masked_set():
    spec = gen_mask(64, 0.75, np.random.default_rng(3))
    folds = split_folds(spec, 1, np.random.default_rng(4))
    assert folds.shape == (1, 48)
    assert set(folds[0].tolist()) == set(spec.masked_indices.tolist())


def test_non_divisible_rejected():
    with pytest.raises(ConfigError, match="divide evenly"):
        validate_masking(64, 0.75, 5)  # 48 masked, K=5


def test_degenerate_ratios_rejected():
    with pytest.raises(ConfigError):
        validate_masking(64, 0.0, 3)
    with pytest.raises(ConfigError):
        validate_masking(64, 1.0, 3)
    with pytest.raises(ConfigError):
        validate_masking(64, 0.001, 3)  # rounds to zero masked



@settings(derandomize=True, max_examples=100, deadline=10000, database=None)
@given(k=st.integers(1, 8), f=st.integers(1, 16), visible=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_split_folds_properties(k, f, visible, seed):
    """Any even split: K rows of F tokens, pairwise disjoint, whose union
    is exactly the masked set."""
    n = k * f + visible
    rng = np.random.default_rng(seed)
    assert validate_masking(n, k * f / n, k) == k * f
    spec = gen_mask(n, k * f / n, rng)
    folds = split_folds(spec, k, rng)
    assert folds.shape == (k, f)
    assert np.unique(folds).size == k * f
    assert np.array_equal(np.sort(folds.reshape(-1)), spec.masked_indices)
