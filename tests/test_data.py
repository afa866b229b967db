"""CIFAR-10 binary format, augmentation, and batching tests."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter1d

from augment_oracle import complex_augment, simple_augment
from dualmim.data import (AugmentConfig, RECORD_BYTES, _gaussian_blur,
                          epoch_order, load_cifar10, make_batch,
                          make_synthetic_cifar, record_rng, solarize,
                          standardize, write_cifar10)
from dualmim.errors import DataError

# every extra stage of the complex view off, or forced on
NO_EXTRAS = dict(jitter_prob=0.0, grayscale_prob=0.0, blur_prob=0.0,
                 solarize_prob=0.0)
ALL_EXTRAS = dict(jitter_prob=1.0, grayscale_prob=1.0, blur_prob=1.0,
                  solarize_prob=1.0)


def _fixture(tmp_path, n=4, seed=0):
    path = str(tmp_path / "batch.bin")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, n).astype(np.uint8)
    images = rng.integers(0, 256, (n, 32, 32, 3)).astype(np.uint8)
    write_cifar10(path, labels, images)
    return path, labels, images


def test_record_count(tmp_path):
    path, labels, _ = _fixture(tmp_path, n=7)
    ds = load_cifar10(path)
    assert len(ds) == 7
    assert np.array_equal(ds.labels, labels)


def test_truncated_file_reports_sizes(tmp_path):
    path, _, _ = _fixture(tmp_path, n=2)
    raw = Path(path).read_bytes()
    with open(path, "wb") as fh:
        fh.write(raw[:-10])
    with pytest.raises(DataError) as e:
        load_cifar10(path)
    assert str(2 * RECORD_BYTES - 10) in str(e.value)
    assert str(RECORD_BYTES) in str(e.value)


def test_bad_label_reports_offset(tmp_path):
    path, _, _ = _fixture(tmp_path, n=3)
    raw = bytearray(Path(path).read_bytes())
    raw[RECORD_BYTES] = 250  # label byte of record 1
    with open(path, "wb") as fh:
        fh.write(bytes(raw))
    with pytest.raises(DataError) as e:
        load_cifar10(path)
    assert "record 1" in str(e.value)
    assert f"byte offset {RECORD_BYTES}" in str(e.value)


def test_write_read_roundtrip(tmp_path):
    path, labels, images = _fixture(tmp_path, n=5)
    ds = load_cifar10(path)
    assert np.array_equal(ds.images, images)
    assert np.array_equal(ds.labels, labels)
    # first record roundtrips bit-exactly through a second write
    path2 = str(tmp_path / "copy.bin")
    write_cifar10(path2, ds.labels[:1], ds.images[:1])
    assert Path(path2).read_bytes() == Path(path).read_bytes()[:RECORD_BYTES]


def test_synthetic_fixture_loads(tmp_path):
    path = str(tmp_path / "syn.bin")
    make_synthetic_cifar(path, 20, seed=1)
    ds = load_cifar10(path)
    assert len(ds) == 20
    assert ds.labels.max() < 10


def test_double_flip_is_identity():
    img = np.random.default_rng(2).random((32, 32, 3)).astype(np.float32)
    assert np.array_equal(img[:, ::-1][:, ::-1], img)


def test_forced_identity_crop_no_flip():
    cfg = AugmentConfig(crop_scale=(1.0, 1.0), crop_ratio=(1.0, 1.0),
                        flip_prob=0.0)
    img = np.random.default_rng(3).random((32, 32, 3)).astype(np.float32)
    out = simple_augment(img, np.random.default_rng(4), cfg)
    assert np.allclose(out, standardize(img, cfg), atol=1e-6)


def test_simple_augment_deterministic():
    img = np.random.default_rng(5).random((32, 32, 3)).astype(np.float32)
    a = simple_augment(img, np.random.default_rng(6))
    b = simple_augment(img, np.random.default_rng(6))
    assert np.array_equal(a, b)


def test_complex_augment_degenerates_to_simple():
    cfg = AugmentConfig(jitter_prob=0.0, grayscale_prob=0.0, blur_prob=0.0,
                        solarize_prob=0.0)
    img = np.random.default_rng(7).random((32, 32, 3)).astype(np.float32)
    a = simple_augment(img, np.random.default_rng(8), cfg)
    b = complex_augment(img, np.random.default_rng(8), cfg)
    assert np.array_equal(a, b)


def test_gaussian_blur_matches_scipy():
    # scipy's separable filter with edge padding and truncate=4.0 is the
    # oracle; sigmas past the default range give kernels wider than the
    # image, whose taps clamp at both edges. One batch holds all 50 images
    # (the same draws as 50 single-image draws), each with its own sigma
    rng = np.random.default_rng(20)
    sigmas = np.concatenate([rng.uniform(0.1, 2.0, 40),
                             rng.uniform(2.0, 10.0, 10)])
    imgs = rng.random((50, 32, 32, 3)).astype(np.float32)
    out = _gaussian_blur(imgs, sigmas)
    assert out.dtype == np.float32 and out.shape == imgs.shape
    for img, sigma, blurred in zip(imgs, sigmas, out):
        ref = gaussian_filter1d(img, sigma, axis=0, mode="nearest")
        ref = gaussian_filter1d(ref, sigma, axis=1, mode="nearest")
        assert np.abs(blurred - ref).max() < 1e-6


def test_grayscale_channels_identical():
    cfg = AugmentConfig(jitter_prob=0.0, grayscale_prob=1.0, blur_prob=0.0,
                        solarize_prob=0.0, mean=(0, 0, 0), std=(1, 1, 1))
    img = np.random.default_rng(9).random((32, 32, 3)).astype(np.float32)
    out = complex_augment(img, np.random.default_rng(10), cfg)
    assert np.allclose(out[..., 0], out[..., 1], atol=1e-6)
    assert np.allclose(out[..., 1], out[..., 2], atol=1e-6)


def test_solarize_piecewise_involution():
    vals = np.arange(256, dtype=np.float32) / 255.0
    thr = 0.5
    once = solarize(vals, thr)
    twice = solarize(once, thr)
    below = vals < thr
    # pixels below the threshold are untouched by both passes
    assert np.array_equal(twice[below], vals[below])
    # pixels whose inverted value still lands at/above threshold flip back
    flipped = (vals >= thr) & (1.0 - vals >= thr)
    assert np.allclose(twice[flipped], vals[flipped], atol=1e-7)


def test_epoch_order_is_permutation():
    order = epoch_order(100, seed=0, epoch=0)
    assert np.array_equal(np.sort(order), np.arange(100))


def test_epoch_order_seeded():
    assert np.array_equal(epoch_order(50, 3, 2), epoch_order(50, 3, 2))


def test_epoch_orders_differ_across_epochs():
    assert not np.array_equal(epoch_order(64, 0, 0), epoch_order(64, 0, 1))


def test_make_batch_shapes_and_determinism(tmp_path):
    path, _, _ = _fixture(tmp_path, n=8)
    ds = load_cifar10(path)
    idx = np.arange(6)
    a = make_batch(ds, idx, seed=0, epoch=0)
    b = make_batch(ds, idx, seed=0, epoch=0)
    assert a.simple.shape == (6, 32, 32, 3)
    assert a.complex.shape == (6, 32, 32, 3)
    assert np.array_equal(a.simple, b.simple)
    assert np.array_equal(a.complex, b.complex)
    c = make_batch(ds, idx, seed=0, epoch=0, need_complex=False)
    assert c.complex is None
    assert np.array_equal(c.simple, a.simple)


@pytest.mark.parametrize("extras", [
    {}, NO_EXTRAS, ALL_EXTRAS, dict(jitter_prob=1.0), dict(grayscale_prob=1.0),
    dict(blur_prob=1.0), dict(solarize_prob=1.0),
    dict(crop_scale=(1.0, 1.0), crop_ratio=(1.0, 1.0))],
    ids=["default", "none", "all", "jitter", "grayscale", "blur", "solarize",
         "full_crop"])
def test_make_batch_matches_per_image_oracle(tmp_path, extras):
    # both views, bit for bit, against the per-image pipelines run on each
    # record's own streams
    path = str(tmp_path / "syn.bin")
    make_synthetic_cifar(path, 64, seed=3)
    ds = load_cifar10(path)
    cfg = AugmentConfig(**extras)
    for epoch in (0, 1):
        idx = epoch_order(64, 5, epoch)[:40]
        batch = make_batch(ds, idx, 5, epoch, cfg)
        assert batch.simple.dtype == batch.complex.dtype == np.float32
        for row, i in enumerate(idx):
            img = ds.images[i].astype(np.float32) / 255.0
            assert np.array_equal(batch.simple[row], simple_augment(
                img, record_rng(5, epoch, i, 0), cfg))
            assert np.array_equal(batch.complex[row], complex_augment(
                img, record_rng(5, epoch, i, 1), cfg))
            if extras is NO_EXTRAS:
                # with every extra stage off, the complex view is the
                # simple pipeline run on the view-1 stream
                assert np.array_equal(batch.complex[row], simple_augment(
                    img, record_rng(5, epoch, i, 1), cfg))


@pytest.mark.parametrize("extras", [{}, ALL_EXTRAS], ids=["default", "all"])
def test_make_batch_rows_depend_only_on_their_record(tmp_path, extras):
    # record_rng's contract: a row is the same alone, in any batch and at
    # any position, so the batch split (and worker count) cannot change it
    path, _, _ = _fixture(tmp_path, n=24)
    ds = load_cifar10(path)
    cfg = AugmentConfig(**extras)
    idx = np.arange(3, 19)
    batch = make_batch(ds, idx, 7, 2, cfg)
    perm = np.random.default_rng(0).permutation(len(idx))
    shuffled = make_batch(ds, idx[perm], 7, 2, cfg)
    for view in ("simple", "complex"):
        rows = getattr(batch, view)
        assert np.array_equal(getattr(shuffled, view), rows[perm])
        for i in range(len(idx)):
            alone = make_batch(ds, idx[i:i + 1], 7, 2, cfg)
            assert np.array_equal(getattr(alone, view)[0], rows[i])
