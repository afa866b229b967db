"""CIFAR-10 binary ingestion, the two augmentation pipelines, and batching.

Record format (bit-exact CIFAR-10 binary): 3073 bytes per record, one
label byte (< 10) followed by 1024 R, 1024 G, 1024 B bytes, row-major
within each channel plane.

Two views per image: `simple_augment` (crop + flip) feeds the student and
the reconstruction teacher; `complex_augment` (adds color jitter,
grayscale, blur, solarization) feeds the pseudo-labeling teacher. Both
views of one step always come from the same source image.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

RECORD_BYTES = 3073
IMAGE_SHAPE = (32, 32, 3)

# channel statistics of the packaged dataset, fixed for deterministic builds
DEFAULT_MEAN = (0.4914, 0.4822, 0.4465)
DEFAULT_STD = (0.2470, 0.2435, 0.2616)


@dataclass
class Dataset:
    labels: np.ndarray  # [n] uint8
    images: np.ndarray  # [n, 32, 32, 3] uint8

    def __len__(self):
        return self.labels.shape[0]


@dataclass
class AugmentConfig:
    crop_scale: tuple = (0.2, 1.0)
    crop_ratio: tuple = (0.75, 4.0 / 3.0)
    flip_prob: float = 0.5
    jitter_prob: float = 0.8
    brightness: float = 0.4
    contrast: float = 0.4
    saturation: float = 0.2
    hue: float = 0.1
    grayscale_prob: float = 0.2
    blur_prob: float = 0.5
    blur_sigma: tuple = (0.1, 2.0)
    solarize_prob: float = 0.2
    solarize_threshold: float = 0.5
    mean: tuple = DEFAULT_MEAN
    std: tuple = DEFAULT_STD


# -- binary format ----------------------------------------------------------

def load_cifar10(path):
    """Read one CIFAR-10 binary batch file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) % RECORD_BYTES != 0:
        full = len(raw) // RECORD_BYTES
        raise DataError(
            f"{path}: size {len(raw)} is not a multiple of {RECORD_BYTES} "
            f"(last full record ends at byte {full * RECORD_BYTES})")
    buf = np.frombuffer(raw, dtype=np.uint8).reshape(-1, RECORD_BYTES)
    labels = buf[:, 0]
    bad = np.nonzero(labels >= 10)[0]
    if bad.size:
        raise DataError(
            f"{path}: invalid label {labels[bad[0]]} at record {bad[0]} "
            f"(byte offset {bad[0] * RECORD_BYTES})")
    images = buf[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
    return Dataset(labels=labels.copy(), images=np.ascontiguousarray(images))


def write_cifar10(path, labels, images):
    """Write records in CIFAR-10 binary layout (inverse of load_cifar10)."""
    labels = np.asarray(labels, dtype=np.uint8)
    images = np.asarray(images, dtype=np.uint8)
    planes = images.transpose(0, 3, 1, 2).reshape(len(labels), 3072)
    with open(path, "wb") as fh:
        fh.write(np.concatenate([labels[:, None], planes], axis=1).tobytes())


def load_data_dir(path):
    """Concatenate all *.bin files under `path` (or load a single file)."""
    if os.path.isfile(path):
        return load_cifar10(path)
    if not os.path.isdir(path):
        raise DataError(f"data path does not exist: {path}")
    files = sorted(f for f in os.listdir(path) if f.endswith(".bin"))
    if not files:
        raise DataError(f"no .bin files under {path}")
    parts = [load_cifar10(os.path.join(path, f)) for f in files]
    return Dataset(labels=np.concatenate([p.labels for p in parts]),
                   images=np.concatenate([p.images for p in parts]))


def make_synthetic_cifar(path, n, seed, noise=0.35):
    """Write a CIFAR-format fixture with 10 learnable synthetic classes.

    Each class is a distinct oriented sinusoid pattern with a
    class-specific color balance, plus per-image random phase, amplitude
    and additive noise.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    images = np.empty((n, 32, 32, 3), dtype=np.uint8)
    for i, lab in enumerate(labels):
        angle = lab * np.pi / 10.0
        freq = 0.25 + 0.08 * (lab % 5)
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.uniform(0.3, 0.5)
        wave = np.sin(freq * (np.cos(angle) * xx + np.sin(angle) * yy) + phase)
        base = 0.5 + amp * wave
        color = 0.15 * np.array([np.cos(lab), np.cos(lab + 2.1), np.cos(lab + 4.2)])
        img = base[:, :, None] + color[None, None, :]
        img += rng.normal(0.0, noise, size=(32, 32, 3))
        images[i] = (np.clip(img, 0, 1) * 255).astype(np.uint8)
    write_cifar10(path, labels, images)


# -- augmentation primitives -----------------------------------------------

def _resize_bilinear(img, out_h, out_w):
    h, w = img.shape[:2]
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * h / out_h - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * w / out_w - 0.5
    y0 = np.clip(np.floor(ys), 0, h - 1).astype(np.intp)
    x0 = np.clip(np.floor(xs), 0, w - 1).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :, None]
    a = img[y0][:, x0] * (1 - wy) * (1 - wx)
    b = img[y0][:, x1] * (1 - wy) * wx
    c = img[y1][:, x0] * wy * (1 - wx)
    d = img[y1][:, x1] * wy * wx
    return (a + b + c + d).astype(np.float32)


def _draw_crop(rng, h, w, scale, ratio):
    """Random-resized-crop box; falls back to full image if no fit in 10 tries."""
    area = h * w
    for _ in range(10):
        target = rng.uniform(*scale) * area
        log_r = rng.uniform(np.log(ratio[0]), np.log(ratio[1]))
        cw = int(round(np.sqrt(target * np.exp(log_r))))
        ch = int(round(np.sqrt(target / np.exp(log_r))))
        if 0 < cw <= w and 0 < ch <= h:
            top = int(rng.integers(0, h - ch + 1))
            left = int(rng.integers(0, w - cw + 1))
            return top, left, ch, cw
    return 0, 0, h, w


def _crop_flip(img, rng, cfg):
    h, w = img.shape[:2]
    top, left, ch, cw = _draw_crop(rng, h, w, cfg.crop_scale, cfg.crop_ratio)
    view = img[top:top + ch, left:left + cw]
    if (ch, cw) != (h, w):
        view = _resize_bilinear(view, h, w)
    else:
        view = view.astype(np.float32)
    if rng.random() < cfg.flip_prob:
        view = view[:, ::-1]
    return np.ascontiguousarray(view)


def _rgb_to_hsv(rgb):
    mx = rgb.max(axis=-1)
    mn = rgb.min(axis=-1)
    diff = mx - mn
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    safe = np.where(diff == 0, 1.0, diff)
    h = np.where(mx == r, (g - b) / safe % 6.0,
                 np.where(mx == g, (b - r) / safe + 2.0, (r - g) / safe + 4.0))
    h = np.where(diff == 0, 0.0, h) / 6.0
    s = np.where(mx == 0, 0.0, diff / np.where(mx == 0, 1.0, mx))
    return h, s, mx


def _hsv_to_rgb(h, s, v):
    h6 = (h % 1.0) * 6.0
    i = np.floor(h6).astype(int) % 6
    f = h6 - np.floor(h6)
    p, q, t = v * (1 - s), v * (1 - s * f), v * (1 - s * (1 - f))
    choices = [np.stack(x, axis=-1) for x in
               [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)]]
    out = np.zeros(h.shape + (3,), dtype=np.float32)
    for k, c in enumerate(choices):
        out[i == k] = c[i == k]
    return out


def _color_jitter(img, rng, cfg):
    # torchvision-style factor draws, applied in a fixed order
    img = img * rng.uniform(1 - cfg.brightness, 1 + cfg.brightness)
    mean = img.mean()
    img = mean + (img - mean) * rng.uniform(1 - cfg.contrast, 1 + cfg.contrast)
    gray = img @ np.array([0.299, 0.587, 0.114], np.float32)
    img = gray[..., None] + (img - gray[..., None]) * rng.uniform(
        1 - cfg.saturation, 1 + cfg.saturation)
    img = np.clip(img, 0.0, 1.0)
    h, s, v = _rgb_to_hsv(img)
    h = (h + rng.uniform(-cfg.hue, cfg.hue)) % 1.0
    return _hsv_to_rgb(h, s, v)


def _grayscale(img):
    gray = img @ np.array([0.299, 0.587, 0.114], np.float32)
    return np.repeat(gray[..., None], 3, axis=-1)


def _gaussian_blur(img, sigma):
    """Separable Gaussian blur of a square [S, S, C] image by one [S, S]
    matrix per axis, radius int(4 sigma + 0.5); taps past an edge land on
    the edge pixel, as in scipy.ndimage's mode="nearest"."""
    size, radius = img.shape[0], int(4.0 * sigma + 0.5)
    offsets = np.arange(-radius, radius + 1)
    taps = np.exp(-0.5 / (sigma * sigma) * offsets ** 2)
    rows = np.arange(size)[:, None]
    m = np.zeros((size, size), np.float32)
    np.add.at(m, (rows, np.clip(rows + offsets, 0, size - 1)), taps / taps.sum())
    return m @ (m @ img.reshape(size, -1)).reshape(img.shape)


def solarize(img, threshold):
    """Invert pixels at or above the threshold; below it, identity."""
    return np.where(img >= threshold, 1.0 - img, img).astype(np.float32)


def standardize(img, cfg):
    mean = np.asarray(cfg.mean, np.float32)
    std = np.asarray(cfg.std, np.float32)
    return (img - mean) / std


# -- the two pipelines -------------------------------------------------------

def simple_augment(image, rng, cfg=None):
    """Crop + flip + standardize. `image` is [32, 32, 3] float in [0, 1]."""
    cfg = cfg or AugmentConfig()
    return standardize(_crop_flip(image, rng, cfg), cfg)


def complex_augment(image, rng, cfg=None):
    """Crop + flip + jitter + grayscale + blur + solarize + standardize.

    The crop/flip draws come first, in the same order as simple_augment,
    so forcing every extra probability to 0 reproduces it exactly.
    """
    cfg = cfg or AugmentConfig()
    view = _crop_flip(image, rng, cfg)
    if cfg.jitter_prob > 0 and rng.random() < cfg.jitter_prob:
        view = _color_jitter(view, rng, cfg)
    if cfg.grayscale_prob > 0 and rng.random() < cfg.grayscale_prob:
        view = _grayscale(view)
    if cfg.blur_prob > 0 and rng.random() < cfg.blur_prob:
        view = _gaussian_blur(view, rng.uniform(*cfg.blur_sigma))
    if cfg.solarize_prob > 0 and rng.random() < cfg.solarize_prob:
        view = solarize(view, cfg.solarize_threshold)
    return standardize(view, cfg)


# -- batching -----------------------------------------------------------------

def epoch_order(n, seed, epoch):
    """Seeded permutation of record indices for one epoch."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, epoch, 0xDA7A]))
    return rng.permutation(n)


def record_rng(seed, epoch, record_index, view_id):
    """Independent RNG stream per (record, view); worker-count independent."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, epoch, int(record_index), view_id]))


@dataclass
class Batch:
    simple: np.ndarray          # [B, 32, 32, 3] standardized
    complex: np.ndarray         # [B, 32, 32, 3] standardized (or None)
    labels: np.ndarray
    record_indices: np.ndarray  # provenance: source record per row


def make_batch(dataset, indices, seed, epoch, cfg=None, need_complex=True):
    """Augment the named records into one training batch, deterministically."""
    cfg = cfg or AugmentConfig()
    simple = np.empty((len(indices), 32, 32, 3), np.float32)
    comp = np.empty_like(simple) if need_complex else None
    for row, idx in enumerate(indices):
        img = dataset.images[idx].astype(np.float32) / 255.0
        simple[row] = simple_augment(img, record_rng(seed, epoch, idx, 0), cfg)
        if need_complex:
            comp[row] = complex_augment(img, record_rng(seed, epoch, idx, 1), cfg)
    return Batch(simple=simple, complex=comp,
                 labels=dataset.labels[np.asarray(indices)],
                 record_indices=np.asarray(indices))
