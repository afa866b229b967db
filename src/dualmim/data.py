"""CIFAR-10 binary ingestion, the two augmentation pipelines, and batching.

Record format (bit-exact CIFAR-10 binary): 3073 bytes per record, one
label byte (< 10) followed by 1024 R, 1024 G, 1024 B bytes, row-major
within each channel plane.

Two views per image: the simple view (crop + flip) feeds the student and
the reconstruction teacher; the complex view (adds color jitter,
grayscale, blur, solarization) feeds the pseudo-labeling teacher. Both
views of one step always come from the same source image.
"""

import os
from dataclasses import dataclass

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
    try:
        np.concatenate([labels[:, None], planes], axis=1).tofile(path)
    except OSError as e:
        raise DataError(f"cannot write {path}: {e.strerror}") from e


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


# -- augmentation stages: each acts on a whole [n, S, S, 3] batch ---------------

GRAY = np.array([0.299, 0.587, 0.114], np.float32)
# _hsv_to_rgb's channel sources by hue sector, as indices into (v, q, p, t)
HSV_SECTORS = np.array([[0, 3, 2], [1, 0, 2], [2, 0, 3],
                        [2, 1, 0], [3, 2, 0], [0, 2, 1]])


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


def _resample_matrix(start, length, size):
    """[n, size, size] bilinear weights that resize source pixels
    start..start+length-1 to `size` outputs, half-pixel centred, with taps
    clamped to the crop's edge."""
    length = length[:, None]
    pos = (np.arange(size, dtype=np.float64) + 0.5) * length / size - 0.5
    lo = np.clip(np.floor(pos), 0, length - 1).astype(np.intp)
    hi = np.minimum(lo + 1, length - 1)
    frac = np.clip(pos - lo, 0.0, 1.0)
    img, out = np.indices(lo.shape)
    m = np.zeros((len(lo), size, size))
    m[img, out, start[:, None] + lo] = 1 - frac
    m[img, out, start[:, None] + hi] += frac
    return m


def _crop_resize_flip(imgs, boxes, flips):
    """Crop each image to its (top, left, h, w) box, resize it back to full
    size and mirror it where `flips` is set, as one separable bilinear
    resample per image: rows @ plane @ cols^T in float64, then float32. A
    full-image box gives identity matrices, so it is exact."""
    size = imgs.shape[1]
    rows = _resample_matrix(boxes[:, 0], boxes[:, 2], size)
    cols = _resample_matrix(boxes[:, 1], boxes[:, 3], size)
    cols[flips] = cols[flips, ::-1]
    planes = rows[:, None] @ imgs.transpose(0, 3, 1, 2) @ cols.swapaxes(1, 2)[:, None]
    return np.ascontiguousarray(planes.transpose(0, 2, 3, 1), np.float32)


def _rgb_to_hsv(rgb):
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    mx = np.maximum(np.maximum(r, g), b)   # a max over the last axis is slower
    mn = np.minimum(np.minimum(r, g), b)
    diff = mx - mn
    safe = np.where(diff == 0, 1.0, diff)
    h = np.where(mx == r, (g - b) / safe % 6.0,
                 np.where(mx == g, (b - r) / safe + 2.0, (r - g) / safe + 4.0))
    h = np.where(diff == 0, 0.0, h) / 6.0
    s = np.where(mx == 0, 0.0, diff / np.where(mx == 0, 1.0, mx))
    return h, s, mx


def _hsv_to_rgb(h, s, v):
    h6 = (h % 1.0) * 6.0
    sector = np.floor(h6).astype(np.int8) % 6
    f = h6 - np.floor(h6)
    vqpt = np.stack([v, v * (1 - s * f), v * (1 - s), v * (1 - s * (1 - f))], -1)
    return np.take_along_axis(vqpt, HSV_SECTORS[sector], -1).astype(np.float32)


def _color_jitter(imgs, factors):
    """torchvision-style jitter, in a fixed order, by each image's float32
    (brightness, contrast, saturation, hue) row of `factors`; a float32
    factor rounds each product as a Python-float scalar does."""
    bright, contrast, sat, hue = factors.T[:, :, None, None, None]
    imgs = imgs * bright
    mean = imgs.mean(axis=(1, 2, 3), keepdims=True)
    imgs = mean + (imgs - mean) * contrast
    gray = (imgs @ GRAY)[..., None]
    h, s, v = _rgb_to_hsv(np.clip(gray + (imgs - gray) * sat, 0.0, 1.0))
    return _hsv_to_rgb(h + hue[..., 0], s, v)   # wraps the hue mod 1


def _gaussian_blur(imgs, sigmas):
    """Separable Gaussian blur of each square [S, S, C] image by its own
    [S, S] matrix per axis, radius int(4 sigma + 0.5); taps past an edge
    land on the edge pixel, as in scipy.ndimage's mode="nearest"."""
    n, size, _, c = imgs.shape
    rows = np.arange(size)[:, None]
    m = np.zeros((n, size, size), np.float32)
    for m_i, sigma in zip(m, sigmas):
        radius = int(4.0 * sigma + 0.5)
        offsets = np.arange(-radius, radius + 1)
        taps = np.exp(-0.5 / (sigma * sigma) * offsets ** 2)
        np.add.at(m_i, (rows, np.clip(rows + offsets, 0, size - 1)),
                  taps / taps.sum())
    return m[:, None] @ (m @ imgs.reshape(n, size, size * c)).reshape(imgs.shape)


def solarize(img, threshold):
    """Invert pixels at or above the threshold; below it, identity."""
    return np.where(img >= threshold, 1.0 - img, img).astype(np.float32)


def standardize(img, cfg):
    mean = np.asarray(cfg.mean, np.float32)
    std = np.asarray(cfg.std, np.float32)
    out = img - mean
    out /= std
    return out


# -- the two views: per-record draws, then whole-batch stages ---------------------

def _draw_view(rng, cfg, extras):
    """One record's parameters for one view, drawn from its stream in a
    fixed order: crop box, flip, then (`extras`: the complex view) each
    gate whose probability is > 0, each followed by its values. One row:
    top, left, height, width, flip, jitter gate, brightness, contrast,
    saturation, hue, grayscale, blur gate, sigma, solarize (0 when off)."""
    row = [*_draw_crop(rng, *IMAGE_SHAPE[:2], cfg.crop_scale, cfg.crop_ratio),
           rng.random() < cfg.flip_prob]

    def gate(prob, *ranges):
        on = extras and prob > 0 and rng.random() < prob
        row.extend([on] + [rng.uniform(*r) if on else 0.0 for r in ranges])
    gate(cfg.jitter_prob, (1 - cfg.brightness, 1 + cfg.brightness),
         (1 - cfg.contrast, 1 + cfg.contrast),
         (1 - cfg.saturation, 1 + cfg.saturation), (-cfg.hue, cfg.hue))
    gate(cfg.grayscale_prob)
    gate(cfg.blur_prob, cfg.blur_sigma)
    gate(cfg.solarize_prob)
    return row


def _augment_view(imgs, params, cfg):
    """Apply every record's `_draw_view` row to the whole batch, stage by
    stage; each extra stage runs on the rows whose gate is on."""
    p = np.array(params, np.float64)
    view = _crop_resize_flip(imgs, p[:, :4].astype(np.intp), p[:, 4] > 0)
    jitter, gray, blur, solar = (np.flatnonzero(p[:, k]) for k in (5, 10, 11, 13))
    view[jitter] = _color_jitter(view[jitter],
                                 p[jitter, 6:10].astype(np.float32))
    view[gray] = (view[gray] @ GRAY)[..., None]
    view[blur] = _gaussian_blur(view[blur], p[blur, 12])
    view[solar] = solarize(view[solar], cfg.solarize_threshold)
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


def make_batch(dataset, indices, seed, epoch, cfg=None, need_complex=True):
    """Augment the named records into one training batch, deterministically.

    Each record's view v (0 simple, 1 complex) draws its parameters from
    `record_rng(seed, epoch, record, v)`, so a row depends only on its
    record, never on the batch around it; then each stage runs batched.
    """
    cfg = cfg or AugmentConfig()
    indices = np.asarray(indices)
    imgs = dataset.images[indices].astype(np.float32) / 255.0

    def view(v):
        params = [_draw_view(record_rng(seed, epoch, i, v), cfg, v == 1)
                  for i in indices]
        return _augment_view(imgs, params, cfg)
    return Batch(simple=view(0), complex=view(1) if need_complex else None)
