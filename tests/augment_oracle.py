"""Per-image augmentation: the reference that `data.make_batch` is checked
against.

One image at a time, drawing from its RNG stream as it goes, in the order
`make_batch`'s parameter loop must reproduce: the crop box, the flip, then
for the complex view each extra gate whose probability is > 0 (jitter's
four factors right after its gate, blur's sigma right after its gate).
`_rgb_to_hsv` reduces over the channel axis and `_hsv_to_rgb` writes
six masked copies, where the batched stages use elementwise maxima and an
index table.
"""

import numpy as np

from dualmim.data import AugmentConfig, _draw_crop, solarize, standardize


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
