"""Vision transformer pieces: sparse encoder, mask-token decoder, and the
two-branch projection head that produces prototype scores.

The encoder consumes only visible tokens (plus the class token); masked
positions are reintroduced in the decoder as a learned mask-token
embedding. Positional embeddings are fixed 2-D sine-cosine, looked up by
original patch index, so a patch embeds identically no matter which other
patches are visible.
"""

import contextlib
import ctypes
import functools
import glob
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .tensor import (Tensor, attention, concat, gelu, l2_normalize,
                     layernorm, linear, records_tape)

# A forward that records no tape runs in row blocks, and the blocks in
# flight together hold at most this many tokens, so their attention and MLP
# buffers stay near L2 size: a 256-image full-token batch on two workers
# runs as fifteen blocks of 17 or 18 images, while training's teacher fold
# passes (128 images x 17 tokens) stay one block.
INFER_BLOCK_TOKENS = 2304


@functools.cache
def _openblas():
    """numpy's OpenBLAS thread-count (get, set) functions, or None."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        with contextlib.suppress(OSError, AttributeError):
            so = ctypes.CDLL(lib)
            get = so.scipy_openblas_get_num_threads64_
            put = so.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@dataclass
class ViTConfig:
    image_size: int = 32
    patch_size: int = 4
    in_channels: int = 3
    embed_dim: int = 64
    depth: int = 4
    num_heads: int = 4
    mlp_ratio: float = 4.0
    decoder_depth: int = 2
    decoder_dim: int = 64
    drop_path_rate: float = 0.0
    hierarchical_layers: tuple = None  # 1-based block indices, must include depth

    @property
    def grid(self):
        return self.image_size // self.patch_size

    @property
    def num_patches(self):
        return self.grid * self.grid

    def validate(self):
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by "
                f"patch_size {self.patch_size}")
        if self.embed_dim % self.num_heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by "
                f"num_heads {self.num_heads}")
        if self.embed_dim % 4 != 0 or self.decoder_dim % 4 != 0:
            raise ConfigError("embed dims must be divisible by 4 for 2-D "
                              "sine-cosine positional embeddings")
        if self.hierarchical_layers is not None:
            ls = tuple(self.hierarchical_layers)
            if any(l < 1 or l > self.depth for l in ls) or self.depth not in ls:
                raise ConfigError(
                    f"hierarchical_layers {ls} must be 1-based block indices "
                    f"<= depth and include the final block {self.depth}")
        if not 0.0 <= self.drop_path_rate <= 1.0:
            raise ConfigError(f"drop_path_rate {self.drop_path_rate} not in [0, 1]")


@dataclass
class ProjectionHeadConfig:
    num_shared_layers: int = 2
    hidden_dim: int = 2048
    output_dim: int = 4096


# -- image -> patches ----------------------------------------------------------

def patchify_batch(images, patch_size):
    """[B, H, W, C] -> [B, N, P*P*C]."""
    b, h, w, c = images.shape
    p = patch_size
    x = images.reshape(b, h // p, p, w // p, p, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return np.ascontiguousarray(x.reshape(b, h // p * (w // p), p * p * c))


# -- positional embeddings -----------------------------------------------------

def sincos_pos_embed(dim, grid):
    """Fixed 2-D sine-cosine positional table, one row per patch index."""
    def axis_embed(pos, d):
        omega = 1.0 / 10000.0 ** (np.arange(d // 2, dtype=np.float64) / (d // 2))
        out = np.einsum("p,f->pf", pos.astype(np.float64), omega)
        return np.concatenate([np.sin(out), np.cos(out)], axis=1)

    ys, xs = np.meshgrid(np.arange(grid), np.arange(grid), indexing="ij")
    emb = np.concatenate(
        [axis_embed(ys.reshape(-1), dim // 2), axis_embed(xs.reshape(-1), dim // 2)],
        axis=1)
    return emb.astype(np.float32)  # [grid*grid, dim]


# -- parameterized layers ------------------------------------------------------

def trunc_normal(rng, shape, std=0.02):
    return np.clip(rng.normal(0.0, std, size=shape), -2 * std, 2 * std).astype(np.float32)


class Linear:
    def __init__(self, rng, d_in, d_out, bias=True):
        self.w = Tensor(trunc_normal(rng, (d_in, d_out)), requires_grad=True)
        self.b = Tensor(np.zeros(d_out, np.float32), requires_grad=True) if bias else None

    def __call__(self, x):
        return linear(x, self.w, self.b)

    def params(self):
        out = {"w": self.w}
        if self.b is not None:
            out["b"] = self.b
        return out


class LayerNorm:
    def __init__(self, dim, eps=1e-6):
        self.gamma = Tensor(np.ones(dim, np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, np.float32), requires_grad=True)
        self.eps = eps

    def __call__(self, x):
        return layernorm(x, self.gamma, self.beta, self.eps)

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}


class Attention:
    def __init__(self, rng, dim, num_heads):
        self.num_heads = num_heads
        self.wq = Linear(rng, dim, dim)
        self.wk = Linear(rng, dim, dim)
        self.wv = Linear(rng, dim, dim)
        self.proj = Linear(rng, dim, dim)

    def __call__(self, x):
        return self.proj(attention(self.wq(x), self.wk(x), self.wv(x),
                                   self.num_heads))

    def params(self):
        return {f"{n}.{k}": v for n, m in
                [("wq", self.wq), ("wk", self.wk), ("wv", self.wv), ("proj", self.proj)]
                for k, v in m.params().items()}


class Mlp:
    def __init__(self, rng, dim, hidden):
        self.fc1 = Linear(rng, dim, hidden)
        self.fc2 = Linear(rng, hidden, dim)

    def __call__(self, x):
        return self.fc2(gelu(self.fc1(x)))

    def params(self):
        return {f"fc1.{k}": v for k, v in self.fc1.params().items()} | \
               {f"fc2.{k}": v for k, v in self.fc2.params().items()}


class Block:
    """Pre-norm transformer block with optional stochastic depth."""

    def __init__(self, rng, dim, num_heads, mlp_ratio, drop_path=0.0):
        self.norm1 = LayerNorm(dim)
        self.attn = Attention(rng, dim, num_heads)
        self.norm2 = LayerNorm(dim)
        self.mlp = Mlp(rng, dim, int(dim * mlp_ratio))
        self.drop_path = drop_path

    def _branch_scale(self, batch, train, rng):
        """Per-sample keep mask for stochastic depth, scaled by 1/keep."""
        rate = self.drop_path
        if not train or rate == 0.0:
            return None
        if rate >= 1.0:
            return np.zeros((batch, 1, 1), np.float32)
        keep = 1.0 - rate
        mask = (rng.random(batch) < keep).astype(np.float32) / keep
        return mask.reshape(batch, 1, 1)

    def __call__(self, x, train=False, rng=None):
        for branch in (lambda z: self.attn(self.norm1(z)),
                       lambda z: self.mlp(self.norm2(z))):
            scale = self._branch_scale(x.shape[0], train, rng)
            r = branch(x)
            x = x + (r if scale is None else r * Tensor(scale))
        return x

    def params(self):
        out = {}
        for name, mod in [("norm1", self.norm1), ("attn", self.attn),
                          ("norm2", self.norm2), ("mlp", self.mlp)]:
            for k, v in mod.params().items():
                out[f"{name}.{k}"] = v
        return out


class Encoder:
    """Sparse ViT encoder: embeds only the tokens it is given."""

    def __init__(self, cfg, rng):
        cfg.validate()
        self.cfg = cfg
        d = cfg.embed_dim
        self.patch_embed = Linear(rng, cfg.patch_size ** 2 * cfg.in_channels, d)
        self.cls_token = Tensor(trunc_normal(rng, (1, 1, d)), requires_grad=True)
        self.pos = sincos_pos_embed(d, cfg.grid)  # fixed, not a parameter
        self.blocks = [Block(rng, d, cfg.num_heads, cfg.mlp_ratio, cfg.drop_path_rate)
                       for _ in range(cfg.depth)]
        self.norm = LayerNorm(d)

    def __call__(self, patches, patch_indices, train=False, rng=None):
        """patches: [B, T, P*P*C] (Tensor or array); patch_indices: [T] ints.

        Returns [B, T+1, D] with the class token at row 0. A call that
        records no tape (inside `no_grad()`, or a frozen teacher on plain
        input) and holds more than INFER_BLOCK_TOKENS tokens runs in row
        blocks, one worker thread per OpenBLAS thread, written into one
        output; rows never interact, so the result is the same.
        Training-mode calls are never split: stochastic depth draws one
        mask per call.
        """
        idx = np.asarray(patch_indices, dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= self.cfg.num_patches):
            raise IndexError(f"patch index out of range 0..{self.cfg.num_patches - 1}")
        if not isinstance(patches, Tensor):
            patches = Tensor(patches)
        b = patches.shape[0]
        tokens = b * (idx.size + 1)
        if (tokens <= INFER_BLOCK_TOKENS or train
                or records_tape([patches, *self.params().values()])):
            return self._forward(patches, idx, train, rng)
        out = np.empty((b, idx.size + 1, self.cfg.embed_dim), np.float32)
        blas = _openblas()
        workers = blas[0]() if blas else 1
        n_blocks = min(b, -(-tokens * workers // INFER_BLOCK_TOKENS))

        def block(i):
            lo, hi = b * i // n_blocks, b * (i + 1) // n_blocks
            out[lo:hi] = self._forward(Tensor(patches.data[lo:hi]), idx).data

        if workers == 1:
            list(map(block, range(n_blocks)))
            return Tensor(out)
        # one BLAS thread per worker: OpenBLAS's own idle threads spin, so
        # they would hold the cores the workers need
        blas[1](1)
        try:
            # a raise cancels the unstarted blocks; exit waits for running ones
            with ThreadPoolExecutor(workers) as pool:
                list(pool.map(block, range(n_blocks)))
        finally:
            blas[1](workers)
        return Tensor(out)

    def _forward(self, patches, idx, train=False, rng=None):
        """One pass over the whole of `patches` (a Tensor; `idx` checked)."""
        b = patches.shape[0]
        x = self.patch_embed(patches) + Tensor(self.pos[idx])
        cls = self.cls_token + Tensor(np.zeros((b, 1, self.cfg.embed_dim), np.float32))
        x = concat([cls, x], axis=1)
        picked = []
        want = set(self.cfg.hierarchical_layers or (self.cfg.depth,))
        for i, blk in enumerate(self.blocks, start=1):
            x = blk(x, train=train, rng=rng)
            if i in want:
                picked.append(x)
        out = picked[0]
        for extra in picked[1:]:
            out = out + extra
        return self.norm(out)

    def params(self):
        out = {"patch_embed.w": self.patch_embed.w, "patch_embed.b": self.patch_embed.b,
               "cls_token": self.cls_token}
        for i, blk in enumerate(self.blocks):
            for k, v in blk.params().items():
                out[f"blocks.{i}.{k}"] = v
        for k, v in self.norm.params().items():
            out[f"norm.{k}"] = v
        return out


class Decoder:
    """MAE-style decoder: reinserts a learned mask token at masked positions
    and projects back to the encoder embedding dimension."""

    def __init__(self, cfg, rng):
        self.cfg = cfg
        dd = cfg.decoder_dim
        self.embed = Linear(rng, cfg.embed_dim, dd)
        self.mask_token = Tensor(trunc_normal(rng, (1, 1, dd)), requires_grad=True)
        self.pos = sincos_pos_embed(dd, cfg.grid)
        self.blocks = [Block(rng, dd, cfg.num_heads, cfg.mlp_ratio)
                       for _ in range(cfg.decoder_depth)]
        self.norm = LayerNorm(dd)
        self.pred = Linear(rng, dd, cfg.embed_dim)  # D_out = encoder D

    def __call__(self, encoded, visible_indices, masked_indices):
        """encoded: [B, V+1, D] from the encoder (class token at row 0).

        Returns [B, N+1, D]: class token at row 0, then all N patch
        positions in canonical order.
        """
        vis = np.asarray(visible_indices, dtype=np.intp)
        msk = np.asarray(masked_indices, dtype=np.intp)
        n = self.cfg.num_patches
        if encoded.shape[1] != vis.size + 1:
            raise ValueError(
                f"encoded rows ({encoded.shape[1]}) do not cover class token "
                f"plus {vis.size} visible tokens")
        b = encoded.shape[0]
        x = self.embed(encoded)
        mask_rows = self.mask_token + Tensor(
            np.zeros((b, msk.size, self.cfg.decoder_dim), np.float32))
        x = concat([x, mask_rows], axis=1)  # [cls, visible..., masked...]
        # reorder rows to [cls, patch 0, ..., patch N-1]
        current = np.concatenate([[-1], vis, msk])  # -1 marks the class row
        perm = np.empty(n + 1, dtype=np.intp)
        order = np.argsort(current)  # class row (-1) sorts first
        perm[:] = order
        x = x.take(perm, axis=1)
        pos = np.concatenate(
            [np.zeros((1, self.cfg.decoder_dim), np.float32), self.pos], axis=0)
        x = x + Tensor(pos)
        for blk in self.blocks:
            x = blk(x)
        return self.pred(self.norm(x))

    def params(self):
        out = {"embed.w": self.embed.w, "embed.b": self.embed.b,
               "mask_token": self.mask_token}
        for i, blk in enumerate(self.blocks):
            for k, v in blk.params().items():
                out[f"blocks.{i}.{k}"] = v
        for k, v in self.norm.params().items():
            out[f"norm.{k}"] = v
        out["pred.w"] = self.pred.w
        out["pred.b"] = self.pred.b
        return out


class ProjectionHead:
    """Shared MLP trunk, then separate prototype matrices for class and
    patch tokens. The call returns the L2-normalized trunk features; the
    scores against the prototypes are formed by their consumer (the
    teacher's Sinkhorn, or the student's fused tempered cross-entropy,
    which never stores them)."""

    def __init__(self, cfg, rng, in_dim):
        self.cfg = cfg
        dims = [in_dim] + [cfg.hidden_dim] * cfg.num_shared_layers
        self.shared = [Linear(rng, dims[i], dims[i + 1])
                       for i in range(cfg.num_shared_layers)]
        self.class_out = Linear(rng, cfg.hidden_dim, cfg.output_dim, bias=False)
        self.patch_out = Linear(rng, cfg.hidden_dim, cfg.output_dim, bias=False)
        # unit-norm prototype vectors: with the L2-normalized trunk feature
        # this makes each score a cosine similarity per prototype, so the
        # tempered score distribution has usable spread from step one
        for layer in (self.class_out, self.patch_out):
            w = layer.w.data
            w /= np.linalg.norm(w, axis=0, keepdims=True)

    def trunk(self, x):
        for layer in self.shared:
            x = gelu(layer(x))
        return l2_normalize(x, axis=-1)

    def __call__(self, tokens):
        """tokens: [B, T+1, D], class token at row 0.

        Returns (class_feats [B, hidden], patch_feats [B, T, hidden]);
        the scores are `class_feats @ class_out.w` and
        `patch_feats @ patch_out.w`.
        """
        b, t = tokens.shape[:2]
        feats = self.trunk(tokens)
        cls_feat = feats.take(np.array([0]), axis=1).reshape((b, -1))
        return cls_feat, feats.take(np.arange(1, t), axis=1)

    def params(self):
        out = {}
        for i, layer in enumerate(self.shared):
            for k, v in layer.params().items():
                out[f"shared.{i}.{k}"] = v
        out["class_out.w"] = self.class_out.w
        out["patch_out.w"] = self.patch_out.w
        return out
