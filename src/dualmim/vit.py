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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .tensor import (Tensor, attention, concat, gelu, l2_normalize,
                     layernorm, linear, mlp, records_tape)

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
        dim = min(self.embed_dim, self.decoder_dim if self.decoder_depth
                  else self.embed_dim)    # decoder blocks have MLPs too
        if int(dim * self.mlp_ratio) < 1:
            raise ConfigError(f"mlp_ratio {self.mlp_ratio}: MLP width 0")
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
    hidden_dim: int = 16
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


class Module:
    """A node of the parameter tree; `Module(**children)` groups modules.
    Attribute assignment order is parameter order, and so checkpoint record
    order: reordering an `__init__` breaks old checkpoints."""

    def __init__(self, **children):
        vars(self).update(children)

    def params(self):
        """Dotted name -> Tensor for each Tensor attribute, Module attribute
        and list of them, in attribute order; None and the rest are skipped."""
        out = {}
        for name, value in vars(self).items():
            entries = ([(f"{name}.{i}", v) for i, v in enumerate(value)]
                       if isinstance(value, list) else [(name, value)])
            for key, v in entries:
                if isinstance(v, Tensor):
                    out[key] = v
                elif isinstance(v, Module):
                    out |= {f"{key}.{k}": t for k, t in v.params().items()}
        return out


class Linear(Module):
    def __init__(self, rng, d_in, d_out):
        self.w = Tensor(trunc_normal(rng, (d_in, d_out)), requires_grad=True)
        self.b = Tensor(np.zeros(d_out, np.float32), requires_grad=True)

    def __call__(self, x):
        return linear(x, self.w, self.b)


class LayerNorm(Module):
    def __init__(self, dim, eps=1e-6):
        self.gamma = Tensor(np.ones(dim, np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, np.float32), requires_grad=True)
        self.eps = eps

    def __call__(self, x):
        return layernorm(x, self.gamma, self.beta, self.eps)


class Attention(Module):
    def __init__(self, rng, dim, num_heads):
        self.num_heads = num_heads
        self.qkv = Linear(rng, dim, 3 * dim)
        self.proj = Linear(rng, dim, dim)

    def __call__(self, x, n_query=None):
        return self.proj(attention(self.qkv(x), self.num_heads, n_query))


class Mlp(Module):
    """fc1, GELU, fc2 as one `mlp` tape node, which keeps only the fc1
    output and its tanh. The `Linear` children hold the parameters, so the
    names and the checkpoint layout are theirs."""

    def __init__(self, rng, dim, hidden):
        self.fc1 = Linear(rng, dim, hidden)
        self.fc2 = Linear(rng, hidden, dim)

    def __call__(self, x):
        return mlp(x, self.fc1.w, self.fc1.b, self.fc2.w, self.fc2.b)


class Block(Module):
    """Pre-norm transformer block with optional stochastic depth."""

    def __init__(self, rng, dim, num_heads, mlp_ratio, drop_path=0.0):
        self.norm1 = LayerNorm(dim)
        self.attn = Attention(rng, dim, num_heads)
        self.norm2 = LayerNorm(dim)
        self.mlp = Mlp(rng, dim, int(dim * mlp_ratio))
        self.drop_path = drop_path

    def _residual(self, x, r, train, rng):
        """x + r; in training, r times a per-sample stochastic-depth keep
        mask scaled by 1/keep."""
        rate, batch = self.drop_path, x.shape[0]
        if not train or rate == 0.0:
            return x + r
        if rate >= 1.0:
            return x + r * Tensor(np.zeros((batch, 1, 1), np.float32))
        keep = 1.0 - rate
        mask = (rng.random(batch) < keep).astype(np.float32) / keep
        return x + r * Tensor(mask.reshape(batch, 1, 1))

    def __call__(self, x, train=False, rng=None, rows=None):
        """x: [B, T, D]. With `rows`, only the first `rows` tokens go on
        past attention (they still attend to all T): returns [B, rows, D]."""
        r = self.attn(self.norm1(x), rows)
        if rows is not None:
            x = x.take(np.arange(rows), axis=1)
        x = self._residual(x, r, train, rng)
        return self._residual(x, self.mlp(self.norm2(x)), train, rng)


class Encoder(Module):
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

    def __call__(self, patches, patch_indices, train=False, rng=None,
                 class_only=False):
        """patches: [B, T, P*P*C] (Tensor or array); patch_indices: [T] ints.

        Returns [B, T+1, D] with the class token at row 0, or with
        `class_only` just that row, [B, 1, D], the same bits. A call that
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
            return self._forward(patches, idx, train, rng, class_only)
        out = np.empty((b, 1 if class_only else idx.size + 1,
                        self.cfg.embed_dim), np.float32)
        blas = _openblas()
        workers = blas[0]() if blas else 1
        n_blocks = min(b, -(-tokens * workers // INFER_BLOCK_TOKENS))

        def block(i):
            lo, hi = b * i // n_blocks, b * (i + 1) // n_blocks
            out[lo:hi] = self._forward(Tensor(patches.data[lo:hi]), idx,
                                       class_only=class_only).data

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

    def _forward(self, patches, idx, train=False, rng=None, class_only=False):
        """One pass over the whole of `patches` (a Tensor; `idx` checked).
        With `class_only`, the last block runs past attention, and the
        picked layers are summed and normed, on the first two rows only;
        row 0 is returned."""
        b = patches.shape[0]
        x = self.patch_embed(patches) + Tensor(self.pos[idx])
        cls = self.cls_token + Tensor(np.zeros((b, 1, self.cfg.embed_dim), np.float32))
        x = concat([cls, x], axis=1)
        # two rows, not one: numpy sends a one-row matmul to GEMV, which
        # sums in another order than GEMM and would change row 0's bits
        rows = min(2, x.shape[1]) if class_only else None
        picked = []
        want = set(self.cfg.hierarchical_layers or (self.cfg.depth,))
        for i, blk in enumerate(self.blocks, start=1):
            last = i == self.cfg.depth
            x = blk(x, train=train, rng=rng, rows=rows if last else None)
            if i in want:
                picked.append(x if last or rows is None
                              else x.take(np.arange(rows), axis=1))
        out = picked[0]
        for extra in picked[1:]:
            out = out + extra
        out = self.norm(out)
        return out.take(np.array([0]), axis=1) if class_only else out


class Decoder(Module):
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

    def __call__(self, encoded, visible_indices, query_indices):
        """encoded: [B, V+1, D] from the encoder (class token at row 0).

        Returns [B, 1+Q, D]: the class row, then one row per entry of the
        masked positions `query_indices`, in their order. The rows run as
        [class, queries, visible], and the last block's attention is the
        last step that reads the visible rows.
        """
        vis = np.asarray(visible_indices, dtype=np.intp)
        qry = np.asarray(query_indices, dtype=np.intp)
        v, q = vis.size, qry.size
        if encoded.shape[1] != v + 1:
            raise ValueError(
                f"encoded rows ({encoded.shape[1]}) do not cover class token "
                f"plus {v} visible tokens")
        dd = self.cfg.decoder_dim
        mask_rows = self.mask_token + Tensor(
            np.zeros((encoded.shape[0], q, dd), np.float32))
        pos = np.concatenate([np.zeros((1, dd), np.float32), self.pos[qry],
                              self.pos[vis]])
        x = concat([self.embed(encoded), mask_rows], axis=1).take(
            np.r_[0, v + 1:v + 1 + q, 1:v + 1], axis=1) + Tensor(pos)
        for blk in self.blocks[:-1]:
            x = blk(x)
        x = (self.blocks[-1](x, rows=1 + q) if self.blocks
             else x.take(np.arange(1 + q), axis=1))    # decoder_depth 0
        return self.pred(self.norm(x))


class ProjectionHead(Module):
    """Shared MLP trunk, then separate prototype matrices for class and
    patch tokens (plain holders of one weight `w`, not layers). The call
    returns the L2-normalized trunk features; the scores against the
    prototypes are formed by their consumer (the teacher's Sinkhorn, or
    the student's fused tempered cross-entropy, which never stores them)."""

    def __init__(self, cfg, rng, in_dim):
        self.cfg = cfg
        dims = [in_dim] + [cfg.hidden_dim] * cfg.num_shared_layers
        self.shared = [Linear(rng, dims[i], dims[i + 1])
                       for i in range(cfg.num_shared_layers)]
        self.class_out, self.patch_out = (Module(w=Tensor(trunc_normal(
            rng, (cfg.hidden_dim, cfg.output_dim)), requires_grad=True))
            for _ in range(2))
        self.normalize_prototypes()

    def normalize_prototypes(self):
        """Scale each prototype column to unit norm, in place (at init and
        after every optimizer step): every score is then a cosine."""
        for protos in (self.class_out, self.patch_out):
            w = protos.w.data
            w /= np.sqrt(np.einsum("ij,ij->j", w, w))

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
