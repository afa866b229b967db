"""Independent float64 reimplementation of the student forward pass.

This is a reference oracle for the composed-loss gradient check: it
recomputes the total training loss for the tiny model in plain numpy
float64, with no shared code with the autodiff engine. Finite differences
of this function are trustworthy to ~1e-9, so comparing them against the
engine's float32 backward() gradients isolates errors in the backward
rules from float32 forward rounding.

All teacher-side quantities (reconstruction targets, Sinkhorn assignments,
patch matching) arrive as frozen constants, mirroring the stop-gradient
semantics of the objective, so the loss is a pure function of the student
parameters.
"""

import numpy as np

from dualmim.pseudolabel import teacher_targets

_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715
_LN_EPS = 1e-6
_L2_EPS = 1e-8
_COS_EPS = 1e-8


def _materialized(factors):
    """P = diag(u) E diag(v) in float64, from Sinkhorn's (E, u, v, H)."""
    e, u, v, _ = factors
    return u.astype(np.float64)[:, None] * e * v.astype(np.float64)


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + _GELU_A * x ** 3)))


def _layernorm(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + _LN_EPS) * gamma + beta


def _softmax(x, axis=-1):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _log_softmax(x, axis=-1):
    z = x - x.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


def _l2_normalize(x):
    return x / np.sqrt((x * x).sum(axis=-1, keepdims=True) + _L2_EPS)


def _patchify_batch(images, p):
    b, h, w, c = images.shape
    x = images.reshape(b, h // p, p, w // p, p, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return x.reshape(b, (h // p) * (w // p), p * p * c)


def attention(qkv, num_heads, n_query=None):
    """Multi-head attention of the first `n_query` rows (all when None) of
    a [B, T, 3D] q|k|v input over every row; returns [B, n, D]."""
    b, t, d3 = qkv.shape
    n = t if n_query is None else n_query
    d = d3 // 3
    hd = d // num_heads

    def heads(z):
        return z.reshape(b, t, num_heads, hd).transpose(0, 2, 1, 3)

    q, k, v = (heads(z) for z in np.split(qkv, 3, axis=-1))
    att = _softmax(q[:, :, :n] @ k.transpose(0, 1, 3, 2) / np.sqrt(hd))
    return (att @ v).transpose(0, 2, 1, 3).reshape(b, n, d)


def _block(x, prm, prefix, num_heads):
    def lin(z, name):
        return z @ prm[f"{prefix}.{name}.w"] + prm[f"{prefix}.{name}.b"]

    h = _layernorm(x, prm[f"{prefix}.norm1.gamma"], prm[f"{prefix}.norm1.beta"])
    x = x + lin(attention(lin(h, "attn.qkv"), num_heads), "attn.proj")
    h = _layernorm(x, prm[f"{prefix}.norm2.gamma"], prm[f"{prefix}.norm2.beta"])
    h = lin(_gelu(lin(h, "mlp.fc1")), "mlp.fc2")
    return x + h


class OracleLoss:
    """Callable total loss over a float64 copy of the student parameters."""

    def __init__(self, trainer, batch, ctx, match):
        cfg = trainer.cfg
        (mask, folds, rec_tokens, _, class_target, patch_feats,
         patch_weight) = ctx
        self.cfg = cfg
        self.vis = np.asarray(mask.visible_indices)
        self.msk = np.asarray(mask.masked_indices)
        self.patches = _patchify_batch(
            batch.simple.astype(np.float64), cfg.model.patch_size)
        self.enc_pos = trainer.encoder.pos.astype(np.float64)
        self.dec_pos = trainer.decoder.pos.astype(np.float64)
        # frozen reconstruction targets: standardized, then unit-normalized
        positions = folds.reshape(-1)
        raw = np.concatenate(rec_tokens, axis=1).astype(np.float64)
        mu = raw.mean(axis=-1, keepdims=True)
        var = raw.var(axis=-1, keepdims=True)
        std = (raw - mu) / np.sqrt(var + 1e-6)
        self.rec_unit = std / (np.linalg.norm(std, axis=-1, keepdims=True)
                               + _COS_EPS)
        self.rec_positions = positions
        # frozen pseudo-label targets: each fold's Sinkhorn patch targets,
        # read at the matched (fold, image, row)
        sk = cfg.sinkhorn
        k, b, f, _ = patch_feats.shape
        stacked = np.stack([_materialized(teacher_targets(
            fold, patch_weight, sk.n_iters, sk.teacher_temperature))
            for fold in patch_feats]).reshape(k, b, f, -1)
        fold_idx, row_idx = match[0], match[1]
        self.patch_target = stacked[fold_idx, np.arange(b)[:, None], row_idx]
        self.class_target = class_target.astype(np.float64)
        self.params = {k: v.data.astype(np.float64)
                       for k, v in trainer.student_params.items()}

    def __call__(self):
        cfg, prm = self.cfg, self.params
        m = cfg.model
        # encoder over visible tokens
        x = (np.take(self.patches, self.vis, axis=1)
             @ prm["encoder.patch_embed.w"] + prm["encoder.patch_embed.b"]
             + self.enc_pos[self.vis])
        b = x.shape[0]
        cls = np.broadcast_to(prm["encoder.cls_token"], (b, 1, m.embed_dim))
        x = np.concatenate([cls, x], axis=1)
        picked = []
        want = set(m.hierarchical_layers or (m.depth,))
        for i in range(m.depth):
            x = _block(x, prm, f"encoder.blocks.{i}", m.num_heads)
            if i + 1 in want:
                picked.append(x)
        x = _layernorm(sum(picked[1:], picked[0]),
                       prm["encoder.norm.gamma"], prm["encoder.norm.beta"])
        # decoder: reinsert mask tokens, restore canonical order
        x = x @ prm["decoder.embed.w"] + prm["decoder.embed.b"]
        mask_rows = np.broadcast_to(
            prm["decoder.mask_token"], (b, self.msk.size, m.decoder_dim))
        x = np.concatenate([x, mask_rows], axis=1)
        perm = np.argsort(np.concatenate([[-1], self.vis, self.msk]))
        x = x[:, perm]
        x = x + np.concatenate(
            [np.zeros((1, m.decoder_dim)), self.dec_pos], axis=0)
        for i in range(m.decoder_depth):
            x = _block(x, prm, f"decoder.blocks.{i}", m.num_heads)
        x = _layernorm(x, prm["decoder.norm.gamma"], prm["decoder.norm.beta"])
        dec_out = x @ prm["decoder.pred.w"] + prm["decoder.pred.b"]

        w = cfg.loss
        total = 0.0
        if w.lambda_m > 0:
            rows = dec_out[:, self.rec_positions + 1]
            cos = ((rows * self.rec_unit).sum(-1)
                   / np.sqrt((rows * rows).sum(-1) + _COS_EPS))
            total += w.lambda_m * (1.0 - cos.mean())
        if w.lambda_c > 0 or w.lambda_p > 0:
            # the production match indexes the fold-major student rows
            masked_rows = dec_out[:, self.rec_positions + 1]
            tokens = np.concatenate([dec_out[:, :1], masked_rows], axis=1)
            h = tokens
            for i in range(cfg.head.num_shared_layers):
                h = _gelu(h @ prm[f"head.shared.{i}.w"]
                          + prm[f"head.shared.{i}.b"])
            h = _l2_normalize(h)
            temp = cfg.sinkhorn.student_temperature
            if w.lambda_p > 0:
                scores = h[:, 1:] @ prm["head.patch_out.w"]
                logq = _log_softmax(scores * (1.0 / temp))
                n_rows = logq.shape[0] * logq.shape[1]
                total += w.lambda_p * (
                    -(self.patch_target * logq).sum() / n_rows)
            if w.lambda_c > 0:
                scores = h[:, 0] @ prm["head.class_out.w"]
                logq = _log_softmax(scores * (1.0 / temp))
                total += w.lambda_c * (
                    -(self.class_target * logq).sum() / logq.shape[0])
        return float(total)


def oracle_finite_diff(oracle, name, eps=1e-6):
    """Central finite differences of the oracle loss over one parameter."""
    x = oracle.params[name]
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = oracle()
        flat[i] = orig - eps
        lo = oracle()
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g
