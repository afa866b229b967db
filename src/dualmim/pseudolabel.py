"""Pseudo labels from prototype scores.

Teacher scores pass through Sinkhorn normalization (batch-balanced, no
gradients); student scores pass through a tempered softmax on the tape.
Because student and pseudo-labeling teacher see differently-augmented
views, each masked student position is matched to its cosine-closest
teacher patch across all folds before the patch loss is applied.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import entr

from .tensor import softmax

# A row whose max is this many temperatures below the global max is
# exponentiated against its own max: exp(-64) is still a normal float32.
ROW_SHIFT_T = 64.0
_F32_TINY = float(np.finfo(np.float32).tiny)
_F32_MAX = float(np.finfo(np.float32).max)


@dataclass
class FoldTargets:
    """Sinkhorn targets of every fold, fold-major.

    The patch row of fold k, image b, fold position f is
    `(k * B + b) * F + f`.
    """
    patch_rows: np.ndarray   # [K * B * F, K_c]
    cls: np.ndarray          # [K, B, K_c] class-token assignments
    patch_entropy: float     # mean row entropy (nats) of the patch targets


def sinkhorn_normalize(feats, weight, n_iters, temperature, out=None):
    """Balanced assignment rows for the scores `feats @ weight`, and their
    mean entropy.

    Q = exp(scores / temperature); then alternate column normalization
    (each column sums to B/K_c) and row normalization (each row sums to 1)
    for `n_iters` rounds, ending on the row step. The rounds only update
    the scaling vectors u (rows) and v (columns) of Q = diag(u) E diag(v),
    with E = exp(logits - shift) formed once in float32 and u, v kept in
    float64. The scores are formed straight into `out` (allocated if not
    given), which becomes E and then Q; they are never kept.

    The shift is the global max, except on a row whose max sits more than
    ROW_SHIFT_T temperatures below it: that row is shifted by its own max,
    so it keeps a 1 and cannot underflow, and the starting u absorbs the
    difference exactly. A column whose every entry underflows gets zero
    mass. The mean row entropy is read off log Q = logits - shift + log u
    + log v: with unit rows, H_i = -(sum_j q_ij (logit_ij - shift_i) +
    log u_i + sum_j q_ij log v_j), where a zero-mass column adds nothing
    and sum_j q_ij s_ij = f_i . (q_i W^T) needs no scores.

    If a float32 copy of u, v or of the next column sums would overflow
    (scores spanning hundreds of temperatures), log v is folded into the
    exponent: E = exp(s / T - c) is formed again in float64 with the
    column offsets c (a zero-mass column gets c = inf and stays empty) and
    its rows normalized there, which is the row step and takes the place
    of log u; the rounds go on from u = v = 1. Inputs that never fold keep
    the scaling-vector result.

    Returns (Q [B, K_c] float32, mean row entropy in nats). Non-finite
    inputs, or scores that overflow float32, raise ValueError.
    """
    f = np.asarray(feats, dtype=np.float32)
    w = np.asarray(weight, dtype=np.float32)
    if not (np.isfinite(f).all() and np.isfinite(w).all()):
        raise ValueError("sinkhorn_normalize requires finite inputs")
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.matmul(f, w, out=out)   # an overflow fails the check below
    b, kc = q.shape
    row_max = q.max(axis=1)
    if not np.isfinite(row_max).all():
        raise ValueError("sinkhorn_normalize requires finite scores")
    top = row_max.max()
    shift = np.where(row_max < top - ROW_SHIFT_T * temperature, row_max, top)
    q -= shift[:, None]
    q *= np.float32(1.0 / temperature)
    np.exp(q, out=q)    # E
    u = np.exp((shift.astype(np.float64) - top) / temperature)
    c = None    # column offsets folded into the exponent, float64
    for _ in range(n_iters):
        # float32 GEMVs over E (no float64 copy), float64 scaling vectors
        col = (u.astype(np.float32) @ q).astype(np.float64)
        v = np.divide(b / kc, col, out=np.zeros(kc), where=col >= _F32_TINY)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            u = 1.0 / (q @ v.astype(np.float32)).astype(np.float64)
        # E <= 1, so the next column sums are at most sum(u)
        if v.max() <= _F32_MAX and u.min() > 0.0 and u.sum() <= _F32_MAX:
            continue
        c = (0.0 if c is None else c) - np.log(v, out=np.full(kc, -np.inf),
                                               where=v > 0)
        x = np.matmul(f, w, out=q).astype(np.float64)
        x /= temperature
        x -= c      # c_j = inf: the column stays empty
        x -= x.max(axis=1, keepdims=True)
        np.exp(x, out=x)
        x /= x.sum(axis=1, keepdims=True)
        q[...] = x
        u, v = np.ones(b), np.ones(kc)
    v32 = v.astype(np.float32)
    if c is not None:
        # after a fold log E is no longer (s - shift) / T: read
        # sum_j q_ij log E_ij off E itself
        lin = -u * (entr(q) @ v32)
    q *= v32
    q *= u.astype(np.float32)[:, None]    # Q = diag(u) E diag(v)
    if c is None:
        # sum_j q_ij (s_ij - shift_i) / T, with s_i = f_i W
        lin = (np.einsum("ij,ij->i", q @ w.T, f) - shift) / temperature
    log_v = np.log(v, out=np.zeros(kc), where=v > 0)
    ent = -(lin + np.log(u) + q @ log_v.astype(np.float32))
    return q, float(ent.mean())


def student_assign(scores, temperature):
    """Row-wise tempered softmax, differentiable (stays on the tape)."""
    return softmax(scores * (1.0 / temperature), axis=-1)


def teacher_targets(class_feats, patch_feats, class_weight, patch_weight,
                    n_iters, temperature):
    """Sinkhorn targets per fold, from head features and prototypes.

    `class_feats`: [K, B, hidden]; `patch_feats`: [K, B, F, hidden]; the
    scores are `feats @ weight` with the [hidden, K_c] `class_weight` and
    `patch_weight`. Sinkhorn runs across the batch dimension, folds kept
    separate; patch rows of one fold are balanced jointly across batch and
    position. Every fold is written into one preallocated fold-major array.
    """
    k, b, f, _ = patch_feats.shape
    rows = np.empty((k, b * f, patch_weight.shape[1]), np.float32)
    cls = np.empty((k, b, class_weight.shape[1]), np.float32)
    entropies = []
    for i in range(k):
        sinkhorn_normalize(class_feats[i], class_weight, n_iters, temperature,
                           out=cls[i])
        _, ent = sinkhorn_normalize(patch_feats[i].reshape(b * f, -1),
                                    patch_weight, n_iters, temperature,
                                    out=rows[i])
        entropies.append(ent)
    return FoldTargets(patch_rows=rows.reshape(k * b * f, -1), cls=cls,
                       patch_entropy=float(np.mean(entropies)))


def _unit_rows(x):
    """Rows scaled to unit norm; zero rows stay zero."""
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.where(norms == 0.0, 1.0, norms)


def nearest_patch_match_batch(student_feats, teacher_fold_feats):
    """Argmin cosine distance from each student row to every teacher row
    of the same image, across all folds.

    `student_feats`: [B, M, D]; `teacher_fold_feats`: [K, B, F, D].
    Returns (fold_idx, row_idx, distance), each [B, M]. Ties resolve to
    the smallest (fold, row) pair: argmin picks the first occurrence,
    which is exactly that order once folds are concatenated. Zero-norm
    rows behave as distance 1 to everything.
    """
    s = _unit_rows(np.asarray(student_feats, dtype=np.float32))
    t = np.asarray(teacher_fold_feats, dtype=np.float32)
    fold_len = t.shape[2]
    t = _unit_rows(np.concatenate(t, axis=1))  # [B, K*F, D]
    dist = 1.0 - np.einsum("bmd,bnd->bmn", s, t)
    flat = dist.argmin(axis=2)
    picked = np.take_along_axis(dist, flat[:, :, None], axis=2)[:, :, 0]
    return flat // fold_len, flat % fold_len, picked


def mean_row_entropy(rows):
    """Mean Shannon entropy (nats) of probability rows; collapse diagnostic."""
    p = np.asarray(rows, dtype=np.float32)
    return float(entr(p).sum(axis=-1).mean())
