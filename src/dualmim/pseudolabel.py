"""Pseudo labels from prototype scores.

Teacher scores pass through Sinkhorn normalization (batch-balanced, no
gradients); student scores pass through a tempered softmax on the tape.
Because student and pseudo-labeling teacher see differently-augmented
views, each masked student position is matched to its cosine-closest
teacher patch across all folds before the patch loss is applied.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import entr

from .tensor import softmax

log = logging.getLogger(__name__)

# A row whose max is this many temperatures below the global max is
# exponentiated against its own max: exp(-64) is still a normal float32.
ROW_SHIFT_T = 64.0
_F32_TINY = float(np.finfo(np.float32).tiny)


@dataclass
class ClusterAssignments:
    """Probability rows over the prototypes for one teacher fold."""
    patch: np.ndarray   # [B, F, K_c] view into FoldTargets.patch_rows
    cls: np.ndarray     # [B, K_c] (class-token assignments)


@dataclass
class FoldTargets:
    """Sinkhorn targets of every fold, iterable as ClusterAssignments.

    The patch rows of all folds live in one fold-major array, so the row
    of fold k, image b, fold position f is `(k * B + b) * F + f`.
    """
    folds: list              # one ClusterAssignments per fold
    patch_rows: np.ndarray   # [K * B * F, K_c]
    patch_entropy: float     # mean row entropy (nats) of the patch targets

    def __iter__(self):
        return iter(self.folds)

    def __len__(self):
        return len(self.folds)


@dataclass
class MatchResult:
    fold_idx: np.ndarray   # [M] chosen fold per student position
    row_idx: np.ndarray    # [M] chosen row within the fold
    distance: np.ndarray   # [M] cosine distance of the chosen pair


def sinkhorn_normalize(scores, n_iters, temperature, out=None):
    """Balanced assignment rows from raw scores, and their mean entropy.

    Q = exp(scores / temperature); then alternate column normalization
    (each column sums to B/K_c) and row normalization (each row sums to 1)
    for `n_iters` rounds, ending on the row step. The rounds only update
    the scaling vectors u (rows) and v (columns) of Q = diag(u) E diag(v),
    with E = exp(logits - shift) formed once in float32 and u, v kept in
    float64; Q is written once, into `out` if given. The shift is the
    global max, except on a row whose max sits more than ROW_SHIFT_T
    temperatures below it: that row is shifted by its own max, so it keeps
    a 1 and cannot underflow, and the starting u absorbs the difference
    exactly. A column whose every entry underflows gets zero mass. The
    mean row entropy is read off log Q = logits - shift + log u + log v:
    with unit rows, H_i = -(sum_j q_ij (logit_ij - shift_i) + log u_i +
    sum_j q_ij log v_j), where a zero-mass column adds nothing.

    Returns (Q [B, K_c] float32, mean row entropy in nats).
    """
    s = np.asarray(scores, dtype=np.float32)
    top, bottom = s.max(), s.min()
    if not (np.isfinite(top) and np.isfinite(bottom)):
        raise ValueError("sinkhorn_normalize requires finite scores")
    b, kc = s.shape
    row_max = s.max(axis=1)
    shift = np.where(row_max < top - ROW_SHIFT_T * temperature, row_max, top)
    q = np.subtract(s, shift[:, None],
                    out=np.empty_like(s) if out is None else out)
    q *= np.float32(1.0 / temperature)
    np.exp(q, out=q)    # E
    u = np.exp((shift.astype(np.float64) - top) / temperature)
    for _ in range(n_iters):
        # float32 GEMVs over E (no float64 copy), float64 scaling vectors
        col = (u.astype(np.float32) @ q).astype(np.float64)
        v = np.divide(b / kc, col, out=np.zeros(kc), where=col >= _F32_TINY)
        u = 1.0 / (q @ v.astype(np.float32)).astype(np.float64)
    q *= v.astype(np.float32)
    q *= u.astype(np.float32)[:, None]    # Q = diag(u) E diag(v)
    # the row-dot runs on the raw scores: sum_j q_ij (s_ij - shift_i) / T
    lin = (np.einsum("ij,ij->i", q, s) - shift) / temperature
    log_v = np.log(v, out=np.zeros(kc), where=v > 0)
    ent = -(lin + np.log(u) + q @ log_v.astype(np.float32))
    return q, float(ent.mean())


def student_assign(scores, temperature):
    """Row-wise tempered softmax, differentiable (stays on the tape)."""
    return softmax(scores * (1.0 / temperature), axis=-1)


def teacher_targets(fold_class_scores, fold_patch_scores, n_iters, temperature):
    """Sinkhorn targets per fold.

    `fold_class_scores`: K arrays [B, K_c]; `fold_patch_scores`: K arrays
    [B, F, K_c] (or one [K, B, F, K_c] array). Sinkhorn runs across the
    batch dimension, folds kept separate; patch rows of one fold are
    balanced jointly across batch and position. Every fold's patch rows
    are written into one preallocated fold-major array.
    """
    k = len(fold_patch_scores)
    b, f, kc = fold_patch_scores[0].shape
    rows = np.empty((k, b * f, kc), np.float32)
    folds, entropies = [], []
    for i, (cs, ps) in enumerate(zip(fold_class_scores, fold_patch_scores)):
        cls, _ = sinkhorn_normalize(cs, n_iters, temperature)
        _, ent = sinkhorn_normalize(ps.reshape(b * f, kc), n_iters,
                                    temperature, out=rows[i])
        folds.append(ClusterAssignments(patch=rows[i].reshape(b, f, kc),
                                        cls=cls))
        entropies.append(ent)
    return FoldTargets(folds=folds, patch_rows=rows.reshape(k * b * f, kc),
                       patch_entropy=float(np.mean(entropies)))


def _unit_rows(x):
    """Rows scaled to unit norm; zero rows stay zero (logged by callers)."""
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    return x / safe, zero[..., 0]


def nearest_patch_match(student_feats, teacher_fold_feats):
    """Argmin cosine distance from each student row to every teacher row.

    `student_feats`: [M, D]; `teacher_fold_feats`: list of K arrays [F, D].
    Ties resolve to the smallest (fold, row) pair; numpy argmin picks the
    first occurrence, which is exactly that order once folds are stacked.
    Zero-norm rows behave as distance 1 to everything.
    """
    s, s_zero = _unit_rows(np.asarray(student_feats, dtype=np.float32))
    t_all = np.concatenate([np.asarray(t, dtype=np.float32)
                            for t in teacher_fold_feats], axis=0)
    t, t_zero = _unit_rows(t_all)
    if s_zero.any() or t_zero.any():
        log.warning("nearest_patch_match: %d zero-norm rows treated as "
                    "distance 1", int(s_zero.sum() + t_zero.sum()))
    dist = 1.0 - s @ t.T  # [M, K*F]
    flat = dist.argmin(axis=1)
    fold_len = teacher_fold_feats[0].shape[0]
    return MatchResult(fold_idx=flat // fold_len, row_idx=flat % fold_len,
                       distance=dist[np.arange(dist.shape[0]), flat])


def nearest_patch_match_batch(student_feats, teacher_fold_feats):
    """Vectorized per-image matching.

    `student_feats`: [B, M, D]; `teacher_fold_feats`: list of K arrays
    [B, F, D]. Returns (fold_idx, row_idx, distance), each [B, M].
    """
    s, _ = _unit_rows(np.asarray(student_feats, dtype=np.float32))
    t_all = np.concatenate([np.asarray(t, dtype=np.float32)
                            for t in teacher_fold_feats], axis=1)  # [B, K*F, D]
    t, _ = _unit_rows(t_all)
    dist = 1.0 - np.einsum("bmd,bnd->bmn", s, t)
    flat = dist.argmin(axis=2)
    fold_len = teacher_fold_feats[0].shape[1]
    picked = np.take_along_axis(dist, flat[:, :, None], axis=2)[:, :, 0]
    return flat // fold_len, flat % fold_len, picked


def class_target_average(fold_class_assignments):
    """Elementwise mean of the per-fold class distributions."""
    stack = np.stack(fold_class_assignments, axis=0)
    return stack.mean(axis=0)


def mean_row_entropy(rows):
    """Mean Shannon entropy (nats) of probability rows; collapse diagnostic."""
    p = np.asarray(rows, dtype=np.float32)
    return float(entr(p).sum(axis=-1).mean())
