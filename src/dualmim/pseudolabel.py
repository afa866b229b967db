"""Pseudo labels from prototype scores.

Teacher scores pass through Sinkhorn normalization (batch-balanced, no
gradients), one fold at a time; the student's scores meet those targets in
the fused cross entropy `losses.tempered_cross_entropy`. Because student
and pseudo-labeling teacher see differently-augmented views, each masked
student position is matched to its cosine-closest teacher patch across all
folds before the patch loss is applied.
"""

import numpy as np

# Scores of unit features against prototype columns of norm at most 1 lie
# in [-1, 1]: at T >= TEMPERATURE_FLOOR they span at most 80 temperatures.
# Sinkhorn rejects a span over SPREAD_T; exp(-84) is still a normal float32.
# The floor holds for both temperatures, so the student's cross entropy
# takes exp of its logits, within [-40, 40], unshifted.
TEMPERATURE_FLOOR = 0.025
SPREAD_T = 84.0


def sinkhorn_normalize(feats, weight, n_iters, temperature, out=None):
    """Balanced assignment rows for the scores `feats @ weight`, as the
    factors of Q = diag(u) E diag(v), and their mean entropy.

    Q = exp(scores / temperature); then alternate column normalization
    (each column sums to B/K_c) and row normalization (each row sums to 1)
    for `n_iters` rounds, ending on the row step. The rounds only update
    the scaling vectors u (rows) and v (columns), with E = exp(s / T - top)
    formed once in float32 against the global max `top` of s / T, and u, v
    kept in float64. The tempered scores are formed straight into `out`
    (allocated if not given), which becomes E; Q itself is never formed
    (`assignments` forms it where a table is wanted). The mean row entropy
    is read off log Q = s / T - top + log u + log v: with unit rows, H_i =
    -(sum_j q_ij (s_ij / T - top) + log u_i + sum_j q_ij log v_j), where
    sum_j q_ij s_ij / T = u_i f_i . (E (v W / T)^T)_i and sum_j q_ij log v_j
    = u_i (E (v log v))_i are two products over E.

    Returns (E [B, K_c] float32, u [B] float32, v [K_c] float32, mean row
    entropy in nats). Non-finite inputs, scores that overflow float32, a
    row or column whose max sits more than SPREAD_T temperatures below the
    top score, or a scaling vector past float32's range raise ValueError.
    """
    f = np.asarray(feats, dtype=np.float32)
    w = np.asarray(weight, dtype=np.float32)
    if not (np.isfinite(f).all() and np.isfinite(w).all()):
        raise ValueError("sinkhorn_normalize requires finite inputs")
    with np.errstate(over="ignore", invalid="ignore"):
        w_t = w * np.float32(1.0 / temperature)
        e = np.matmul(f, w_t, out=out)   # an overflow fails the check below
    b, kc = e.shape
    row_max = e.max(axis=1)
    if not np.isfinite(row_max).all():
        raise ValueError("sinkhorn_normalize requires finite scores")
    top = row_max.max()
    if min(row_max.min(), e.max(axis=0).min()) < top - SPREAD_T:
        raise ValueError(f"sinkhorn_normalize: scores span more than "
                         f"{SPREAD_T:g} temperatures")
    e -= top
    np.exp(e, out=e)
    u = np.ones(b)
    for _ in range(n_iters):
        # float32 GEMVs over E (no float64 copy), float64 scaling vectors
        v = _float32_range((b / kc) / (u.astype(np.float32) @ e).astype(np.float64))
        u = _float32_range(1.0 / (e @ v.astype(np.float32)).astype(np.float64))
    # the products over E take v over its max c, so that neither v W / T
    # nor v log v can overflow float32, and u c in float64
    c = v.max()
    vn, uc = (v / c).astype(np.float32), u * c
    # sum_j q_ij (s_ij / T - top), with s_i = f_i W
    lin = np.einsum("ij,ij->i", e @ (w_t * vn).T, f) * uc - top
    qlogv = uc * (e @ (vn * np.log(v).astype(np.float32)))
    ent = -(lin + np.log(u) + qlogv)
    return e, u.astype(np.float32), v.astype(np.float32), float(ent.mean())


def assignments(e, u, v):
    """Q = diag(u) E diag(v), formed in place in E; returns it."""
    e *= v
    e *= u[:, None]
    return e


def _float32_range(x):
    """`x` itself; raises ValueError if an entry would overflow float32."""
    if not (x <= np.finfo(np.float32).max).all():
        raise ValueError("sinkhorn_normalize: a scaling vector overflows float32")
    return x


def teacher_targets(feats, weight, n_iters, temperature, out=None):
    """Sinkhorn targets of one fold's [B, hidden] class or [B, F, hidden]
    patch head features against the [hidden, K_c] prototypes `weight`:
    (E [B or B*F, K_c], u, v, mean row entropy) with Q = diag(u) E
    diag(v), balanced jointly across batch and position, E into `out` if
    given."""
    return sinkhorn_normalize(feats.reshape(-1, feats.shape[-1]), weight,
                              n_iters, temperature, out=out)


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
    log_p = np.log(p, out=np.zeros_like(p), where=p > 0)
    return float(-(p * log_p).sum(axis=-1).mean())
