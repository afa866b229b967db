"""The three training losses and their weighted combination.

Reconstruction compares student decoder outputs against normalized
reconstruction-teacher tokens at masked positions (cosine); the two
pseudo-label losses are cross entropies against Sinkhorn targets. Targets
are plain arrays, never on the tape, so no gradient can reach a teacher.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .tensor import Tensor

LOG_EPS = 1e-9     # guards log(0) in cross entropy
TARGET_EPS = 1e-6  # guards zero variance in target normalization
_COS_EPS = 1e-8
CE_CHUNK_ROWS = 256  # rows per streamed chunk of tempered_cross_entropy


@dataclass
class LossWeights:
    lambda_m: float = 1.0
    lambda_c: float = 1.0
    lambda_p: float = 1.0


@dataclass
class LossReport:
    loss_m: float
    loss_c: float
    loss_p: float
    total: float
    total_tensor: object          # scalar Tensor (backward entry point);
                                  # train_step drops it after the step
    mean_cosine: float = 0.0
    patch_target_entropy: float = 0.0
    class_target_entropy: float = 0.0


def normalize_targets(teacher_tokens, eps=TARGET_EPS):
    """Per-row standardization over the embedding axis, population variance."""
    t = np.asarray(teacher_tokens, dtype=np.float32)
    mu = t.mean(axis=-1, keepdims=True)
    var = t.var(axis=-1, keepdims=True)
    return (t - mu) / np.sqrt(var + eps)


def cosine_recon_loss(student_rows, target_rows):
    """1 - mean cosine similarity between tape rows and constant targets.

    `student_rows`: Tensor [..., D] (decoder outputs at masked positions);
    `target_rows`: array of the same shape, already normalized.
    """
    t = np.asarray(target_rows, dtype=np.float32)
    t_unit = t / (np.linalg.norm(t, axis=-1, keepdims=True) + _COS_EPS)
    s_norm = ((student_rows * student_rows).sum(axis=-1) + _COS_EPS).sqrt()
    cos = (student_rows * Tensor(t_unit)).sum(axis=-1) / s_norm
    return 1.0 - cos.mean()


def recon_loss(decoder_out, teacher_fold_tokens, folds, eps=TARGET_EPS):
    """Eq. of the reconstruction objective over all masked positions.

    `decoder_out`: [B, N+1, D] Tensor (class token at row 0);
    `teacher_fold_tokens`: [K, B, F, D] raw teacher patch tokens (class
    rows already stripped), fold k at the positions `folds[k]` of the
    [K, F] `folds`. Returns (scalar Tensor, mean cosine float).
    """
    k, b, f, d = teacher_fold_tokens.shape
    targets = normalize_targets(teacher_fold_tokens, eps)
    targets = targets.transpose(1, 0, 2, 3).reshape(b, k * f, d)
    # +1 skips the class row
    student_rows = decoder_out.take(folds.reshape(-1) + 1, axis=1)
    loss = cosine_recon_loss(student_rows, targets)
    return loss, 1.0 - float(loss.data)


def cross_entropy(target_rows, predicted):
    """H(p, q) = -sum_c p_c log(q_c + eps), averaged over rows.

    `target_rows` is a constant array of distributions; `predicted` is a
    Tensor of distributions (tempered softmax output).
    """
    p = np.asarray(target_rows, dtype=np.float32)
    rows = int(np.prod(p.shape[:-1]))
    ce = -(Tensor(p) * (predicted + LOG_EPS).log()).sum()
    return ce * (1.0 / rows)


def tempered_cross_entropy(targets, target_rows, feats, weight, temperature):
    """cross_entropy(p, student_assign(feats @ weight, T)) as one fused op.

    `targets`: [N, K_c] table of target distributions (constants);
    `target_rows`: [R] row of `targets` for each feature row;
    `feats`: [R, hidden] Tensor (L2-normalized trunk features);
    `weight`: [hidden, K_c] Tensor (the prototype matrix).

    The scores are [R, K_c] with K_c in the thousands, so they are never
    stored: rows stream in chunks of CE_CHUNK_ROWS (chunk scores, row max,
    exp, row sum), and each row adds psum*log(denom) - p.z, with z the
    max-shifted logits, so log q is never formed either. While a chunk is
    hot, its closed-form score gradient (q*psum - p) / (T*R) is pushed
    through the GEMM to the feature rows and the weight; backward only
    scales those by the upstream gradient. Matches the composed form up to
    its LOG_EPS guard (exact log-softmax needs no guard).
    """
    table = np.asarray(targets, dtype=np.float32)
    rows = np.asarray(target_rows, dtype=np.intp)
    x = feats if isinstance(feats, Tensor) else Tensor(feats)
    w = weight if isinstance(weight, Tensor) else Tensor(weight)
    n, kc = x.shape[0], w.shape[1]
    inv_t = np.float32(1.0 / temperature)
    w_t = w.data * inv_t    # logits = feats @ (weight / T)
    grad_x = np.empty_like(x.data) if x.requires_grad else None
    grad_w = np.zeros_like(w.data) if w.requires_grad else None
    chunk = min(n, CE_CHUNK_ROWS)
    z_buf = np.empty((chunk, kc), np.float32)
    total = 0.0
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        xc = x.data[lo:hi]
        z = np.matmul(xc, w_t, out=z_buf[:hi - lo])
        z -= z.max(axis=1, keepdims=True)
        p = table[rows[lo:hi]]
        # float32 row sums (pairwise), float64 from there on
        psum = p.sum(axis=1).astype(np.float64)
        pz = np.einsum("ij,ij->i", p, z)
        e = np.exp(z, out=z)
        denom = e.sum(axis=1).astype(np.float64)
        total += float(psum @ np.log(denom) - pz.sum(dtype=np.float64))
        if grad_x is None and grad_w is None:
            continue
        e *= (psum / denom).astype(np.float32)[:, None]
        e -= p    # (q*psum - p), the logit gradient times R
        if grad_x is not None:
            np.matmul(e, w_t.T, out=grad_x[lo:hi])
        if grad_w is not None:
            grad_w += xc.T @ e
    inv_n = np.float32(1.0 / n)
    if grad_x is not None:
        grad_x *= inv_n
    if grad_w is not None:
        grad_w *= inv_t * inv_n

    def bwd(g):
        if x.requires_grad:
            x._accumulate(grad_x * g)
        if w.requires_grad:
            w._accumulate(grad_w * g)

    return Tensor._result(np.float32(total / n), (x, w), "tempered_ce", bwd)


def total_loss(weights, loss_m=None, loss_c=None, loss_p=None,
               mean_cosine=0.0, patch_entropy=0.0, class_entropy=0.0):
    """Weighted sum; zero-weight terms must be passed as None (never built).

    The total is always lambda_m*m + lambda_c*c + lambda_p*p in that order.
    """
    terms = []
    vals = {}
    for lam, t, name in ((weights.lambda_m, loss_m, "loss_m"),
                         (weights.lambda_c, loss_c, "loss_c"),
                         (weights.lambda_p, loss_p, "loss_p")):
        vals[name] = 0.0 if t is None else float(t.data)
        if t is not None and not np.isfinite(t.data):
            raise NumericError(f"{name} is not finite: {t.data}")
        if t is not None and lam != 0.0:
            terms.append(t * lam)
    if terms:
        tot = terms[0]
        for t in terms[1:]:
            tot = tot + t
    else:
        tot = Tensor(np.float32(0.0))
    return LossReport(loss_m=vals["loss_m"], loss_c=vals["loss_c"],
                      loss_p=vals["loss_p"], total=float(tot.data),
                      total_tensor=tot, mean_cosine=mean_cosine,
                      patch_target_entropy=patch_entropy,
                      class_target_entropy=class_entropy)
