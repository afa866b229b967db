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
    patch_target_entropy: float = 0.0
    class_target_entropy: float = 0.0


def normalize_targets(teacher_tokens, eps=TARGET_EPS):
    """Per-row standardization over the embedding axis, population variance."""
    t = np.asarray(teacher_tokens, dtype=np.float32)
    mu = t.mean(axis=-1, keepdims=True)
    var = t.var(axis=-1, keepdims=True)
    return (t - mu) / np.sqrt(var + eps)


def recon_loss(decoder_out, teacher_fold_tokens, eps=TARGET_EPS):
    """1 - mean cosine between the student rows at every masked position
    and their unit reconstruction targets, as one tape node.

    `decoder_out`: [B, 1+K*F, D] Tensor, the class row and then the
    student rows of fold 0, fold 1, ... (the decoder's output for the
    queries `folds.reshape(-1)`); `teacher_fold_tokens`: [K, B, F, D] raw
    teacher patch tokens (class rows already stripped). With s a student
    row, t its unit target and n = sqrt(|s|^2 + eps), cos = s.t / n; over
    R rows the backward is ds = -g/(R n) (t - cos s/n), written at rows 1:
    of one zeroed [B, 1+K*F, D] buffer. Returns the scalar Tensor.
    """
    k, b, f, d = teacher_fold_tokens.shape
    if decoder_out.shape[1] != 1 + k * f:
        raise ValueError(f"{decoder_out.shape[1]} decoder rows, not 1+{k}*{f}")
    t = normalize_targets(teacher_fold_tokens, eps).transpose(
        1, 0, 2, 3).reshape(b, k * f, d)
    t /= np.linalg.norm(t, axis=-1, keepdims=True) + _COS_EPS
    s = decoder_out.data[:, 1:]     # row 0 is the class row
    n = np.sqrt((s * s).sum(axis=-1) + np.float32(_COS_EPS))
    cos = (s * t).sum(axis=-1) / n
    inv_r = np.float32(1.0 / cos.size)
    loss = np.float32(1.0) - cos.sum() * inv_r

    def bwd(g):
        ds = t - s * (cos / n)[..., None]
        full = np.zeros(decoder_out.shape, np.float32)
        full[:, 1:] = ds * (-g * inv_r / n)[..., None]
        decoder_out._accumulate(full)

    return Tensor._result(loss, (decoder_out,), "recon", bwd)


def cross_entropy(target_rows, predicted):
    """H(p, q) = -sum_c p_c log(q_c + eps), averaged over rows.

    `target_rows` is a constant array of distributions; `predicted` is a
    Tensor of distributions (a softmax output).
    """
    p = np.asarray(target_rows, dtype=np.float32)
    rows = int(np.prod(p.shape[:-1]))
    return (Tensor(p) * (predicted + LOG_EPS).log()).sum() * (-1.0 / rows)


def tempered_cross_entropy(groups, feats, weight, temperature):
    """cross_entropy(Q, softmax(feats @ weight / T)) as one fused op, for
    target rows of Q that each sum to 1.

    `groups`: (E, u, v, table_rows, feat_rows) tuples, each the factors of
    a [N, K_c] table of target rows Q = diag(u) E diag(v) (constants; u
    and v broadcast, so a plain table comes with u = v = [1]) and the
    table row of each of its feature rows; every row of `feats` sits in
    one group. Groups are read in turn, so a generator keeps one E alive
    at a time; `feats`: [R, hidden] Tensor (L2-normalized trunk features);
    `weight`: [hidden, K_c] Tensor (the prototype matrix).

    A row's loss is lse(z) - p.z, z = f W / T, so Q enters only through
    two GEMMs over E per group: p.z = f . (Q W^T / T)[m], with Q W^T = u *
    (E (v W)^T), and the weight gradient's target term A^T Q = ((u A)^T E)
    * v, A the scatter-sum of the group's feature rows onto their table
    rows. The [R, K_c] logits are never stored: the lse half streams the
    rows in contiguous chunks of CE_CHUNK_ROWS and pushes the softmax
    gradient through the chunk's GEMMs while it is hot, 1/denom folded
    in. The logits are not max-shifted: unit features and prototype
    columns at T >= TEMPERATURE_FLOOR keep them within [-40, 40], and a
    row sum of exp that is not finite and positive raises ValueError.
    Backward only scales the gradients. Matches the composed form up to
    its LOG_EPS guard (exact log-softmax needs none).
    """
    x = feats if isinstance(feats, Tensor) else Tensor(feats)
    w = weight if isinstance(weight, Tensor) else Tensor(weight)
    n = x.shape[0]
    inv_t = np.float32(1.0 / temperature)
    w_t = w.data * inv_t    # logits = feats @ (weight / T)
    grad_x = np.zeros_like(x.data) if x.requires_grad else None
    grad_w = np.zeros_like(w.data) if w.requires_grad else None
    total = _lse_rows(x.data, w_t, grad_x, grad_w)
    pz, seen = _target_rows(groups, x.data, w_t, grad_x, grad_w)
    if seen != n:
        raise ValueError(f"tempered_cross_entropy: groups hold {seen} "
                         f"rows of {n}")
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

    return Tensor._result(np.float32((total - pz) / n), (x, w),
                          "tempered_ce", bwd)


def _lse_rows(x, w_t, grad_x, grad_w):
    """The sum of lse(z) over the logit rows z = x W_t, in contiguous
    chunks; adds the softmax half of the logit gradient, softmax(z) W_t^T
    to `grad_x` and x^T softmax(z) to `grad_w` (either may be None)."""
    n = x.shape[0]
    z_buf = np.empty((min(n, CE_CHUNK_ROWS), w_t.shape[1]), np.float32)
    total = 0.0
    for lo in range(0, n, CE_CHUNK_ROWS):
        xc = x[lo:lo + CE_CHUNK_ROWS]
        e = np.matmul(xc, w_t, out=z_buf[:len(xc)])
        with np.errstate(over="ignore"):
            np.exp(e, out=e)
        # float32 row sums (pairwise), float64 from there on
        denom = e.sum(axis=1).astype(np.float64)
        if not (np.isfinite(denom).all() and denom.min() > 0.0):
            raise ValueError("tempered_cross_entropy: a row's sum of exp "
                             "is not finite and positive")
        total += float(np.log(denom).sum())
        r = (1.0 / denom).astype(np.float32)[:, None]
        if grad_x is not None:
            grad_x[lo:lo + len(xc)] += (e @ w_t.T) * r
        if grad_w is not None:
            grad_w += (xc * r).T @ e
    return total


def _target_rows(groups, x, w_t, grad_x, grad_w):
    """(the sum of p.z over the feature rows, the rows seen), group by
    group, with p.z = f . (Q W_t^T)[m]; subtracts the target half of the
    logit gradient, (Q W_t^T)[m] from `grad_x` and A^T Q from `grad_w`."""
    pz, seen = 0.0, 0
    for e, u, v, table_rows, feat_rows in groups:
        seen += len(feat_rows)
        xg = x[feat_rows]
        tg = ((e @ (w_t * v).T) * u[:, None])[table_rows]
        pz += float(np.einsum("ij,ij->i", xg, tg).sum(dtype=np.float64))
        if grad_x is not None:
            grad_x[feat_rows] -= tg
        if grad_w is not None:
            a = np.zeros((len(e), x.shape[1]), np.float32)
            np.add.at(a, table_rows, xg)    # sequential: fixed bits
            grad_w -= ((a * u[:, None]).T @ e) * v
    return pz, seen


def total_loss(weights, loss_m=None, loss_c=None, loss_p=None,
               patch_entropy=0.0, class_entropy=0.0):
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
                      total_tensor=tot, patch_target_entropy=patch_entropy,
                      class_target_entropy=class_entropy)
