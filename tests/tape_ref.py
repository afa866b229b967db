"""Elementary tape nodes and reference layouts that only the tests need.

The runtime builds its losses and transformer ops as single fused nodes,
so it has no matrix product, division, square root or sum over one axis
on the tape (its sum and mean reduce the whole tensor). The composed
references the fused ops are checked against are built from these nodes
plus the runtime's add, mul, sum, mean and softmax. The patch loss,
which the runtime streams fold by fold, is checked against one fold-major
target table, and the decoder, which returns only the loss rows in the
order asked for, against its full pass in canonical patch order.
"""

import numpy as np

from dualmim.losses import _COS_EPS, tempered_cross_entropy
from dualmim.pseudolabel import sinkhorn_normalize
from dualmim.tensor import (Tensor, _unbroadcast, concat, ensure_tensor,
                            softmax)


def matmul(a, b):
    """a @ b, batched over the leading dims; either side a Tensor or an
    array."""
    a, b = ensure_tensor(a), ensure_tensor(b)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2),
                                       a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g,
                                       b.shape))

    return Tensor._result(a.data @ b.data, (a, b), "matmul", bwd)


def student_assign(scores, temperature):
    """Row-wise tempered softmax on the tape: the composed form of the
    student assignment inside `tempered_cross_entropy`."""
    return softmax(scores * (1.0 / temperature), axis=-1)


def div(a, b):
    """a / b with broadcasting; either side a Tensor or an array."""
    a, b = ensure_tensor(a), ensure_tensor(b)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data),
                                       b.shape))

    return Tensor._result(a.data / b.data, (a, b), "div", bwd)


def sum_axis(a, axis, keepdims=False):
    """a summed over one axis."""
    def bwd(g):
        a._accumulate(np.broadcast_to(
            g if keepdims else np.expand_dims(g, axis), a.shape))

    return Tensor._result(a.data.sum(axis=axis, keepdims=keepdims), (a,),
                          "sum_axis", bwd)


def sqrt(a):
    out = np.sqrt(a.data)

    def bwd(g):
        a._accumulate(g * np.float32(0.5) / out)

    return Tensor._result(out, (a,), "sqrt", bwd)


def cosine_recon_loss(student_rows, target_rows):
    """1 - mean cosine similarity between tape rows and constant targets,
    composed from elementary nodes (the reference for `recon_loss`).

    `student_rows`: Tensor [..., D]; `target_rows`: array of the same
    shape, already normalized.
    """
    t = np.asarray(target_rows, dtype=np.float32)
    t_unit = t / (np.linalg.norm(t, axis=-1, keepdims=True) + _COS_EPS)
    s_norm = sqrt(sum_axis(student_rows * student_rows, -1) + _COS_EPS)
    cos = div(sum_axis(student_rows * Tensor(t_unit), -1), s_norm)
    return cos.mean() * -1.0 + 1.0


def fold_major_patch_loss(feats, weight, match, teacher_feats,
                          teacher_weight, sk):
    """`train.patch_loss` over one table of every fold's targets.

    The Sinkhorn targets of all K folds are stacked fold-major as
    [K*B*F, K_c]: the student row at image b, masked position m, matched
    to (fold, row), reads table row (fold*B + b)*F + row. One group of all
    B*M rows, in (b, m) order. Returns (loss Tensor, mean fold entropy).
    """
    k, b, f, _ = teacher_feats.shape
    folds = [sinkhorn_normalize(t.reshape(b * f, -1), teacher_weight,
                                sk.n_iters, sk.teacher_temperature)
             for t in teacher_feats]
    table = np.concatenate([q for q, _ in folds])
    fold_idx, row_idx = match[0], match[1]
    m = fold_idx.shape[1]
    rows = (fold_idx * b + np.arange(b)[:, None]) * f + row_idx
    loss = tempered_cross_entropy(
        [(table, rows.reshape(-1), np.arange(b * m))],
        feats.reshape((b * m, -1)), weight, sk.student_temperature)
    return loss, float(np.mean([ent for _, ent in folds]))


def canonical_decoder(decoder, encoded, vis, msk):
    """`decoder`'s full pass in canonical patch order: [B, N+1, D], the
    class row and then every patch position, each block and the final
    norm and `pred` on all rows. Row 1 + i of it is patch i."""
    vis, msk = np.asarray(vis, np.intp), np.asarray(msk, np.intp)
    dd = decoder.cfg.decoder_dim
    mask_rows = decoder.mask_token + Tensor(
        np.zeros((encoded.shape[0], msk.size, dd), np.float32))
    x = concat([decoder.embed(encoded), mask_rows], axis=1)
    x = x.take(np.argsort(np.concatenate([[-1], vis, msk])), axis=1)
    x = x + Tensor(np.concatenate([np.zeros((1, dd), np.float32),
                                   decoder.pos]))
    for blk in decoder.blocks:
        x = blk(x)
    return decoder.pred(decoder.norm(x))
