"""Elementary tape nodes that only the test references need.

The runtime builds its losses and transformer ops as single fused nodes,
so it has no division or square root on the tape. The composed references
the fused ops are checked against are built from these nodes plus the
runtime's add, neg, mul, sum and mean.
"""

import numpy as np

from dualmim.losses import _COS_EPS
from dualmim.tensor import Tensor, _unbroadcast, ensure_tensor


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
    s_norm = sqrt((student_rows * student_rows).sum(axis=-1) + _COS_EPS)
    cos = div((student_rows * Tensor(t_unit)).sum(axis=-1), s_norm)
    return -cos.mean() + 1.0
