"""Each fused transformer op against the composed formula it replaced.

The references below rebuild every op from elementary tape ops (reshape,
matmul, add, neg, mul, sum, softmax, and the test-only div and sqrt), as
the ops were written before they became single nodes; GELU, already one
node, is compared with its out-of-place form. Value and every gradient
must agree to 1e-5 relative to the reference's largest magnitude.
"""

import numpy as np

from dualmim.tensor import (Tensor, attention, concat, gelu, l2_normalize,
                            layernorm, linear, softmax)
from tape_ref import div, matmul, sqrt

REL = 1e-5


def _transpose(t, axes):
    """Permute axes as a tape node (the composed attention needs it)."""
    inv = np.argsort(axes)

    def bwd(g):
        t._accumulate(g.transpose(inv))

    return Tensor._result(t.data.transpose(axes), (t,), "transpose", bwd)


def ref_linear(x, w, b):
    lead = x.shape[:-1]
    y = matmul(x.reshape((-1, x.shape[-1])), w) + b
    return y.reshape(lead + (w.shape[1],))


def ref_attention(qkv, num_heads):
    b, t, d3 = qkv.shape
    d = d3 // 3
    hd = d // num_heads

    def heads(z):
        return _transpose(z.reshape(b, t, num_heads, hd), (0, 2, 1, 3))

    q, k, v = (heads(qkv.take(np.arange(i * d, (i + 1) * d), axis=2))
               for i in range(3))
    scores = matmul(q, _transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(hd))
    att = softmax(scores, axis=-1)
    return _transpose(matmul(att, v), (0, 2, 1, 3)).reshape(b, t, d)


def ref_layernorm(x, gamma, beta, eps=1e-6):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x + (-mu)
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return div(xc, sqrt(var + eps)) * gamma + beta


def ref_l2_normalize(x, axis=-1, eps=1e-8):
    sq = (x * x).sum(axis=axis, keepdims=True)
    return div(x, sqrt(sq + eps))


def ref_gelu(x):
    """The out-of-place GELU node the in-place one replaced."""
    c, a = np.float32(np.sqrt(2.0 / np.pi)), np.float32(0.044715)
    xd = x.data
    sq = xd * xd
    t = np.tanh(c * (xd + a * (sq * xd)))

    def bwd(g):
        local = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * c * (
            1.0 + 3.0 * a * sq)
        x._accumulate(g * local.astype(np.float32))

    return Tensor._result(0.5 * xd * (1.0 + t), (x,), "gelu", bwd)


def _leaf(rng, *shape, scale=1.0):
    return Tensor((scale * rng.standard_normal(shape)).astype(np.float32),
                  requires_grad=True)


def _run(build, leaves, upstream):
    """Value and leaf gradients of sum(build() * upstream)."""
    for t in leaves:
        t.grad = None
    out = build()
    (out * Tensor(upstream)).sum().backward()
    return out.data.copy(), [t.grad.copy() for t in leaves]


def _assert_close(got, ref):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= REL * np.abs(ref).max()


def _check(fused, composed, leaves, out_shape, seed):
    upstream = np.random.default_rng(seed).standard_normal(
        out_shape).astype(np.float32)
    val, grads = _run(fused, leaves, upstream)
    ref_val, ref_grads = _run(composed, leaves, upstream)
    _assert_close(val, ref_val)
    for g, rg in zip(grads, ref_grads):
        _assert_close(g, rg)


def test_linear_matches_composed():
    rng = np.random.default_rng(0)
    for shape in ((7, 6), (3, 5, 6), (2, 3, 4, 6)):
        x, w, b = _leaf(rng, *shape), _leaf(rng, 6, 9), _leaf(rng, 9)
        _check(lambda: linear(x, w, b), lambda: ref_linear(x, w, b),
               [x, w, b], shape[:-1] + (9,), 1)


def test_linear_without_bias_and_frozen_weight():
    rng = np.random.default_rng(2)
    x = _leaf(rng, 3, 4, 6)
    w = Tensor(rng.standard_normal((6, 5)).astype(np.float32))
    _check(lambda: linear(x, w), lambda: matmul(x.reshape((-1, 6)), w).reshape(
        (3, 4, 5)), [x], (3, 4, 5), 3)
    assert w.grad is None


def test_attention_matches_composed():
    rng = np.random.default_rng(4)
    for b, t, d, h in ((2, 5, 8, 2), (3, 17, 16, 4), (1, 9, 6, 1)):
        qkv = _leaf(rng, b, t, 3 * d)
        _check(lambda: attention(qkv, h), lambda: ref_attention(qkv, h),
               [qkv], (b, t, d), 5)


def test_attention_shared_input():
    """q, k and v all from one tensor: its gradients add up."""
    rng = np.random.default_rng(6)
    x = _leaf(rng, 2, 6, 8)

    def qkv():
        return concat([x, x * 0.5, x * x], axis=2)

    _check(lambda: attention(qkv(), 2), lambda: ref_attention(qkv(), 2),
           [x], (2, 6, 8), 7)


def test_layernorm_matches_composed():
    rng = np.random.default_rng(8)
    for shape in ((4, 8), (2, 5, 8), (2, 2, 3, 8)):
        x = _leaf(rng, *shape, scale=3.0)
        g, b = _leaf(rng, 8), _leaf(rng, 8)
        _check(lambda: layernorm(x, g, b), lambda: ref_layernorm(x, g, b),
               [x, g, b], shape, 9)


def test_l2_normalize_matches_composed():
    rng = np.random.default_rng(10)
    for shape, axis in (((5, 7), -1), ((2, 4, 7), -1), ((6, 3), 0)):
        x = _leaf(rng, *shape)
        _check(lambda: l2_normalize(x, axis=axis),
               lambda: ref_l2_normalize(x, axis=axis), [x], shape, 11)


def test_gelu_matches_composed():
    rng = np.random.default_rng(12)
    x = _leaf(rng, 3, 4, 10, scale=2.0)
    _check(lambda: gelu(x), lambda: ref_gelu(x), [x], (3, 4, 10), 13)
