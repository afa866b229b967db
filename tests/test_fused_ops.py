"""Each fused transformer op against the composed formula it replaced.

The references below rebuild every op from elementary tape ops (reshape,
matmul, add, mul, softmax, and the test-only div, sqrt and
sum_axis), as the ops were written before they became single nodes; GELU,
already one node, is compared with its out-of-place form. Value and every
gradient must agree to 1e-5 relative to the reference's largest magnitude.

Then: attention, layernorm, GELU and the MLP against the float64 oracle;
GELU and the MLP give the same value and input gradient in any number of
row blocks, and each op in any number of rows; a taped layernorm keeps no
normalized copy of its input, and a taped MLP only its fc1 output and tanh.
"""

import tracemalloc

import numpy as np
import pytest

from dualmim import tensor
from dualmim.tensor import (Tensor, attention, concat, gelu, l2_normalize,
                            layernorm, linear, mlp, no_grad, softmax)
from f64_oracle import _gelu as f64_gelu
from f64_oracle import _layernorm as f64_layernorm
from f64_oracle import attention as f64_attention
from tape_memory import tape_bytes
from tape_ref import div, matmul, sqrt, sum_axis

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


def ref_attention(qkv, num_heads, n_query=None):
    b, t, d3 = qkv.shape
    n = t if n_query is None else n_query
    d = d3 // 3
    hd = d // num_heads

    def heads(z):
        return _transpose(z.reshape(b, t, num_heads, hd), (0, 2, 1, 3))

    q, k, v = (heads(qkv.take(np.arange(i * d, (i + 1) * d), axis=2))
               for i in range(3))
    q = q.take(np.arange(n), axis=2)
    scores = matmul(q, _transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(hd))
    att = softmax(scores, axis=-1)
    return _transpose(matmul(att, v), (0, 2, 1, 3)).reshape(b, n, d)


def ref_layernorm(x, gamma, beta, eps=1e-6):
    inv_d = 1.0 / x.shape[-1]
    mu = sum_axis(x, -1, keepdims=True) * inv_d
    xc = x + mu * -1.0
    var = sum_axis(xc * xc, -1, keepdims=True) * inv_d
    return div(xc, sqrt(var + eps)) * gamma + beta


def ref_l2_normalize(x, axis=-1, eps=1e-8):
    sq = sum_axis(x * x, axis, keepdims=True)
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


def test_linear_frozen_weight():
    rng = np.random.default_rng(2)
    x, b = _leaf(rng, 3, 4, 6), _leaf(rng, 5)
    w = Tensor(rng.standard_normal((6, 5)).astype(np.float32))
    _check(lambda: linear(x, w, b), lambda: ref_linear(x, w, b), [x, b],
           (3, 4, 5), 3)
    assert w.grad is None


def test_attention_matches_composed():
    rng = np.random.default_rng(4)
    for b, t, d, h, n in ((2, 5, 8, 2, None), (3, 17, 16, 4, None),
                          (1, 9, 6, 1, None), (2, 5, 8, 2, 2),
                          (3, 17, 16, 4, 2), (1, 9, 6, 1, 1)):
        qkv = _leaf(rng, b, t, 3 * d)
        _check(lambda: attention(qkv, h, n), lambda: ref_attention(qkv, h, n),
               [qkv], (b, n or t, d), 5)


def test_attention_n_query_none_is_all_rows_bit_for_bit():
    rng = np.random.default_rng(14)
    qkv = _leaf(rng, 3, 7, 24)
    upstream = rng.standard_normal((3, 7, 8)).astype(np.float32)
    val, (grad,) = _run(lambda: attention(qkv, 2), [qkv], upstream)
    val_t, (grad_t,) = _run(lambda: attention(qkv, 2, n_query=7), [qkv],
                            upstream)
    assert np.array_equal(val, val_t) and np.array_equal(grad, grad_t)


def _central_diff(f, x, upstream, eps=1e-6):
    """Gradient of sum(f(x) * upstream) in float64 by central differences."""
    fd = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        orig = x[i]
        x[i] = orig + eps
        hi = (f(x) * upstream).sum()
        x[i] = orig - eps
        lo = (f(x) * upstream).sum()
        x[i] = orig
        fd[i] = (hi - lo) / (2 * eps)
    return fd


def test_attention_n_query_matches_f64_oracle():
    """Value and gradient within 1e-6 of the float64 oracle's attention,
    its gradient by central differences of sum(out * upstream)."""
    rng = np.random.default_rng(15)
    b, t, d, h, n = 2, 6, 8, 2, 2
    qkv = _leaf(rng, b, t, 3 * d)
    upstream = rng.standard_normal((b, n, d)).astype(np.float32)
    val, (grad,) = _run(lambda: attention(qkv, h, n_query=n), [qkv], upstream)
    x = qkv.data.astype(np.float64)
    ref = f64_attention(x, h, n)
    assert np.abs(val - ref).max() < 1e-6
    fd = _central_diff(lambda z: f64_attention(z, h, n), x, upstream)
    assert np.abs(grad - fd).max() < 1e-6
    assert np.abs(fd[:, n:, :d]).max() == 0.0    # no query past row n


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


def test_layernorm_and_gelu_match_f64_oracle():
    """Value and every gradient within 1e-6 of the float64 oracle's
    layernorm and GELU, the gradients by central differences."""
    rng = np.random.default_rng(16)
    x, gamma, beta = _leaf(rng, 2, 3, 8), _leaf(rng, 8), _leaf(rng, 8)
    upstream = rng.standard_normal((2, 3, 8)).astype(np.float32)
    val, grads = _run(lambda: layernorm(x, gamma, beta), [x, gamma, beta],
                      upstream)
    args = [t.data.astype(np.float64) for t in (x, gamma, beta)]
    assert np.abs(val - f64_layernorm(*args)).max() < 1e-6
    for i, grad in enumerate(grads):
        def f(z, i=i):
            return f64_layernorm(*args[:i], z, *args[i + 1:])
        assert np.abs(grad - _central_diff(f, args[i], upstream)).max() < 1e-6

    x = _leaf(rng, 3, 10, scale=2.0)
    upstream = rng.standard_normal((3, 10)).astype(np.float32)
    val, (grad,) = _run(lambda: gelu(x), [x], upstream)
    x64 = x.data.astype(np.float64)
    assert np.abs(val - f64_gelu(x64)).max() < 1e-6
    assert np.abs(grad - _central_diff(f64_gelu, x64, upstream)).max() < 1e-6


def test_mlp_matches_composed_and_f64_oracle():
    """The MLP node against linear(gelu(linear)): the same bits for the
    value and dx. Then value and all five gradients within 1e-6 of the
    float64 oracle's MLP, the gradients by central differences."""
    rng = np.random.default_rng(19)
    leaves = [_leaf(rng, *shape, scale=0.5)
              for shape in ((2, 3, 8), (8, 12), (12,), (12, 8), (8,))]
    x, w1, b1, w2, b2 = leaves
    upstream = rng.standard_normal((2, 3, 8)).astype(np.float32)
    val, grads = _run(lambda: mlp(*leaves), leaves, upstream)
    ref_val, ref_grads = _run(lambda: linear(gelu(linear(x, w1, b1)), w2, b2),
                              leaves, upstream)
    assert np.array_equal(val, ref_val)
    assert np.array_equal(grads[0], ref_grads[0])

    def f64_mlp(x, w1, b1, w2, b2):
        return f64_gelu(x @ w1 + b1) @ w2 + b2

    args = [t.data.astype(np.float64) for t in leaves]
    assert np.abs(val - f64_mlp(*args)).max() < 1e-6
    for i, grad in enumerate(grads):
        def f(z, i=i):
            return f64_mlp(*args[:i], z, *args[i + 1:])
        assert np.abs(grad - _central_diff(f, args[i], upstream)).max() < 1e-6


# op, leaf shapes, output shape; the rows are axis 0 (token rows, or
# images for attention)
ROW_OPS = {
    "gelu": (gelu, [(21, 16)], (21, 16)),
    "mlp": (mlp, [(21, 16), (16, 32), (32,), (32, 16), (16,)], (21, 16)),
    "layernorm": (layernorm, [(21, 16), (16,), (16,)], (21, 16)),
    "attention": (lambda qkv: attention(qkv, 2), [(11, 4, 24)], (11, 4, 8)),
    "attention_n_query": (lambda qkv: attention(qkv, 2, n_query=2),
                          [(11, 4, 24)], (11, 2, 8)),
}


def _row_case(name):
    """The op of ROW_OPS[name], with its leaves and upstream gradient."""
    op, shapes, out_shape = ROW_OPS[name]
    rng = np.random.default_rng(17)
    leaves = [_leaf(rng, *shape) for shape in shapes]
    return op, leaves, rng.standard_normal(out_shape).astype(np.float32)


def _run_taped_and_not(op, leaves, upstream):
    """_run of op(*leaves), after checking that under no_grad() the op
    gives the taped value's bits."""
    val, grads = _run(lambda: op(*leaves), leaves, upstream)
    with no_grad():
        assert np.array_equal(op(*leaves).data, val)
    return val, grads


def test_gelu_row_blocks_change_no_bit(monkeypatch):
    """GELU run in many row blocks gives the bits of GELU run as one block:
    its value and gradient taped, and its value under no_grad()."""
    op, leaves, upstream = _row_case("gelu")
    whole = _run_taped_and_not(op, leaves, upstream)
    # 64-byte rows: six blocks of 3 or 4 rows
    monkeypatch.setattr(tensor, "BLOCK_BYTES", 256)
    val, (grad,) = _run_taped_and_not(op, leaves, upstream)
    assert np.array_equal(val, whole[0])
    assert np.array_equal(grad, whole[1][0])


def test_mlp_row_blocks_change_no_value_bit(monkeypatch):
    """The MLP run in ragged row blocks gives the bits of its one-block
    run, value and dx, taped and under no_grad(); the weight and bias
    gradients, summed block by block, agree within 1e-6 of their largest
    magnitude."""
    op, leaves, upstream = _row_case("mlp")
    whole = _run_taped_and_not(op, leaves, upstream)
    # 128-byte hidden rows: at most 4 rows a block
    monkeypatch.setattr(tensor, "BLOCK_BYTES", 512)
    blocks, _ = tensor._row_blocks(21, 32)
    assert len(blocks) >= 3
    assert len({s.stop - s.start for s in blocks}) > 1
    val, grads = _run_taped_and_not(op, leaves, upstream)
    assert np.array_equal(val, whole[0])
    assert np.array_equal(grads[0], whole[1][0])
    for g, ref in zip(grads[1:], whole[1][1:]):
        assert np.abs(g - ref).max() <= 1e-6 * np.abs(ref).max()


def test_row_blocks_never_hold_one_row_of_many(monkeypatch):
    """Near-equal blocks within the budget, but none of one row when the
    call has two or more, even where a row is the whole budget: a one-row
    matmul is a GEMV with other bits."""
    for budget_rows in (1, 3):          # rows of width 1
        monkeypatch.setattr(tensor, "BLOCK_BYTES", 4 * budget_rows)
        for rows in range(1, 12):
            blocks, size = tensor._row_blocks(rows, 1)
            lens = [s.stop - s.start for s in blocks]
            assert sum(lens) == rows and max(lens) == size
            assert min(lens) >= min(2, rows) and size - min(lens) <= 1
            assert budget_rows == 1 or size <= budget_rows


@pytest.mark.parametrize("name", sorted(ROW_OPS))
def test_row_zero_of_two_rows_is_row_zero(name):
    """Row 0 of a two-row call, its value and input gradient, has the bits
    of row 0 of the full call, taped and under no_grad()."""
    op, leaves, upstream = _row_case(name)
    val, grads = _run_taped_and_not(op, leaves, upstream)
    pair = [Tensor(leaves[0].data[:2], requires_grad=True)] + leaves[1:]
    val2, grads2 = _run_taped_and_not(op, pair, upstream[:2])
    assert np.array_equal(val2[0], val[0])
    assert np.array_equal(grads2[0][0], grads[0][0])


def test_layernorm_keeps_its_output_and_two_row_vectors():
    """A taped layernorm holds, until backward, only its output and each
    row's mean and 1/std: not a normalized copy of its input."""
    rng = np.random.default_rng(18)
    x, gamma, beta = _leaf(rng, 4096, 64), _leaf(rng, 64), _leaf(rng, 64)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = layernorm(x, gamma, beta)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    # 8 KiB for the node's Python objects; a normalized copy is 1 MiB
    assert kept <= out.data.nbytes + 2 * 4096 * 4 + 8192, kept


def test_mlp_keeps_its_input_fc1_output_and_tanh():
    """A taped MLP holds, until backward, its output, its five inputs (x by
    reference, not a copy) and two [rows, hidden] buffers, h and its tanh:
    not the GELU output."""
    rng = np.random.default_rng(20)
    leaves = [_leaf(rng, *shape)
              for shape in ((4, 50, 16), (16, 64), (64,), (64, 16), (16,))]
    out = mlp(*leaves)
    assert out.requires_grad
    assert tape_bytes(out) == (out.data.nbytes
                               + sum(t.data.nbytes for t in leaves)
                               + 2 * 200 * 64 * 4)


def test_mlp_without_tape_holds_one_block_of_hidden_width(monkeypatch):
    """Under no_grad() the MLP's hidden-width scratch is one row block per
    buffer: a [4096, 64] -> 256 -> 64 call in 256 KiB blocks allocates at
    most its output, two blocks and 64 KiB, never a 4 MiB [4096, 256]."""
    monkeypatch.setattr(tensor, "BLOCK_BYTES", 256 << 10)
    rng = np.random.default_rng(21)
    leaves = [_leaf(rng, *shape)
              for shape in ((4096, 64), (64, 256), (256,), (256, 64), (64,))]
    with no_grad():
        tracemalloc.start()
        try:
            out = mlp(*leaves)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= out.data.nbytes + 2 * (256 << 10) + (64 << 10), peak
