"""Autodiff engine tests: forward values and gradients per op."""

import ast
import pathlib

import numpy as np
import pytest

import dualmim
from dualmim.gradcheck import check_grads, finite_diff, max_violation, op_suite
from dualmim.tensor import Tensor, gelu, layernorm, no_grad, softmax
from dualmim.vit import Block, ViTConfig

from tape_ref import matmul


def test_matmul_identity():
    b = np.arange(9, dtype=np.float32).reshape(3, 3)
    out = matmul(Tensor(np.eye(3, dtype=np.float32)), Tensor(b))
    assert np.array_equal(out.data, b)


def test_matmul_hand_example():
    a = Tensor(np.array([[1, 2], [3, 4]], np.float32))
    b = Tensor(np.array([[1], [1]], np.float32))
    assert np.array_equal(matmul(a, b).data, np.array([[3], [7]], np.float32))


def test_matmul_backward_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((4, 5)).astype(np.float32) * 0.5, requires_grad=True)
    b = Tensor(rng.standard_normal((5, 3)).astype(np.float32) * 0.5, requires_grad=True)
    assert check_grads(lambda: matmul(a, b).mean(), {'a': a, 'b': b}) <= 1.0


def test_layernorm_constant_row_maps_to_zero():
    x = Tensor(np.full((2, 4), 3.0, np.float32))
    gamma = Tensor(np.ones(4, np.float32))
    beta = Tensor(np.zeros(4, np.float32))
    out = layernorm(x, gamma, beta)
    assert np.allclose(out.data, 0.0, atol=1e-3)


def test_layernorm_reference_row():
    x = Tensor(np.array([[1.0, 2.0, 3.0]], np.float32))
    out = layernorm(x, Tensor(np.ones(3, np.float32)),
                    Tensor(np.zeros(3, np.float32)))
    # scalar recomputation: mean 2, var 2/3, (x-2)/sqrt(2/3 + 1e-6)
    expect = (np.array([1.0, 2.0, 3.0]) - 2.0) / np.sqrt(2.0 / 3.0 + 1e-6)
    assert np.allclose(out.data[0], expect, atol=1e-4)
    assert abs(out.data[0][0] + 1.2247) < 1e-3
    assert abs(out.data[0][2] - 1.2247) < 1e-3


def test_layernorm_backward():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((3, 6)).astype(np.float32), requires_grad=True)
    gamma = Tensor(1.0 + 0.1 * rng.standard_normal(6).astype(np.float32),
                   requires_grad=True)
    beta = Tensor(0.1 * rng.standard_normal(6).astype(np.float32),
                  requires_grad=True)
    loss = lambda: layernorm(x, gamma, beta).mean() * 0.25
    assert check_grads(loss, {'x': x, 'gamma': gamma, 'beta': beta}) <= 1.0


def test_softmax_uniform_input():
    out = softmax(Tensor(np.zeros((2, 5), np.float32)))
    assert np.allclose(out.data, 0.2, atol=1e-7)


def test_softmax_large_logit_no_overflow():
    out = softmax(Tensor(np.array([[0.0, 1e4]], np.float32)))
    assert np.all(np.isfinite(out.data))
    assert np.allclose(out.data, [[0.0, 1.0]], atol=1e-6)


def test_softmax_backward():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((3, 5)).astype(np.float32), requires_grad=True)
    w = rng.standard_normal((3, 5)).astype(np.float32)
    loss = lambda: (softmax(x) * Tensor(w)).mean()
    assert check_grads(loss, {'x': x}) <= 1.0


def test_gelu_at_zero_and_asymptote():
    assert gelu(Tensor(np.zeros(1, np.float32))).data[0] == 0.0
    assert abs(gelu(Tensor(np.array([10.0], np.float32))).data[0] - 10.0) < 1e-4


def test_gelu_backward():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal(24).astype(np.float32), requires_grad=True)
    assert check_grads(lambda: gelu(x).mean(), {'x': x}) <= 1.0


def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(4).standard_normal((2, 3)).astype(np.float32),
               requires_grad=True)
    x.sum().backward()
    assert np.array_equal(x.grad, np.ones((2, 3), np.float32))


def test_backward_square_analytic():
    x = Tensor(np.array([3.0], np.float32), requires_grad=True)
    (x * x).sum().backward()
    assert np.allclose(x.grad, [6.0])


def test_composite_two_blocks_backward():
    """Every parameter of a 2-block transformer matches finite differences."""
    cfg = ViTConfig(embed_dim=8, depth=2, num_heads=2, image_size=16,
                    patch_size=4, decoder_dim=8, decoder_depth=1)
    rng = np.random.default_rng(5)
    blocks = [Block(rng, cfg.embed_dim, cfg.num_heads, cfg.mlp_ratio)
              for _ in range(2)]
    x = Tensor(0.5 * rng.standard_normal((1, 5, 8)).astype(np.float32),
               requires_grad=True)

    def loss():
        h = x
        for blk in blocks:
            h = blk(h)
        return h.mean() * 0.25

    params = {"x": x}
    for i, blk in enumerate(blocks):
        for k, v in blk.params().items():
            params[f"b{i}.{k}"] = v
    worst = check_grads(loss, params)
    assert worst <= 1.0, f"worst violation {worst:.3f}"


def _two_block_loss(seed):
    """A fresh 2-block graph on fixed inputs: (loss, {name: leaf})."""
    cfg = ViTConfig(embed_dim=8, depth=2, num_heads=2)
    rng = np.random.default_rng(seed)
    blocks = [Block(rng, cfg.embed_dim, cfg.num_heads, cfg.mlp_ratio)
              for _ in range(2)]
    x = Tensor(rng.standard_normal((2, 5, 8)).astype(np.float32),
               requires_grad=True)
    leaves = {"x": x}
    h = x
    for i, blk in enumerate(blocks):
        leaves |= {f"b{i}.{k}": v for k, v in blk.params().items()}
        h = blk(h)
    return (h * h).mean() + h.take(np.array([0, 3]), axis=1).sum(), leaves


def _graph_nodes(loss):
    nodes, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def _backward_keeping_graph(loss):
    """Reference walk: the engine's order (the accumulation order fixes the
    float32 sums), running every closure and freeing nothing."""
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents
                         if id(p) not in seen and p.requires_grad)
    loss._accumulate(np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def test_backward_releases_inner_nodes_and_keeps_leaf_grads():
    loss, leaves = _two_block_loss(seed=9)
    nodes = _graph_nodes(loss)
    inner = [n for n in nodes if n._parents]
    assert len(inner) > 20 and all(n._backward is not None for n in inner)
    loss.backward()
    assert all(n.grad is None and n._backward is None for n in inner)

    ref_loss, ref_leaves = _two_block_loss(seed=9)
    _backward_keeping_graph(ref_loss)
    # the reference kept its graph: the release is what frees it
    assert all(n._backward is not None for n in _graph_nodes(ref_loss)
               if n._parents)
    for name, leaf in leaves.items():
        assert leaf.grad is not None, name
        assert leaf.grad.tobytes() == ref_leaves[name].grad.tobytes(), name


def test_second_backward_over_one_graph_raises():
    loss, leaves = _two_block_loss(seed=10)
    loss.backward()
    grads = {k: v.grad.copy() for k, v in leaves.items()}
    with pytest.raises(RuntimeError, match="released graph"):
        loss.backward()
    # the failed walk reached no leaf
    assert all(np.array_equal(leaves[k].grad, g) for k, g in grads.items())


def test_backward_into_a_walked_graph_raises():
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3),
               requires_grad=True)
    h = gelu(x * 2.0)
    h.sum().backward()
    assert x.grad is not None and h.grad is None
    # a second loss built on h shares the released nodes
    with pytest.raises(RuntimeError, match="released graph"):
        (h * h).mean().backward()
    # a fresh graph on the same leaf still walks
    x.grad = None
    (x * x).sum().backward()
    assert np.array_equal(x.grad, 2.0 * x.data)


def test_elementwise_grads():
    rng = np.random.default_rng(6)
    x = Tensor(0.5 * rng.standard_normal(16).astype(np.float32), requires_grad=True)
    assert check_grads(lambda: ((x * x) + 1.5).log().mean(), {'x': x}) <= 1.0


def test_take_repeated_indices_raise():
    """A repeated index, also one spelled negative, is refused in the
    forward; unique indices gather as numpy does."""
    x = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3), requires_grad=True)
    for idx in ([1, 1, 3], [3, -1]):
        with pytest.raises(ValueError, match="unique indices"):
            x.take(np.array(idx), axis=0)
    idx = np.array([3, -4])
    assert np.array_equal(x.take(idx, axis=0).data, x.data[idx])


def test_take_unique_indices_scatter_like_add_at():
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((2, 6, 3)).astype(np.float32),
               requires_grad=True)
    idx = np.array([4, 0, 5, 2])
    g = rng.standard_normal((2, 4, 3)).astype(np.float32)
    (x.take(idx, axis=1) * Tensor(g)).sum().backward()
    expect = np.zeros_like(x.data)
    np.add.at(expect, (slice(None), idx), g)
    assert np.array_equal(x.grad, expect)


def test_accumulate_is_copy_on_write():
    t = Tensor(np.zeros(3, np.float32), requires_grad=True)
    g = np.ones(3, np.float32)
    t._accumulate(g)
    assert t.grad is g                  # first gradient by reference
    t._accumulate(g)
    assert t.grad is not g and np.array_equal(g, np.ones(3))
    t._accumulate(g)                    # owned now: updated in place
    assert np.array_equal(t.grad, [3.0, 3.0, 3.0])
    assert np.array_equal(g, np.ones(3))
    s = Tensor(np.float32(1.0), requires_grad=True)
    s._accumulate(np.float32(2.0))      # 0-d numpy scalar is materialized
    assert isinstance(s.grad, np.ndarray) and s.grad.shape == ()


def test_shared_gradient_buffer_is_not_mutated():
    # both addends of a + b receive the same buffer; a gets a second term
    a = Tensor(np.zeros((2, 3), np.float32), requires_grad=True)
    b = Tensor(np.zeros((2, 3), np.float32), requires_grad=True)
    ((a + b).sum() + (a * 2.0).sum()).backward()
    assert np.array_equal(a.grad, np.full((2, 3), 3.0))
    assert np.array_equal(b.grad, np.ones((2, 3)))


def test_no_grad_records_no_tape():
    x = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
    with no_grad():
        y = layernorm(x * 2.0, Tensor(np.ones(3, np.float32)),
                      Tensor(np.zeros(3, np.float32)))
    assert not y.requires_grad and y._parents == () and y._backward is None
    z = x * 2.0     # recording resumes after the block
    assert z.requires_grad and z._parents


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
    with pytest.raises(ValueError):
        (x * x).backward()


def test_finite_diff_helper_consistency():
    # the checker passes its own trivially-known case
    x = Tensor(np.array([1.0, -2.0], np.float32), requires_grad=True)
    fd = finite_diff(lambda: float((x * x).sum().data), x.data)
    assert max_violation(np.array([2.0, -4.0], np.float32), fd) <= 1.0


def _src_tape_ops():
    """Every op name that src/ passes to Tensor._result, read from its AST."""
    ops = set()
    for path in pathlib.Path(dualmim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_result"):
                ops.add(ast.literal_eval(node.args[2]))
    return ops


def test_gradcheck_suite_covers_every_tape_op(monkeypatch):
    """gradcheck.op_suite puts every op src/ can record on the tape."""
    recorded = set()
    result = Tensor._result

    def spy(data, parents, op, backward):
        recorded.add(op)
        return result(data, parents, op, backward)

    monkeypatch.setattr(Tensor, "_result", staticmethod(spy))
    op_suite()
    src_ops = _src_tape_ops()
    assert {"recon", "concat", "reshape", "tempered_ce"} <= src_ops
    assert src_ops <= recorded, sorted(src_ops - recorded)
