"""Dense float32 tensors with reverse-mode automatic differentiation.

Define-by-run: every op on tensors that require grad records a backward
closure; the graph is rebuilt on each forward pass and discarded after
``backward()``. Single-threaded; one graph belongs to one training step.
"""

import itertools
import math

import numpy as np

_node_counter = itertools.count()

# tanh GELU constants
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _unbroadcast(grad, shape):
    """Sum `grad` over axes that were broadcast so it matches `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


class Tensor:
    """n-d float32 array, optionally tracked for reverse-mode autodiff.

    `grad` is accumulated additively: shared subexpressions receive the
    sum of the gradients from every use site.
    """

    __slots__ = ("data", "grad", "requires_grad", "node_id", "_parents",
                 "_backward", "_op", "__weakref__")

    def __init__(self, data, requires_grad=False, _parents=(), _op="leaf"):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.node_id = next(_node_counter)
        self._parents = _parents
        self._backward = None
        self._op = _op

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, grad={self.requires_grad})"

    # -- graph bookkeeping ------------------------------------------------

    @staticmethod
    def _result(data, parents, op, backward):
        track = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=track,
                     _parents=parents if track else (), _op=op)
        if track:
            out._backward = backward
        return out

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float32, copy=True)
        else:
            self.grad += g

    def backward(self):
        """Populate `grad` of every requires_grad tensor reachable from here.

        `self` must be a scalar (size 1) loss.
        """
        if self.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.shape}")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- elementwise arithmetic -------------------------------------------

    def __add__(self, other):
        other = ensure_tensor(other)
        a, b = self, other

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))

        return self._result(a.data + b.data, (a, b), "add", bwd)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def bwd(g):
            a._accumulate(-g)

        return self._result(-a.data, (a,), "neg", bwd)

    def __sub__(self, other):
        return self + (-ensure_tensor(other))

    def __rsub__(self, other):
        return ensure_tensor(other) + (-self)

    def __mul__(self, other):
        other = ensure_tensor(other)
        a, b = self, other

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.shape))

        return self._result(a.data * b.data, (a, b), "mul", bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ensure_tensor(other)
        a, b = self, other

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g / b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

        return self._result(a.data / b.data, (a, b), "div", bwd)

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a, p = self, np.float32(exponent)
        out_data = a.data ** p

        def bwd(g):
            a._accumulate(g * p * a.data ** (p - np.float32(1.0)))

        return self._result(out_data, (a,), "pow", bwd)

    def sqrt(self):
        return self ** 0.5

    def exp(self):
        a = self
        out_data = np.exp(a.data)

        def bwd(g):
            a._accumulate(g * out_data)

        return self._result(out_data, (a,), "exp", bwd)

    def log(self):
        a = self

        def bwd(g):
            a._accumulate(g / a.data)

        return self._result(np.log(a.data), (a,), "log", bwd)

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            gg = np.asarray(g)
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            a._accumulate(np.broadcast_to(gg, a.shape))

        return self._result(out_data, (a,), "sum", bwd)

    def mean(self, axis=None, keepdims=False):
        n = self.size if axis is None else (
            np.prod([self.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old = a.shape

        def bwd(g):
            a._accumulate(g.reshape(old))

        return self._result(a.data.reshape(shape), (a,), "reshape", bwd)

    def transpose(self, axes):
        a = self
        inv = np.argsort(axes)

        def bwd(g):
            a._accumulate(g.transpose(inv))

        return self._result(a.data.transpose(axes), (a,), "transpose", bwd)

    def take(self, indices, axis):
        """Gather rows along `axis` with an integer index array.

        Backward scatter-adds, so repeated indices accumulate.
        """
        a = self
        idx = np.asarray(indices, dtype=np.intp)

        def bwd(g):
            full = np.zeros(a.shape, dtype=np.float32)
            np.add.at(full, (slice(None),) * axis + (idx,), g)
            a._accumulate(full)

        return self._result(a.data.take(idx, axis=axis), (a,), "take", bwd)

    # -- matrix product ---------------------------------------------------

    def __matmul__(self, other):
        other = ensure_tensor(other)
        a, b = self, other
        if a.shape[-1] != b.shape[-2]:
            raise ValueError(
                f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
        out_data = a.data @ b.data

        def bwd(g):
            if a.requires_grad:
                ga = g @ np.swapaxes(b.data, -1, -2)
                a._accumulate(_unbroadcast(ga, a.shape))
            if b.requires_grad:
                gb = np.swapaxes(a.data, -1, -2) @ g
                b._accumulate(_unbroadcast(gb, b.shape))

        return self._result(out_data, (a, b), "matmul", bwd)


def ensure_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


# -- nonlinearities and composite ops --------------------------------------

def softmax(x, axis=-1):
    """Numerically stabilized softmax along `axis` (row-max subtraction)."""
    a = ensure_tensor(x)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        a._accumulate(out_data * (g - dot))

    return Tensor._result(out_data, (a,), "softmax", bwd)


def gelu(x):
    """GELU, tanh approximation: 0.5*x*(1 + tanh(c*(x + a*x^3)))."""
    a = ensure_tensor(x)
    xd = a.data
    sq = xd * xd
    inner = _GELU_C * (xd + _GELU_A * (sq * xd))
    t = np.tanh(inner)
    out_data = 0.5 * xd * (1.0 + t)

    def bwd(g):
        sech2 = 1.0 - t * t
        local = 0.5 * (1.0 + t) + 0.5 * xd * sech2 * _GELU_C * (1.0 + 3.0 * _GELU_A * sq)
        a._accumulate(g * local.astype(np.float32))

    return Tensor._result(out_data, (a,), "gelu", bwd)


def layernorm(x, gamma, beta, eps=1e-6):
    """Zero-mean unit-variance normalization over the last axis, then affine."""
    x = ensure_tensor(x)
    gamma = ensure_tensor(gamma)
    beta = ensure_tensor(beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ValueError(
            f"layernorm affine params must have shape ({d},), "
            f"got gamma {gamma.shape}, beta {beta.shape}")
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc / (var + eps).sqrt() * gamma + beta


def concat(tensors, axis):
    """Concatenate tensors along `axis`."""
    ts = [ensure_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in ts]
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    offs = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(ts, offs[:-1], offs[1:]):
            if t.requires_grad:
                sl = (slice(None),) * (axis % g.ndim) + (slice(lo, hi),)
                t._accumulate(g[sl])

    return Tensor._result(out_data, tuple(ts), "concat", bwd)


def l2_normalize(x, axis=-1, eps=1e-8):
    """Rows scaled to unit L2 norm (eps keeps zero rows finite)."""
    x = ensure_tensor(x)
    sq = (x * x).sum(axis=axis, keepdims=True)
    return x / (sq + eps).sqrt()
