"""Dense float32 tensors with reverse-mode automatic differentiation.

Define-by-run: every op on tensors that require grad records a backward
closure; the graph is rebuilt on each forward pass. ``backward()`` frees
each node's closure, with the activations it saved, and the node's
gradient as soon as the closure has run; only leaves keep a gradient. A
second ``backward()`` through the same graph, or through a node it shares
with one already walked, raises RuntimeError. Single-threaded; one graph
belongs to one training step.
Inside ``no_grad()`` no op records anything, so frozen inference keeps no
tape alive.

The transformer primitives (`linear`, `attention`, `layernorm`, `gelu`,
`mlp`, `l2_normalize`) are single tape nodes with closed-form backward.
`gelu` and `mlp` (fc1, GELU, fc2) are row-blocked kernels, one code path
taped or not: they walk their rows in blocks of at most BLOCK_BYTES of
hidden width into one preallocated output, so their backward's scratch is
a few blocks, and share one GELU block kernel and one derivative kernel.
Row statistics (in attention's softmax and in `layernorm`) are taken with
`np.einsum`, whose row sums do not change with the number of rows in the
call (a GEMV's against a ones column do). For backward gelu keeps the
tanh; mlp its fc1 output h and the tanh, not the GELU output, which
backward rebuilds from the two; layernorm each row's mean and 1/std but
not the normalized rows; and attention the probabilities. With no tape,
mlp's hidden-width buffers are one block each.

Gradient buffers are shared, not copied: `_accumulate` stores the first
gradient a tensor receives by reference (it may be a view, or a buffer
another node also received) and allocates only when a second one arrives.
Hence the contract: no backward closure may write into its incoming `g`,
or into an array it has passed to `_accumulate`.
"""

import contextlib
import itertools
import math

import numpy as np

_node_counter = itertools.count()
_recording = True   # False inside no_grad()

# tanh GELU constants
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

# gelu and mlp walk their rows in blocks of at most this many bytes of one
# hidden-width row buffer. A row block of the threaded no-tape encoder (up
# to 1170 tokens, 1.2 MB of MLP hidden width) must stay one block: smaller
# budgets cost more Python calls in its GIL-bound worker threads (at
# 256 KiB, frozen-feature encoding ran about 9% slower). Within that,
# smaller blocks are faster: the decoder-shaped MLP ([8320, 64] -> 256)
# took 14.7 ms forward and 22.7 ms backward in 1.25 MiB blocks against
# 16.3 and 23.7 ms in 4 MiB ones, and its backward scratch is smaller.
BLOCK_BYTES = 1280 << 10


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
                 "_backward", "_op", "_grad_owned", "__weakref__")

    def __init__(self, data, requires_grad=False, _parents=(), _op="leaf"):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = None
        self._grad_owned = False
        self.requires_grad = bool(requires_grad)
        self.node_id = next(_node_counter)
        self._parents = _parents
        self._backward = None
        self._op = _op

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, grad={self.requires_grad})"

    # -- graph bookkeeping ------------------------------------------------

    @staticmethod
    def _result(data, parents, op, backward):
        track = records_tape(parents)
        out = Tensor(data, requires_grad=track,
                     _parents=parents if track else (), _op=op)
        if track:
            out._backward = backward
        return out

    def _accumulate(self, g):
        """Add `g` to `grad`, copy-on-write (see the module docstring)."""
        if self.grad is None:
            if (type(g) is np.ndarray and g.dtype == np.float32
                    and g.shape == self.shape):
                self.grad, self._grad_owned = g, False
            else:
                self.grad, self._grad_owned = np.array(g, dtype=np.float32), True
        elif self._grad_owned:
            self.grad += g
        else:
            self.grad = np.add(self.grad, g, out=np.empty(self.shape, np.float32))
            self._grad_owned = True

    def backward(self):
        """Populate `grad` of every requires_grad leaf reachable from here.

        `self` must be a scalar (size 1) loss. Each node with parents drops
        its closure and its gradient once its closure has run, so the graph
        can be walked only once: a second walk raises RuntimeError.
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
            if not node._parents:
                continue    # a leaf keeps its gradient
            if node._backward is None:
                raise RuntimeError("backward through a released graph")
            if node.grad is not None:
                node._backward(node.grad)
            # every consumer has passed its gradient on: free the closure's
            # saved activations and this node's gradient
            node._backward = node.grad = None

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

    def __neg__(self):
        a = self

        def bwd(g):
            a._accumulate(-g)

        return self._result(-a.data, (a,), "neg", bwd)

    def __mul__(self, other):
        other = ensure_tensor(other)
        a, b = self, other

        def bwd(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.shape))

        return self._result(a.data * b.data, (a, b), "mul", bwd)

    def log(self):
        a = self

        def bwd(g):
            a._accumulate(g / a.data)

        return self._result(np.log(a.data), (a,), "log", bwd)

    # -- reductions ---------------------------------------------------------

    def sum(self):
        a = self

        def bwd(g):
            a._accumulate(np.broadcast_to(g, a.shape))

        return self._result(a.data.sum(), (a,), "sum", bwd)

    def mean(self):
        return self.sum() * (1.0 / self.size)

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old = a.shape

        def bwd(g):
            a._accumulate(g.reshape(old))

        return self._result(a.data.reshape(shape), (a,), "reshape", bwd)

    def take(self, indices, axis):
        """Gather rows along `axis` with an integer index array.

        The indices must be unique (ValueError otherwise), so backward
        scatters by plain assignment.
        """
        a = self
        idx = np.asarray(indices, dtype=np.intp)
        if np.unique(idx % a.shape[axis]).size != idx.size:
            raise ValueError(f"take along axis {axis} needs unique indices")
        where = (slice(None),) * axis + (idx,)

        def bwd(g):
            full = np.zeros(a.shape, dtype=np.float32)
            full[where] = g
            a._accumulate(full)

        return self._result(a.data.take(idx, axis=axis), (a,), "take", bwd)


def ensure_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def records_tape(tensors):
    """True when an op on `tensors` would join the tape."""
    return _recording and any(t.requires_grad for t in tensors)


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block: every result has requires_grad False."""
    global _recording
    prev, _recording = _recording, False
    try:
        yield
    finally:
        _recording = prev


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


def linear(x, w, b=None):
    """x [..., d_in] @ w [d_in, d_out] (+ b) as one node.

    The leading dims are flattened into one 2-D GEMM; a batched
    [B, T, d_in] @ [d_in, d_out] would otherwise build a [B, d_in, d_out]
    temporary in the weight-gradient pass.
    """
    x = ensure_tensor(x)
    d_in, d_out = w.shape
    x2 = x.data.reshape(-1, d_in)
    y = x2 @ w.data
    if b is not None:
        y += b.data

    def bwd(g):
        g2 = g.reshape(-1, d_out)
        if x.requires_grad:
            x._accumulate((g2 @ w.data.T).reshape(x.shape))
        if w.requires_grad:
            w._accumulate(x2.T @ g2)
        if b is not None and b.requires_grad:
            b._accumulate(g2.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return Tensor._result(y.reshape(x.shape[:-1] + (d_out,)), parents,
                          "linear", bwd)


def attention(qkv, num_heads, n_query=None):
    """Multi-head softmax(q k^T / sqrt(hd)) v on a [B, T, 3D] input, one node.

    q, k and v are head views of the input's [B, T, 3, H, hd] reshape. Only
    the first `n_query` query rows (all T when None) attend, to every key:
    the output is [B, n, D]. The scores and their softmax are formed in
    place on one [B, H, n, T] buffer, applied to v and written, heads
    merged, into the output. Backward keeps only the probabilities: dv =
    att^T g, ds = att * (g v^T - rowsum(g v^T * att)) / sqrt(hd), dq = ds k
    (zero past row n), dk = ds^T q, written into one [B, T, 3D] gradient.
    """
    b, t, d3 = qkv.shape
    n = t if n_query is None else n_query
    d = d3 // 3
    hd = d // num_heads
    scale = np.float32(1.0 / np.sqrt(hd))
    qh, kh, vh = qkv.data.reshape(b, t, 3, num_heads, hd).transpose(
        2, 0, 3, 1, 4)
    qh = qh[:, :, :n]
    att = qh @ kh.transpose(0, 1, 3, 2)
    att *= scale
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= np.einsum("bhij->bhi", att)[..., None]
    out = np.empty((b, n, num_heads, hd), np.float32)
    np.matmul(att, vh, out=out.transpose(0, 2, 1, 3))

    def bwd(g):
        gh = g.reshape(b, n, num_heads, hd).transpose(0, 2, 1, 3)
        ds = gh @ vh.transpose(0, 1, 3, 2)
        ds -= np.einsum("bhij,bhij->bhi", ds, att)[..., None]
        ds *= att
        ds *= scale
        dqkv = np.empty((b, t, 3, num_heads, hd), np.float32)
        dqkv[:, n:, 0] = 0.0
        dq, dk, dv = dqkv.transpose(2, 0, 3, 1, 4)
        np.matmul(ds, kh, out=dq[:, :, :n])
        np.matmul(ds.transpose(0, 1, 3, 2), qh, out=dk)
        np.matmul(att.transpose(0, 1, 3, 2), gh, out=dv)
        qkv._accumulate(dqkv.reshape(b, t, d3))

    return Tensor._result(out.reshape(b, n, d), (qkv,), "attention", bwd)


def _row_blocks(rows, width):
    """Near-equal row slices, each of at most BLOCK_BYTES of `width` float32
    columns, and of no fewer than 2 rows when `rows` is at least 2 (numpy
    sends a one-row matmul to GEMV, which sums in another order than GEMM).
    Returns (slices, rows of the largest)."""
    cap = max(1, BLOCK_BYTES // (4 * width))
    n = max(1, min(-(-rows // cap), rows // 2))
    return ([slice(rows * i // n, rows * (i + 1) // n) for i in range(n)],
            -(-rows // n))


def _gelu_block(xb, tb, ob, tanh=True):
    """ob = 0.5*xb*(1 + tb), after forming tb = tanh(c*(xb + a*xb^3)) unless
    `tanh` is False (tb holds it already). tb may be ob."""
    if tanh:
        np.multiply(xb, xb, out=tb)
        tb *= _GELU_A
        tb += 1.0
        tb *= xb
        tb *= _GELU_C
        np.tanh(tb, out=tb)
    np.add(tb, 1.0, out=ob)
    ob *= xb
    ob *= 0.5


def _gelu_grad_block(xb, tb, gb, d, u):
    """d = gb * GELU'(xb) = gb*0.5*(1 + t)*(1 + c*x*(1 + 3a*x^2)*(1 - t)), t
    the tanh tb; u is one block of scratch, and may be xb (read before u is
    written)."""
    np.multiply(xb, xb, out=d)
    d *= 3.0 * _GELU_A
    d += 1.0
    d *= xb
    d *= _GELU_C
    np.subtract(1.0, tb, out=u)
    d *= u
    d += 1.0
    np.add(tb, 1.0, out=u)
    d *= u
    d *= 0.5
    d *= gb


def gelu(x):
    """GELU, tanh approximation: 0.5*x*(1 + tanh(c*(x + a*x^3))).

    Runs in row blocks (`_row_blocks`), in place on the output; the tanh
    is kept for backward in one buffer, and with no tape it is formed in
    the output itself. The derivative is written block by block into one
    gradient buffer with one block of scratch.
    """
    a = ensure_tensor(x)
    xd = a.data.reshape(-1, a.shape[-1])
    blocks, size = _row_blocks(*xd.shape)
    out = np.empty_like(xd)
    t = np.empty_like(xd) if records_tape((a,)) else out
    for s in blocks:
        _gelu_block(xd[s], t[s], out[s])

    def bwd(g):
        g2 = g.reshape(xd.shape)
        dx = np.empty_like(xd)
        u = np.empty((size, xd.shape[1]), np.float32)
        for s in blocks:
            _gelu_grad_block(xd[s], t[s], g2[s], dx[s], u[:s.stop - s.start])
        a._accumulate(dx.reshape(a.shape))

    return Tensor._result(out.reshape(a.shape), (a,), "gelu", bwd)


def mlp(x, w1, b1, w2, b2):
    """The transformer MLP, gelu(x @ w1 + b1) @ w2 + b2, as one node.

    Runs in row blocks over the hidden width (`_row_blocks`). Per block:
    fc1 into h, + b1, GELU, then fc2 into the output rows, + b2, each op
    in `linear`'s and `gelu`'s order, so the value has their bits. Taped,
    it keeps only h and its tanh t (x is on the tape anyway); with no
    tape, h is one block, freed before fc2, and the tanh is formed in the
    GELU output's one block of scratch. Backward walks the same blocks: it
    rebuilds the GELU output from h and t, adds the block's share to dw2,
    forms da = g @ w2^T and dh = da * GELU'(h), adds the block's share to
    dw1 and db1, and writes the dx rows. The weight gradients and db1 are
    sums over the blocks in block order; db2 is one sum over all rows.
    """
    d_in, hidden = w1.shape
    x2 = x.data.reshape(-1, d_in)
    rows = len(x2)
    blocks, size = _row_blocks(rows, hidden)
    parents = (x, w1, b1, w2, b2)
    h = t = None
    if records_tape(parents):
        h, t = (np.empty((rows, hidden), np.float32) for _ in range(2))
    a = np.empty((size, hidden), np.float32)
    out = None
    for s in blocks:
        ab = a[:s.stop - s.start]
        hb = np.matmul(x2[s], w1.data, out=None if h is None else h[s])
        hb += b1.data
        _gelu_block(hb, ab if t is None else t[s], ab)
        del hb      # with no tape, fc1's block is freed before fc2 runs
        if out is None:     # not held through the first block's GELU
            out = np.empty((rows, w2.shape[1]), np.float32)
        np.matmul(ab, w2.data, out=out[s])
        out[s] += b2.data

    def bwd(g):
        # h is read for the last time by the derivative, which then takes
        # it as scratch; the rebuilt GELU output's buffer becomes dh
        g2 = g.reshape(rows, -1)
        dh, da = (np.empty((size, hidden), np.float32) for _ in range(2))
        dx = np.empty_like(x2)
        dw1, db1, dw2 = (np.zeros_like(p.data) for p in (w1, b1, w2))
        for s in blocks:
            n = s.stop - s.start
            hb, tb, gb = h[s], t[s], g2[s]
            dhb, dab = dh[:n], da[:n]
            _gelu_block(hb, tb, dhb, tanh=False)
            dw2 += dhb.T @ gb
            np.matmul(gb, w2.data.T, out=dab)
            _gelu_grad_block(hb, tb, dab, dhb, hb)
            dw1 += x2[s].T @ dhb
            db1 += dhb.sum(axis=0)
            np.matmul(dhb, w1.data.T, out=dx[s])
        for p, grad in zip(parents, (dx.reshape(x.shape), dw1, db1, dw2,
                                     g2.sum(axis=0))):
            if p.requires_grad:
                p._accumulate(grad)

    out = out.reshape(x.shape[:-1] + (w2.shape[1],))
    return Tensor._result(out, parents, "mlp", bwd)


def layernorm(x, gamma, beta, eps=1e-6):
    """Zero-mean unit-variance normalization over the last axis, then affine.

    One node. It keeps its input (alive on the tape anyway) with each row's
    mean and 1/std, not the normalized xhat: backward rebuilds xhat in the
    dx buffer. With gh = g * gamma, dx = rstd * (gh - mean(gh) - xhat *
    mean(gh * xhat)), and gamma, beta are summed over the leading axes.
    """
    x = ensure_tensor(x)
    gamma = ensure_tensor(gamma)
    beta = ensure_tensor(beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ValueError(
            f"layernorm affine params must have shape ({d},), "
            f"got gamma {gamma.shape}, beta {beta.shape}")
    inv_d = np.float32(1.0 / d)
    x2 = x.data.reshape(-1, d)
    mean = np.einsum("ij->i", x2)
    mean *= inv_d
    out = np.subtract(x2, mean[:, None])
    rstd = np.einsum("ij,ij->i", out, out)
    rstd *= inv_d
    rstd += np.float32(eps)
    np.sqrt(rstd, out=rstd)
    np.reciprocal(rstd, out=rstd)
    out *= rstd[:, None]
    out *= gamma.data
    out += beta.data

    def bwd(g):
        g2 = g.reshape(-1, d)
        if beta.requires_grad:
            beta._accumulate(g2.sum(axis=0))
        dx = np.subtract(x2, mean[:, None])         # xhat, then dx
        dx *= rstd[:, None]
        if gamma.requires_grad:
            gamma._accumulate(np.einsum("ij,ij->j", g2, dx))
        if not x.requires_grad:
            return
        gh = np.multiply(g2, gamma.data)
        m1 = np.einsum("ij->i", gh)
        m1 *= inv_d
        m2 = np.einsum("ij,ij->i", gh, dx)
        m2 *= inv_d
        dx *= m2[:, None]
        np.subtract(gh, dx, out=dx)
        dx -= m1[:, None]
        dx *= rstd[:, None]
        x._accumulate(dx.reshape(x.shape))

    return Tensor._result(out.reshape(x.shape), (x, gamma, beta),
                          "layernorm", bwd)


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
    """Rows scaled to unit L2 norm (eps keeps zero rows finite), one node.

    With y = x / n and n = sqrt(sum x^2 + eps): dx = (g - y * sum(g * y)) / n.
    """
    x = ensure_tensor(x)
    norm = np.sqrt((x.data * x.data).sum(axis=axis, keepdims=True)
                   + np.float32(eps))
    y = x.data / norm

    def bwd(g):
        dx = g - y * (g * y).sum(axis=axis, keepdims=True)
        dx /= norm
        x._accumulate(dx)

    return Tensor._result(y, (x,), "l2_normalize", bwd)
