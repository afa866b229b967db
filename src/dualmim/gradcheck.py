"""Central finite-difference gradient checking.

The oracle perturbs raw float32 buffers and re-runs the forward pass; it
never touches the backward rules it is checking. Pass criterion per
element: |ad - fd| <= max(abs_floor, rel_tol * max(|ad|, |fd|)).

The difference quotient at float32 carries rounding noise of roughly
eps_f32 * |intermediates| / (2 * eps), so every check loss here is a mean
with |loss| ~ 1 and moderate intermediate magnitudes; that keeps the noise
well below the tolerance floor. The composed model loss cannot be
conditioned that way (its tempered softmax scales logits by 10), so the
composed check is done against an independent float64 forward
reimplementation in the test suite.
"""

import numpy as np

from . import losses as losses_mod
from .optim import AdamW
from .tensor import (Tensor, attention, concat, gelu, l2_normalize,
                     layernorm, linear, mlp, softmax)

EPS = 1e-3
REL_TOL = 1e-3
ABS_FLOOR = 1e-4


def finite_diff(f, x, eps=EPS):
    """Central finite differences of scalar f over every element of x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def max_violation(ad, fd, rel_tol=REL_TOL, abs_floor=ABS_FLOOR):
    """Largest tolerance-normalized error; <= 1 means the check passes."""
    ad = np.asarray(ad, dtype=np.float64)
    diff = np.abs(ad - fd)
    scale = np.maximum(abs_floor, rel_tol * np.maximum(np.abs(ad), np.abs(fd)))
    return float((diff / scale).max()) if diff.size else 0.0


def check_grads(build_loss, tensors, eps=EPS, rel_tol=REL_TOL,
                abs_floor=ABS_FLOOR):
    """Compare backward() grads of `build_loss()` against finite differences.

    `tensors`: dict name -> Tensor whose grads are checked. Returns the max
    violation across all of them (pass iff <= 1).
    """
    for t in tensors.values():
        t.grad = None
    loss = build_loss()
    loss.backward()
    worst = 0.0
    for name, t in tensors.items():
        fd = finite_diff(lambda: float(build_loss().data), t.data, eps)
        ad = t.grad if t.grad is not None else np.zeros_like(t.data)
        worst = max(worst, max_violation(ad, fd, rel_tol, abs_floor))
    return worst


def op_suite(seed=0):
    """Finite-difference checks of every differentiable op on random shapes.

    Returns a list of (name, max_violation) pairs; each passes iff <= 1.
    """
    rng = np.random.default_rng(seed)
    results = []

    def randn(*shape, scale=1.0):
        return Tensor((scale * rng.normal(0, 1, shape)).astype(np.float32),
                      requires_grad=True)

    def const(*shape):
        return Tensor(rng.normal(0, 1, shape).astype(np.float32))

    x, g, be = randn(3, 6), randn(6), randn(6)
    results.append(("layernorm", check_grads(
        lambda: (layernorm(x, g, be) * layernorm(x, g, be)).mean() * 0.25,
        {"x": x, "gamma": g, "beta": be})))

    x, g, be = randn(2, 3, 6), randn(6), randn(6)
    results.append(("layernorm_3d", check_grads(
        lambda: (layernorm(x, g, be) * layernorm(x, g, be)).mean() * 0.25,
        {"x": x, "gamma": g, "beta": be})))

    x, w, bias = randn(2, 3, 4), randn(4, 5), randn(5)
    c = const(2, 3, 5)
    results.append(("linear", check_grads(
        lambda: (linear(x, w, bias) * c).mean(), {"x": x, "w": w, "b": bias})))

    qkv, w = randn(2, 5, 12), const(2, 5, 4)
    results.append(("attention", check_grads(
        lambda: (attention(qkv, 2) * w).mean(), {"qkv": qkv})))

    # two of five query rows: dq is zero past row 2, dk and dv are not
    w = const(2, 2, 4)
    results.append(("attention_n_query", check_grads(
        lambda: (attention(qkv, 2, n_query=2) * w).mean(), {"qkv": qkv})))

    x, w = randn(3, 5), const(3, 5)
    results.append(("l2_normalize", check_grads(
        lambda: (l2_normalize(x, axis=-1) * w).mean(), {"x": x})))

    x = randn(4, 7)
    w = const(4, 7)
    results.append(("softmax", check_grads(
        lambda: (softmax(x, axis=-1) * w).mean(), {"x": x})))

    x = randn(3, 5)
    results.append(("gelu", check_grads(
        lambda: (gelu(x) * gelu(x)).mean(), {"x": x})))

    x, w1, b1 = randn(2, 3, 4), randn(4, 6), randn(6)
    w2, b2, c = randn(6, 5), randn(5), const(2, 3, 5)
    results.append(("mlp", check_grads(
        lambda: (mlp(x, w1, b1, w2, b2) * c).mean(),
        {"x": x, "w1": w1, "b1": b1, "w2": w2, "b2": b2})))

    x, w = randn(2, 6), const(2, 6)
    results.append(("log", check_grads(
        lambda: ((x * x + 1.5).log() * w).mean(), {"x": x})))

    x, w = randn(3, 4), const(7, 3)
    results.append(("take_concat_reshape", check_grads(
        lambda: (concat([x.take(np.array([3, 0, 2]), axis=1), x * x], axis=1)
                 .reshape(7, 3) * w).mean(), {"x": x})))

    # K = 2 folds of F = 2 rows after the class row, whose gradient is zero
    t = randn(2, 1 + 4, 8)
    teacher = rng.normal(0, 1, (2, 2, 2, 8)).astype(np.float32)
    results.append(("recon_loss", check_grads(
        lambda: losses_mod.recon_loss(t, teacher), {"t": t})))

    s = randn(3, 4, scale=0.5)
    p = np.abs(rng.normal(0, 1, (3, 4))).astype(np.float32)
    p /= p.sum(axis=1, keepdims=True)
    results.append(("softmax_cross_entropy", check_grads(
        lambda: losses_mod.cross_entropy(p, softmax(s)) * 0.25,
        {"s": s})))

    # two streamed chunks, the second one partial
    rows = losses_mod.CE_CHUNK_ROWS + 3
    x, w = randn(rows, 3, scale=0.5), randn(3, 5, scale=0.5)
    table = np.abs(rng.normal(0, 1, (7, 5))).astype(np.float32)
    table /= table.sum(axis=1, keepdims=True)
    target_rows = rng.integers(0, 7, rows)
    results.append(("tempered_cross_entropy", check_grads(
        lambda: losses_mod.tempered_cross_entropy(
            [(table, target_rows, np.arange(rows))], x, w, 0.25) * 0.25,
        {"feats": x, "weight": w})))

    return results


def adamw_convergence(steps=500, lr=0.1):
    """Scalar quadratic f(w) = w^2 minimized by AdamW; returns final |w|^2."""
    w = Tensor(np.float32(1.0), requires_grad=True)
    opt = AdamW({"w": w}, lr=lr, weight_decay=0.0)
    for _ in range(steps):
        opt.zero_grad()
        loss = w * w
        loss.backward()
        opt.step()
    return float(w.data ** 2)


def run_suite(verbose=True):
    """Per-op finite-difference checks plus optimizer convergence.

    Returns True if all checks pass. The composed-model check against the
    float64 reference forward lives in the test suite.
    """
    results = op_suite()
    ok = True
    for name, viol in results:
        passed = viol <= 1.0
        ok = ok and passed
        if verbose:
            print(f"{'PASS' if passed else 'FAIL'} {name}: "
                  f"max violation {viol:.4f} (<= 1.0)")
    q = adamw_convergence()
    passed = q < 1e-4
    ok = ok and passed
    if verbose:
        print(f"{'PASS' if passed else 'FAIL'} adamw_quadratic: "
              f"final w^2 {q:.2e} (< 1e-4)")
    return ok
