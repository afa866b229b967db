"""A walking tour of the autodiff engine.

The whole training stack runs on one small reverse-mode engine: a Tensor
wraps a float32 ndarray, every op records a backward closure, and
`.backward()` on a scalar walks the tape in reverse topological order.
This script builds a few graphs by hand and checks the gradients against
central finite differences, which is the same methodology the test suite
uses everywhere.
"""

import numpy as np

from dualmim.gradcheck import check_grads, finite_diff
from dualmim.tensor import Tensor, layernorm, linear

rng = np.random.default_rng(0)

# -- 1. a scalar chain ---------------------------------------------------------

x = Tensor(np.float32(3.0), requires_grad=True)
y = (x * x + x).sum()          # y = x^2 + x, dy/dx = 2x + 1 = 7
y.backward()
print(f"d(x^2 + x)/dx at x=3: {float(x.grad):.1f}  (expect 7.0)")

# -- 2. a linear + layernorm block, checked numerically --------------------------

w = Tensor(rng.normal(0, 0.5, (4, 4)).astype(np.float32), requires_grad=True)
b = Tensor(np.zeros(4, np.float32), requires_grad=True)
inp = rng.normal(0, 1, (2, 4)).astype(np.float32)


gamma = Tensor(np.ones(4, np.float32), requires_grad=True)
beta = Tensor(np.zeros(4, np.float32), requires_grad=True)


def build():
    h = linear(Tensor(inp), w, b)
    return layernorm(h, gamma, beta).mean()


# check_grads returns the worst violation relative to (rel_tol, abs_floor);
# anything <= 1.0 means every component agreed with finite differences
worst = check_grads(build, {"w": w, "b": b, "gamma": gamma, "beta": beta})
print(f"linear+layernorm worst gradcheck violation: {worst:.3f}  (pass <= 1)")

# -- 3. why float32 needs a relative tolerance ----------------------------------

# finite differences in float32 carry ~1e-5 noise themselves; the engine's
# analytic gradients are exact up to rounding, so agreement is judged with a
# relative tolerance plus an absolute floor rather than strict equality.
z = Tensor(rng.normal(0, 1, 8).astype(np.float32), requires_grad=True)


def loss():
    return (z * z).sum() * 0.5


loss().backward()
fd = finite_diff(lambda: float(loss().data), z.data)
print("analytic grad :", np.array2string(z.grad[:4], precision=4))
print("finite diff   :", np.array2string(fd[:4], precision=4))
print(f"max abs gap   : {np.abs(z.grad - fd).max():.2e}")
