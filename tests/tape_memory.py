"""What a tape holds: the distinct array buffers reachable from a tensor.

From `root` the walk visits every node through its parents. A node counts
its data, and every array its backward closure has captured, found in the
closure's cells, in tuples and lists there, and in the tensors there
(walked as nodes). A view counts as the buffer it views, once however many
views of it are held.
"""

import numpy as np

from dualmim.tensor import Tensor


def _base(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def tape_buffers(root):
    """id -> base array of every distinct buffer the tape from `root`
    holds (see the module docstring)."""
    found, seen, stack = {}, set(), [root]
    while stack:
        item = stack.pop()
        if isinstance(item, Tensor):
            if id(item) in seen:
                continue
            seen.add(id(item))
            stack.append(item.data)
            stack.extend(item._parents)
            cells = getattr(item._backward, "__closure__", None) or ()
            stack.extend(c.cell_contents for c in cells)
        elif isinstance(item, np.ndarray):
            base = _base(item)
            found[id(base)] = base
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
    return found


def tape_bytes(root):
    """Bytes of the distinct buffers the tape from `root` holds."""
    return sum(a.nbytes for a in tape_buffers(root).values())
