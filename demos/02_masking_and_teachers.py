"""Masking, fold splitting, and the two EMA teachers.

Each training step hides 75% of the patch tokens, splits the hidden set
into equal folds, and asks the student's decoder to reconstruct what two
frozen teachers saw. The teachers are exponential moving averages of the
student on different clocks: the reconstruction teacher moves once per
epoch, the pseudo-labeling teacher once per iteration.
"""

import numpy as np

from dualmim.ema import (PER_EPOCH, PER_ITERATION, EmaSchedule, TeacherState,
                         ema_update, momentum_at)
from dualmim.masking import gen_mask, split_folds
from dualmim.tensor import Tensor

rng = np.random.default_rng(0)

# -- 1. masking and folds --------------------------------------------------------

mask = gen_mask(n_tokens=64, ratio=0.75, rng=rng)
folds = split_folds(mask, num_folds=3, rng=rng)
print(f"64 tokens, ratio 0.75 -> {mask.visible_indices.size} visible, "
      f"{mask.masked_indices.size} masked")
print(f"masked set split into {folds.shape[0]} folds of {folds.shape[1]}")
assert set(folds.reshape(-1).tolist()) == set(
    mask.masked_indices.tolist()), "folds partition the masked set exactly"

# -- 2. the two momentum schedules ------------------------------------------------

rec = EmaSchedule(0.96, 0.99, PER_EPOCH, total_updates=20)
cl = EmaSchedule(0.996, 1.0, PER_ITERATION, total_updates=1000)
print("\nreconstruction teacher momentum (per epoch):",
      [round(momentum_at(rec, t), 4) for t in (0, 5, 10, 20)])
print("pseudo-label teacher momentum (per iteration):",
      [round(momentum_at(cl, t), 5) for t in (0, 250, 500, 1000)])

# -- 3. the update rule itself ----------------------------------------------------

# the teacher drifts toward the student at rate (1 - m); by the end of the
# pseudo-label schedule m = 1 and the teacher freezes entirely
student = {"w": Tensor(np.ones(4, np.float32), requires_grad=True)}
teacher = TeacherState({"w": Tensor(np.zeros(4, np.float32))}, rec)
for step in range(5):
    ema_update(teacher, student, m=0.5)
    print(f"after update {step + 1}: teacher w = "
          f"{teacher.params['w'].data[0]:.4f} (gap halves each time)")
