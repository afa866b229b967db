"""The pseudo-labeling target machinery: Sinkhorn and nearest-patch matching.

The pseudo-label branch turns teacher scores over K_c prototypes into soft
assignments with a few Sinkhorn iterations. The column step pushes every
prototype toward equal usage (which is what stops the branch from collapsing
onto one prototype); the row step restores each row to a probability
distribution. Masked student patches then inherit the assignment of their
nearest teacher patch across the folds.
"""

import numpy as np

from dualmim.pseudolabel import (mean_row_entropy, nearest_patch_match_batch,
                                 sinkhorn_normalize)
from dualmim.tensor import softmax

rng = np.random.default_rng(0)

# -- 1. Sinkhorn balances prototype usage ----------------------------------------

# make scores that heavily favor prototype 0 for every row
scores = rng.uniform(-1, 1, (8, 4)).astype(np.float32)
scores[:, 0] += 3.0

# Sinkhorn takes features and prototypes and forms the scores itself;
# identity prototypes make the features the scores
eye = np.eye(4, dtype=np.float32)
plain = softmax(scores / 0.1).data
balanced, _ = sinkhorn_normalize(scores, eye, n_iters=3, temperature=0.1)
print("column mass, plain softmax :",
      np.array2string(plain.sum(axis=0), precision=2))
print("column mass, after Sinkhorn:",
      np.array2string(balanced.sum(axis=0), precision=2))
print(f"rows still sum to one      : "
      f"{np.abs(balanced.sum(axis=1) - 1).max():.1e}")

# -- 2. temperature controls sharpness --------------------------------------------

# the entropy comes out of the Sinkhorn pass itself, read off
# log Q = logits + log u + log v; mean_row_entropy recomputes it from Q
for temp in (1.0, 0.1, 0.05):
    q, entropy = sinkhorn_normalize(scores, eye, 3, temp)
    print(f"teacher temperature {temp:>4}: mean target entropy "
          f"{entropy:.3f} (from Q: {mean_row_entropy(q):.3f}, "
          f"max {np.log(4):.3f})")

# -- 3. nearest-patch matching ----------------------------------------------------

# one image: 3 student patches, 2 teacher folds of 4 patches each; match by
# cosine distance over all folds jointly (the leading axis is the image)
student = rng.normal(0, 1, (1, 3, 16)).astype(np.float32)
fold_feats = [rng.normal(0, 1, (1, 4, 16)).astype(np.float32)
              for _ in range(2)]
fold_feats[1][0, 2] = 5.0 * student[0, 0]  # plant an exact direction match
fold_idx, row_idx, dist = nearest_patch_match_batch(student, fold_feats)
print("\nstudent patch 0 matched to fold", fold_idx[0, 0], "row",
      row_idx[0, 0], f"at cosine distance {dist[0, 0]:.2e}")
print("all matches (fold, row):",
      list(zip(fold_idx[0].tolist(), row_idx[0].tolist())))
