"""Sinkhorn, assignment, and matching tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from dualmim.gradcheck import check_grads
from dualmim.losses import tempered_cross_entropy
from dualmim.pseudolabel import (TEMPERATURE_FLOOR, mean_row_entropy,
                                 nearest_patch_match_batch,
                                 sinkhorn_normalize, teacher_targets)
from dualmim.tensor import Tensor

from tape_ref import student_assign


def _sinkhorn_oracle(scores, temperature, iters):
    """Straightforward float64 row/column normalization loop."""
    q = np.exp(np.asarray(scores, np.float64) / temperature)
    b, kc = q.shape
    for _ in range(iters):
        q /= q.sum(axis=0, keepdims=True) / (b / kc)
        q /= q.sum(axis=1, keepdims=True)
    return q


def _log_sinkhorn_oracle(scores, temperature, iters, row_step=False):
    """The same loop on float64 log potentials, for scores whose exp
    overflows: Q = exp(s / T + a + c). With `row_step`, also the factor
    exp(a - a_prev) = 1 / s_i by which the last row step scaled each row,
    s_i the row's sum after the last column step."""
    x = np.asarray(scores, np.float64) / temperature
    b, kc = x.shape
    a = np.zeros(b)
    for _ in range(iters):
        c = np.log(b / kc) - logsumexp(x + a[:, None], axis=0)
        prev, a = a, -logsumexp(x + c, axis=1)
    q = np.exp(x + a[:, None] + c)
    return (q, np.exp(a - prev)) if row_step else q


def _eye(scores):
    """Prototype matrix under which the features are the scores (exact)."""
    return np.eye(np.shape(scores)[1], dtype=np.float32)


def _unbatched(s, folds):
    """One image: [M, D] student rows, K [F, D] teacher folds."""
    fold_idx, row_idx, dist = nearest_patch_match_batch(
        s[None], [f[None] for f in folds])
    return fold_idx[0], row_idx[0], dist[0]


def test_sinkhorn_constant_scores_uniform():
    scores = np.full((6, 4), 2.5, np.float32)
    q, _ = sinkhorn_normalize(scores, _eye(scores), 3, 0.05)
    assert np.allclose(q, 0.25, atol=1e-7)


def test_sinkhorn_rows_sum_to_one():
    rng = np.random.default_rng(0)
    scores = rng.standard_normal((64, 256))
    q, _ = sinkhorn_normalize(scores, _eye(scores), 3, 0.05)
    assert np.abs(q.sum(axis=1) - 1.0).max() < 1e-5


def test_sinkhorn_2x2_long_iteration_fixed_point():
    scores = np.array([[1.0, 0.0], [0.0, 1.0]], np.float32)
    oracle = _sinkhorn_oracle(scores, 1.0, 1000)
    q, _ = sinkhorn_normalize(scores, _eye(scores), 1000, 1.0)
    assert np.abs(q - oracle).max() < 1e-4


def test_sinkhorn_column_balance_after_3_iters():
    rng = np.random.default_rng(1)
    b, kc = 64, 256
    scores = rng.standard_normal((b, kc))
    target = b / kc
    # rebuild the column step of the third iteration on two full ones
    q2, _ = sinkhorn_normalize(scores, _eye(scores), 2, 0.05)
    colstep = q2 * (target / q2.sum(axis=0, dtype=np.float64))
    assert np.abs(colstep.sum(axis=0) - target).max() < 0.1 * target
    # and the third row step of it is what three iterations return
    q3, _ = sinkhorn_normalize(scores, _eye(scores), 3, 0.05)
    assert np.abs(colstep / colstep.sum(axis=1, keepdims=True)
                  - q3).max() < 1e-6


def test_sinkhorn_scaling_vectors_match_f64_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        b = int(rng.integers(1, 300))
        kc = int(rng.integers(2, 700))
        temp = float(rng.choice([1.0, 0.1, 0.05]))
        iters = int(rng.integers(1, 6))
        scores = rng.uniform(-1.0, 1.0, (b, kc)).astype(np.float32)
        q, _ = sinkhorn_normalize(scores, _eye(scores), iters, temp)
        assert q.dtype == np.float32
        assert np.abs(q - _sinkhorn_oracle(scores, temp, iters)).max() < 1e-6


def test_sinkhorn_scores_from_feats_match_f64_oracle():
    rng = np.random.default_rng(16)
    for _ in range(25):
        b = int(rng.integers(1, 100))
        kc = int(rng.integers(2, 300))
        h = int(rng.integers(1, 24))
        temp = float(rng.choice([1.0, 0.1, 0.05]))
        iters = int(rng.integers(1, 6))
        feats = rng.standard_normal((b, h)).astype(np.float32)
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        weight = rng.standard_normal((h, kc)).astype(np.float32)
        weight /= np.linalg.norm(weight, axis=0, keepdims=True)
        q, entropy = sinkhorn_normalize(feats, weight, iters, temp)
        scores = feats @ weight
        assert np.abs(q - _sinkhorn_oracle(scores, temp, iters)).max() < 1e-6
        assert abs(entropy - mean_row_entropy(q)) < 1e-5


def test_sinkhorn_in_pass_entropy_matches_rows():
    rng = np.random.default_rng(12)
    cases = [(rng.uniform(-1.0, 1.0, (96, 512)), 0.05),
             (rng.uniform(-1.0, 1.0, (7, 3)), 1.0),
             (rng.standard_normal((64, 256)), 0.1),
             # exp underflows to exactly 0 for about an eighth of the entries
             (rng.standard_normal((64, 256)), 0.05)]
    for scores, temp in cases:
        q, entropy = sinkhorn_normalize(scores.astype(np.float32),
                                        _eye(scores), 3, temp)
        assert abs(entropy - mean_row_entropy(q)) < 1e-5
    assert (q == 0.0).mean() > 0.05


def test_sinkhorn_overflowing_scaling_vectors_fold_into_exponent():
    # scores spanning hundreds of temperatures, which unit features and
    # prototypes of norm at most 1 cannot produce above the temperature
    # floor: rejected up front instead of folded into the exponent
    rng = np.random.default_rng(17)
    for shape, std, temp in (((256, 512), 5.0, 0.02),
                             ((64, 64), 10.0, 0.01)):
        scores = (std * rng.standard_normal(shape)).astype(np.float32)
        with pytest.raises(ValueError, match="temperatures"):
            sinkhorn_normalize(scores, _eye(scores), 3, temp)


def test_sinkhorn_fold_keeps_a_faint_column_alive():
    # column 2 sits 200 temperatures below the global max but for one
    # entry at 86: its max is beyond SPREAD_T, so the input is rejected.
    # [512, 4] at T = 0.1 is where a column this far down lost precision
    # in v without the rejection: its E entries sit near float32 tiny
    rng = np.random.default_rng(18)
    for b, kc, temp in ((256, 4, 0.05), (1024, 16, 0.1), (512, 4, 0.1)):
        scores = rng.uniform(-1.0, 1.0, (b, kc)).astype(np.float32)
        top = scores.max()
        scores[:, 2] = top - 200 * temp
        scores[int(rng.integers(b)), 2] = top - 86 * temp
        for iters in (1, 3, 5):
            with pytest.raises(ValueError, match="temperatures"):
                sinkhorn_normalize(scores, _eye(scores), iters, temp)


def test_sinkhorn_scaling_vector_past_float32_raises():
    # column 2 sits 200 temperatures below the top score but for one entry
    # at 83, inside SPREAD_T; with B / K_c = 512 its v comes to about
    # 512 e^83, past float32's range, and is rejected before the cast
    # instead of turning Q and the entropy non-finite
    rng = np.random.default_rng(19)
    b, kc, temp = 2048, 4, 0.1
    scores = rng.uniform(-1.0, 1.0, (b, kc)).astype(np.float32)
    top = scores.max()
    scores[:, 2] = top - 200 * temp
    scores[int(rng.integers(b)), 2] = top - 83 * temp
    with pytest.raises(ValueError, match="overflows float32"):
        sinkhorn_normalize(scores, _eye(scores), 3, temp)


def test_sinkhorn_writes_into_out():
    rng = np.random.default_rng(13)
    scores = rng.uniform(-1.0, 1.0, (12, 20)).astype(np.float32)
    out = np.empty_like(scores)
    q, entropy = sinkhorn_normalize(scores, _eye(scores), 3, 0.1, out=out)
    ref, ref_entropy = sinkhorn_normalize(scores, _eye(scores), 3, 0.1)
    assert q is out
    assert np.array_equal(q, ref) and entropy == ref_entropy


def test_sinkhorn_underflowed_column_gets_zero_mass():
    # a column whose exp underflows in every row is rejected, not given
    # zero mass
    rng = np.random.default_rng(14)
    temp = 0.1
    scores = rng.uniform(-1.0, 1.0, (16, 6)).astype(np.float32)
    scores[:, 2] = scores.min() - 100 * temp    # exp underflows in every row
    with pytest.raises(ValueError, match="temperatures"):
        sinkhorn_normalize(scores, _eye(scores), 3, temp)


def test_sinkhorn_row_far_below_stays_finite():
    # a row far below the global max is rejected, not shifted by its own max
    rng = np.random.default_rng(15)
    temp = 0.1
    scores = rng.uniform(-1.0, 1.0, (16, 6)).astype(np.float32)
    scores[5] -= 120 * temp     # under a global shift this row underflows
    with pytest.raises(ValueError, match="temperatures"):
        sinkhorn_normalize(scores, _eye(scores), 3, temp)


def test_sinkhorn_accepts_the_full_unit_spread():
    # every score in [-1, 1] at the temperature floor spans 80
    # temperatures: a column that scores -1 in every row stays in range
    b, kc = 64, 8
    feats = np.ones((b, 1), np.float32)
    weight = np.ones((1, kc), np.float32)
    weight[0, 3] = -1.0
    q, entropy = sinkhorn_normalize(feats, weight, 3, TEMPERATURE_FLOOR)
    scores = feats @ weight
    assert np.abs(q - _log_sinkhorn_oracle(scores, TEMPERATURE_FLOOR,
                                           3)).max() < 1e-6
    assert abs(entropy - mean_row_entropy(q)) < 1e-5


def _unit_bounded_scores(rng, b, kc, h, extreme):
    """Unit feature rows and prototype columns of norm at most 1. With
    `extreme`, both are signed one-hot vectors, so every score is exactly
    -1, 0 or 1 (with h = 1, a column can score -1 in every row)."""
    if extreme:
        feats = np.zeros((b, h), np.float32)
        feats[np.arange(b), rng.integers(h, size=b)] = rng.choice([-1, 1], b)
        weight = np.zeros((h, kc), np.float32)
        weight[rng.integers(h, size=kc), np.arange(kc)] = rng.choice([-1, 1],
                                                                     kc)
        return feats, weight
    feats = rng.standard_normal((b, h)).astype(np.float32)
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    weight = rng.standard_normal((h, kc)).astype(np.float32)
    weight *= (rng.uniform(0.0, 1.0, kc)
               / np.linalg.norm(weight, axis=0)).astype(np.float32)
    return feats, weight


@settings(derandomize=True, max_examples=60, deadline=10000, database=None)
@given(b=st.integers(1, 300), kc=st.integers(2, 600), h=st.integers(1, 16),
       temp=st.floats(TEMPERATURE_FLOOR, 1.0), iters=st.integers(1, 5),
       extreme=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_sinkhorn_unit_bounded_scores_properties(b, kc, h, temp, iters,
                                                 extreme, seed):
    """Scores of unit features against prototypes of norm at most 1, at
    any temperature from the floor up: the kernel never raises, rows sum
    to 1, Q matches the log-domain oracle and the in-pass entropy matches
    the rows, with E spanning exp(-80) to 1 at the +-1 extremes.

    Column sums: the last column step leaves every column at B/K_c, and
    the row step after it scales row i by r_i = 1 / s_i, s_i its sum. So
    column j ends at B/K_c * sum_i w_ij r_i with weights w_ij >= 0 that sum
    to 1: within B/K_c * [min r, max r] (r from the oracle), widened by B
    times the 2e-6 the kernel may differ from the oracle per entry."""
    feats, weight = _unit_bounded_scores(np.random.default_rng(seed), b, kc,
                                         h, extreme)
    q, entropy = sinkhorn_normalize(feats, weight, iters, temp)
    assert np.abs(q.sum(axis=1) - 1.0).max() < 1e-5
    oracle, r = _log_sinkhorn_oracle(feats @ weight, temp, iters,
                                     row_step=True)
    assert np.abs(q - oracle).max() < 2e-6
    assert abs(entropy - mean_row_entropy(q)) < 5e-5
    cols, target, slack = q.sum(axis=0, dtype=np.float64), b / kc, 2e-6 * b
    assert cols.min() >= target * r.min() - slack
    assert cols.max() <= target * r.max() + slack


@pytest.mark.filterwarnings("error")
def test_sinkhorn_rejects_non_finite():
    scores = np.zeros((3, 4), np.float32)
    for bad in (np.nan, np.inf, -np.inf):
        scores[1, 2] = bad
        with pytest.raises(ValueError):
            sinkhorn_normalize(scores, _eye(scores), 3, 0.1)
        with pytest.raises(ValueError):
            sinkhorn_normalize(np.eye(3, dtype=np.float32), scores, 3, 0.1)
    # finite inputs whose product overflows float32
    feats = np.full((3, 2), 1e30, np.float32)
    with pytest.raises(ValueError):
        sinkhorn_normalize(feats, np.full((2, 4), 1e30, np.float32), 3, 0.1)
    # ... with opposite signs, so the overflowing terms sum to NaN
    weight = np.array([[1e30] * 4, [-1e30] * 4], np.float32)
    with pytest.raises(ValueError):
        sinkhorn_normalize(feats, weight, 3, 0.1)


def test_teacher_targets_shapes_and_determinism():
    rng = np.random.default_rng(2)
    cls = rng.standard_normal((3, 4, 16)).astype(np.float32)
    pat = rng.standard_normal((3, 4, 5, 16)).astype(np.float32)
    eye = _eye(cls[0])
    for fold in range(3):
        q1, e1 = teacher_targets(pat[fold], eye, 3, 0.05)
        q2, e2 = teacher_targets(pat[fold], eye, 3, 0.05)
        assert q1.shape == (4 * 5, 16)
        assert np.array_equal(q1, q2) and e1 == e2
        c, _ = teacher_targets(cls[fold], eye, 3, 0.05)
        q, _ = sinkhorn_normalize(cls[fold], eye, 3, 0.05)
        assert c.shape == (4, 16)
        assert np.array_equal(c, q)


def test_teacher_targets_patch_rows_and_entropy():
    """Every fold written into one reused buffer: row b*F + f holds image
    b, position f, balanced jointly across batch and position."""
    rng = np.random.default_rng(14)
    k, b, f, kc = 3, 4, 5, 16
    pat = rng.uniform(-1, 1, (k, b, f, kc)).astype(np.float32)
    eye = _eye(pat[0, 0])
    out = np.empty((b * f, kc), np.float32)
    for fold in range(k):
        got, entropy = teacher_targets(pat[fold], eye, 3, 0.05, out=out)
        assert got is out
        q, _ = sinkhorn_normalize(pat[fold].reshape(b * f, kc), eye, 3,
                                  0.05)
        assert np.array_equal(out, q)
        assert abs(entropy - mean_row_entropy(q)) < 1e-5


def test_assignment_entropy_decreases_with_temperature():
    rng = np.random.default_rng(3)
    scores = rng.standard_normal((8, 32)).astype(np.float32)
    temps = [1.0, 0.5, 0.25, 0.1, 0.05]
    ents = [mean_row_entropy(student_assign(Tensor(scores), t).data)
            for t in temps]
    assert all(a >= b for a, b in zip(ents, ents[1:]))


def test_student_assign_uniform_scores():
    q = student_assign(Tensor(np.zeros((3, 8), np.float32)), 0.1)
    assert np.allclose(q.data, 1.0 / 8, atol=1e-7)


def test_student_assign_grad_through_ce():
    rng = np.random.default_rng(4)
    s = Tensor(0.5 * rng.standard_normal((3, 6)).astype(np.float32),
               requires_grad=True)
    p, _ = sinkhorn_normalize(rng.standard_normal((3, 6)),
                              np.eye(6, dtype=np.float32), 3, 1.0)
    # identity features make the prototype matrix the score matrix
    eye = np.eye(3, dtype=np.float32)
    rows = np.arange(3)
    loss = lambda: tempered_cross_entropy([(p, rows, rows)], eye, s,
                                          1.0) * 0.25
    assert check_grads(loss, {"s": s}) <= 1.0


def test_match_identity_when_feats_equal():
    feats = np.random.default_rng(5).standard_normal((6, 8)).astype(np.float32)
    fold_idx, row_idx, dist = _unbatched(feats, [feats])
    assert np.array_equal(fold_idx, np.zeros(6, np.intp))
    assert np.array_equal(row_idx, np.arange(6))
    assert np.allclose(dist, 0.0, atol=1e-5)


def test_match_all_ties_pick_first():
    t = np.random.default_rng(6).standard_normal((4, 8)).astype(np.float32)
    s = -t[0:1].repeat(3, axis=0)
    # make every teacher row the same so distances tie exactly
    folds = [np.tile(t[0], (4, 1)), np.tile(t[0], (4, 1))]
    fold_idx, row_idx, dist = _unbatched(s, folds)
    assert np.array_equal(fold_idx, [0, 0, 0])
    assert np.array_equal(row_idx, [0, 0, 0])
    assert np.allclose(dist, 2.0, atol=1e-5)


def _brute_force_match(s, folds):
    """Per student row: (distance, fold, row) of the first strictly
    closest teacher row, by a plain loop over every pair."""
    su = s / np.linalg.norm(s, axis=1, keepdims=True)
    best_rows = []
    for i in range(len(s)):
        best = (np.inf, None, None)
        for kk, fold in enumerate(folds):
            for ff, t in enumerate(fold):
                dist = 1.0 - float(su[i] @ (t / np.linalg.norm(t)))
                if dist < best[0] - 1e-7:
                    best = (dist, kk, ff)
        best_rows.append(best)
    return best_rows


def test_match_against_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(1, 17))
        k = int(rng.integers(1, 4))
        f = int(rng.integers(1, 9))
        d = int(rng.integers(2, 33))
        s = rng.standard_normal((m, d)).astype(np.float32)
        folds = [rng.standard_normal((f, d)).astype(np.float32)
                 for _ in range(k)]
        if rng.random() < 0.3:   # force exact ties
            dup = folds[0][0].copy()
            for fold in folds:
                fold[:] = dup
        fold_idx, row_idx, distance = _unbatched(s, folds)
        for i, best in enumerate(_brute_force_match(s, folds)):
            assert (fold_idx[i], row_idx[i]) <= (best[1], best[2])
            assert abs(distance[i] - best[0]) < 1e-5


def test_match_batch_matches_single():
    rng = np.random.default_rng(8)
    s = rng.standard_normal((3, 5, 8)).astype(np.float32)
    folds = [rng.standard_normal((3, 4, 8)).astype(np.float32)
             for _ in range(2)]
    fold_idx, row_idx, dist = nearest_patch_match_batch(s, folds)
    # each image matches the single-image loop over its own rows only
    for b in range(3):
        best = _brute_force_match(s[b], [f[b] for f in folds])
        assert np.array_equal(fold_idx[b], [kk for _, kk, _ in best])
        assert np.array_equal(row_idx[b], [ff for _, _, ff in best])
        assert np.allclose(dist[b], [d for d, _, _ in best], atol=1e-6)


def _unit64(x):
    norm = np.linalg.norm(x)
    return x / norm if norm > 0 else x


@settings(derandomize=True, max_examples=80, deadline=10000, database=None)
@given(b=st.integers(1, 4), m=st.integers(1, 12), k=st.integers(1, 4),
       f=st.integers(1, 8), d=st.integers(1, 16), dups=st.integers(0, 8),
       zeros=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_match_batch_brute_force_properties(b, m, k, f, d, dups, zeros,
                                            seed):
    """Batched matching against a float64 loop over every (fold, row) of
    the same image, with exact ties from copied teacher rows and from
    zero rows (distance 1 to everything): the first strictly closest pair
    in (fold, row) order wins."""
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((b, m, d)).astype(np.float32)
    t = rng.standard_normal((k, b, f, d)).astype(np.float32)
    for _ in range(dups):
        img = rng.integers(b)
        t[rng.integers(k), img, rng.integers(f)] = t[rng.integers(k), img,
                                                     rng.integers(f)]
    # a student row equal to a teacher row ties with that row's copies
    s[:, 0] = t[rng.integers(k), :, rng.integers(f)]
    if zeros:
        s[:, -1] = 0.0
        t[rng.integers(k), :, rng.integers(f)] = 0.0
    fold_idx, row_idx, dist = nearest_patch_match_batch(s, t)
    for bi in range(b):
        for mi in range(m):
            best = None
            for kk in range(k):
                for ff in range(f):
                    d64 = 1.0 - float(_unit64(s[bi, mi].astype(np.float64))
                                      @ _unit64(t[kk, bi, ff].astype(np.float64)))
                    if best is None or d64 < best[0]:
                        best = (d64, kk, ff)
            assert (fold_idx[bi, mi], row_idx[bi, mi]) == best[1:]
            assert abs(dist[bi, mi] - best[0]) < 1e-5


def _class_targets(k, b, kc, seed):
    """The class target `compute_loss` trains on: the fold mean of the
    teacher's class assignments."""
    rng = np.random.default_rng(seed)
    cls = rng.standard_normal((k, b, kc)).astype(np.float32)
    eye = np.eye(kc, dtype=np.float32)
    return cls, np.stack([teacher_targets(c, eye, 3, 0.5)[0]
                          for c in cls]).mean(axis=0)


def test_class_average_single_fold_identity():
    cls, avg = _class_targets(1, 4, 8, seed=9)
    p, _ = sinkhorn_normalize(cls[0], np.eye(8, dtype=np.float32), 3, 0.5)
    assert np.array_equal(avg, p)


def test_class_average_rows_sum_to_one():
    _, avg = _class_targets(3, 6, 16, seed=10)
    assert np.abs(avg.sum(axis=1) - 1.0).max() < 1e-6
