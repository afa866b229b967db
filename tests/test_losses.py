"""Loss-function tests: target normalization, reconstruction, pseudo CE."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualmim.errors import NumericError
from dualmim.losses import (CE_CHUNK_ROWS, LossWeights, cross_entropy,
                            normalize_targets, recon_loss,
                            tempered_cross_entropy, total_loss)
from dualmim.tensor import Tensor

from tape_ref import cosine_recon_loss, matmul, student_assign


def test_normalize_constant_row_is_zero():
    out = normalize_targets(np.full((2, 3, 4), 7.0, np.float32))
    assert np.allclose(out, 0.0, atol=1e-3)


def test_normalize_reference_row():
    out = normalize_targets(np.array([[[1.0, 2.0, 3.0]]], np.float32))
    expect = (np.array([1.0, 2.0, 3.0]) - 2.0) / np.sqrt(2.0 / 3.0 + 1e-6)
    assert np.allclose(out[0, 0], expect, atol=1e-4)


def test_normalize_row_statistics():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 6, 16)).astype(np.float32) * 3.0 + 1.0
    out = normalize_targets(x)
    assert np.abs(out.mean(axis=-1)).max() < 1e-6
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-3


def test_cosine_loss_zero_when_aligned():
    t = np.random.default_rng(1).standard_normal((2, 5, 8)).astype(np.float32)
    loss = cosine_recon_loss(Tensor(t * 2.0), t)  # scale-invariant
    assert abs(float(loss.data)) < 1e-5


def test_cosine_loss_one_when_orthogonal():
    s = np.zeros((1, 2, 4), np.float32)
    t = np.zeros((1, 2, 4), np.float32)
    s[..., 0] = 1.0
    t[..., 1] = 1.0
    loss = cosine_recon_loss(Tensor(s), t)
    assert abs(float(loss.data) - 1.0) < 1e-6


def test_cosine_loss_matches_double_loop():
    rng = np.random.default_rng(2)
    s = rng.standard_normal((3, 4, 6)).astype(np.float32)
    t = rng.standard_normal((3, 4, 6)).astype(np.float32)
    loss = float(cosine_recon_loss(Tensor(s), t).data)
    acc = 0.0
    for b in range(3):
        for i in range(4):
            sv, tv = s[b, i].astype(np.float64), t[b, i].astype(np.float64)
            acc += 1.0 - sv @ tv / (np.linalg.norm(sv) * np.linalg.norm(tv))
    assert abs(loss - acc / 12) < 1e-5


@settings(derandomize=True, max_examples=60, deadline=10000, database=None)
@given(b=st.integers(1, 5), k=st.integers(1, 4), f=st.integers(1, 5),
       d=st.integers(1, 24), s_scale=st.floats(1e-3, 1e3),
       t_scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2 ** 32 - 1))
def test_recon_loss_matches_composite_properties(b, k, f, d, s_scale,
                                                 t_scale, seed):
    """The fused node against the composite of elementary nodes, for any
    shapes and scales, with a zero student row and a constant teacher row:
    the loss within 1e-6, decoder_out.grad within 1e-5 of its largest
    magnitude, and one tape node whose only parent is the decoder output."""
    rng = np.random.default_rng(seed)
    x = (s_scale * rng.standard_normal((b, 1 + k * f, d))).astype(np.float32)
    tokens = (t_scale * rng.standard_normal((k, b, f, d))).astype(np.float32)
    x[0, 1 + rng.integers(k * f)] = 0.0  # a zero student row
    tokens[-1, -1, -1] = t_scale         # a constant teacher row
    fused = Tensor(x, requires_grad=True)
    loss = recon_loss(fused, tokens)
    assert loss._op == "recon" and loss._parents == (fused,)
    loss.backward()
    composed = Tensor(x, requires_grad=True)
    targets = normalize_targets(tokens).transpose(1, 0, 2, 3).reshape(
        b, k * f, d)
    ref = cosine_recon_loss(composed.take(np.arange(1, 1 + k * f), axis=1),
                            targets)
    ref.backward()
    assert abs(float(loss.data) - float(ref.data)) <= 1e-6
    scale = np.abs(composed.grad).max()
    assert np.abs(fused.grad - composed.grad).max() <= 1e-5 * scale


def test_recon_loss_rejects_a_row_count_mismatch():
    """The decoder output must hold the class row plus one row per fold
    position: [2, 1+2*3, 4] against three folds of two rows passes, and
    one row more or fewer raises."""
    tokens = np.ones((3, 2, 2, 4), np.float32)
    recon_loss(Tensor(np.ones((2, 7, 4), np.float32)), tokens)
    for rows in (6, 8):
        with pytest.raises(ValueError, match="rows"):
            recon_loss(Tensor(np.ones((2, rows, 4), np.float32)), tokens)


def test_pseudo_loss_uniform_is_log_k():
    k = 4096
    p = np.full((2, k), 1.0 / k, np.float32)
    q = student_assign(Tensor(np.zeros((2, k), np.float32)), 0.1)
    loss = float(cross_entropy(p, q).data)
    assert abs(loss - np.log(k)) < 1e-3


def _ce_on_scores(p, scores, temperature):
    """The fused op on given scores: identity features make the prototype
    matrix the score matrix."""
    rows = np.asarray(p).shape[0]
    at = np.arange(rows)
    return tempered_cross_entropy([(p, at, at)],
                                  np.eye(rows, dtype=np.float32), scores,
                                  temperature)


def test_pseudo_loss_one_hot_agreement_near_zero():
    p = np.zeros((1, 8), np.float32)
    p[0, 3] = 1.0
    scores = np.full((1, 8), -10.0, np.float32)
    scores[0, 3] = 10.0
    loss = float(_ce_on_scores(p, scores, 1.0).data)
    assert loss < 1e-4


def test_pseudo_loss_matches_scalar_reference():
    rng = np.random.default_rng(3)
    p = rng.random((4, 8))
    p /= p.sum(axis=1, keepdims=True)
    scores = rng.standard_normal((4, 8)).astype(np.float32)
    got = float(_ce_on_scores(p, scores, 0.1).data)
    # scalar double-loop reference in float64
    z = scores.astype(np.float64) / 0.1
    acc = 0.0
    for i in range(4):
        logq = z[i] - np.log(np.exp(z[i] - z[i].max()).sum()) - z[i].max()
        for j in range(8):
            acc -= p[i, j] * logq[j]
    assert abs(got - acc / 4) < 1e-5


def test_class_loss_is_patch_loss_on_one_row():
    rng = np.random.default_rng(4)
    p = rng.random((1, 16))
    p /= p.sum()
    # mild logits: the reference cross_entropy clamps log(q + 1e-9), so the
    # two paths only agree where no probability underflows that guard
    scores = Tensor(0.1 * rng.standard_normal((1, 16)).astype(np.float32))
    a = float(_ce_on_scores(p, scores, 0.1).data)
    b = float(cross_entropy(p, student_assign(scores, 0.1)).data)
    assert abs(a - b) < 1e-4


def _fused_vs_composed(rows, hidden, kc, temperature, seed):
    rng = np.random.default_rng(seed)
    table = rng.random((rows + 5, kc)).astype(np.float32)
    table /= table.sum(axis=1, keepdims=True)
    target_rows = rng.integers(0, rows + 5, rows)
    x0 = rng.standard_normal((rows, hidden)).astype(np.float32)
    x0 /= np.linalg.norm(x0, axis=1, keepdims=True)
    w0 = rng.standard_normal((hidden, kc)).astype(np.float32)
    w0 /= np.linalg.norm(w0, axis=0, keepdims=True)
    out = []
    for fused in (True, False):
        x = Tensor(x0, requires_grad=True)
        w = Tensor(w0, requires_grad=True)
        if fused:
            loss = tempered_cross_entropy(
                [(table, target_rows, np.arange(rows))], x, w, temperature)
        else:
            loss = cross_entropy(table[target_rows],
                                 student_assign(matmul(x, w), temperature))
        loss.backward()
        out.append((float(loss.data), x.grad, w.grad))
    return out


def test_fused_ce_matches_composed_across_chunks():
    # cosine scores at T = 0.5 keep every q far above LOG_EPS, so the
    # composed form's guard changes nothing
    for rows in (1, CE_CHUNK_ROWS, 2 * CE_CHUNK_ROWS + 7):
        (lf, xf, wf), (lc, xc, wc) = _fused_vs_composed(rows, 6, 40, 0.5,
                                                       seed=rows)
        assert abs(lf - lc) < 1e-5 * max(1.0, abs(lc))
        assert np.abs(xf - xc).max() < 1e-5
        assert np.abs(wf - wc).max() < 1e-5


@settings(derandomize=True, max_examples=25, deadline=20000, database=None)
@given(rows=st.integers(1, 2 * CE_CHUNK_ROWS + 40), hidden=st.integers(1, 8),
       kc=st.integers(2, 64), temperature=st.floats(0.5, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fused_ce_matches_composed_properties(rows, hidden, kc, temperature,
                                              seed):
    """Any row count, on either side of the chunk boundaries: the fused op
    against cross_entropy(p, student_assign(matmul(x, w), T)). Unit features and
    columns at T >= 0.5 keep every q far above LOG_EPS."""
    (lf, xf, wf), (lc, xc, wc) = _fused_vs_composed(rows, hidden, kc,
                                                   temperature, seed)
    assert abs(lf - lc) < 1e-5 * max(1.0, abs(lc))
    assert np.abs(xf - xc).max() < 1e-5
    assert np.abs(wf - wc).max() < 1e-5


def test_fused_ce_without_grad_stays_off_tape():
    rng = np.random.default_rng(6)
    table = np.full((3, 5), 0.2, np.float32)
    x = rng.standard_normal((4, 2)).astype(np.float32)
    w = Tensor(rng.standard_normal((2, 5)).astype(np.float32))
    groups = [(table, [0, 1, 2, 0], np.arange(4))]
    loss = tempered_cross_entropy(groups, x, w, 0.5)
    assert not loss.requires_grad and loss._backward is None
    tracked = tempered_cross_entropy(groups, x,
                                     Tensor(w.data, requires_grad=True), 0.5)
    assert float(tracked.data) == float(loss.data)


@settings(derandomize=True, max_examples=25, deadline=20000, database=None)
@given(rows=st.integers(1, 2 * CE_CHUNK_ROWS + 40), n_groups=st.integers(1, 4),
       kc=st.integers(2, 64), seed=st.integers(0, 2 ** 32 - 1))
def test_fused_ce_groups_match_one_group(rows, n_groups, kc, seed):
    """Rows split into groups, each with its own table and in any order,
    give the loss and gradients of one group over the stacked tables."""
    rng = np.random.default_rng(seed)
    tables = rng.random((n_groups, 3, kc)).astype(np.float32)
    tables /= tables.sum(axis=2, keepdims=True)
    group = rng.integers(0, n_groups, rows)
    table_rows = rng.integers(0, 3, rows)
    x0 = rng.standard_normal((rows, 4)).astype(np.float32)
    x0 /= np.linalg.norm(x0, axis=1, keepdims=True)
    w0 = rng.standard_normal((4, kc)).astype(np.float32)
    w0 /= np.linalg.norm(w0, axis=0, keepdims=True)
    out = []
    for grouped in (True, False):
        x = Tensor(x0, requires_grad=True)
        w = Tensor(w0, requires_grad=True)
        if grouped:
            groups = []
            for g in range(n_groups):
                at = rng.permutation(np.flatnonzero(group == g))
                groups.append((tables[g], table_rows[at], at))
        else:
            groups = [(tables.reshape(-1, kc), group * 3 + table_rows,
                       np.arange(rows))]
        loss = tempered_cross_entropy(groups, x, w, 0.5)
        loss.backward()
        out.append((float(loss.data), x.grad, w.grad))
    (lg, xg, wg), (l1, x1, w1) = out
    assert abs(lg - l1) < 1e-6 * max(1.0, abs(l1))
    assert np.abs(xg - x1).max() < 1e-6
    assert np.abs(wg - w1).max() < 1e-6


def test_fused_ce_groups_must_hold_every_row():
    table = np.full((2, 5), 0.2, np.float32)
    x = np.zeros((4, 2), np.float32)
    w = Tensor(np.ones((2, 5), np.float32))
    with pytest.raises(ValueError, match="3 rows of 4"):
        tempered_cross_entropy([(table, [0, 1, 1], [0, 1, 3])], x, w, 0.5)


def _scalar(v):
    return Tensor(np.float32(v), requires_grad=True)


def test_total_loss_reconstruction_only():
    m = _scalar(0.7)
    # zero-weight branches are never built, so their losses come in as None
    report = total_loss(LossWeights(1.0, 0.0, 0.0), loss_m=m)
    assert report.total == pytest.approx(0.7)
    assert report.loss_c == 0.0 and report.loss_p == 0.0


def test_total_loss_default_sum():
    report = total_loss(LossWeights(1.0, 1.0, 1.0), loss_m=_scalar(0.5),
                        loss_c=_scalar(1.5), loss_p=_scalar(2.0))
    assert report.total == pytest.approx(4.0)


def test_total_loss_all_zero_weights():
    m, c, p = _scalar(0.5), _scalar(1.5), _scalar(2.0)
    report = total_loss(LossWeights(0.0, 0.0, 0.0), loss_m=m, loss_c=c,
                        loss_p=p)
    assert report.total == 0.0
    if report.total_tensor.requires_grad:
        report.total_tensor.backward()
    assert m.grad is None or not np.any(m.grad)


def test_total_loss_rejects_non_finite():
    with pytest.raises(NumericError):
        total_loss(LossWeights(1.0, 0.0, 0.0), loss_m=_scalar(np.nan))
