"""Loss-function tests: target normalization, reconstruction, pseudo CE."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualmim.errors import NumericError
from dualmim.losses import (CE_CHUNK_ROWS, LossWeights, cross_entropy,
                            normalize_targets, recon_loss,
                            tempered_cross_entropy, total_loss)
from dualmim.pseudolabel import (TEMPERATURE_FLOOR, assignments,
                                 sinkhorn_normalize)
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


def _table_group(table, table_rows, feat_rows):
    """A plain table of target rows as a group: E = table, u = v = 1."""
    table = np.asarray(table, np.float32)
    n, kc = table.shape
    return (table, np.ones(n, np.float32), np.ones(kc, np.float32),
            table_rows, feat_rows)


def _factored_table(rng, n, kc):
    """Random factors (E, u, v) whose rows of Q = diag(u) E diag(v) sum to
    1, as Sinkhorn's row step leaves them."""
    e = rng.random((n, kc)).astype(np.float32)
    v = rng.uniform(0.5, 2.0, kc).astype(np.float32)
    u = (1.0 / (e.astype(np.float64) @ v)).astype(np.float32)
    return e, u, v


def _ce_on_scores(p, scores, temperature):
    """The fused op on given scores: identity features make the prototype
    matrix the score matrix."""
    rows = np.asarray(p).shape[0]
    at = np.arange(rows)
    return tempered_cross_entropy([_table_group(p, at, at)],
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
    """The fused op on factored targets against the composed form on the
    table Q they stand for."""
    rng = np.random.default_rng(seed)
    e, u, v = _factored_table(rng, rows + 5, kc)
    table = assignments(e.copy(), u, v)
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
                [(e, u, v, target_rows, np.arange(rows))], x, w,
                temperature)
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
    groups = [_table_group(table, [0, 1, 2, 0], np.arange(4))]
    loss = tempered_cross_entropy(groups, x, w, 0.5)
    assert not loss.requires_grad and loss._backward is None
    tracked = tempered_cross_entropy(groups, x,
                                     Tensor(w.data, requires_grad=True), 0.5)
    assert float(tracked.data) == float(loss.data)


@settings(derandomize=True, max_examples=25, deadline=20000, database=None)
@given(rows=st.integers(1, 2 * CE_CHUNK_ROWS + 40), n_groups=st.integers(1, 4),
       kc=st.integers(2, 64), seed=st.integers(0, 2 ** 32 - 1))
def test_fused_ce_groups_match_one_group(rows, n_groups, kc, seed):
    """Rows split into groups, each with its own factored table and in any
    order, give the loss and gradients of one plain group over the stacked
    tables."""
    rng = np.random.default_rng(seed)
    factors = [_factored_table(rng, 3, kc) for _ in range(n_groups)]
    tables = np.stack([assignments(e.copy(), u, v) for e, u, v in factors])
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
                groups.append((*factors[g], table_rows[at], at))
        else:
            groups = [_table_group(tables.reshape(-1, kc),
                                   group * 3 + table_rows, np.arange(rows))]
        loss = tempered_cross_entropy(groups, x, w, 0.5)
        loss.backward()
        out.append((float(loss.data), x.grad, w.grad))
    (lg, xg, wg), (l1, x1, w1) = out
    assert abs(lg - l1) < 1e-6 * max(1.0, abs(l1))
    assert np.abs(xg - x1).max() < 1e-6
    assert np.abs(wg - w1).max() < 1e-6


@settings(derandomize=True, max_examples=40, deadline=20000, database=None)
@given(rows=st.integers(2, 2 * CE_CHUNK_ROWS + 40), folds=st.integers(1, 3),
       f=st.integers(2, 12), kc=st.integers(2, 64), hidden=st.integers(1, 8),
       temperature=st.floats(0.1, 1.0), empty=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_factored_groups_match_f64_materialized_reference(
        rows, folds, f, kc, hidden, temperature, empty, seed):
    """Patch groups of real Sinkhorn factors (E, u, v) and a u = v = 1
    class group, against a float64 reference that materializes P =
    diag(u) E diag(v) and takes lse(z) - P.z row by row: the loss and both
    gradients within 1e-6, relative where they exceed 1 (float32's own
    spacing there is 1.2e-7). Two feature rows always read one table row,
    the upper half of every fold's table is read by none, and with `empty`
    a last fold holds no feature rows. Temperatures run from the default
    student temperature, 0.1, up: below it the float32 logits themselves,
    up to 1/T in size, are off the float64 ones by more than 1e-6."""
    rng = np.random.default_rng(seed)

    def unit(shape, axis):
        a = rng.standard_normal(shape).astype(np.float32)
        return a / np.linalg.norm(a, axis=axis, keepdims=True)

    x0, w0 = unit((rows, hidden), 1), unit((hidden, kc), 0)
    teacher_w = unit((hidden, kc), 0)
    factors = [sinkhorn_normalize(unit((f, hidden), 1), teacher_w, 3, 0.05)
               for _ in range(folds + empty)]
    n_cls = rows // 4    # class rows first, one table row each
    cls_table = rng.random((n_cls, kc)).astype(np.float32)
    cls_table /= cls_table.sum(axis=1, keepdims=True)
    fold_of = rng.integers(0, folds, rows - n_cls)
    table_row = rng.integers(0, f // 2, rows - n_cls)
    fold_of[:2], table_row[:2] = 0, 0
    groups = [_table_group(cls_table, np.arange(n_cls), np.arange(n_cls))]
    p = np.empty((rows, kc))
    p[:n_cls] = cls_table
    for k, (e, u, v, _) in enumerate(factors):
        at = np.flatnonzero(fold_of == k)
        groups.append((e, u, v, table_row[at], n_cls + at))
        full = u.astype(np.float64)[:, None] * e * v.astype(np.float64)
        p[n_cls + at] = full[table_row[at]]
    x = Tensor(x0, requires_grad=True)
    w = Tensor(w0, requires_grad=True)
    loss = tempered_cross_entropy(groups, x, w, temperature)
    loss.backward()
    z = x0.astype(np.float64) @ w0.astype(np.float64) / temperature
    lse = np.log(np.exp(z).sum(axis=1))
    ref = float(np.mean(lse - (p * z).sum(axis=1)))
    g = (np.exp(z - lse[:, None]) - p) / (rows * temperature)
    for got, want in ((loss.data, ref), (x.grad, g @ w0.T.astype(np.float64)),
                      (w.grad, x0.T.astype(np.float64) @ g)):
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-6 * scale


@pytest.mark.filterwarnings("error")
def test_fused_ce_unshifted_at_the_temperature_floor():
    """Unit features equal to a prototype column, or to its negation, put
    the logits at exactly +-1/T = +-40 at the floor: exp takes them
    unshifted, and the loss and gradients match float64 within 1e-6,
    relative where they exceed 1."""
    rng = np.random.default_rng(21)
    w0 = rng.standard_normal((4, 32)).astype(np.float32)
    w0 /= np.linalg.norm(w0, axis=0)
    x0 = np.concatenate([w0.T[:6], -w0.T[6:12]])
    e, u, v = _factored_table(rng, 5, 32)
    x = Tensor(x0, requires_grad=True)
    w = Tensor(w0, requires_grad=True)
    loss = tempered_cross_entropy([(e, u, v, np.arange(12) % 5,
                                    np.arange(12))], x, w, TEMPERATURE_FLOOR)
    loss.backward()
    z = x0.astype(np.float64) @ w0 / TEMPERATURE_FLOOR
    assert np.isclose(np.abs(z).max(), 40.0)
    p = (u.astype(np.float64)[:, None] * e * v)[np.arange(12) % 5]
    lse = np.log(np.exp(z).sum(axis=1))
    g = (np.exp(z - lse[:, None]) - p) / (12 * TEMPERATURE_FLOOR)
    for got, want in ((loss.data, np.mean(lse - (p * z).sum(axis=1))),
                      (x.grad, g @ w0.T), (w.grad, x0.T @ g)):
        assert np.abs(got - want).max() <= 1e-6 * max(1.0,
                                                      np.abs(want).max())


@pytest.mark.filterwarnings("error")
def test_fused_ce_rejects_unbounded_logits():
    """The logits are not max-shifted, so a row whose exp overflows raises
    instead of returning a non-finite loss."""
    p = np.full((2, 4), 0.25, np.float32)
    scores = np.zeros((2, 4), np.float32)
    assert np.isfinite(float(_ce_on_scores(p, scores, 0.01).data))
    scores[1, 2] = 1.0     # 100 temperatures: exp overflows float32
    with pytest.raises(ValueError, match="not finite"):
        _ce_on_scores(p, scores, 0.01)


def test_fused_ce_groups_must_hold_every_row():
    table = np.full((2, 5), 0.2, np.float32)
    x = np.zeros((4, 2), np.float32)
    w = Tensor(np.ones((2, 5), np.float32))
    with pytest.raises(ValueError, match="3 rows of 4"):
        tempered_cross_entropy([_table_group(table, [0, 1, 1], [0, 1, 3])],
                               x, w, 0.5)


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
