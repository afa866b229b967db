"""Model-component tests: patchify, encoder, decoder, projection head."""

import sys
import threading
import time

import numpy as np
import pytest

from dualmim import vit
from dualmim.masking import gen_mask, split_folds
from dualmim.tensor import Tensor, no_grad
from dualmim.vit import (Decoder, Encoder, ProjectionHead,
                         ProjectionHeadConfig, ViTConfig, patchify_batch)

from tape_ref import canonical_decoder, cosine_recon_loss


def patchify(image, patch_size):
    """One-image oracle: [H, W, C] -> [N, P*P*C], row-major patch order."""
    h, w, c = image.shape
    p = patch_size
    x = image.reshape(h // p, p, w // p, p, c).transpose(0, 2, 1, 3, 4)
    return x.reshape(h // p * (w // p), p * p * c)


def unpatchify(patches, patch_size, image_size, channels=3):
    """Inverse of `patchify`."""
    p, g = patch_size, image_size // patch_size
    x = patches.reshape(g, g, p, p, channels).transpose(0, 2, 1, 3, 4)
    return x.reshape(image_size, image_size, channels)


def _cfg(**kw):
    base = dict(image_size=16, patch_size=4, embed_dim=8, depth=2,
                num_heads=2, mlp_ratio=2.0, decoder_depth=1, decoder_dim=8)
    base.update(kw)
    return ViTConfig(**base)


def test_patchify_32x32():
    img = np.random.default_rng(0).random((32, 32, 3)).astype(np.float32)
    patches = patchify_batch(img[None], 4)
    assert patches.shape == (1, 64, 48)


def test_patchify_224_gives_196_patches():
    img = np.zeros((224, 224, 3), np.float32)
    assert patchify_batch(img[None], 16).shape == (1, 196, 16 * 16 * 3)


def test_patchify_roundtrip_bit_exact():
    img = np.random.default_rng(1).random((32, 32, 3)).astype(np.float32)
    assert np.array_equal(unpatchify(patchify_batch(img[None], 4)[0], 4, 32),
                          img)


def test_patchify_batch_matches_single():
    imgs = np.random.default_rng(2).random((3, 16, 16, 3)).astype(np.float32)
    batched = patchify_batch(imgs, 4)
    for i in range(3):
        assert np.array_equal(batched[i], patchify(imgs[i], 4))


def test_encoder_output_shape():
    cfg = ViTConfig(image_size=32, patch_size=4, embed_dim=64, depth=2,
                    num_heads=4, decoder_depth=1)
    enc = Encoder(cfg, np.random.default_rng(3))
    patches = np.random.default_rng(4).standard_normal((2, 16, 48)).astype(np.float32)
    out = enc(patches, np.arange(16))
    assert out.shape == (2, 17, 64)


def test_hierarchical_final_only_matches_plain():
    rng_seed = 5
    patches = np.random.default_rng(6).standard_normal((1, 8, 48)).astype(np.float32)
    idx = np.arange(8)
    plain = Encoder(_cfg(), np.random.default_rng(rng_seed))
    hier = Encoder(_cfg(hierarchical_layers=(2,)), np.random.default_rng(rng_seed))
    assert np.array_equal(plain(patches, idx).data, hier(patches, idx).data)


def test_encoder_permutation_equivariance():
    cfg = _cfg()
    enc = Encoder(cfg, np.random.default_rng(7))
    patches = np.random.default_rng(8).standard_normal((1, 6, 48)).astype(np.float32)
    idx = np.array([0, 3, 5, 7, 9, 12])
    out = enc(patches, idx).data
    perm = np.array([4, 2, 0, 5, 1, 3])
    out_p = enc(patches[:, perm], idx[perm]).data
    # class token identical, patch rows permuted along with their indices
    assert np.allclose(out[:, 0], out_p[:, 0], atol=1e-5)
    assert np.allclose(out[:, 1:][:, perm], out_p[:, 1:], atol=1e-5)


@pytest.mark.parametrize("hier", [None, (2, 4)])
@pytest.mark.parametrize("batch", [1, 2, 3, 17])
def test_encoder_class_only_is_row_zero_bit_for_bit(fake_blas, monkeypatch,
                                                   batch, hier):
    """The last block past attention and the final norm run on two rows:
    row 0 has the full pass's bits, taped, untaped and in threaded row
    blocks, and its gradients are those of the full pass's row 0."""
    enc = Encoder(_cfg(depth=4, hierarchical_layers=hier),
                  np.random.default_rng(10))
    rng = np.random.default_rng(batch)
    patches = rng.standard_normal((batch, 16, 48)).astype(np.float32)
    idx = rng.permutation(16)
    upstream = Tensor(rng.standard_normal((batch, 1, 8)).astype(np.float32))
    grads = []
    for class_only in (False, True):
        out = enc(patches, idx, class_only=class_only)
        if not class_only:
            out = out.take(np.array([0]), axis=1)
        (out * upstream).sum().backward()
        grads.append({k: t.grad for k, t in enc.params().items()})
        for t in enc.params().values():
            t.grad = None
    assert out.shape == (batch, 1, 8)
    with no_grad():
        full = enc(patches, idx)
        frozen = enc(patches, idx, class_only=True)
    assert np.array_equal(out.data, full.data[:, :1])
    assert np.array_equal(frozen.data, full.data[:, :1])
    for name, g in grads[0].items():
        assert np.allclose(grads[1][name], g, rtol=1e-5, atol=1e-6), name
    # two workers whose blocks in flight hold at most 40 tokens, 2 images
    # of 17: 3 images run as 3 blocks, 17 as 15 ragged ones
    blas = fake_blas(2)
    monkeypatch.setattr(vit, "INFER_BLOCK_TOKENS", 40)
    with no_grad():
        blocked = enc(patches, idx, class_only=True)
    assert np.array_equal(blocked.data, full.data[:, :1])
    assert blas.sets == ([1, 2] if batch > 2 else [])


def _count_forward(monkeypatch):
    calls = []
    raw = Encoder._forward

    def counted(*args, **kwargs):
        calls.append(1)
        return raw(*args, **kwargs)

    monkeypatch.setattr(Encoder, "_forward", counted)
    return calls


@pytest.mark.parametrize("threads", [None, 1, 2, 8])
@pytest.mark.parametrize("batch,budget", [(1, 6), (7, 21), (11, 21)])
def test_encoder_threaded_blocks_match_unblocked(fake_blas, monkeypatch,
                                                threads, batch, budget):
    enc = Encoder(_cfg(), np.random.default_rng(9))
    rng = np.random.default_rng(batch)
    patches = rng.standard_normal((batch, 6, 48)).astype(np.float32)
    idx = rng.choice(16, 6, replace=False)
    with no_grad():
        whole = enc(patches, idx).data
    # one image holds 7 tokens: a budget of 6 splits even B = 1, and one
    # of 21 gives ragged blocks
    monkeypatch.setattr(vit, "INFER_BLOCK_TOKENS", budget)
    blas = fake_blas(threads)
    calls = _count_forward(monkeypatch)
    # 8 workers are more than the cores; threads switch as often as they can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with no_grad():
            out = enc(patches, idx).data
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(out, whole)
    workers = threads or 1
    assert len(calls) == min(batch, -(-batch * 7 * workers // budget))
    # BLAS ran on one thread inside the call and is back where it was
    assert blas.sets == ([1, workers] if workers > 1 else [])
    assert blas.threads == threads


def test_encoder_blocks_restore_real_blas_threads(monkeypatch):
    real = vit._openblas()
    before = real and real[0]()
    monkeypatch.setattr(vit, "INFER_BLOCK_TOKENS", 7)
    enc = Encoder(_cfg(), np.random.default_rng(2))
    with no_grad():
        enc(np.ones((4, 6, 48), np.float32), np.arange(6))
    assert (real and real[0]()) == before


def test_encoder_block_error_propagates_after_every_block(fake_blas,
                                                         monkeypatch):
    blas = fake_blas(2)
    monkeypatch.setattr(vit, "INFER_BLOCK_TOKENS", 7)   # one image a block
    raw = Encoder._forward
    lock = threading.Lock()
    active, started, done = [0], [], []

    def flaky(self, patches, idx, *args, **kwargs):
        with lock:
            active[0] += 1
            started.append(1)
        try:
            if patches.data[0, 0, 0] == 1e3:
                raise RuntimeError("block failed")
            time.sleep(0.02)
            out = raw(self, patches, idx, *args, **kwargs)
            done.append(1)
            return out
        finally:
            with lock:
                active[0] -= 1

    monkeypatch.setattr(Encoder, "_forward", flaky)
    patches = np.zeros((6, 6, 48), np.float32)
    patches[1, 0, 0] = 1e3
    enc = Encoder(_cfg(), np.random.default_rng(2))
    with no_grad(), pytest.raises(RuntimeError, match="block failed"):
        enc(patches, np.arange(6))
    # blocks not yet started are cancelled; every started one has ended
    assert active[0] == 0 and len(done) == len(started) - 1
    assert blas.sets == [1, 2] and blas.threads == 2


def test_encoder_within_budget_is_one_pass_without_blas_change(fake_blas,
                                                              monkeypatch):
    # a teacher fold pass: 128 images x 17 tokens <= INFER_BLOCK_TOKENS
    blas = fake_blas(2)
    calls = _count_forward(monkeypatch)
    enc = Encoder(_cfg(), np.random.default_rng(4))
    patches = np.random.default_rng(5).standard_normal(
        (128, 16, 48)).astype(np.float32)
    with no_grad():
        enc(patches, np.arange(16))
    assert 128 * 17 <= vit.INFER_BLOCK_TOKENS
    assert len(calls) == 1 and blas.sets == []


def test_decoder_output_shape():
    cfg = ViTConfig(image_size=32, patch_size=4, embed_dim=64, depth=2,
                    num_heads=4, decoder_depth=1)
    rng = np.random.default_rng(9)
    enc, dec = Encoder(cfg, rng), Decoder(cfg, rng)
    spec = gen_mask(64, 0.75, np.random.default_rng(10))
    patches = np.random.default_rng(11).standard_normal(
        (2, 16, 48)).astype(np.float32)
    out = dec(enc(patches, spec.visible_indices),
              spec.visible_indices, spec.masked_indices)
    assert out.shape == (2, 49, 64)    # the class row and the 48 queries


@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("order", ["ascending", "fold-major", "reversed"])
def test_decoder_matches_canonical_reference(depth, order):
    """The decoder's rows equal the canonical-order full pass at the class
    row and the query positions, in query order, within 1e-6; under a
    fixed random readout, the gradients of every decoder parameter and of
    `encoded` agree within 1e-5 of their largest magnitude."""
    cfg = _cfg(decoder_depth=depth)
    dec = Decoder(cfg, np.random.default_rng(22))
    spec = gen_mask(cfg.num_patches, 0.75, np.random.default_rng(23))
    vis, msk = spec.visible_indices, spec.masked_indices
    folds = split_folds(spec, 3, np.random.default_rng(21))
    query = {"ascending": msk, "fold-major": folds.reshape(-1),
             "reversed": msk[::-1]}[order]
    rng = np.random.default_rng(24)
    enc = rng.standard_normal((2, vis.size + 1, 8)).astype(np.float32)
    readout = rng.standard_normal((2, 1 + query.size, 8)).astype(np.float32)

    def run(forward):
        params = dec.params()
        for p in params.values():
            p.grad = None
        encoded = Tensor(enc, requires_grad=True)
        out = forward(encoded)
        (out * Tensor(readout)).sum().backward()
        return out.data, {"encoded": encoded.grad} | {
            k: p.grad for k, p in params.items()}

    out, grads = run(lambda e: dec(e, vis, query))
    ref, ref_grads = run(lambda e: canonical_decoder(dec, e, vis, msk).take(
        np.r_[0, query + 1], axis=1))
    assert out.shape == (2, 1 + query.size, 8)
    assert np.abs(out - ref).max() <= 1e-6
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        scale = np.abs(ref_grads[name]).max()
        assert np.abs(g - ref_grads[name]).max() <= 1e-5 * scale, name


def test_decoder_zero_mask_determinism():
    cfg = _cfg()
    rng = np.random.default_rng(12)
    enc, dec = Encoder(cfg, rng), Decoder(cfg, rng)
    patches = np.random.default_rng(13).standard_normal(
        (1, 16, 48)).astype(np.float32)
    vis = np.arange(16)
    enc_out = enc(patches, vis)
    a = dec(enc_out, vis, np.array([], np.intp)).data
    b = dec(enc(patches, vis), vis, np.array([], np.intp)).data
    assert np.array_equal(a, b)


def test_mask_token_receives_gradient():
    cfg = _cfg()
    rng = np.random.default_rng(14)
    enc, dec = Encoder(cfg, rng), Decoder(cfg, rng)
    spec = gen_mask(16, 0.75, np.random.default_rng(15))
    patches = np.random.default_rng(16).standard_normal(
        (1, 4, 48)).astype(np.float32)
    out = dec(enc(patches[:, :4], spec.visible_indices),
              spec.visible_indices, spec.masked_indices)
    targets = np.random.default_rng(17).standard_normal(
        (1, 12, 8)).astype(np.float32)
    masked_rows = out.take(np.arange(1, out.shape[1]), axis=1)
    loss = cosine_recon_loss(masked_rows, targets)
    loss.backward()
    assert dec.mask_token.grad is not None
    assert np.linalg.norm(dec.mask_token.grad) > 0


def _head(rng_seed=18, in_dim=8):
    cfg = ProjectionHeadConfig(num_shared_layers=2, hidden_dim=16,
                               output_dim=32)
    return ProjectionHead(cfg, np.random.default_rng(rng_seed), in_dim)


def test_head_class_patch_branch_separation():
    head = _head()
    rng = np.random.default_rng(19)
    tokens = rng.standard_normal((2, 5, 8)).astype(np.float32)
    other = tokens.copy()
    other[:, 0] = rng.standard_normal((2, 8))
    _, p1 = head(Tensor(tokens))
    _, p2 = head(Tensor(other))
    assert np.array_equal(p1.data, p2.data)


def test_head_output_shapes():
    cfg = ProjectionHeadConfig(num_shared_layers=2, hidden_dim=16,
                               output_dim=4096)
    head = ProjectionHead(cfg, np.random.default_rng(20), 64)
    c, p = head(Tensor(np.random.default_rng(21).standard_normal(
        (1, 17, 64)).astype(np.float32)))
    assert c.shape == (1, 16)
    assert p.shape == (1, 16, 16)
    # L2-normalized trunk features (up to l2_normalize's eps), scored
    # against K_c prototypes
    assert np.allclose(np.linalg.norm(p.data, axis=-1), 1.0, atol=1e-3)
    assert (c.data @ head.class_out.w.data).shape == (1, 4096)
    assert (p.data @ head.patch_out.w.data).shape == (1, 16, 4096)


def test_head_swap_final_layers_keeps_trunk():
    head = _head()
    tokens = Tensor(np.random.default_rng(22).standard_normal(
        (1, 4, 8)).astype(np.float32))
    trunk_before = head.trunk(tokens).data.copy()

    def scores():
        c, p = head(tokens)
        return c.data @ head.class_out.w.data, p.data @ head.patch_out.w.data

    c1, p1 = scores()
    head.class_out.w.data, head.patch_out.w.data = \
        head.patch_out.w.data.copy(), head.class_out.w.data.copy()
    c2, p2 = scores()
    assert np.array_equal(head.trunk(tokens).data, trunk_before)
    assert not np.array_equal(c1, c2)
    assert not np.array_equal(p1, p2)


def test_head_prototypes_unit_norm_at_init():
    head = _head()
    for w in (head.class_out.w.data, head.patch_out.w.data):
        assert np.allclose(np.linalg.norm(w, axis=0), 1.0, atol=1e-5)
