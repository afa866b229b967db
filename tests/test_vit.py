"""Model-component tests: patchify, encoder, decoder, projection head."""

import numpy as np

from dualmim.losses import cosine_recon_loss
from dualmim.masking import gen_mask
from dualmim.tensor import Tensor
from dualmim.vit import (Decoder, Encoder, ProjectionHead,
                         ProjectionHeadConfig, ViTConfig, patchify,
                         patchify_batch, unpatchify)


def _cfg(**kw):
    base = dict(image_size=16, patch_size=4, embed_dim=8, depth=2,
                num_heads=2, mlp_ratio=2.0, decoder_depth=1, decoder_dim=8)
    base.update(kw)
    return ViTConfig(**base)


def test_patchify_32x32():
    img = np.random.default_rng(0).random((32, 32, 3)).astype(np.float32)
    patches = patchify(img, 4)
    assert patches.shape == (64, 48)


def test_patchify_224_gives_196_patches():
    img = np.zeros((224, 224, 3), np.float32)
    assert patchify(img, 16).shape == (196, 16 * 16 * 3)


def test_patchify_roundtrip_bit_exact():
    img = np.random.default_rng(1).random((32, 32, 3)).astype(np.float32)
    assert np.array_equal(unpatchify(patchify(img, 4), 4, 32), img)


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
    assert out.shape == (2, 65, 64)


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
    masked_rows = out.take(spec.masked_indices + 1, axis=1)
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
