import numpy as np
import pytest

from petl_lab import (GeometryError, ModelConfig, ShapeError, Tensor, build_model,
                      build_swin_bapat, freeze_backbone, grad_check, load_checkpoint,
                      patch_embed, read_checkpoint, save_checkpoint, window_partition)
from petl_lab import tensor as T
from petl_lab.backbone import (SWIN_B, SWIN_MICRO, AttentionWeights, bias_view,
                               swin_block, window_attention, window_grid_counts)
from petl_lab.errors import ConfigError

from conftest import NANO, TINY, random_clip
from reference_impl import ref_block, ref_forward, ref_window_attention


def random_attention_weights(rng, d, heads, n_bias):
    mk = lambda shape: Tensor(rng.normal(scale=0.3, size=shape))
    return AttentionWeights(
        n_heads=heads,
        w_q=mk((d, d)), b_q=mk((d,)),
        w_k=mk((d, d)), b_k=mk((d,)),
        w_v=mk((d, d)), b_v=mk((d,)),
        w_o=mk((d, d)), b_o=mk((d,)),
        bias_table=mk((n_bias, heads)),
    )


# -- config geometry ------------------------------------------------------------


def test_token_grid_reference_case():
    assert SWIN_B.token_grid() == (4, 56, 56)


def test_token_grid_single_patch():
    cfg = ModelConfig(input_size=(2, 4, 4), embed_dims=(4,), blocks_per_stage=(1,),
                      heads_per_stage=(2,), num_classes=2)
    assert cfg.token_grid() == (1, 1, 1)


def test_indivisible_input_rejected():
    cfg = ModelConfig(input_size=(7, 32, 32))
    with pytest.raises(GeometryError):
        cfg.token_grid()


def test_heads_must_divide_dims():
    cfg = ModelConfig(embed_dims=(10, 32, 64, 128), heads_per_stage=(3, 2, 4, 4))
    with pytest.raises(ConfigError):
        cfg.validate()


def test_shift_is_half_window():
    assert SWIN_B.shift == (4, 3, 3)
    assert ModelConfig(window_size=(5, 7, 7)).shift == (2, 3, 3)


# -- window partition ----------------------------------------------------------


def test_window_counts_reference_example():
    assert window_grid_counts((4, 56, 56), (8, 7, 7), False) == (1, 8, 8)
    assert window_grid_counts((4, 56, 56), (8, 7, 7), True) == (1, 9, 9)
    assert window_partition((4, 56, 56), (8, 7, 7), False).window_count == 64
    assert window_partition((4, 56, 56), (8, 7, 7), True).window_count == 81


def test_grid_equal_to_window_is_one_window():
    layout = window_partition((4, 4, 4), (4, 4, 4), False)
    assert layout.window_count == 1
    assert len(layout.windows[0]) == 64


def test_partition_property_random_grids(rng):
    for _ in range(25):
        grid = tuple(int(x) for x in rng.integers(1, 9, size=3))
        window = tuple(int(x) for x in rng.integers(1, 6, size=3))
        for shifted in (False, True):
            layout = window_partition(grid, window, shifted)
            seen = np.concatenate(layout.windows)
            assert len(seen) == np.prod(grid)
            assert len(np.unique(seen)) == np.prod(grid)  # each token exactly once
            expected = np.prod(window_grid_counts(grid, window, shifted))
            assert layout.window_count == expected


def test_inverse_perm_restores_order(rng):
    layout = window_partition((3, 5, 4), (2, 3, 3), True)
    perm = np.concatenate(layout.windows)
    assert np.array_equal(perm[layout.inverse_perm], np.arange(3 * 5 * 4))


def test_bias_index_depends_only_on_relative_offset():
    layout = window_partition((4, 4, 4), (4, 4, 4), False)
    coords = layout.coords[0]
    index = layout.bias_index[0]
    by_delta = {}
    for i in range(len(coords)):
        for j in range(len(coords)):
            delta = tuple(coords[i] - coords[j])
            if delta in by_delta:
                assert by_delta[delta] == index[i, j]
            else:
                by_delta[delta] = index[i, j]


# -- patch embedding -------------------------------------------------------------


def test_patch_embed_shapes_and_direct_matmul(rng):
    cfg = TINY
    d0 = cfg.embed_dims[0]
    weight = Tensor(rng.normal(size=(cfg.patch_volume, d0)))
    bias = Tensor(rng.normal(size=d0))
    clip = np.ones((*cfg.input_size, 3))
    tokens = patch_embed(clip, cfg, weight, bias)
    assert tokens.shape == (int(np.prod(cfg.token_grid())), d0)
    # all-ones patch: every token equals the projection of a ones vector
    expected = np.ones(cfg.patch_volume) @ weight.data + bias.data
    assert np.abs(tokens.data - expected[None, :]).max() < 1e-12


def test_patch_embed_rejects_wrong_shape(rng):
    with pytest.raises(GeometryError):
        patch_embed(np.zeros((5, 32, 32, 3)), TINY,
                    Tensor(np.zeros((TINY.patch_volume, 4))), Tensor(np.zeros(4)))


# -- window attention -------------------------------------------------------------


def test_single_token_window_passes_value_through(rng):
    d, heads = 8, 2
    w = random_attention_weights(rng, d, heads, 27)
    w.bias_table = Tensor(np.zeros((27, heads)))
    x = Tensor(rng.normal(size=(1, d)))
    out = window_attention(x, w)
    v = x.data @ w.w_v.data + w.b_v.data
    np.testing.assert_allclose(out.data, v @ w.w_o.data + w.b_o.data, atol=1e-12)


def test_zero_query_gives_uniform_attention(rng):
    d, heads, n = 6, 2, 5
    w = random_attention_weights(rng, d, heads, 27)
    w.w_q = Tensor(np.zeros((d, d)))
    w.b_q = Tensor(np.zeros(d))
    x = Tensor(rng.normal(size=(n, d)))
    out = window_attention(x, w)
    v = x.data @ w.w_v.data + w.b_v.data
    expected = np.tile(v.mean(axis=0), (n, 1)) @ w.w_o.data + w.b_o.data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_window_attention_matches_loop_reference(rng):
    d, heads, n = 8, 2, 4
    w = random_attention_weights(rng, d, heads, 27)
    x = rng.normal(size=(n, d))
    bias = rng.normal(size=(heads, n, n))
    out = window_attention(Tensor(x), w, bias=Tensor(bias))
    ref = ref_window_attention(x, w.w_q.data, w.b_q.data, w.w_k.data, w.b_k.data,
                               w.w_v.data, w.b_v.data, w.w_o.data, w.b_o.data,
                               heads, bias=bias)
    np.testing.assert_allclose(out.data, ref, atol=1e-12)


def test_window_attention_head_dim_mismatch():
    rng = np.random.default_rng(0)
    w = random_attention_weights(rng, 6, 4, 27)  # 6 % 4 != 0
    with pytest.raises(ShapeError):
        window_attention(Tensor(rng.normal(size=(3, 6))), w)


def test_window_attention_mask_excludes_padded(rng):
    d, heads, n = 8, 2, 5
    w = random_attention_weights(rng, d, heads, 27)
    x = rng.normal(size=(n, d))
    mask = np.array([True, True, False, True, False])
    out = window_attention(Tensor(x), w, mask=mask)
    # valid rows must equal plain attention over the valid subset
    sub = window_attention(Tensor(x[mask]), w)
    np.testing.assert_allclose(out.data[mask], sub.data, atol=1e-12)


def test_bias_view_shares_table_entries(rng):
    layout = window_partition((2, 2, 2), (2, 2, 2), False)
    heads = 2
    w = random_attention_weights(rng, 4, heads, 27)
    view = bias_view(w, layout, 0)
    assert view.shape == (heads, 8, 8)
    idx = layout.bias_index[0]
    for h in range(heads):
        np.testing.assert_array_equal(view.data[h], w.bias_table.data[idx, h])


def test_attention_permutation_equivariance(rng):
    d, heads, n = 8, 2, 6
    w = random_attention_weights(rng, d, heads, 27)
    x = rng.normal(size=(n, d))
    bias = rng.normal(size=(heads, n, n))
    out = window_attention(Tensor(x), w, bias=Tensor(bias)).data
    perm = rng.permutation(n)
    bias_p = bias[:, perm][:, :, perm]
    out_p = window_attention(Tensor(x[perm]), w, bias=Tensor(bias_p)).data
    np.testing.assert_allclose(out_p[np.argsort(perm)], out, atol=1e-12)


# -- blocks and full model --------------------------------------------------------


def test_zero_weight_block_is_identity(rng):
    model = build_model(TINY, seed=0)
    blk = model.stages[0].blocks[0]
    for p in model.registry:
        if p.path.startswith("stages.0.blocks.0."):
            p.tensor.data[...] = 0.0
    grid = TINY.token_grid()
    z = rng.normal(size=(int(np.prod(grid)), TINY.embed_dims[0]))
    out = swin_block(Tensor(z), blk, model.layout(grid, False))
    assert np.array_equal(out.data, z)


def test_block_preserves_shape(rng):
    model = build_model(TINY, seed=1)
    grid = TINY.token_grid()
    z = Tensor(rng.normal(size=(int(np.prod(grid)), TINY.embed_dims[0])))
    for shifted in (False, True):
        out = swin_block(z, model.stages[0].blocks[0], model.layout(grid, shifted))
        assert out.shape == z.shape


def test_block_matches_reference_composition(rng):
    model = build_model(TINY, seed=3)
    grid = TINY.token_grid()
    z = rng.normal(size=(int(np.prod(grid)), TINY.embed_dims[0]))
    out = swin_block(Tensor(z), model.stages[0].blocks[0], model.layout(grid, False))
    ref = ref_block(z, model, 0, 0, grid)
    np.testing.assert_allclose(out.data, ref, atol=1e-12)


def test_shifted_block_matches_reference(rng):
    model = build_model(TINY, seed=4)
    grid = (2, 4, 4)  # stage 2 grid; block 1 there is shifted
    z = rng.normal(size=(int(np.prod(grid)), TINY.embed_dims[2]))
    out = swin_block(Tensor(z), model.stages[2].blocks[1], model.layout(grid, True))
    ref = ref_block(z, model, 2, 1, grid)
    np.testing.assert_allclose(out.data, ref, atol=1e-12)


def test_forward_single_class_logit_length(rng):
    cfg = ModelConfig(input_size=(4, 32, 32), embed_dims=(4, 4, 8, 8),
                      blocks_per_stage=(1, 1, 2, 1), heads_per_stage=(2, 2, 2, 2),
                      window_size=(2, 2, 2), num_classes=1)
    model = build_model(cfg, seed=0)
    assert model.forward(random_clip(rng, cfg)).shape == (1,)


def test_forward_deterministic_bitwise(rng):
    model = build_model(TINY, seed=5)
    clip = random_clip(rng, TINY)
    a = model.forward(clip).data
    b = model.forward(clip).data
    assert a.tobytes() == b.tobytes()


def test_forward_matches_independent_reimplementation(rng):
    model = build_model(TINY, seed=6)
    clip = random_clip(rng, TINY)
    mine = model.forward(clip).data
    theirs = ref_forward(model, clip)
    np.testing.assert_allclose(mine, theirs, atol=1e-10, rtol=0)


def test_full_model_gradient_check(rng):
    # Every backbone weight trainable, all stages, one shifted block. eps is
    # smaller than the fine-tuning-level check: the width-2 layer norms give
    # the loss a large third derivative along patch-embed directions, and the
    # central-difference oracle's eps^2 truncation error needs the headroom.
    model = build_model(NANO, seed=7)
    clip = random_clip(rng, NANO)
    err = grad_check(model, clip[None], np.array([1]), eps=2e-6)
    assert err < 1e-4, f"full-model gradient check failed: {err:.3e}"


# -- checkpoints -------------------------------------------------------------------


def test_checkpoint_round_trip_bitwise(tmp_path, rng):
    model = build_model(TINY, seed=8)
    clip = random_clip(rng, TINY)
    before = model.forward(clip).data
    path = tmp_path / "weights.ckpt"
    save_checkpoint(model, path)

    for p in model.registry:
        p.tensor.data[...] += 1.0
    load_checkpoint(model, path)
    after = model.forward(clip).data
    assert before.tobytes() == after.tobytes()

    raw = read_checkpoint(path)
    for p in model.registry:
        assert raw[p.path].tobytes() == p.tensor.data.tobytes()


def test_checkpoint_restores_freeze_state(tmp_path):
    model = build_swin_bapat(TINY, d_bottle=2, seed=8)
    freeze_backbone(model, model.petl_spec)
    path = tmp_path / "weights.ckpt"
    save_checkpoint(model, path)

    fresh = build_swin_bapat(TINY, d_bottle=2, seed=10)
    assert len(fresh.registry.trainable()) == len(fresh.registry)
    load_checkpoint(fresh, path)
    expected = [p.path for p in model.registry.trainable()]
    assert [p.path for p in fresh.registry.trainable()] == expected
    assert [p.path for p in fresh.registry if p.tensor.requires_grad] == expected


def test_checkpoint_rejects_mismatched_model(tmp_path):
    model = build_model(TINY, seed=9)
    path = tmp_path / "weights.ckpt"
    save_checkpoint(model, path)
    other = build_model(NANO, seed=9)
    with pytest.raises(ConfigError):
        load_checkpoint(other, path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"\x00\x01\x02 not a checkpoint\n")
    with pytest.raises(ConfigError):
        read_checkpoint(path)
