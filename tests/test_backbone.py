import collections
import dataclasses
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from petl_lab import (SWIN_MICRO, GeometryError, ModelConfig, PETLSpec, ShapeError, Tensor,
                      build_model, build_swin_bapat, freeze_backbone, grad_check,
                      load_checkpoint, patch_embed, read_checkpoint, save_checkpoint)
from petl_lab import checkpoint
from petl_lab import tensor as T
from petl_lab.backbone import (SWIN_B, WindowLayout, swin_block, window_attention,
                               window_grid_counts)
from petl_lab.errors import ConfigError

from conftest import NANO, TINY, random_clip
from reference_impl import ref_block, ref_forward, ref_window_attention


def random_attention_weights(rng, d, heads, n_bias):
    mk = lambda shape: Tensor(rng.normal(scale=0.3, size=shape))
    return {
        "attn.q.weight": mk((d, d)), "attn.q.bias": mk((d,)),
        "attn.k.weight": mk((d, d)), "attn.k.bias": mk((d,)),
        "attn.v.weight": mk((d, d)), "attn.v.bias": mk((d,)),
        "attn.proj.weight": mk((d, d)), "attn.proj.bias": mk((d,)),
        "attn.bias_table": mk((n_bias, heads)),
    }


def projection_arrays(w):
    """The eight projection arrays of ``w``, in ``ref_window_attention`` order."""
    return [w[f"attn.{name}.{kind}"].data
            for name in ("q", "k", "v", "proj") for kind in ("weight", "bias")]


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
    assert WindowLayout((4, 56, 56), (8, 7, 7), False).window_count == 64
    assert WindowLayout((4, 56, 56), (8, 7, 7), True).window_count == 81


def test_grid_equal_to_window_is_one_window():
    layout = WindowLayout((4, 4, 4), (4, 4, 4), False)
    assert layout.window_count == 1
    assert [g.tokens.shape for g in layout.groups] == [(1, 64)]


def test_group_counts_reference_example():
    # Windows of one token count share a call: a shifted axis has up to three
    # window sizes (head, interior, tail), and groups key on their product.
    assert len(WindowLayout((4, 56, 56), (8, 7, 7), False).groups) == 1
    assert len(WindowLayout((4, 56, 56), (8, 7, 7), True).groups) == 6
    assert len(WindowLayout((4, 16, 16), (8, 7, 7), False).groups) == 3
    assert len(WindowLayout((4, 16, 16), (8, 7, 7), True).groups) == 6


def _relative_offset_table(layout):
    """Map each in-window offset (dt, dh, dw) to its bias-table row; one row per offset."""
    by_delta = {}
    for group in layout.groups:
        coords = np.stack(np.unravel_index(group.tokens, layout.grid), axis=-1)
        delta = coords[:, :, None, :] - coords[:, None, :, :]
        for d, row in zip(delta.reshape(-1, 3), group.bias_index.reshape(-1)):
            assert by_delta.setdefault(tuple(d), row) == row
    return by_delta


extent = st.integers(1, 9)
window_extent = st.integers(1, 6)


@settings(max_examples=60, deadline=None)
@given(grid=st.tuples(extent, extent, extent),
       window=st.tuples(window_extent, window_extent, window_extent),
       shifted=st.booleans())
@example(grid=(1, 1, 1), window=(5, 5, 5), shifted=True)
@example(grid=(1, 3, 2), window=(4, 4, 4), shifted=False)
def test_partition_property_random_grids(grid, window, shifted):
    layout = WindowLayout(grid, window, shifted)
    n_tokens = int(np.prod(grid))
    perm = np.concatenate([g.tokens.reshape(-1) for g in layout.groups])
    assert np.array_equal(np.sort(perm), np.arange(n_tokens))  # each token exactly once
    assert np.array_equal(perm[layout.inverse_perm], np.arange(n_tokens))
    sizes = [g.tokens.shape[1] for g in layout.groups]
    assert sizes == sorted(set(sizes))  # one group per token count
    assert sum(g.tokens.shape[0] for g in layout.groups) == layout.window_count \
        == np.prod(window_grid_counts(grid, window, shifted))
    table_rows = np.prod([2 * w - 1 for w in window])
    for g in layout.groups:
        assert g.bias_index.shape == (*g.tokens.shape, g.tokens.shape[1])
        assert g.bias_index.min() >= 0 and g.bias_index.max() < table_rows
    _relative_offset_table(layout)


def test_inverse_perm_restores_order(rng):
    layout = WindowLayout((3, 5, 4), (2, 3, 3), True)
    assert len(layout.groups) > 1
    perm = np.concatenate([g.tokens.reshape(-1) for g in layout.groups])
    assert np.array_equal(perm[layout.inverse_perm], np.arange(3 * 5 * 4))


def test_bias_index_depends_only_on_relative_offset():
    for grid, window in (((4, 4, 4), (4, 4, 4)), ((2, 2, 2), (2, 2, 2))):
        layout = WindowLayout(grid, window, False)
        by_delta = _relative_offset_table(layout)
        # every relative offset of a full window has its own table row
        assert len(by_delta) == len(set(by_delta.values())) \
            == np.prod([2 * w - 1 for w in window])


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
    w["attn.bias_table"] = Tensor(np.zeros((27, heads)))
    x = Tensor(rng.normal(size=(1, d)))
    out = window_attention(x, w)
    v = x.data @ w["attn.v.weight"].data + w["attn.v.bias"].data
    np.testing.assert_allclose(out.data, v @ w["attn.proj.weight"].data
                               + w["attn.proj.bias"].data, atol=1e-12)


def test_zero_query_gives_uniform_attention(rng):
    d, heads, n = 6, 2, 5
    w = random_attention_weights(rng, d, heads, 27)
    w["attn.q.weight"] = Tensor(np.zeros((d, d)))
    w["attn.q.bias"] = Tensor(np.zeros(d))
    x = Tensor(rng.normal(size=(n, d)))
    out = window_attention(x, w)
    v = x.data @ w["attn.v.weight"].data + w["attn.v.bias"].data
    expected = (np.tile(v.mean(axis=0), (n, 1)) @ w["attn.proj.weight"].data
                + w["attn.proj.bias"].data)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_window_attention_matches_loop_reference(rng):
    d, heads, n = 8, 2, 4
    w = random_attention_weights(rng, d, heads, 27)
    x = rng.normal(size=(n, d))
    bias = rng.normal(size=(n, n, heads))  # the bias table's layout
    out = window_attention(Tensor(x), w, bias=Tensor(bias))
    ref = ref_window_attention(x, *projection_arrays(w), heads, bias=bias.transpose(2, 0, 1))
    np.testing.assert_allclose(out.data, ref, atol=1e-12)


def test_window_attention_head_dim_mismatch():
    rng = np.random.default_rng(0)
    w = random_attention_weights(rng, 6, 4, 27)  # 6 % 4 != 0
    with pytest.raises(ShapeError):
        window_attention(Tensor(rng.normal(size=(3, 6))), w)


def test_batched_window_attention_equals_single_windows(rng):
    d, heads, n, g = 8, 2, 4, 3
    w = random_attention_weights(rng, d, heads, 27)
    x = rng.normal(size=(g, n, d))
    bias = rng.normal(size=(g, n, n, heads))
    adds = rng.normal(scale=0.3, size=(3, g, n, d))
    extra_k, extra_v = Tensor(rng.normal(size=(2, d))), Tensor(rng.normal(size=(2, d)))
    out = window_attention(Tensor(x), w, bias=Tensor(bias), extra_k=extra_k, extra_v=extra_v,
                           add_q=Tensor(adds[0]), add_k=Tensor(adds[1]), add_v=Tensor(adds[2]))
    assert out.shape == (g, n, d)
    for i in range(g):
        single = window_attention(Tensor(x[i]), w, bias=Tensor(bias[i]),
                                  extra_k=extra_k, extra_v=extra_v,
                                  add_q=Tensor(adds[0, i]), add_k=Tensor(adds[1, i]),
                                  add_v=Tensor(adds[2, i]))
        np.testing.assert_array_equal(out.data[i], single.data)


def test_window_attention_rejects_unpaired_extra_rows(rng):
    d, heads, n = 8, 2, 4
    w = random_attention_weights(rng, d, heads, 27)
    x = Tensor(rng.normal(size=(n, d)))
    rows = Tensor(rng.normal(size=(2, d)))
    for extras in ({"extra_v": rows}, {"extra_k": rows},
                   {"extra_k": rows, "extra_v": Tensor(rng.normal(size=(3, d)))}):
        with pytest.raises(ShapeError, match="matching pairs"):
            window_attention(x, w, **extras)


def test_attention_permutation_equivariance(rng):
    d, heads, n = 8, 2, 6
    w = random_attention_weights(rng, d, heads, 27)
    x = rng.normal(size=(n, d))
    bias = rng.normal(size=(n, n, heads))
    out = window_attention(Tensor(x), w, bias=Tensor(bias)).data
    perm = rng.permutation(n)
    bias_p = bias[perm][:, perm]
    out_p = window_attention(Tensor(x[perm]), w, bias=Tensor(bias_p)).data
    np.testing.assert_allclose(out_p[np.argsort(perm)], out, atol=1e-12)


# -- blocks and full model --------------------------------------------------------


def test_zero_weight_block_is_identity(rng):
    model = build_model(TINY, seed=0)
    blk = model.blocks[0][0]
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
        out = swin_block(z, model.blocks[0][0], model.layout(grid, shifted))
        assert out.shape == z.shape


def test_block_matches_reference_composition(rng):
    model = build_model(TINY, seed=3)
    grid = TINY.token_grid()
    z = rng.normal(size=(int(np.prod(grid)), TINY.embed_dims[0]))
    out = swin_block(Tensor(z), model.blocks[0][0], model.layout(grid, False))
    ref = ref_block(z, model, 0, 0, grid)
    np.testing.assert_allclose(out.data, ref, atol=1e-12)


def test_shifted_block_matches_reference(rng):
    model = build_model(TINY, seed=4)
    grid = (2, 4, 4)  # stage 2 grid; block 1 there is shifted
    z = rng.normal(size=(int(np.prod(grid)), TINY.embed_dims[2]))
    out = swin_block(Tensor(z), model.blocks[2][1], model.layout(grid, True))
    ref = ref_block(z, model, 2, 1, grid)
    np.testing.assert_allclose(out.data, ref, atol=1e-12)


def test_forward_single_class_logit_length(rng):
    cfg = ModelConfig(input_size=(4, 32, 32), embed_dims=(4, 4, 8, 8),
                      blocks_per_stage=(1, 1, 2, 1), heads_per_stage=(2, 2, 2, 2),
                      window_size=(2, 2, 2), num_classes=1)
    model = build_model(cfg, seed=0)
    assert model.forward(random_clip(rng, cfg)).shape == (1,)


@pytest.mark.parametrize("shape", [(5, 32, 32, 3), (2, 5, 32, 32, 3), (4, 32, 32, 4),
                                   (2, 4, 32, 32, 4), (32, 32, 3)])
def test_forward_rejects_wrong_clip_shape(shape):
    model = build_model(TINY, seed=5)
    with pytest.raises(GeometryError):
        model.forward(np.zeros(shape))


def test_forward_deterministic_bitwise(rng):
    model = build_model(TINY, seed=5)
    clip = random_clip(rng, TINY)
    a = model.forward(clip).data
    b = model.forward(clip).data
    assert a.tobytes() == b.tobytes()


# The 164 ops one no-grad single-clip forward of micro Swin-BAPAT makes, by
# name: a change that adds or removes an op updates this on purpose.
MICRO_SWIN_BAPAT_OPS = {"add": 25, "attention": 5, "gather_rows": 28, "layer_norm": 15,
                        "linear": 32, "matmul": 18, "mlp": 5, "mul": 16, "relu": 5,
                        "reshape": 9, "sum": 1, "tanh": 5}


def test_single_clip_forward_op_budget(monkeypatch):
    model = build_swin_bapat(SWIN_MICRO)
    clip = np.random.default_rng(47).normal(size=(*SWIN_MICRO.input_size, 3))
    ops = collections.Counter()
    original = T._make_op

    def make_op(data, parents, backward_fn, op):
        ops[op] += 1
        return original(data, parents, backward_fn, op)

    monkeypatch.setattr(T, "_make_op", make_op)
    with T.no_grad():
        model.forward(clip)
    assert ops == MICRO_SWIN_BAPAT_OPS


def test_merge_indices_are_built_on_first_forward(rng):
    model = build_model(TINY, seed=5)
    assert model._merge_indices == {}
    model.forward(random_clip(rng, TINY))
    assert set(model._merge_indices) == set(TINY.stage_grids()[:-1])


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


def test_checkpoint_file_bytes_pinned(tmp_path):
    # digest of the version-1 file computed before the reader was made strict
    model = build_swin_bapat(TINY, d_bottle=2, seed=8)
    freeze_backbone(model, model.petl_spec)
    path = tmp_path / "weights.ckpt"
    save_checkpoint(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "c3b4bbaad9399d94e38c288906d12fba64bfa884d2cc87e41b78a76085eac17f"


class _FailOnSecondWrite(io.FileIO):
    """A file whose second ``write`` fails, as on a full disk."""

    writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise OSError("no space left on device")
        return super().write(data)


def test_failed_checkpoint_write_keeps_the_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "weights.ckpt"
    save_checkpoint(build_model(TINY, seed=9), path)
    before = path.read_bytes()
    monkeypatch.setattr(checkpoint, "open", _FailOnSecondWrite, raising=False)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(build_model(TINY, seed=10), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def _weights_and_flags(model):
    return [(p.path, p.tensor.data.tobytes(), p.tensor.requires_grad) for p in model.registry]


def test_checkpoint_shape_mismatch_writes_nothing(tmp_path):
    path = tmp_path / "weights.ckpt"
    save_checkpoint(build_model(TINY, seed=9), path)  # every weight trainable
    target = build_model(dataclasses.replace(TINY, num_classes=4), seed=11)
    freeze_backbone(target, PETLSpec())
    before = _weights_and_flags(target)
    # head.* is the only mismatch, and it comes after every backbone weight
    with pytest.raises(ConfigError, match="head.weight"):
        load_checkpoint(target, path)
    assert _weights_and_flags(target) == before


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("spoiled", ["patch_embed.proj.weight", "head.weight"])
def test_checkpoint_with_nonfinite_values_writes_nothing(spoiled, bad, tmp_path):
    path = tmp_path / "weights.ckpt"
    source = build_model(NANO, seed=9)
    source.registry.get(spoiled).tensor.data.reshape(-1)[3] = bad
    save_checkpoint(source, path)
    target = build_model(NANO, seed=11)
    freeze_backbone(target, PETLSpec())
    before = _weights_and_flags(target)
    with pytest.raises(ConfigError, match=f"{path}: '{spoiled}' holds non-finite values"):
        load_checkpoint(target, path)
    assert _weights_and_flags(target) == before


def _rewrite_checkpoint(path, edit_manifest=None, payload_suffix=b""):
    header, payload = path.read_bytes().split(b"\n", 1)
    manifest = json.loads(header)
    if edit_manifest is not None:
        manifest = edit_manifest(manifest)
    path.write_bytes(json.dumps(manifest).encode() + b"\n" + payload + payload_suffix)


def _shift_second_offset(delta):
    def edit(manifest):
        manifest["entries"][1]["offset"] += delta
        return manifest
    return edit


def _drop_key(key):
    def edit(manifest):
        del manifest["entries"][0][key]
        return manifest
    return edit


@pytest.mark.parametrize("edit,suffix", [
    (None, bytes(64)),                          # trailing bytes
    (_shift_second_offset(-8), b""),            # overlapping entries
    (_shift_second_offset(8), b""),             # gap between entries
    (lambda m: [m], b""),                       # manifest not an object
    (lambda m: {k: v for k, v in m.items() if k != "entries"}, b""),
    (_drop_key("path"), b""),
    (_drop_key("shape"), b""),
    (_drop_key("offset"), b""),
    (lambda m: {**m, "entries": [3] + m["entries"][1:]}, b""),
    (lambda m: {**m, "entries": [m["entries"][0], {**m["entries"][1],
                                                   "path": m["entries"][0]["path"]}]
                + m["entries"][2:]}, b""),
], ids=["trailing-bytes", "overlap", "gap", "manifest-list", "no-entries",
        "no-path", "no-shape", "no-offset", "entry-not-object", "duplicate-path"])
def test_checkpoint_rejects_malformed_files(tmp_path, edit, suffix):
    path = tmp_path / "weights.ckpt"
    save_checkpoint(build_model(TINY, seed=9), path)
    _rewrite_checkpoint(path, edit, suffix)
    with pytest.raises(ConfigError):
        read_checkpoint(path)
    with pytest.raises(ConfigError):
        load_checkpoint(build_model(TINY, seed=9), path)
