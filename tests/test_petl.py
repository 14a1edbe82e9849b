import numpy as np
import pytest

from petl_lab import (ConfigError, ModelConfig, PETLSpec, Tensor, attach_petl,
                      build_model, build_swin_bapat, count_params, cross_entropy,
                      freeze_backbone, petl_parameter_plan, swin_bapat_spec)
from petl_lab import tensor as T
from petl_lab.backbone import window_attention
from petl_lab.petl import BlockHooks
from petl_lab.registry import plan_total

from conftest import TINY, FixedRows, random_clip
from reference_impl import ref_layer_norm, ref_window_attention
from test_backbone import projection_arrays, random_attention_weights


def build_pair(spec, seed=11, cfg=TINY):
    """Same backbone twice; one carries the inserts."""
    base = build_model(cfg, seed=seed)
    modified = build_model(cfg, seed=seed)
    attach_petl(modified, spec, seed=seed + 100)
    return base, modified


# -- spec validation -------------------------------------------------------------


def test_unknown_mechanism_rejected():
    with pytest.raises(ConfigError):
        PETLSpec(mechanisms=("lora",)).validate(TINY)


def test_conflicting_adapter_placements_rejected():
    spec = PETLSpec(mechanisms=("adapter_parallel", "adapter_sequential"), d_bottle=2)
    with pytest.raises(ConfigError):
        spec.validate(TINY)


def test_d_bottle_larger_than_stage_dim_rejected():
    with pytest.raises(ConfigError):
        PETLSpec(mechanisms=("patt",), d_bottle=16).validate(TINY)  # min dim is 4


def test_d_bottle_equal_to_stage_dim_allowed():
    PETLSpec(mechanisms=("patt",), d_bottle=4).validate(TINY)


def test_negative_d_token_rejected():
    with pytest.raises(ConfigError):
        PETLSpec(mechanisms=("prefix",), d_token=-1).validate(TINY)


def test_empty_patt_sites_rejected():
    with pytest.raises(ConfigError):
        PETLSpec(mechanisms=("patt",), d_bottle=2, patt_sites=()).validate(TINY)


def test_scalar_out_of_range_rejected():
    with pytest.raises(ConfigError):
        PETLSpec(mechanisms=("patt",), d_bottle=2, s_patt=2.5).validate(TINY)


def test_attach_stage_mask_limits_attachment():
    spec = PETLSpec(mechanisms=("patt",), d_bottle=2,
                    attach_stages=(False, False, True, True))
    model = build_model(TINY, seed=0)
    attach_petl(model, spec, seed=1)
    paths = [p.path for p in model.registry if ".petl." in p.path]
    assert paths and all(p.startswith(("stages.2.", "stages.3.")) for p in paths)
    assert [[hooks is not None for hooks in stage] for stage in model.hooks] == \
        [[False], [False], [True, True], [True]]


# -- zero-neutrality ---------------------------------------------------------------


@pytest.mark.parametrize("spec", [
    PETLSpec(mechanisms=("prefix",), d_token=0),
    PETLSpec(mechanisms=("prompt",), d_prompt=0),
    PETLSpec(mechanisms=("adapter_parallel",), d_bottle=2, s_adapter=0.9),
    PETLSpec(mechanisms=("adapter_sequential",), d_bottle=2, s_adapter=0.9),
    PETLSpec(mechanisms=("patt",), d_bottle=2, s_patt=0.8),
    PETLSpec(mechanisms=("patt",), d_bottle=2, s_patt=0.0),
], ids=["prefix-0", "prompt-0", "adapter-par-zeroinit", "adapter-seq-zeroinit",
        "patt-zeroinit", "patt-s0"])
def test_zero_setting_is_bitwise_neutral(spec, rng):
    base, modified = build_pair(spec)
    for _ in range(3):
        clip = random_clip(rng, TINY)
        assert np.array_equal(base.forward(clip).data, modified.forward(clip).data)


@pytest.mark.parametrize("spec", [
    PETLSpec(),
    PETLSpec(mechanisms=("prefix",), d_token=0),
    PETLSpec(mechanisms=("prompt",), d_prompt=0),
    PETLSpec(mechanisms=("prefix", "adapter_parallel", "prompt", "patt"), d_bottle=2,
             attach_stages=(False, False, False, False)),
], ids=["no-mechanisms", "prefix-0", "prompt-0", "no-stages"])
def test_attaching_nothing_attaches_nothing(spec, rng):
    base, modified = build_pair(spec)
    assert all(hooks is None for stage in modified.hooks for hooks in stage)
    clip = random_clip(rng, TINY)
    assert np.array_equal(base.forward(clip).data, modified.forward(clip).data)


def test_nonzero_settings_change_output(rng):
    for spec in (PETLSpec(mechanisms=("prefix",), d_token=2),
                 PETLSpec(mechanisms=("prompt",), d_prompt=2)):
        base, modified = build_pair(spec)
        clip = random_clip(rng, TINY)
        assert not np.array_equal(base.forward(clip).data, modified.forward(clip).data)


# -- prefix ------------------------------------------------------------------------


def test_prefix_row_counts_and_normalization(rng):
    # 64-token window with 4 prefix rows: per-head attention rows span 68 keys
    d, heads, n, d_token = 8, 2, 64, 4
    w = random_attention_weights(rng, d, heads, 1)
    x = rng.normal(size=(n, d))
    extra_k = rng.normal(size=(d_token, d))
    extra_v = rng.normal(size=(d_token, d))
    hd = d // heads
    for h in range(heads):
        sl = slice(h * hd, (h + 1) * hd)
        q = (x @ w["attn.q.weight"].data + w["attn.q.bias"].data)[:, sl]
        k = np.vstack([extra_k, x @ w["attn.k.weight"].data + w["attn.k.bias"].data])[:, sl]
        assert k.shape[0] == n + d_token == 68
        logits = q @ k.T / np.sqrt(hd)
        alpha = T._softmax(logits, -1)
        np.testing.assert_allclose(alpha.sum(axis=-1), 1.0, atol=1e-12)


def test_prefix_matches_materialized_concat_reference(rng):
    d, heads, n = 8, 2, 5
    w = random_attention_weights(rng, d, heads, 27)
    w["attn.bias_table"] = Tensor(np.zeros((27, heads)))
    x = rng.normal(size=(n, d))
    prefix = {"prefix.p_k": Tensor(rng.normal(size=(3, d))),
              "prefix.p_v": Tensor(rng.normal(size=(3, d))),
              "prefix.w_pk": Tensor(rng.normal(size=(d, 2))),
              "prefix.w_pv": Tensor(rng.normal(size=(2, d)))}
    hooks = BlockHooks(prefix, PETLSpec(mechanisms=("prefix",)), w)
    extras = hooks.attention_extras(Tensor(x))
    out = window_attention(Tensor(x), w, extra_k=extras.extra_k, extra_v=extras.extra_v)

    p = {name: t.data for name, t in prefix.items()}
    ref_pk = np.tanh(p["prefix.p_k"] @ p["prefix.w_pk"]) @ p["prefix.w_pv"]
    ref_pv = np.tanh(p["prefix.p_v"] @ p["prefix.w_pk"]) @ p["prefix.w_pv"]
    ref = ref_window_attention(x, *projection_arrays(w), heads,
                               extra_k=ref_pk, extra_v=ref_pv)
    np.testing.assert_allclose(out.data, ref, atol=1e-12)


def test_prefix_token_count_shared_across_heads():
    spec = PETLSpec(mechanisms=("prefix",), d_token=3, d_middle=2)
    model = build_model(TINY, seed=2)
    attach_petl(model, spec, seed=3)
    for i, stage_dim in enumerate(TINY.embed_dims):
        p = model.registry.get(f"stages.{i}.blocks.0.petl.prefix.p_k")
        assert p.shape == (3, stage_dim)  # d-level rows; every head sees 3 tokens


# -- adapter -----------------------------------------------------------------------


def test_adapter_s_zero_is_exact_baseline(rng):
    spec = PETLSpec(mechanisms=("adapter_parallel",), d_bottle=2, s_adapter=0.0)
    base, modified = build_pair(spec, seed=13)
    # make the branch nonzero so only s=0 is doing the neutralizing
    for p in modified.registry:
        if ".petl.adapter.up." in p.path:
            p.tensor.data[...] = 1.0
    clip = random_clip(rng, TINY)
    assert np.array_equal(base.forward(clip).data, modified.forward(clip).data)


def test_adapter_parallel_matches_branch_decomposition(rng):
    spec = PETLSpec(mechanisms=("adapter_parallel",), d_bottle=3, s_adapter=0.5)
    base, modified = build_pair(spec, seed=17)
    r = np.random.default_rng(5)
    for p in modified.registry:
        if ".petl.adapter." in p.path:
            p.tensor.data[...] = r.normal(scale=0.3, size=p.shape)

    grid = TINY.token_grid()
    z = rng.normal(size=(int(np.prod(grid)), TINY.embed_dims[0]))
    from petl_lab.backbone import _windowed_attention, swin_block
    out_mod = swin_block(Tensor(z), modified.blocks[0][0], modified.layout(grid, False),
                         TINY.layer_norm_eps, modified.hooks[0][0])
    out_base = swin_block(Tensor(z), base.blocks[0][0], base.layout(grid, False),
                          TINY.layer_norm_eps)

    # independent branch computation from raw weights:
    # z_hat = attention(LN1(z)) + z, branch input is LN2(z_hat)
    get = lambda name: modified.registry.get(f"stages.0.blocks.0.{name}").tensor.data
    ln1 = ref_layer_norm(z, get("norm1.gamma"), get("norm1.beta"), TINY.layer_norm_eps)
    att = _windowed_attention(Tensor(ln1), base.blocks[0][0],
                              base.layout(grid, False), None)
    z_hat = att.data + z
    ln2 = ref_layer_norm(z_hat, get("norm2.gamma"), get("norm2.beta"),
                         TINY.layer_norm_eps)
    branch = np.maximum(ln2 @ get("petl.adapter.down.weight")
                        + get("petl.adapter.down.bias"), 0.0) \
        @ get("petl.adapter.up.weight") + get("petl.adapter.up.bias")
    np.testing.assert_allclose(out_mod.data, out_base.data + 0.5 * branch, atol=1e-12)


def test_adapter_sequential_reads_ffn_output(rng):
    spec = PETLSpec(mechanisms=("adapter_sequential",), d_bottle=3, s_adapter=0.7)
    base, modified = build_pair(spec, seed=19)
    r = np.random.default_rng(6)
    for p in modified.registry:
        if ".petl.adapter." in p.path:
            p.tensor.data[...] = r.normal(scale=0.3, size=p.shape)
    clip = random_clip(rng, TINY)
    out_base = base.forward(clip).data
    out_mod = modified.forward(clip).data
    assert not np.array_equal(out_base, out_mod)
    # full-model reference handles the sequential placement
    from reference_impl import ref_forward
    np.testing.assert_allclose(out_mod, ref_forward(modified, clip), atol=1e-10)


# -- prompt ------------------------------------------------------------------------


def test_prompt_row_arithmetic(rng):
    # 16-token window, 3 prompt rows: 19 keys per attention row, 16 outputs
    d, heads, n, d_prompt = 8, 2, 16, 3
    w = random_attention_weights(rng, d, heads, 1)
    x = rng.normal(size=(n, d))
    prompt = rng.normal(size=(d_prompt, d))
    pk = Tensor(prompt @ w["attn.k.weight"].data + w["attn.k.bias"].data)
    pv = Tensor(prompt @ w["attn.v.weight"].data + w["attn.v.bias"].data)
    out = window_attention(Tensor(x), w, extra_k=pk, extra_v=pv)
    assert out.shape == (16, d)
    hd = d // heads
    k = np.vstack([pk.data, x @ w["attn.k.weight"].data + w["attn.k.bias"].data])
    assert k.shape[0] == 19


def test_prompt_equals_raw_prefix(rng):
    spec = PETLSpec(mechanisms=("prompt",), d_prompt=3)
    prompt_model = build_model(TINY, seed=23)
    attach_petl(prompt_model, spec, seed=29)

    prefix_model = build_model(TINY, seed=23)
    for i, blocks in enumerate(prefix_model.blocks):
        for j, blk in enumerate(blocks):
            tokens = prompt_model.registry.get(
                f"stages.{i}.blocks.{j}.petl.prompt.tokens").tensor.data
            prefix_model.hooks[i][j] = FixedRows(
                Tensor(tokens @ blk["attn.k.weight"].data + blk["attn.k.bias"].data),
                Tensor(tokens @ blk["attn.v.weight"].data + blk["attn.v.bias"].data))

    for _ in range(3):
        clip = random_clip(rng, TINY)
        a = prompt_model.forward(clip).data
        b = prefix_model.forward(clip).data
        assert np.abs(a - b).max() < 1e-10


# -- patt --------------------------------------------------------------------------


def test_patt_matches_materialized_addition(rng):
    d, heads, n = 8, 2, 6
    w = random_attention_weights(rng, d, heads, 27)
    w["attn.bias_table"] = Tensor(np.zeros((27, heads)))
    x = rng.normal(size=(n, d))
    w_down = rng.normal(size=(d, 3))
    w_up_k = rng.normal(size=(3, d))
    w_up_v = rng.normal(size=(3, d))
    s = 0.8
    hidden = np.tanh(x @ w_down)
    add_k = s * (hidden @ w_up_k)
    add_v = s * (hidden @ w_up_v)
    out = window_attention(Tensor(x), w, add_k=Tensor(add_k), add_v=Tensor(add_v))
    ref = ref_window_attention(x, *projection_arrays(w), heads, add_k=add_k, add_v=add_v)
    np.testing.assert_allclose(out.data, ref, atol=1e-12)


def test_patt_site_variants_allocate_expected_projections():
    for sites, names in ((("Q", "K"), {"up_q", "up_k"}),
                         (("K", "V"), {"up_k", "up_v"}),
                         (("Q", "V"), {"up_q", "up_v"}),
                         (("Q", "K", "V"), {"up_q", "up_k", "up_v"})):
        spec = PETLSpec(mechanisms=("patt",), d_bottle=2, patt_sites=sites)
        model = build_model(TINY, seed=1)
        attach_petl(model, spec, seed=2)
        got = {p.path.rsplit(".", 2)[-2] for p in model.registry
               if ".petl.patt.up_" in p.path}
        assert got == names


def test_patt_qkv_counts_exceed_kv():
    kv = PETLSpec(mechanisms=("patt",), d_bottle=2, patt_sites=("K", "V"))
    qkv = PETLSpec(mechanisms=("patt",), d_bottle=2, patt_sites=("Q", "K", "V"))
    n_kv = plan_total(petl_parameter_plan(TINY, kv))
    n_qkv = plan_total(petl_parameter_plan(TINY, qkv))
    assert n_qkv > n_kv


def test_patt_full_model_matches_reference(rng):
    spec = PETLSpec(mechanisms=("patt",), d_bottle=2, s_patt=0.8,
                    patt_sites=("Q", "K", "V"))
    base, modified = build_pair(spec, seed=31)
    r = np.random.default_rng(8)
    for p in modified.registry:
        if ".petl.patt." in p.path:
            p.tensor.data[...] = r.normal(scale=0.3, size=p.shape)
    clip = random_clip(rng, TINY)
    from reference_impl import ref_forward
    np.testing.assert_allclose(modified.forward(clip).data,
                               ref_forward(modified, clip), atol=1e-10)


def test_patt_bottleneck_activation_in_open_interval(rng):
    spec = PETLSpec(mechanisms=("patt",), d_bottle=3, s_patt=0.8)
    model = build_model(TINY, seed=37)
    attach_petl(model, spec, seed=38)
    clip = random_clip(rng, TINY)
    captured = []
    original = T.tanh

    def capture_tanh(x):
        out = original(x)
        captured.append(out.data)
        return out

    T.tanh = capture_tanh
    try:
        model.forward(clip)
    finally:
        T.tanh = original
    assert captured
    for arr in captured:
        assert np.all(arr > -1.0) and np.all(arr < 1.0)


# -- composite scheme and gradient flow ----------------------------------------------


def test_swin_bapat_spec_defaults():
    spec = swin_bapat_spec()
    assert set(spec.mechanisms) == {"adapter_parallel", "patt"}
    assert spec.s_adapter == spec.s_patt == 0.8
    assert spec.patt_sites == ("K", "V")


def test_swin_bapat_rejects_foreign_mechanisms():
    with pytest.raises(ConfigError):
        build_swin_bapat(TINY, spec=PETLSpec(mechanisms=("prefix",), d_token=2))


def test_swin_bapat_s_zero_matches_frozen_backbone(rng):
    model = build_swin_bapat(TINY, d_bottle=2, s=0.0, seed=41)
    base = build_model(TINY, seed=41)
    clip = random_clip(rng, TINY)
    assert np.array_equal(model.forward(clip).data, base.forward(clip).data)


def test_swin_bapat_trainable_count_matches_enumeration():
    # wide config so the reference bottleneck width fits every stage
    cfg = ModelConfig(input_size=(4, 32, 32), embed_dims=(128, 128, 128, 128),
                      blocks_per_stage=(1, 1, 1, 1), heads_per_stage=(4, 4, 4, 4),
                      window_size=(2, 2, 2), num_classes=5)
    model = build_swin_bapat(cfg, d_bottle=128, s=0.8, seed=0)
    freeze_backbone(model, model.petl_spec)
    enumerated = sum(p.count for p in model.registry if not p.frozen)
    planned = plan_total(petl_parameter_plan(cfg, model.petl_spec)) \
        + cfg.embed_dims[-1] * cfg.num_classes + cfg.num_classes
    assert enumerated == planned
    assert count_params(model.registry, "trainable") == enumerated


def test_gradient_flow_only_into_inserts_and_head(rng):
    spec = PETLSpec(mechanisms=("prefix", "adapter_parallel", "prompt", "patt"),
                    d_bottle=2, d_token=2, d_prompt=2, tune_head=True)
    model = build_model(TINY, seed=43)
    attach_petl(model, spec, seed=44)
    freeze_backbone(model, spec)
    # move inserts off their zero-init so gradients actually flow
    r = np.random.default_rng(9)
    for p in model.registry:
        if not p.frozen:
            p.tensor.data[...] = r.normal(scale=0.1, size=p.shape)
    clip = random_clip(rng, TINY)
    loss = cross_entropy(model.forward(clip), 1)
    loss.backward()
    for p in model.registry:
        if p.frozen:
            assert p.tensor.grad is None, p.path
        else:
            assert p.tensor.grad is not None, p.path
            assert np.abs(p.tensor.grad).max() > 0.0, p.path
