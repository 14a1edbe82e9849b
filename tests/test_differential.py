"""Differential property tests of the whole model against the plain-numpy oracle
and against the bare backbone.

Hypothesis draws a small backbone whose grids the windows need not tile (so
shifted layouts hold windows of several sizes), any valid insert spec or one
of criterion 4's zero settings, and a clip-batch lead of 0-2 axes.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from petl_lab import ModelConfig, PETLSpec, build_model, count_params, freeze_backbone
from petl_lab import tensor as T
from petl_lab.petl import MECHANISMS, attach_petl
from petl_lab.registry import backbone_parameter_plan, petl_parameter_plan, plan_total

from reference_impl import closed_form_backbone_count, ref_forward


@st.composite
def model_configs(draw):
    stages = draw(st.integers(1, 3), label="stages")
    heads = draw(st.lists(st.integers(1, 2), min_size=stages, max_size=stages), label="heads")
    dims = tuple(h * draw(st.integers(2 // h, 8 // h), label="head_dim") for h in heads)
    # spatial extents halve at every merge; at most 8 tokens a side
    side = 2 ** (stages - 1)
    grid = (draw(st.integers(1, 3)),
            side * draw(st.integers(1, 8 // side)), side * draw(st.integers(1, 8 // side)))
    patch = draw(st.tuples(*[st.integers(1, 4)] * 3), label="patch")
    return ModelConfig(
        input_size=tuple(g * p for g, p in zip(grid, patch)),
        patch_size=patch,
        embed_dims=dims,
        blocks_per_stage=tuple(draw(st.lists(st.integers(1, 2), min_size=stages,
                                             max_size=stages), label="blocks")),
        heads_per_stage=tuple(heads),
        window_size=draw(st.tuples(*[st.integers(1, 4)] * 3), label="window"),
        ffn_ratio=draw(st.integers(1, 2), label="ffn_ratio"),
        num_classes=draw(st.integers(1, 3), label="classes"),
    )


@st.composite
def petl_specs(draw, cfg: ModelConfig):
    mechanisms = draw(st.lists(st.sampled_from(MECHANISMS), unique=True, max_size=4)
                      .filter(lambda m: not {"adapter_parallel", "adapter_sequential"} <= set(m)),
                      label="mechanisms")
    mask = draw(st.none() | st.lists(st.booleans(), min_size=cfg.num_stages,
                                     max_size=cfg.num_stages).map(tuple), label="mask")
    attached = [d for d, on in zip(cfg.embed_dims, mask or [True] * cfg.num_stages) if on]
    return PETLSpec(
        mechanisms=tuple(mechanisms),
        d_bottle=draw(st.integers(1, min(attached, default=4)), label="d_bottle"),
        d_middle=draw(st.none() | st.integers(1, 3), label="d_middle"),
        d_token=draw(st.integers(0, 3), label="d_token"),
        d_prompt=draw(st.integers(0, 3), label="d_prompt"),
        s_adapter=draw(st.floats(0.0, 2.0), label="s_adapter"),
        s_patt=draw(st.floats(0.0, 2.0), label="s_patt"),
        patt_sites=tuple(draw(st.lists(st.sampled_from("QKV"), unique=True, min_size=1),
                              label="sites")),
        tune_head=draw(st.booleans(), label="tune_head"),
        attach_stages=mask,
    )


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_forward_matches_the_oracle_on_drawn_models(data):
    cfg = data.draw(model_configs(), label="cfg")
    spec = data.draw(petl_specs(cfg), label="spec")
    lead = tuple(data.draw(st.lists(st.integers(1, 2), max_size=2), label="lead"))
    seed = data.draw(st.integers(0, 2**16), label="seed")

    model = build_model(cfg, seed=seed)
    attach_petl(model, spec, seed=seed + 1)
    freeze_backbone(model, spec)
    rng = np.random.default_rng(seed)
    for p in model.registry:  # zero up-projections would hide the branches
        if ".petl." in p.path:
            p.tensor.data[...] = rng.normal(scale=0.5, size=p.shape)

    backbone = plan_total(backbone_parameter_plan(cfg))
    assert closed_form_backbone_count(cfg) == backbone
    assert count_params(model.registry) == backbone + plan_total(petl_parameter_plan(cfg, spec))

    clips = rng.normal(size=(*lead, *cfg.input_size, 3))
    flat = clips.reshape(-1, *clips.shape[len(lead):])
    with T.no_grad():
        batched = model.forward(clips).data
        single = [model.forward(clip).data for clip in flat]
    assert batched.shape == (*lead, cfg.num_classes)
    assert batched.tobytes() == np.stack(single).reshape(batched.shape).tobytes()
    for clip, logits in zip(flat, single):
        np.testing.assert_allclose(logits, ref_forward(model, clip), rtol=0, atol=1e-10)


@st.composite
def zero_settings(draw, cfg: ModelConfig):
    """(spec, whether to randomize the inserts) of one of criterion 4's zero settings."""
    setting = draw(st.sampled_from(["prefix", "prompt", "adapter_parallel",
                                    "adapter_sequential", "patt", "patt s=0"]),
                   label="setting")
    scale = draw(st.floats(0.1, 2.0), label="scale")  # nonzero: the zero is elsewhere
    spec = PETLSpec(
        mechanisms=(setting.split()[0],),
        d_bottle=draw(st.integers(1, min(cfg.embed_dims)), label="d_bottle"),
        d_token=0, d_prompt=0, s_adapter=scale,
        s_patt=0.0 if setting == "patt s=0" else scale,
        patt_sites=tuple(draw(st.lists(st.sampled_from("QKV"), unique=True, min_size=1),
                              label="sites")))
    return spec, setting == "patt s=0"


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_zero_settings_on_drawn_models_reproduce_the_backbone_bitwise(data):
    cfg = data.draw(model_configs(), label="cfg")
    spec, randomize = data.draw(zero_settings(cfg), label="setting")
    lead = tuple(data.draw(st.lists(st.integers(1, 2), max_size=2), label="lead"))
    seed = data.draw(st.integers(0, 2**16), label="seed")

    model = build_model(cfg, seed=seed)
    attach_petl(model, spec, seed=seed + 1)
    freeze_backbone(model, spec)
    rng = np.random.default_rng(seed)
    if randomize:  # s=0 must cancel a branch whose up-projections are not zero
        for p in model.registry:
            if ".petl." in p.path:
                p.tensor.data[...] = rng.normal(scale=0.5, size=p.shape)

    clips = rng.normal(size=(*lead, *cfg.input_size, 3))
    with T.no_grad():
        assert np.array_equal(model.forward(clips).data,
                              build_model(cfg, seed=seed).forward(clips).data)
