import dataclasses
import hashlib

import numpy as np
import pytest

import petl_lab
from petl_lab import (ConfigError, ParameterRegistry, PETLSpec, Tensor,
                      attach_petl, backbone_parameter_plan, build_model,
                      count_full_swin_b, count_params, freeze_backbone, head_count,
                      millions, petl_parameter_plan, positional_count_report,
                      swin_bapat_spec)
from petl_lab.backbone import SWIN_B, SWIN_MICRO, ModelConfig
from petl_lab.experiment import config_from_dict, emit_counts
from petl_lab.registry import plan_total

from conftest import TINY
from reference_impl import closed_form_backbone_count


# -- registry basics ------------------------------------------------------------


def test_duplicate_path_rejected():
    reg = ParameterRegistry()
    reg.register("a.weight", Tensor(np.zeros(3), requires_grad=True))
    with pytest.raises(ConfigError):
        reg.register("a.weight", Tensor(np.zeros(3), requires_grad=True))


def test_zero_size_parameter_rejected():
    reg = ParameterRegistry()
    with pytest.raises(ConfigError):
        reg.register("empty", Tensor(np.zeros((0, 4)), requires_grad=True))


def test_count_filters_partition_total():
    model = build_model(TINY, seed=0)
    attach_petl(model, swin_bapat_spec(d_bottle=2), seed=1)
    freeze_backbone(model, model.petl_spec)
    total = count_params(model.registry, "all")
    trainable = count_params(model.registry, "trainable")
    frozen = count_params(model.registry, "frozen")
    assert trainable + frozen == total
    assert trainable > 0 and frozen > 0
    assert count_params(model.registry, "all", prefix="head.") == \
        head_count(TINY.embed_dims[-1], TINY.num_classes)
    with pytest.raises(ConfigError):
        count_params(model.registry, "bogus")


# -- freezing ---------------------------------------------------------------------


def test_head_only_tuning_trainable_set():
    model = build_model(TINY, seed=0)
    spec = PETLSpec(mechanisms=(), tune_head=True)
    freeze_backbone(model, spec)
    trainable = {p.path for p in model.registry if not p.frozen}
    assert trainable == {"head.weight", "head.bias"}


def test_bapat_trainable_set_is_inserts_plus_head():
    model = build_model(TINY, seed=0)
    spec = swin_bapat_spec(d_bottle=2, tune_head=True)
    attach_petl(model, spec, seed=1)
    freeze_backbone(model, spec)
    for p in model.registry:
        expected_trainable = ".petl." in p.path or p.path.startswith("head.")
        assert (not p.frozen) == expected_trainable, p.path


def test_tune_head_off_difference_is_exactly_head():
    model = build_model(TINY, seed=0)
    spec_on = swin_bapat_spec(d_bottle=2, tune_head=True)
    attach_petl(model, spec_on, seed=1)
    freeze_backbone(model, spec_on)
    with_head = count_params(model.registry, "trainable")
    freeze_backbone(model, dataclasses.replace(spec_on, tune_head=False))
    without_head = count_params(model.registry, "trainable")
    assert with_head - without_head == head_count(TINY.embed_dims[-1], TINY.num_classes)


def test_package_star_import_and_all_names():
    namespace = {}
    exec("from petl_lab import *", namespace)
    assert len(petl_lab.__all__) == len(set(petl_lab.__all__))
    assert [name for name in petl_lab.__all__ if not hasattr(petl_lab, name)] == []


# -- allocation from the plans -------------------------------------------------------

ALL_FOUR = PETLSpec(mechanisms=("prefix", "adapter_parallel", "prompt", "patt"),
                    d_bottle=2, d_token=3, d_prompt=2, d_middle=2,
                    patt_sites=("Q", "K", "V"))
SEQUENTIAL_PATT_K = PETLSpec(mechanisms=("adapter_sequential", "patt"), d_bottle=2,
                             patt_sites=("K",))

# sha256 over (path, little-endian float64 bytes) of every weight, in registry
# order, for build_model(seed=3) and attach_petl(seed=4). Pinned before
# allocation moved onto the shape plans; a change means a seed no longer
# reproduces the same weights.
WEIGHT_DIGESTS = {
    ("tiny", "none"): "798c9494142bcca82586fa780cadf8e150c9c809c3cf82dde09e98d368d42353",
    ("tiny", "all_four"): "9ab38373e59140621fb56e0dc4c9025fbbc7bf6b141773e393f03a7486fecefd",
    ("tiny", "sequential_patt_k"):
        "6cb66a965049c18a0c48de9aabcd3d86f7d8cbb7af9685cc846fb8b90f3f0b65",
    ("micro", "none"): "80d74430a3e9e871ed16d58bdf9ef7bd7998c038b1d0408d4831841ce230a517",
    ("micro", "all_four"): "8048b1eaf91caf1c9bf8d2675be80faff71c4dcd125b2713b478d4645da5de48",
    ("micro", "sequential_patt_k"):
        "f747c317a69b85c52e40a6d56d38ec2f9bbc8d5f31e962928bfb9ce0953ce3a3",
}


@pytest.mark.parametrize("cfg_name,cfg", [("tiny", TINY), ("micro", SWIN_MICRO)])
@pytest.mark.parametrize("spec_name,spec", [("none", None), ("all_four", ALL_FOUR),
                                            ("sequential_patt_k", SEQUENTIAL_PATT_K)])
def test_weights_bitwise_pinned(cfg_name, cfg, spec_name, spec):
    model = build_model(cfg, seed=3)
    if spec is not None:
        attach_petl(model, spec, seed=4)
    digest = hashlib.sha256()
    for p in model.registry:
        digest.update(p.path.encode())
        digest.update(np.ascontiguousarray(p.tensor.data, dtype="<f8").tobytes())
    assert digest.hexdigest() == WEIGHT_DIGESTS[(cfg_name, spec_name)]


# -- plans vs built models vs closed form ------------------------------------------


@pytest.mark.parametrize("cfg", [TINY, SWIN_MICRO], ids=["tiny", "micro"])
def test_backbone_plan_matches_built_registry(cfg):
    model = build_model(cfg, seed=3)
    built = [(p.path, p.shape) for p in model.registry]
    assert built == [(path, shape) for path, shape in backbone_parameter_plan(cfg)]


def test_petl_plan_matches_attached_registry():
    spec = PETLSpec(mechanisms=("prefix", "adapter_parallel", "prompt", "patt"),
                    d_bottle=2, d_token=3, d_prompt=2, d_middle=2,
                    patt_sites=("Q", "K", "V"))
    model = build_model(TINY, seed=3)
    attach_petl(model, spec, seed=4)
    built = sorted((p.path, p.shape) for p in model.registry if ".petl." in p.path)
    planned = sorted((path, shape) for path, shape in petl_parameter_plan(TINY, spec))
    assert built == planned


def test_plan_skips_zero_width_inserts():
    spec = PETLSpec(mechanisms=("prefix", "prompt"), d_token=0, d_prompt=0)
    assert petl_parameter_plan(TINY, spec) == []


@pytest.mark.parametrize("cfg", [TINY, SWIN_MICRO, SWIN_B], ids=["tiny", "micro", "swin-b"])
def test_closed_form_equals_plan_enumeration(cfg):
    assert closed_form_backbone_count(cfg) == plan_total(backbone_parameter_plan(cfg))


def test_closed_form_equals_built_enumeration_small_scale():
    model = build_model(SWIN_MICRO, seed=0)
    assert closed_form_backbone_count(SWIN_MICRO) == count_params(model.registry)


# -- reference-scale counts ----------------------------------------------------------


def test_fc_head_reference_counts():
    assert head_count(1024, 174) == 1024 * 174 + 174 == 178_350
    assert head_count(1024, 51) == 1024 * 51 + 51 == 52_275
    assert millions(178_350) == 0.18
    assert millions(52_275) == 0.05


def test_full_swin_b_count_within_reference_band():
    count = count_full_swin_b(174)
    assert abs(count - 87.82e6) / 87.82e6 < 0.005
    assert count_full_swin_b(174) - count_full_swin_b(51) == 123 * 1025 == 126_075


def test_positional_counts_within_reference_band():
    rows = {r.position: r.count_exact for r in positional_count_report(SWIN_B)}
    assert abs(rows["Attn, QKV"] - 24.69e6) / 24.69e6 < 0.02
    mlp = rows["MLP, FC1"] + rows["MLP, FC2"]
    assert abs(mlp - 61.42e6) / 61.42e6 < 0.02


def test_positional_counts_equal_enumeration_on_built_model():
    model = build_model(SWIN_MICRO, seed=0)
    totals = {}
    for p in model.registry:
        for marker in (".downsample.", ".attn.bias_table", ".attn.proj.", ".norm1.",
                       ".norm2.", ".ffn.fc1.", ".ffn.fc2."):
            if marker in p.path:
                totals[marker] = totals.get(marker, 0) + p.count
        if ".attn.q." in p.path or ".attn.k." in p.path or ".attn.v." in p.path:
            totals["qkv"] = totals.get("qkv", 0) + p.count
    rows = {r.position: r.count_exact for r in positional_count_report(SWIN_MICRO)}
    down = totals[".downsample."]
    tables = totals[".attn.bias_table"]
    assert rows["DownSample"] == down
    assert rows["LayerNorm 1"] == totals[".norm1."] + down
    assert rows["LayerNorm 2"] == totals[".norm2."] + down
    assert rows["Attn, SoftMax"] == tables + down
    assert rows["Attn, Proj"] == totals[".attn.proj."] + tables + down
    assert rows["Attn, QKV"] == totals["qkv"] + tables + down
    assert rows["MLP, FC1"] == totals[".ffn.fc1."] + down
    assert rows["MLP, FC2"] == totals[".ffn.fc2."] + down


def test_positional_report_csv_quotes_commas(tmp_path):
    # the positional report `count` writes for the swin-micro preset
    cfg = config_from_dict({"schema_version": 1})
    assert cfg.model == SWIN_MICRO
    emit_counts(cfg, out_dir=tmp_path, quiet=True)
    lines = (tmp_path / "counts_positions.csv").read_text().splitlines()
    assert lines[0] == "position,count_exact,count_millions"
    assert any(line.startswith('"Attn, QKV"') for line in lines)


# -- monotonicity --------------------------------------------------------------------


def test_d_bottle_monotonicity():
    counts = [plan_total(petl_parameter_plan(TINY, swin_bapat_spec(d_bottle=db)))
              for db in (1, 2, 3, 4)]
    assert all(a < b for a, b in zip(counts, counts[1:]))


def test_site_set_monotonicity():
    kv = swin_bapat_spec(d_bottle=2, sites=("K", "V"))
    qkv = swin_bapat_spec(d_bottle=2, sites=("Q", "K", "V"))
    assert plan_total(petl_parameter_plan(TINY, qkv)) \
        > plan_total(petl_parameter_plan(TINY, kv))
