import ast
import contextlib
import copy
import hashlib
import io
import json
import math
import re
import sys
import threading
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from petl_lab import ConfigError, count_params, experiment, harness, head_count
from petl_lab import tensor as T
from petl_lab.cli import main as cli_main
from petl_lab.experiment import (TradeoffReport, config_from_dict, config_to_dict,
                                 emit_counts, parse_config, plot_tradeoff,
                                 run_experiment, run_gradcheck, serialize_config)

from conftest import nan_add

BASE = {
    "schema_version": 1,
    "seed": 3,
    "model": {"input": [4, 32, 32], "dims": [4, 4, 8, 8], "blocks": [1, 1, 2, 1],
              "heads": [2, 2, 2, 2], "window": [2, 2, 2], "num_classes": 3},
    "petl": {"mechanisms": ["adapter_parallel", "patt"], "d_bottle": 2,
             "sites": "KV", "tune_head": True},
    "dataset": {"n_classes": 3, "per_class": 2, "eval_per_class": 1, "frames": 4,
                "height": 32, "width": 32},
    "optimizer": {"kind": "adam", "lr": 0.001, "steps": 2, "batch_size": 2},
}


def make_config(**sections):
    raw = copy.deepcopy(BASE)
    for key, value in sections.items():
        if isinstance(value, dict) and key in raw:
            raw[key].update(value)
        else:
            raw[key] = value
    return raw


def write_config(tmp_path, raw, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


# -- parsing and validation ---------------------------------------------------------


def test_config_round_trip(tmp_path):
    path = write_config(tmp_path, make_config(ablation={"d_bottle": [2, 4], "s": [0.5]}))
    cfg = parse_config(path)
    again = config_from_dict(yaml.safe_load(serialize_config(cfg)))
    assert cfg == again
    assert config_to_dict(cfg) == config_to_dict(again)


def test_missing_schema_version_rejected(tmp_path):
    raw = make_config()
    del raw["schema_version"]
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config(write_config(tmp_path, raw))


def test_wrong_schema_version_rejected(tmp_path):
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config(write_config(tmp_path, make_config(schema_version=99)))


@pytest.mark.parametrize("section,key", [
    (None, "typo_top"), ("model", "dim"), ("petl", "bottleneck"),
    ("dataset", "clips"), ("optimizer", "learning_rate"), ("ablation", "widths"),
])
def test_unknown_keys_are_hard_errors(tmp_path, section, key):
    raw = make_config()
    if section is None:
        raw[key] = 1
    else:
        raw.setdefault(section, {})
        raw[section][key] = 1
    with pytest.raises(ConfigError, match=key):
        parse_config(write_config(tmp_path, raw))


def test_yaml_syntax_error_carries_line(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("schema_version: 1\nmodel: [unclosed\n")
    with pytest.raises(ConfigError, match="line"):
        parse_config(path)


def test_unknown_preset_rejected(tmp_path):
    raw = make_config(model={"preset": "swin-xxl"})
    with pytest.raises(ConfigError, match="preset"):
        parse_config(write_config(tmp_path, raw))


def test_invalid_sites_value_rejected(tmp_path):
    raw = make_config(petl={"sites": "XY"})
    with pytest.raises(ConfigError, match="site"):
        parse_config(write_config(tmp_path, raw))


def test_empty_ablation_axis_rejected(tmp_path):
    raw = make_config(ablation={"d_bottle": []})
    with pytest.raises(ConfigError, match="d_bottle"):
        parse_config(write_config(tmp_path, raw))


@pytest.mark.parametrize("ablation", [{"d_bottle": [2, 64]}, {"frames": [4, 3]}],
                         ids=["d_bottle-too-wide", "frames-not-tiling"])
def test_invalid_later_combo_rejected_before_any_run_trains(tmp_path, capsys, ablation):
    # the first combo is valid; the second exceeds a stage dim or does not tile
    path = write_config(tmp_path, make_config(ablation=ablation))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 2
    assert not list(out.glob("history_*.csv"))
    assert cli_main(["count", "--config", str(path), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err


def test_negative_eval_every_rejected(tmp_path):
    raw = make_config(optimizer={"eval_every": -1})
    with pytest.raises(ConfigError, match="eval_every"):
        config_from_dict(raw)
    code, err = count_exit_code(tmp_path, raw)
    assert code == 2 and "config error" in err


def test_empty_config_rejected(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    with pytest.raises(ConfigError, match="empty"):
        parse_config(path)


def set_leaf(raw, path, value):
    """Set the value at a path of keys and list indices in a nested config."""
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@pytest.mark.parametrize("key,value", [
    ("parallel", "no"),
    ("petl.tune_head", "false"),
    ("dataset.per_class", 2.7),
    ("seed", 1.9),
    ("optimizer.steps", True),
    ("dataset.n_classes", "four"),
    ("model.input", 8),
    ("dataset", None),
])
def test_config_scalars_are_type_checked(tmp_path, capsys, key, value):
    raw = make_config()
    set_leaf(raw, key.split("."), value)
    config_path = write_config(tmp_path, raw)
    with pytest.raises(ConfigError, match=key):
        parse_config(config_path)
    assert cli_main(["count", "--config", str(config_path), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


# Every key a config may set, each with a valid value of its kind.
FULL = {
    "schema_version": 1, "seed": 3, "output_dir": "petl_lab_out", "parallel": False,
    "model": {"preset": "swin-micro", "input": [4, 32, 32], "patch": [2, 4, 4],
              "dims": [4, 4, 8, 8], "blocks": [1, 1, 2, 1], "heads": [2, 2, 2, 2],
              "window": [2, 2, 2], "ffn_ratio": 4, "num_classes": 3},
    "petl": {"mechanisms": ["adapter_parallel", "patt"], "d_bottle": 2, "d_middle": 2,
             "d_token": 2, "d_prompt": 2, "s_adapter": 0.8, "s_patt": 0.5, "sites": "KV",
             "tune_head": True, "attach_stages": [True, True, False, True]},
    "dataset": {"n_classes": 3, "per_class": 2, "eval_per_class": 1, "frames": 4,
                "height": 32, "width": 32, "noise": 0.05},
    "optimizer": {"kind": "adam", "lr": 0.001, "momentum": 0.9, "beta1": 0.9,
                  "beta2": 0.999, "eps": 1e-8, "steps": 2, "batch_size": 2,
                  "eval_every": 1},
    "ablation": {"d_bottle": [2, 4], "s": [0.5, 1.0], "sites": ["KV", "QKV"],
                 "frames": [4]},
}
NULLABLE = {("output_dir",), ("petl", "d_middle")}


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_c_and_python_yaml_loaders_parse_alike(tmp_path, monkeypatch):
    good = write_config(tmp_path, FULL)
    broken = tmp_path / "broken.yaml"
    broken.write_text("schema_version: 1\nmodel: [unclosed\nseed: 3\n")
    seen = []
    for loader in (yaml.SafeLoader, yaml.CSafeLoader):
        monkeypatch.setattr(experiment, "_YAML_LOADER", loader)
        with pytest.raises(ConfigError) as exc:
            parse_config(broken)
        seen.append((parse_config(good), re.search(r"at line \d+, column \d+", str(exc.value))[0]))
    assert seen[0] == seen[1]
    assert seen[0][1] == "at line 3, column 5"


def scalar_leaves(node, path=()):
    """(path, value) of every scalar in a nested config, list entries included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from scalar_leaves(value, path + (key,))
        else:
            yield path + (key,), value


LEAVES = list(scalar_leaves(FULL))

_TEXT = st.text(max_size=6)
_FLOATS = st.floats()
_LISTS = st.lists(st.integers(), max_size=2)
# values of the wrong type for a leaf, by the type of its valid value; an int
# is a valid float
_WRONG = {
    int: st.one_of(_TEXT, _FLOATS, st.booleans(), _LISTS),
    float: st.one_of(_TEXT, st.booleans(), _LISTS),
    bool: st.one_of(_TEXT, st.integers(), _FLOATS, _LISTS),
    str: st.one_of(st.integers(), _FLOATS, st.booleans(), _LISTS),
}


def count_exit_code(out, raw):
    """Exit code and standard error of ``petl-lab count`` on ``raw`` written to
    ``out``; an exception escaping the CLI fails the calling test."""
    config_path = out / "exp.yaml"
    config_path.write_text(yaml.safe_dump(raw))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["count", "--config", str(config_path), "--out", str(out)])
    return code, stderr.getvalue()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_config_fuzz_wrong_type_leaf_is_a_config_error(tmp_path_factory, data):
    config_from_dict(copy.deepcopy(FULL))  # the unmutated config is valid
    path, valid = data.draw(st.sampled_from(LEAVES), label="leaf")
    wrong = _WRONG[type(valid)]
    if path not in NULLABLE:
        wrong = st.one_of(wrong, st.none())
    raw = copy.deepcopy(FULL)
    set_leaf(raw, path, data.draw(wrong, label="value"))
    with pytest.raises(ConfigError):
        config_from_dict(raw)
    code, err = count_exit_code(tmp_path_factory.mktemp("fuzz"), raw)
    assert code == 2 and "config error" in err


def test_fuzz_leaves_cover_every_key_the_config_writes():
    # a key config_to_dict writes but FULL lacks would never be fuzzed
    written = config_to_dict(config_from_dict(copy.deepcopy(FULL)))
    assert written.keys() <= FULL.keys()
    for name, section in written.items():
        if isinstance(section, dict):
            assert section.keys() <= FULL[name].keys(), name


def list_nodes(node, path=()):
    """(path, value) of every list in a nested config."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from list_nodes(value, path + (key,))
        elif isinstance(value, list):
            yield path + (key,), value


NUMBER_LEAVES = [path for path, value in LEAVES if type(value) in (int, float)]
LISTS = list(list_nodes(FULL))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_config_fuzz_right_type_wrong_value_is_valid_or_a_config_error(tmp_path_factory,
                                                                       data):
    # a number set to a small value (zero and negatives included), or a list
    # emptied, shortened or lengthened: either a valid config or exit 2
    raw = copy.deepcopy(FULL)
    if data.draw(st.booleans(), label="number"):
        path = data.draw(st.sampled_from(NUMBER_LEAVES), label="leaf")
        set_leaf(raw, path, data.draw(st.integers(-2, 2), label="value"))
    else:
        path, values = data.draw(st.sampled_from(LISTS), label="list")
        size = data.draw(st.integers(0, len(values) + 1), label="size")
        set_leaf(raw, path, (values * 2)[:size])
    code, err = count_exit_code(tmp_path_factory.mktemp("fuzz"), raw)
    assert code in (0, 2), err


# -- runner ------------------------------------------------------------------------


def test_single_run_head_only_count_is_head(tmp_path):
    raw = make_config(petl={"mechanisms": [], "tune_head": True})
    cfg = parse_config(write_config(tmp_path, raw))
    report = run_experiment(cfg, out_dir=tmp_path / "out", quiet=True)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.mechanism == "none"
    assert row.trainable_params == head_count(8, 3)
    assert (tmp_path / "out" / "report.csv").exists()
    assert (tmp_path / "out" / "history_run000.csv").exists()


def test_cross_product_row_count_and_seeds(tmp_path):
    raw = make_config(ablation={"d_bottle": [2, 4], "s": [0.8]})
    cfg = parse_config(write_config(tmp_path, raw))
    report = run_experiment(cfg, out_dir=tmp_path / "out", quiet=True)
    assert len(report.rows) == 2
    assert [r.run_id for r in report.rows] == ["run000", "run001"]
    assert [r.seed for r in report.rows] == [cfg.seed, cfg.seed + 1]
    assert report.rows[0].trainable_params < report.rows[1].trainable_params


def test_rerun_is_byte_identical(tmp_path):
    raw = make_config(ablation={"d_bottle": [2, 4]})
    path = write_config(tmp_path, raw)
    run_experiment(parse_config(path), out_dir=tmp_path / "a", quiet=True)
    run_experiment(parse_config(path), out_dir=tmp_path / "b", quiet=True)
    for name in ("report.csv", "history_run000.csv", "history_run001.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# sha256 of every file that `run`, `plot` and `count` write: a 2x2x2 micro
# ablation at 2 steps, and `count` on Swin-B. report.json is hashed without its
# wall_seconds lines, the one value that differs between reruns.
PINNED_MICRO = {"schema_version": 1, "seed": 7,
                "petl": {"mechanisms": ["adapter_parallel", "patt"], "tune_head": True},
                "dataset": {"per_class": 2, "eval_per_class": 1},
                "optimizer": {"steps": 2, "batch_size": 2},
                "ablation": {"d_bottle": [2, 4], "s": [0.5, 0.8], "sites": ["KV", "QKV"]}}
PINNED_SWIN_B = {"schema_version": 1, "model": {"preset": "swin-b"},
                 "petl": {"mechanisms": ["adapter_parallel", "patt"], "tune_head": True},
                 "dataset": {"n_classes": 174, "height": 224, "width": 224},
                 "ablation": {"d_bottle": [64, 128], "sites": ["KV", "QKV"]}}
OUTPUT_DIGESTS = {
    "micro": {
        "counts_petl.csv": "103a4f915c5c7580bff1c15f2d01d7962eb3fb6f2b1605d1bfa1e65106226195",
        "counts_positions.csv": "886632edac5173c5fad13c2ad7512b5ce9be9ba4122dcbc9a85456cf26e61b22",
        "history_run000.csv": "476d90033c38509af1c04a065a6009f9d27c5a520569a4208b4b527944b0740a",
        "history_run001.csv": "a02a2e9e947eda09bac177d94a872656352b5833fc79884331638f4d558b0e80",
        "history_run002.csv": "5e4e1297feddb9b81ed1f9831e1ceb0b764d37f395e9257340bf683ddd17cac9",
        "history_run003.csv": "19553dcddf81518f9a9ef8483a560e126d7b164a015d53896918e780ab6755aa",
        "history_run004.csv": "0c1c25922e016b9ca5c2141047fae4619c1bfdf1f2033d2bbefc49bebdf21918",
        "history_run005.csv": "2aec6aad869e56e0071a7fedbe2b361719f3a51e9d3a3b39c4141f97e49c5862",
        "history_run006.csv": "12726ce032212bf80991a47e1f536a35e963e33357c44ce20e9d06a3d5ca7cab",
        "history_run007.csv": "17bbd1711ed23f2b37caa307a66b304d86a6b73f3b17fa0a9e17bcd83d71ceda",
        "report.csv": "4500334047bb6720378ddda4126d4123b5aa357bec5e933df9f1a9710cb93613",
        "report.json": "fbc9209ef2cd228f86499d3f2c6637f4017e2629694f906b535525f35a44662f",
        "tradeoff.csv": "1555b0b6074925ef5945fa2be75325c09821965fb17b4380cd6cd6363bb2733a",
    },
    "swin-b": {
        "counts_petl.csv": "13409e45fcc86a88b4b1128ae2670dfd0c5897bbcd6a1d78c7d101a2cc8227d2",
        "counts_positions.csv": "04c2b2348a3fc37da9c386b62dde9af09330f0ca1ef3d2a322c712684daf7f7c",
    },
}


def output_digests(out):
    digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            data = re.sub(rb'\n *"wall_seconds": [^\n]*', b"", data)
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("name,raw,verbs", [
    ("micro", PINNED_MICRO, ("run", "plot", "count")),
    ("swin-b", PINNED_SWIN_B, ("count",)),
])
def test_cli_output_bytes_pinned(tmp_path, capsys, name, raw, verbs):
    path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    for verb in verbs:
        args = [] if verb == "plot" else ["--config", str(path)]
        assert cli_main([verb, *args, "--out", str(out), "--quiet"]) == 0
    capsys.readouterr()
    assert output_digests(out) == OUTPUT_DIGESTS[name]


def test_parallel_mode_matches_sequential(tmp_path):
    raw = make_config(ablation={"d_bottle": [2, 4]})
    seq = run_experiment(parse_config(write_config(tmp_path, raw)),
                         out_dir=tmp_path / "seq", quiet=True)
    raw["parallel"] = True
    par = run_experiment(parse_config(write_config(tmp_path, raw, "p.yaml")),
                         out_dir=tmp_path / "par", quiet=True)
    assert (tmp_path / "seq" / "report.csv").read_bytes() \
        == (tmp_path / "par" / "report.csv").read_bytes()
    assert [r.run_id for r in par.rows] == [r.run_id for r in seq.rows]


def test_parallel_mode_prints_each_run(tmp_path, capsys):
    raw = make_config(ablation={"d_bottle": [2, 4]}, parallel=True)
    report = run_experiment(parse_config(write_config(tmp_path, raw)), out_dir=tmp_path / "p")
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0].strip() for line in lines[1:]] == ["run000", "run001"]
    assert [r.run_id for r in report.rows] == ["run000", "run001"]


def test_parallel_key_runs_every_run_on_the_calling_thread(tmp_path, monkeypatch):
    calls = []
    execute_run = experiment.execute_run

    def recorded(cfg, index, *args):
        calls.append((threading.get_ident(), index))
        return execute_run(cfg, index, *args)

    monkeypatch.setattr(experiment, "execute_run", recorded)
    raw = make_config(ablation={"d_bottle": [2, 4]}, parallel=True)
    run_experiment(parse_config(write_config(tmp_path, raw)), out_dir=tmp_path / "p",
                   quiet=True)
    assert calls == [(threading.get_ident(), 0), (threading.get_ident(), 1)]


def test_datasets_generated_once_per_frame_count(tmp_path, monkeypatch):
    shapes = []
    make_dataset = experiment.make_dataset

    def counted(n_classes, per_class, clip_shape, **kwargs):
        shapes.append(clip_shape)
        return make_dataset(n_classes, per_class, clip_shape, **kwargs)

    monkeypatch.setattr(experiment, "make_dataset", counted)
    raw = make_config(ablation={"d_bottle": [2, 4], "frames": [4, 8]})
    report = run_experiment(parse_config(write_config(tmp_path, raw)),
                            out_dir=tmp_path / "out", quiet=True)
    assert [r.frames for r in report.rows] == [4, 8, 4, 8]
    assert sorted(shapes) == [(4, 32, 32)] * 2 + [(8, 32, 32)] * 2


def test_class_count_mismatch_rejected(tmp_path, capsys):
    path = write_config(tmp_path, make_config(dataset={"n_classes": 4}))
    with pytest.raises(ConfigError, match="n_classes"):
        parse_config(path)
    out = tmp_path / "out"
    for verb in ("run", "count", "gradcheck"):
        assert cli_main([verb, "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())
    assert "n_classes" in capsys.readouterr().err


@pytest.mark.parametrize("sections,words", [
    ({"model": {"input": [8, 32, 32]}}, ["model.input=[8, 32, 32]", "[4, 32, 32]"]),
    ({"petl": {"s_adapter": 0.5}}, ["s_adapter=0.5", "s_patt=0.8"]),
], ids=["input-not-the-dataset-shape", "s_adapter-not-s_patt"])
def test_values_no_run_uses_are_config_errors(tmp_path, capsys, sections, words):
    path = write_config(tmp_path, make_config(**sections))
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    assert all(w in str(exc.value) for w in words), str(exc.value)
    out = tmp_path / "out"
    for verb in ("run", "count", "gradcheck"):
        assert cli_main([verb, "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())
    assert "config error" in capsys.readouterr().err


# A config with no ablation section, and another valid value for every model,
# petl and ablation key: each changes the model config or insert spec that
# run000 attaches, or the config is an error; none is dropped.
GUARD = {"schema_version": 1, "model": {"preset": "swin-micro"},
         "petl": {"mechanisms": ["prefix", "adapter_parallel", "prompt", "patt"],
                  "d_bottle": 8},
         "dataset": {"n_classes": 4, "per_class": 1, "eval_per_class": 1, "frames": 8,
                     "height": 32, "width": 32}}
OTHER_VALUES = {
    ("model", "preset"): "swin-b", ("model", "input"): [4, 32, 32],
    ("model", "patch"): [1, 4, 4], ("model", "dims"): [8, 16, 32, 64],
    ("model", "blocks"): [1, 1, 1, 1], ("model", "heads"): [1, 2, 2, 4],
    ("model", "window"): [2, 2, 2], ("model", "ffn_ratio"): 2, ("model", "num_classes"): 5,
    ("petl", "mechanisms"): ["patt"], ("petl", "d_bottle"): 4, ("petl", "d_middle"): 3,
    ("petl", "d_token"): 2, ("petl", "d_prompt"): 2, ("petl", "s_adapter"): 0.5,
    ("petl", "s_patt"): 0.5, ("petl", "sites"): "QKV", ("petl", "tune_head"): False,
    ("petl", "attach_stages"): [True, False, True, True],
    ("ablation", "d_bottle"): [4], ("ablation", "s"): [0.5], ("ablation", "sites"): ["QKV"],
    ("ablation", "frames"): [4],
}


class Attached(Exception):
    """Raised in place of run000's attach, carrying its model config and spec."""


def first_run_setup(raw, out, monkeypatch):
    """(model config, insert spec) that ``run`` attaches for run000 of ``raw``."""
    cfg = config_from_dict(raw)

    def attach(model, spec, seed=1):
        raise Attached(model.cfg, spec)

    monkeypatch.setattr(experiment, "attach_petl", attach)
    with pytest.raises(Attached) as exc:
        run_experiment(cfg, out_dir=out, quiet=True)
    return exc.value.args


def test_other_values_cover_every_model_and_petl_key():
    assert set(OTHER_VALUES) == {(section, key) for section in ("model", "petl", "ablation")
                                 for key in FULL[section]}


@pytest.mark.parametrize("path", OTHER_VALUES, ids=".".join)
def test_every_model_and_petl_key_reaches_the_first_run(tmp_path, monkeypatch, path):
    base = first_run_setup(copy.deepcopy(GUARD), tmp_path, monkeypatch)
    raw = copy.deepcopy(GUARD)
    raw.setdefault(path[0], {})
    set_leaf(raw, path, OTHER_VALUES[path])
    try:
        config_from_dict(raw)
    except ConfigError:
        return
    assert first_run_setup(raw, tmp_path, monkeypatch) != base


def test_report_json_carries_wall_seconds(tmp_path):
    cfg = parse_config(write_config(tmp_path, make_config()))
    run_experiment(cfg, out_dir=tmp_path / "out", quiet=True)
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["rows"][0]["wall_seconds"] > 0
    header = (tmp_path / "out" / "report.csv").read_text().splitlines()[0]
    assert "wall" not in header


# -- counting reports -----------------------------------------------------------------


def test_emit_counts_swin_b_head_row(tmp_path):
    raw = make_config(
        model={"preset": "swin-b", "input": [8, 224, 224], "dims": [128, 256, 512, 1024],
               "blocks": [2, 2, 18, 2], "heads": [4, 8, 16, 32], "window": [8, 7, 7],
               "num_classes": 174},
        petl={"mechanisms": [], "tune_head": True},
        dataset={"n_classes": 174, "frames": 8, "height": 224, "width": 224},
    )
    cfg = parse_config(write_config(tmp_path, raw))
    result = emit_counts(cfg, out_dir=tmp_path / "out", quiet=True)
    assert result["swin_b_reference"] is True
    row = result["petl"][0]
    assert row["trainable_params"] == 178_350
    assert row["trainable_millions"] == 0.18
    positions = {r.position: r.count_millions for r in result["positions"]}
    assert positions["Attn, QKV"] == 24.69
    assert (tmp_path / "out" / "counts_positions.csv").exists()
    assert (tmp_path / "out" / "counts_petl.csv").exists()


@pytest.mark.parametrize("model,reference", [
    ({}, True), ({"ffn_ratio": 2}, False), ({"patch": [1, 4, 4]}, False),
], ids=["preset", "ffn_ratio", "patch"])
def test_only_the_swin_b_architecture_is_the_reference_scale(tmp_path, capsys, model,
                                                             reference):
    raw = {"schema_version": 1, "model": {"preset": "swin-b", **model},
           "petl": {"mechanisms": [], "tune_head": True},
           "dataset": {"n_classes": 174, "height": 224, "width": 224}}
    result = emit_counts(parse_config(write_config(tmp_path, raw)), out_dir=tmp_path / "out")
    assert result["swin_b_reference"] is reference
    assert [row["reference_scale"] for row in result["petl"]] == ["swin-b" if reference else ""]
    assert ("matches the full Swin-B reference" in capsys.readouterr().out) is reference


def test_only_experiment_writes_reports():
    # Only experiment.py knows the report formats; checkpoint.py keeps its own file.
    csv_importers, openers = set(), set()
    for path in Path(experiment.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "csv"):
                csv_importers.add(path.name)
            if isinstance(node, ast.Call) and "open" in (getattr(node.func, "id", None),
                                                         getattr(node.func, "attr", None)):
                openers.add(path.name)
    assert csv_importers == {"experiment.py"}
    assert openers == {"experiment.py", "checkpoint.py"}


def test_emit_counts_monotonic_in_d_bottle(tmp_path):
    raw = make_config(ablation={"d_bottle": [2, 4]})
    cfg = parse_config(write_config(tmp_path, raw))
    result = emit_counts(cfg, out_dir=tmp_path / "out", quiet=True)
    counts = [r["trainable_params"] for r in result["petl"]]
    assert counts[0] < counts[1]
    assert result["swin_b_reference"] is False


def test_emit_counts_match_executed_run(tmp_path):
    # plan-based counting agrees with the allocated model the runner builds
    raw = make_config()
    cfg = parse_config(write_config(tmp_path, raw))
    counted = emit_counts(cfg, out_dir=tmp_path / "c", quiet=True)["petl"][0]
    ran = run_experiment(cfg, out_dir=tmp_path / "r", quiet=True).rows[0]
    assert counted["trainable_params"] == ran.trainable_params


MECHANISM_SETS = [["prefix"], ["adapter_parallel"], ["adapter_sequential"], ["prompt"],
                  ["patt"], ["adapter_parallel", "patt"], []]


@pytest.mark.parametrize("attach_stages", [None, [False, False, True, True]],
                         ids=["all-stages", "last-two"])
@pytest.mark.parametrize("tune_head", [True, False], ids=["head", "no-head"])
@pytest.mark.parametrize("mechanisms", MECHANISM_SETS,
                         ids=["+".join(m) or "none" for m in MECHANISM_SETS])
def test_count_verb_agrees_with_the_frozen_model(tmp_path, mechanisms, tune_head,
                                                attach_stages):
    # every setting that changes what trains: the plan count and the built model's flags
    raw = make_config(petl={"mechanisms": mechanisms, "tune_head": tune_head,
                            "attach_stages": attach_stages})
    cfg = parse_config(write_config(tmp_path, raw))
    counted = emit_counts(cfg, out_dir=tmp_path / "c", quiet=True)["petl"][0]
    model = experiment.build_run(cfg, 0, cfg.ablation.combos()[0])
    assert counted["trainable_params"] == count_params(model.registry, "trainable")


# -- plotting -----------------------------------------------------------------------


def test_plot_projection_and_sorting(tmp_path):
    raw = make_config(ablation={"d_bottle": [4, 2]})  # deliberately unsorted
    cfg = parse_config(write_config(tmp_path, raw))
    report = run_experiment(cfg, out_dir=tmp_path / "out", quiet=True)
    plot_path = tmp_path / "out" / "tradeoff.csv"
    plot_tradeoff(report, plot_path)
    lines = plot_path.read_text().splitlines()
    assert lines[0] == "mechanism,trainable_millions,top1"
    assert len(lines) == 3
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values)
    tops = {repr(r.eval_top1) for r in report.rows}
    assert {line.split(",")[2] for line in lines[1:]} == tops


def test_plot_empty_report_rejected(tmp_path):
    with pytest.raises(ConfigError):
        plot_tradeoff(TradeoffReport(rows=[]), tmp_path / "x.csv")


# -- gradcheck entry ------------------------------------------------------------------


def test_run_gradcheck_small_model(tmp_path):
    raw = make_config(
        model={"dims": [2, 2, 4, 4], "heads": [1, 1, 2, 2]},
        petl={"mechanisms": ["patt"], "d_bottle": 2, "tune_head": True},
    )
    cfg = parse_config(write_config(tmp_path, raw))
    assert run_gradcheck(cfg, quiet=True) < 1e-4


def test_gradcheck_uses_the_dataset_clip_shape(tmp_path, capsys):
    # the preset's input is 8 frames; the dataset's clips, which every run trains on, 4
    raw = make_config(model={"dims": [2, 2, 4, 4], "heads": [1, 1, 2, 2]},
                      petl={"mechanisms": ["patt"], "d_bottle": 2})
    del raw["model"]["input"]
    path = write_config(tmp_path, raw)
    assert cli_main(["gradcheck", "--config", str(path), "--quiet"]) == 0
    capsys.readouterr()
    assert parse_config(path).model.input_size == (4, 32, 32)


def test_run_count_and_gradcheck_build_the_same_first_run(tmp_path, monkeypatch):
    # the petl section (d_bottle 2, KV) is no run's: run000 is d_bottle 4 at QKV
    raw = make_config(petl={"d_bottle": 2, "sites": "KV"},
                      ablation={"d_bottle": [4], "sites": ["QKV"]})
    cfg = parse_config(write_config(tmp_path, raw))
    built = {}

    def weights(model):
        return {p.path: (p.tensor.requires_grad, p.tensor.data.copy())
                for p in model.registry}

    def checked(model, clips, labels, **kwargs):
        built["gradcheck"] = weights(model)
        assert clips.shape[1:] == model.cfg.input_size + (3,)
        return harness.GradCheckResult(0.0, "x", 0, 0.0, 0.0)

    train = experiment.train

    def trained(model, *args, **kwargs):
        built.setdefault("run", weights(model))
        return train(model, *args, **kwargs)

    monkeypatch.setattr(experiment, "grad_check", checked)
    monkeypatch.setattr(experiment, "train", trained)
    run_gradcheck(cfg, quiet=True)
    row = run_experiment(cfg, out_dir=tmp_path / "run", quiet=True).rows[0]
    counted = emit_counts(cfg, out_dir=tmp_path / "count", quiet=True)["petl"][0]

    trainable = {path for path, (grad, _) in built["gradcheck"].items() if grad}
    assert trainable == {path for path, (grad, _) in built["run"].items() if grad}
    assert any(path.endswith("patt.up_q.weight") for path in trainable)
    assert built["gradcheck"].keys() == built["run"].keys()
    for path, (_, data) in built["gradcheck"].items():
        assert np.array_equal(data, built["run"][path][1]), path
    n = sum(data.size for path, (_, data) in built["gradcheck"].items() if path in trainable)
    assert n == row.trainable_params == counted["trainable_params"]


def test_an_axis_is_one_table_entry_and_one_run_setup_line(tmp_path, monkeypatch, capsys):
    # experiment.py with a throw-away d_token axis, added by these two edits
    # alone: parsing, run, count, gradcheck and the reports all carry it
    source = Path(experiment.__file__).read_text()
    edits = {'    "frames": _Axis(': '    "d_token": _Axis(int, lambda petl, dataset: '
                                     'petl.d_token),\n    "frames": _Axis(',
             "spec = dataclasses.replace(cfg.petl, ":
                 "spec = dataclasses.replace(cfg.petl, d_token=run.d_token, "}
    for old, new in edits.items():
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    module = types.ModuleType("petl_lab.experiment_with_axis")
    module.__package__ = "petl_lab"
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source, module.__name__, "exec"), module.__dict__)

    raw = make_config(petl={"mechanisms": ["prefix"]}, ablation={"d_token": [1, 2]})
    cfg = module.parse_config(write_config(tmp_path, raw))
    assert module.config_from_dict(yaml.safe_load(module.serialize_config(cfg))) == cfg
    assert [run.d_token for run in cfg.ablation.combos()] == [1, 2]
    assert [run.d_token for run in module.config_from_dict(make_config()).ablation.combos()] \
        == [4]

    report = module.run_experiment(cfg, out_dir=tmp_path / "out")
    assert "d_token=1 frames=4" in capsys.readouterr().out
    rows = module.TradeoffReport.read_json(tmp_path / "out" / "report.json").rows
    assert [row.d_token for row in rows] == [1, 2]
    assert rows[0].trainable_params < rows[1].trainable_params
    header = (tmp_path / "out" / "report.csv").read_text().splitlines()[0]
    assert header.startswith("run_id,mechanism,d_bottle,s,sites,d_token,frames,")
    counted = module.emit_counts(cfg, out_dir=tmp_path / "out", quiet=True)["petl"]
    assert [r["trainable_params"] for r in counted] == [r.trainable_params for r in report.rows]

    def checked(model, clips, labels, **kwargs):
        assert model.petl_spec.d_token == 1
        return harness.GradCheckResult(0.0, "x", 0, 0.0, 0.0)

    monkeypatch.setattr(module, "grad_check", checked)
    module.run_gradcheck(cfg, quiet=True)


# -- CLI ----------------------------------------------------------------------------


def test_cli_run_and_plot(tmp_path, capsys):
    path = write_config(tmp_path, make_config())
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    assert (out / "report.csv").exists()
    assert cli_main(["plot", "--out", str(out), "--quiet"]) == 0
    assert (out / "tradeoff.csv").exists()
    capsys.readouterr()


def test_cli_run_that_diverges_exits_1_naming_the_scope(tmp_path, capsys):
    # lr 1e300 makes the first update overflow a layer norm's variance, which
    # used to normalize to zeros and let the run finish
    path = write_config(tmp_path, make_config(optimizer={"lr": 1.0e300}))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert re.search(r"^error: .* in scope '(embed|head|merge\d|stage\d\.block\d\.(attn|ffn))'",
                     err, re.M), err
    assert len(err.splitlines()) == 1, err
    assert not (out / "report.csv").exists()


def test_cli_count(tmp_path, capsys):
    path = write_config(tmp_path, make_config())
    out = tmp_path / "out"
    assert cli_main(["count", "--config", str(path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "DownSample" in captured.out


def test_cli_bad_config_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, make_config(model={"dim": [1]}))
    assert cli_main(["run", "--config", str(path), "--quiet"]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_missing_report_exits_1(tmp_path, capsys):
    assert cli_main(["plot", "--out", str(tmp_path / "nothing")]) == 1
    capsys.readouterr()


ROW = {"run_id": "run000", "mechanism": "patt", "d_bottle": 2, "s": 0.8, "sites": "KV",
       "frames": 4, "trainable_params": 60, "trainable_millions": 0.0, "train_top1": 0.5,
       "eval_top1": None, "wall_seconds": 0.1, "seed": 3}


@pytest.mark.parametrize("text", [
    "{not json",
    "[1,2]",
    "{}",
    '{"rows": {}}',
    '{"rows": [1]}',
    '{"rows": [{"run_id": "x"}]}',
    json.dumps({"rows": [{**ROW, "extra": 1}]}),
    json.dumps({"rows": [{**ROW, "trainable_millions": "x"}]}),
], ids=["not-json", "not-object", "no-rows", "rows-not-list", "row-not-object",
        "row-missing-keys", "row-extra-key", "row-wrong-type"])
def test_cli_malformed_report_exits_2(tmp_path, capsys, text):
    report = tmp_path / "report.json"
    report.write_text(text)
    assert cli_main(["plot", "--report", str(report), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err


def test_cli_seed_overrides_config_seed(tmp_path):
    path = write_config(tmp_path, make_config(ablation={"d_bottle": [1, 2]}))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(path), "--out", str(out), "--seed", "5",
                     "--quiet"]) == 0
    rows = TradeoffReport.read_json(out / "report.json").rows
    assert [r.seed for r in rows] == [5, 6]


@pytest.mark.parametrize("verb", ["run", "gradcheck"])
@pytest.mark.parametrize("spelling", ["flag", "config"])
def test_cli_negative_seed_is_a_config_error(tmp_path, capsys, verb, spelling):
    raw = make_config(model={"dims": [2, 2, 4, 4], "heads": [1, 1, 2, 2]},
                      **({"seed": -5} if spelling == "config" else {}))
    argv = [verb, "--config", str(write_config(tmp_path, raw)), "--quiet"]
    if verb == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert cli_main(argv + (["--seed", "-1"] if spelling == "flag" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert "seed" in err and "Traceback" not in err


@pytest.mark.parametrize("verb", ["count", "run"])
@pytest.mark.parametrize("model", [{"dims": [-16, 4, 8, 8]}, {"dims": [0, 4, 8, 8]},
                                   {"dims": [], "blocks": [], "heads": []}],
                         ids=["negative", "zero", "no-stage"])
def test_cli_non_positive_stage_dim_is_a_config_error(tmp_path, capsys, verb, model):
    # no bottleneck insert, whose width check would catch the dim first
    raw = make_config(model=model, petl={"mechanisms": ["prefix"]})
    assert cli_main([verb, "--config", str(write_config(tmp_path, raw)),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert "stage dim" in err and "Traceback" not in err


@pytest.mark.parametrize("section,key,value", [
    ("optimizer", "lr", math.nan), ("optimizer", "lr", math.inf), ("optimizer", "eps", math.inf),
    ("dataset", "noise", math.nan), ("dataset", "noise", math.inf),
], ids=["lr-nan", "lr-inf", "eps-inf", "noise-nan", "noise-inf"])
def test_cli_non_finite_setting_is_a_config_error(tmp_path, capsys, section, key, value):
    path = write_config(tmp_path, make_config(**{section: {key: value}}))
    assert cli_main(["count", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err, err


@pytest.mark.parametrize("key,value", [("beta1", 1.0), ("beta2", 1.5), ("momentum", -3.0),
                                       ("eps", 0.0)], ids=["beta1", "beta2", "momentum", "eps"])
def test_cli_optimizer_setting_out_of_range_is_a_config_error(tmp_path, capsys, key, value):
    path = write_config(tmp_path, make_config(optimizer={key: value}))
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err, err
    assert not (tmp_path / "out").exists()


def test_cli_gradcheck_exit_codes(tmp_path, capsys):
    raw = make_config(model={"dims": [2, 2, 4, 4], "heads": [1, 1, 2, 2]},
                      petl={"mechanisms": ["patt"], "d_bottle": 2})
    path = write_config(tmp_path, raw)
    assert cli_main(["gradcheck", "--config", str(path), "--quiet"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("fault", ["nan-analytic", "infinite-numeric"])
def test_cli_gradcheck_fails_on_nonfinite_gradients(fault, tmp_path, monkeypatch, capsys):
    raw = make_config(model={"dims": [2, 2, 4, 4], "heads": [1, 1, 2, 2]},
                      petl={"mechanisms": ["patt"], "d_bottle": 2})
    path = write_config(tmp_path, raw)
    if fault == "nan-analytic":
        monkeypatch.setattr(T, "add", nan_add)
        expected = "is not finite"
    else:
        loss_value = harness._batch_loss_value
        calls = []

        def infinite_once(*args):
            calls.append(args)
            return math.inf if len(calls) == 1 else loss_value(*args)

        monkeypatch.setattr(harness, "_batch_loss_value", infinite_once)
        expected = "gradcheck FAILED: inf"
    assert cli_main(["gradcheck", "--config", str(path), "--quiet"]) == 1
    assert expected in capsys.readouterr().err


def test_cli_gradcheck_prints_its_worst_entry(tmp_path, monkeypatch, capsys):
    raw = make_config(model={"dims": [2, 2, 4, 4], "heads": [1, 1, 2, 2]},
                      petl={"mechanisms": ["patt"], "d_bottle": 2})
    path = write_config(tmp_path, raw)
    assert cli_main(["gradcheck", "--config", str(path)]) == 0
    passed = capsys.readouterr().out
    assert re.search(r"gradcheck max relative error: \S+ \(worst entry \S+\[\d+\]: analytic ",
                     passed), passed
    monkeypatch.setattr(harness, "_batch_loss_value", lambda *args: math.inf)
    assert cli_main(["gradcheck", "--config", str(path), "--quiet"]) == 1
    failed = capsys.readouterr().err
    assert re.search(r"gradcheck FAILED: inf >= 0.0001 \(worst entry \S+\[0\]: analytic ",
                     failed), failed


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PETL_LAB_OUT", str(tmp_path / "from_env"))
    cfg = parse_config(write_config(tmp_path, make_config()))
    run_experiment(cfg, quiet=True)
    assert (tmp_path / "from_env" / "report.csv").exists()


def test_quiet_flag_suppresses_progress(tmp_path, capsys):
    path = write_config(tmp_path, make_config())
    cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
    assert capsys.readouterr().out == ""
