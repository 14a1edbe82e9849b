import contextlib
import copy
import io
import json
import threading

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from petl_lab import ConfigError, experiment, head_count
from petl_lab.cli import main as cli_main
from petl_lab.experiment import (TradeoffReport, config_from_dict, config_to_dict,
                                 emit_counts, parse_config, plot_tradeoff,
                                 run_experiment, run_gradcheck, serialize_config)

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


def test_class_count_mismatch_rejected(tmp_path):
    raw = make_config(dataset={"n_classes": 4})
    cfg = parse_config(write_config(tmp_path, raw))
    with pytest.raises(ConfigError, match="n_classes"):
        run_experiment(cfg, out_dir=tmp_path / "out", quiet=True)


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


# -- CLI ----------------------------------------------------------------------------


def test_cli_run_and_plot(tmp_path, capsys):
    path = write_config(tmp_path, make_config())
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    assert (out / "report.csv").exists()
    assert cli_main(["plot", "--out", str(out), "--quiet"]) == 0
    assert (out / "tradeoff.csv").exists()
    capsys.readouterr()


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


def test_cli_gradcheck_exit_codes(tmp_path, capsys):
    raw = make_config(model={"dims": [2, 2, 4, 4], "heads": [1, 1, 2, 2]},
                      petl={"mechanisms": ["patt"], "d_bottle": 2})
    path = write_config(tmp_path, raw)
    assert cli_main(["gradcheck", "--config", str(path), "--quiet"]) == 0
    capsys.readouterr()


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PETL_LAB_OUT", str(tmp_path / "from_env"))
    cfg = parse_config(write_config(tmp_path, make_config()))
    run_experiment(cfg, quiet=True)
    assert (tmp_path / "from_env" / "report.csv").exists()


def test_quiet_flag_suppresses_progress(tmp_path, capsys):
    path = write_config(tmp_path, make_config())
    cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
    assert capsys.readouterr().out == ""
