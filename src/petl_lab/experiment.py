"""Experiment configs, the ablation runner, and trade-off reports.

This module owns the config format and the format of every report the CLI
writes; no other module reads a config or writes a report.

Config files are YAML with nested sections and a ``schema_version`` field;
unknown keys are hard errors so typos cannot silently change a run, and
every value is type-checked, never coerced: an int must be an int (a bool or
2.7 is not one), a float an int or float, a bool a bool, and a section a
mapping. Any other value is a ``ConfigError``. A section's keys are its
dataclass's field names, but for the renames in ``_MODEL_FIELDS`` and
``_PETL_FIELDS``.

A :class:`Run` is one entry of the ablation cross-product (bottleneck width
x branch scale x insertion sites x frame count). Its quantities come from:

* ``dataset``: the clip shape and class count. ``cfg.model.input_size`` is
  its (frames, height, width); a ``model.input`` or ``model.num_classes``
  the config writes must equal them.
* ``model`` over its preset: the backbone; ``petl``: the inserts.
* ``ablation``: the axes override ``petl.d_bottle``, ``petl.sites``,
  ``dataset.frames`` and the scale ``s`` of both branches. A missing axis
  takes its one value from those, ``s`` from ``petl.s_patt``, so without an
  ``s`` axis ``petl.s_adapter`` must equal ``petl.s_patt``.

The axes are declared once, in the table ``_AXES``: each axis's name (in
report-column order), value kind and one-value default. ``Run``, the
ablation schema, the axis columns of the report rows, the defaults and the
progress line all derive from it, so adding an axis takes one table entry
and the line of :func:`run_setup` that applies its value.

:func:`run_setup` derives a run's model config and insert spec, and parsing
checks every run with it. :func:`build_run` builds, attaches and freezes a
run's model with seeds ``seed + index`` (backbone) and ``seed + index + 1``
(inserts). ``run`` trains every run's model, ``count`` counts every run's
plan without allocating it, and ``gradcheck`` finite-differences the first
run's model on two clips of its shape.

The runner executes the runs in the calling thread, one after another in
config order. The training and held-out datasets depend only on the seed and
the frame count, so they are generated once per distinct ``frames`` value and
shared by the runs, which only read them.

The top-level ``parallel`` key is accepted, so configs that set it still
load, and has no effect. Runs are short Python ops under the GIL, so a
thread pool made the benchmark's 4-run ablation slower (2.14 s against
1.33 s sequential on 2 vCPUs, 1.76 s against 1.42 s with one BLAS thread),
and a process pool would add a worker's ~190 MB to the peak resident set.

The runner emits:

* ``report.csv`` -- one row per run, byte-identical across reruns;
* ``report.json`` -- same rows plus wall-clock seconds (the one output that
  may differ between reruns);
* ``history_<run>.csv`` -- per-step training loss;
* via :func:`plot_tradeoff`, ``tradeoff.csv`` -- (params, accuracy) scatter
  data grouped by mechanism.

``count`` writes ``counts_positions.csv`` and ``counts_petl.csv``. Every CSV
goes through :func:`_write_csv`; each file keeps its own cell formatting.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import yaml

from .backbone import SWIN_B, SWIN_MICRO, ModelConfig, VideoSwinModel, build_model
from .errors import ConfigError, GeometryError
from .harness import (GradCheckResult, OptimizerConfig, SyntheticVideoDataset, grad_check,
                      make_dataset, train)
from .petl import PETLSpec, attach_petl
from .registry import (backbone_parameter_plan, freeze_backbone, millions, plan_total,
                       positional_count_report, trainable_plan_total)

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "PETL_LAB_OUT"

# libyaml's loader where PyYAML was built with it: the same documents, parsed in C
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

MODEL_PRESETS = {"swin-micro": SWIN_MICRO, "swin-b": SWIN_B}

_SITE_NAMES = {"QK": ("Q", "K"), "KV": ("K", "V"), "QV": ("Q", "V"), "QKV": ("Q", "K", "V"),
               "Q": ("Q",), "K": ("K",), "V": ("V",)}


@dataclass(frozen=True)
class DatasetSpec:
    n_classes: int = 4
    per_class: int = 32
    eval_per_class: int = 8
    frames: int = 8
    height: int = 32
    width: int = 32
    noise: float = 0.05

    def validate(self) -> None:
        if min(self.n_classes, self.per_class, self.eval_per_class,
               self.frames, self.height, self.width) < 1:
            raise ConfigError("dataset section values must be positive")
        if not 0.0 <= self.noise < math.inf:
            raise ConfigError(f"dataset noise must be finite and >= 0, got {self.noise}")


class _Axis(NamedTuple):
    kind: type
    default: Callable[[PETLSpec, DatasetSpec], object]  # the value of a config without the axis
    canonical: Callable = lambda value: value  # a config value as runs and reports hold it


def _one_scale(petl: PETLSpec, dataset: DatasetSpec) -> float:
    _require(petl.s_adapter == petl.s_patt,
             f"petl.s_adapter={petl.s_adapter} differs from petl.s_patt={petl.s_patt}, "
             f"but every run scales both branches by one s; set them equal or add an "
             f"ablation 's' axis")
    return petl.s_patt


# Every ablation axis, in report-column order; run_setup applies their values.
_AXES = {
    "d_bottle": _Axis(int, lambda petl, dataset: petl.d_bottle),
    "s": _Axis(float, _one_scale),
    "sites": _Axis(str, lambda petl, dataset: "".join(petl.patt_sites), str.upper),
    "frames": _Axis(int, lambda petl, dataset: dataset.frames),
}

Run = NamedTuple("Run", [(name, axis.kind) for name, axis in _AXES.items()])
Run.__doc__ = "One entry of the ablation cross-product: a value of every axis."


@dataclass(frozen=True)
class AblationAxes:
    values: tuple[tuple, ...]  # each axis's values, in ``Run`` field order

    def combos(self) -> list[Run]:
        """Every run, in config order: the last axis varies fastest."""
        return [Run(*values) for values in itertools.product(*self.values)]


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    model: ModelConfig
    petl: PETLSpec
    dataset: DatasetSpec
    optimizer: OptimizerConfig
    ablation: AblationAxes
    output_dir: str | None = None

    def __post_init__(self):  # also checks a seed set by dataclasses.replace
        _require(self.seed >= 0, f"seed must be >= 0, got {self.seed}")


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = sorted(str(k) for k in set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in '{where}' section")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


# One schema per section: every accepted key and the kind of its value. A
# kind is int, float (an int is accepted and widened), bool, str, dict (a
# section), [kind] (a list of kind), or a tuple of alternatives where None
# admits null. A bool is never an int or a float, though Python says it is.
_TOP_SCHEMA = {"schema_version": int, "seed": int, "output_dir": (str, None),
               "parallel": bool, "model": dict, "petl": dict, "dataset": dict,
               "optimizer": dict, "ablation": dict}
_MODEL_SCHEMA = {"preset": str, "input": [int], "patch": [int], "dims": [int],
                 "blocks": [int], "heads": [int], "window": [int], "ffn_ratio": int,
                 "num_classes": int}
_PETL_SCHEMA = {"mechanisms": [str], "d_bottle": int, "d_middle": (int, None),
                "d_token": int, "d_prompt": int, "s_adapter": float, "s_patt": float,
                "sites": str, "tune_head": bool, "attach_stages": ([bool], None)}
_DATASET_SCHEMA = {"n_classes": int, "per_class": int, "eval_per_class": int,
                   "frames": int, "height": int, "width": int, "noise": float}
_OPT_SCHEMA = {"kind": str, "lr": float, "momentum": float, "beta1": float,
               "beta2": float, "eps": float, "steps": int, "batch_size": int,
               "eval_every": int}
_ABLATION_SCHEMA = {name: [axis.kind] for name, axis in _AXES.items()}

# Config keys that name their dataclass field differently; every other key is
# its field's name.
_MODEL_FIELDS = {"input": "input_size", "patch": "patch_size", "dims": "embed_dims",
                 "blocks": "blocks_per_stage", "heads": "heads_per_stage",
                 "window": "window_size"}
_PETL_FIELDS = {"sites": "patt_sites"}


def _matches(value, kind) -> bool:
    if isinstance(kind, tuple):
        return any(_matches(value, k) for k in kind)
    if isinstance(kind, list):
        return isinstance(value, list) and all(_matches(x, kind[0]) for x in value)
    if kind is None:
        return value is None
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _kind_name(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(_kind_name(k) for k in kind)
    if isinstance(kind, list):
        return f"a list of {_kind_name(kind[0])}"
    return {int: "int", float: "float", bool: "bool", str: "str",
            dict: "a mapping", None: "null"}[kind]


def _mapping(section, schema: dict, where: str) -> dict:
    """``section`` checked against ``schema``: known keys, values of the right kind.

    Values come back as given, except that float kinds are widened to float.
    """
    _require(isinstance(section, dict),
             f"'{where}' must be a mapping, got {type(section).__name__} {section!r}")
    _check_keys(section, schema, where)
    out = {}
    for key, value in section.items():
        kind = schema[key]
        name = key if where == "top level" else f"{where}.{key}"
        _require(_matches(value, kind),
                 f"'{name}' must be {_kind_name(kind)}, got {type(value).__name__} {value!r}")
        if kind is float:
            value = float(value)
        elif kind == [float]:
            value = [float(x) for x in value]
        out[key] = value
    return out


def _fields(section: dict, renames: dict | None = None) -> dict:
    """Dataclass field values of a checked section: keys renamed, lists as tuples."""
    renames = renames or {}
    return {renames.get(key, key): tuple(v) if isinstance(v, list) else v
            for key, v in section.items()}


def _section(obj, keys, renames: dict | None = None) -> dict:
    """The config section of dataclass ``obj`` with ``keys``: tuples as lists."""
    renames = renames or {}
    values = {key: getattr(obj, renames.get(key, key)) for key in keys}
    return {key: list(v) if isinstance(v, tuple) else v for key, v in values.items()}


def _validated(model: ModelConfig) -> ModelConfig:
    """``model`` after validation; extents that do not tile are a config error too."""
    try:
        model.validate()
    except GeometryError as exc:
        raise ConfigError(str(exc)) from exc
    return model


def _sites_tuple(name: str) -> tuple[str, ...]:
    sites = _SITE_NAMES.get(name.upper())
    if sites is None:
        raise ConfigError(f"invalid insertion-site value '{name}'; expected one of "
                          f"{sorted(_SITE_NAMES)}")
    return sites


def _model(fields: dict, dataset: DatasetSpec) -> ModelConfig:
    """The preset with the model section's fields, on the dataset's clip shape."""
    preset = fields.pop("preset", "swin-micro")
    _require(preset in MODEL_PRESETS,
             f"unknown model preset '{preset}'; expected {sorted(MODEL_PRESETS)}")
    shape = (dataset.frames, dataset.height, dataset.width)
    _require(fields.setdefault("input_size", shape) == shape,
             f"model.input={list(fields['input_size'])} disagrees with the dataset's "
             f"[frames, height, width]={list(shape)}")
    return _validated(dataclasses.replace(MODEL_PRESETS[preset], **fields))


def config_from_dict(raw: dict) -> ExperimentConfig:
    top = _mapping(raw, _TOP_SCHEMA, "top level")
    _require("schema_version" in top, "config is missing 'schema_version'")
    _require(top["schema_version"] == SCHEMA_VERSION,
             f"unsupported schema_version {top['schema_version']} (expected {SCHEMA_VERSION})")

    def section(name: str, schema: dict, renames: dict | None = None) -> dict:
        return _fields(_mapping(top.get(name, {}), schema, name), renames)

    dataset = DatasetSpec(**section("dataset", _DATASET_SCHEMA))
    dataset.validate()
    model = _model(section("model", _MODEL_SCHEMA, _MODEL_FIELDS), dataset)
    _require(model.num_classes == dataset.n_classes,
             f"model.num_classes={model.num_classes} disagrees with "
             f"dataset.n_classes={dataset.n_classes}")

    petl_fields = section("petl", _PETL_SCHEMA, _PETL_FIELDS)
    if "patt_sites" in petl_fields:
        petl_fields["patt_sites"] = _sites_tuple(petl_fields["patt_sites"])
    petl = PETLSpec(**petl_fields)
    petl.validate(model)

    optimizer = OptimizerConfig(**section("optimizer", _OPT_SCHEMA))
    optimizer.validate()

    given = section("ablation", _ABLATION_SCHEMA)
    for name, values in given.items():
        _require(len(values) > 0, f"ablation axis '{name}' must be a non-empty list")
    axes = (tuple(map(axis.canonical, given.get(name) or (axis.default(petl, dataset),)))
            for name, axis in _AXES.items())
    cfg = ExperimentConfig(
        seed=top.get("seed", 0),
        model=model,
        petl=petl,
        dataset=dataset,
        optimizer=optimizer,
        ablation=AblationAxes(tuple(axes)),
        output_dir=top.get("output_dir"),
    )
    # Every run is checked here, so no run trains before a later one is found invalid.
    for run in cfg.ablation.combos():
        run_setup(cfg, run)
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    petl = _section(cfg.petl, _PETL_SCHEMA, _PETL_FIELDS)
    petl["sites"] = "".join(cfg.petl.patt_sites)
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "output_dir": cfg.output_dir,
        "model": _section(cfg.model, _MODEL_SCHEMA.keys() - {"preset"}, _MODEL_FIELDS),
        "petl": petl,
        "dataset": _section(cfg.dataset, _DATASET_SCHEMA),
        "optimizer": _section(cfg.optimizer, _OPT_SCHEMA),
        "ablation": {name: list(values) for name, values in zip(_AXES, cfg.ablation.values)},
    }


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config parse error{where}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if raw is None:
        raise ConfigError(f"config {path} is empty")
    return config_from_dict(raw)


def serialize_config(cfg: ExperimentConfig) -> str:
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=True)


# -- reports -------------------------------------------------------------------


# The kind of every value of a report.json row, in the config schemas' terms.
_ROW_SCHEMA = {"run_id": str, "mechanism": str,
               **{name: axis.kind for name, axis in _AXES.items()},
               "trainable_params": int, "trainable_millions": float,
               "train_top1": float, "eval_top1": (float, None), "wall_seconds": float,
               "seed": int}

# One report row, a field per _ROW_SCHEMA key.
RunRow = dataclasses.make_dataclass("RunRow", _ROW_SCHEMA.items(),
                                    namespace={"__module__": __name__})

# Wall-clock seconds stay out of the CSV: rerunning the same config must
# produce byte-identical files.
REPORT_COLUMNS = tuple(c for c in _ROW_SCHEMA if c != "wall_seconds")


def _write_csv(path, header, rows) -> None:
    """Write a CSV report with Unix line ends: floats as ``repr``, None as an empty cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@dataclass
class TradeoffReport:
    rows: list[RunRow] = field(default_factory=list)

    def write_csv(self, path) -> None:
        rows = []
        for r in self.rows:
            cells = {**dataclasses.asdict(r), "trainable_millions": f"{r.trainable_millions:.2f}"}
            rows.append([cells[c] for c in REPORT_COLUMNS])
        _write_csv(path, REPORT_COLUMNS, rows)

    def write_json(self, path) -> None:
        payload = [dataclasses.asdict(r) for r in self.rows]
        with open(path, "w") as fh:
            json.dump({"schema_version": SCHEMA_VERSION, "rows": payload}, fh, indent=2)
            fh.write("\n")

    @staticmethod
    def read_json(path) -> "TradeoffReport":
        """Read a :meth:`write_json` report; a malformed one raises ConfigError."""
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"unreadable report {path}: {exc}") from exc
        rows = payload.get("rows") if isinstance(payload, dict) else None
        _require(isinstance(rows, list), f"report {path} has no 'rows' list")
        out = []
        for k, row in enumerate(rows):
            row = _mapping(row, _ROW_SCHEMA, f"rows[{k}]")
            missing = sorted(set(_ROW_SCHEMA) - set(row))
            _require(not missing, f"report {path}: 'rows[{k}]' lacks {missing}")
            out.append(RunRow(**row))
        return TradeoffReport(rows=out)


def resolve_output_dir(cfg_dir: str | None, flag_dir: str | None) -> Path:
    """Output dir priority: --out flag, config value, env var, ./petl_lab_out."""
    chosen = flag_dir or cfg_dir or os.environ.get(OUTPUT_DIR_ENV) or "petl_lab_out"
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run_label(spec: PETLSpec) -> str:
    return "+".join(spec.mechanisms) if spec.mechanisms else "none"


def run_setup(cfg: ExperimentConfig, run: Run) -> tuple[ModelConfig, PETLSpec]:
    """The validated model config and insert spec of ``run``."""
    ds = cfg.dataset
    model = _validated(dataclasses.replace(cfg.model,
                                           input_size=(run.frames, ds.height, ds.width)))
    spec = dataclasses.replace(cfg.petl, d_bottle=run.d_bottle, s_adapter=run.s, s_patt=run.s,
                               patt_sites=_sites_tuple(run.sites))
    spec.validate(model)
    return model, spec


def build_run(cfg: ExperimentConfig, index: int, run: Run) -> VideoSwinModel:
    """Run ``index``'s model, frozen, with its inserts (spec ``model.petl_spec``)."""
    model_cfg, spec = run_setup(cfg, run)
    seed = cfg.seed + index
    model = build_model(model_cfg, seed=seed)
    attach_petl(model, spec, seed=seed + 1)
    freeze_backbone(model, spec)
    return model


def _make_splits(cfg: ExperimentConfig, frames: int):
    """The training and held-out datasets of every run with ``frames`` frames."""
    ds = cfg.dataset
    clip_shape = (frames, ds.height, ds.width)
    return (make_dataset(ds.n_classes, ds.per_class, clip_shape, seed=cfg.seed,
                         noise=ds.noise),
            make_dataset(ds.n_classes, ds.eval_per_class, clip_shape,
                         seed=cfg.seed + 9999, noise=ds.noise))


def execute_run(cfg: ExperimentConfig, index: int, run: Run, out_dir: Path,
                train_ds: SyntheticVideoDataset, eval_ds: SyntheticVideoDataset) -> RunRow:
    """Train run ``index`` on the given datasets (read only) and write its history."""
    run_id = f"run{index:03d}"
    run_seed = cfg.seed + index
    model = build_run(cfg, index, run)
    history = train(model, train_ds, cfg.optimizer, seed=run_seed, eval_dataset=eval_ds)
    _write_csv(out_dir / f"history_{run_id}.csv", ("step", "loss"),
               enumerate(history.losses, start=1))
    return RunRow(
        run_id=run_id,
        mechanism=_run_label(model.petl_spec),
        **run._asdict(),
        trainable_params=history.trainable_count,
        trainable_millions=millions(history.trainable_count),
        train_top1=history.final_train_top1,
        eval_top1=history.final_eval_top1,
        wall_seconds=history.wall_seconds,
        seed=run_seed,
    )


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   quiet: bool = False) -> TradeoffReport:
    """Execute the config's ablation cross-product and write all reports."""
    out = resolve_output_dir(cfg.output_dir, out_dir)
    runs = cfg.ablation.combos()
    if not quiet:
        print(f"cross-product: {len(runs)} run(s) -> {out}")

    report = TradeoffReport()
    splits = {}  # frames -> (train, held-out); runs only read them
    for i, run in enumerate(runs):
        if run.frames not in splits:
            splits[run.frames] = _make_splits(cfg, run.frames)
        row = execute_run(cfg, i, run, out, *splits[run.frames])
        if not quiet:
            values = " ".join(f"{name}={value}" for name, value in run._asdict().items())
            print(f"  {row.run_id}: mech={row.mechanism} {values} "
                  f"trainable={row.trainable_params} train_top1={row.train_top1:.3f}")
        report.rows.append(row)

    report.write_csv(out / "report.csv")
    report.write_json(out / "report.json")
    return report


def emit_counts(cfg: ExperimentConfig, out_dir: str | None = None,
                quiet: bool = False) -> dict:
    """Write parameter-count reports without training (plans only, no weights)."""
    out = resolve_output_dir(cfg.output_dir, out_dir)
    # The Swin-B architecture on any clip shape and class count.
    is_swin_b = dataclasses.replace(cfg.model, input_size=SWIN_B.input_size,
                                    num_classes=SWIN_B.num_classes) == SWIN_B

    positions = positional_count_report(cfg.model)
    _write_csv(out / "counts_positions.csv", ("position", "count_exact", "count_millions"),
               ((r.position, r.count_exact, f"{r.count_millions:.2f}") for r in positions))
    total = plan_total(backbone_parameter_plan(cfg.model))
    petl_rows = []
    for i, run in enumerate(cfg.ablation.combos()):
        model_cfg, spec = run_setup(cfg, run)
        trainable = trainable_plan_total(model_cfg, spec)
        petl_rows.append({
            "config_id": f"cfg{i:03d}",
            "mechanism": _run_label(spec),
            **run._asdict(),
            "trainable_params": trainable,
            "trainable_millions": millions(trainable),
            "total_params": total,
            "reference_scale": "swin-b" if is_swin_b else "",
        })
    _write_csv(out / "counts_petl.csv", petl_rows[0].keys(), (r.values() for r in petl_rows))

    if not quiet:
        for row in positions:
            print(f"  {row.position:<14} {row.count_exact:>12,}  {row.count_millions:.2f}M")
        if is_swin_b:
            print("  (model matches the full Swin-B reference scale)")
    return {"positions": positions, "petl": petl_rows,
            "total": total, "swin_b_reference": is_swin_b}


def plot_tradeoff(report: TradeoffReport, path) -> None:
    """Emit (trainable millions, top-1) scatter data grouped by mechanism.

    Rows are sorted by parameter count ascending within each mechanism group;
    the accuracy column prefers the held-out split and falls back to the
    training split when no eval split was run. No rendering happens here.
    """
    if not report.rows:
        raise ConfigError("cannot plot an empty report")
    groups: dict[str, list[RunRow]] = {}
    for row in report.rows:
        groups.setdefault(row.mechanism, []).append(row)
    rows = []
    for mech, group in groups.items():
        for row in sorted(group, key=lambda r: r.trainable_params):
            top1 = row.eval_top1 if row.eval_top1 is not None else row.train_top1
            rows.append((mech, f"{row.trainable_millions:.2f}", top1))
    _write_csv(path, ("mechanism", "trainable_millions", "top1"), rows)


def run_gradcheck(cfg: ExperimentConfig, quiet: bool = False) -> GradCheckResult:
    """Finite-difference the first run's model on two clips of its shape."""
    model = build_run(cfg, 0, cfg.ablation.combos()[0])
    ds = cfg.dataset
    data = make_dataset(ds.n_classes, 1, model.cfg.input_size, seed=cfg.seed, noise=ds.noise)
    err = grad_check(model, data.clips[:2], data.labels[:2])
    if not quiet:
        print(f"gradcheck max relative error: {err:.3e} ({err.entry()})")
    return err
