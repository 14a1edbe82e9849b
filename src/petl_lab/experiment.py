"""Experiment configs, the ablation runner, and trade-off reports.

Config files are YAML with nested sections and a ``schema_version`` field;
unknown keys are hard errors so typos cannot silently change a run, and
every value is type-checked, never coerced: an int must be an int (a bool or
2.7 is not one), a float an int or float, a bool a bool, and a section a
mapping. Any other value is a ``ConfigError``.

The runner executes the ablation cross-product (bottleneck width x branch
scale x insertion sites x frame count) in the calling thread, one run after
another in config order, with per-run seeds ``base_seed + index``. The
training and held-out datasets depend only on the seed and the frame count,
so they are generated once per distinct ``frames`` value and shared by the
runs, which only read them.

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
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .backbone import SWIN_B, SWIN_MICRO, ModelConfig, build_model
from .errors import ConfigError, GeometryError
from .harness import (OptimizerConfig, SyntheticVideoDataset, grad_check, make_dataset,
                      train)
from .petl import PETLSpec, attach_petl
from .registry import (backbone_parameter_plan, count_params, freeze_backbone,
                       head_count, millions, petl_parameter_plan, plan_total,
                       positional_count_report, positional_report_csv)

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "PETL_LAB_OUT"

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
        if self.noise < 0:
            raise ConfigError("dataset noise must be >= 0")


@dataclass(frozen=True)
class AblationAxes:
    d_bottle: tuple[int, ...]
    s: tuple[float, ...]
    sites: tuple[str, ...]
    frames: tuple[int, ...]

    def combos(self):
        return itertools.product(self.d_bottle, self.s, self.sites, self.frames)

    @property
    def size(self) -> int:
        return (len(self.d_bottle) * len(self.s) * len(self.sites) * len(self.frames))


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    model: ModelConfig
    petl: PETLSpec
    dataset: DatasetSpec
    optimizer: OptimizerConfig
    ablation: AblationAxes
    output_dir: str | None = None


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
_ABLATION_SCHEMA = {"d_bottle": [int], "s": [float], "sites": [str], "frames": [int]}

_MODEL_FIELDS = {"input": "input_size", "patch": "patch_size", "dims": "embed_dims",
                 "blocks": "blocks_per_stage", "heads": "heads_per_stage",
                 "window": "window_size", "ffn_ratio": "ffn_ratio",
                 "num_classes": "num_classes"}


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


def _model_from_dict(d: dict) -> ModelConfig:
    base = MODEL_PRESETS.get(d.get("preset", "swin-micro"))
    if base is None:
        raise ConfigError(
            f"unknown model preset '{d['preset']}'; expected {sorted(MODEL_PRESETS)}")
    over = {_MODEL_FIELDS[k]: tuple(v) if isinstance(v, list) else v
            for k, v in d.items() if k != "preset"}
    return _validated(dataclasses.replace(base, **over))


def _validated(model: ModelConfig) -> ModelConfig:
    """``model`` after validation; extents that do not tile are a config error too."""
    try:
        model.validate()
    except GeometryError as exc:
        raise ConfigError(str(exc)) from exc
    return model


def _model_to_dict(cfg: ModelConfig) -> dict:
    return {
        "input": list(cfg.input_size),
        "patch": list(cfg.patch_size),
        "dims": list(cfg.embed_dims),
        "blocks": list(cfg.blocks_per_stage),
        "heads": list(cfg.heads_per_stage),
        "window": list(cfg.window_size),
        "ffn_ratio": cfg.ffn_ratio,
        "num_classes": cfg.num_classes,
    }


def _sites_tuple(name: str) -> tuple[str, ...]:
    sites = _SITE_NAMES.get(name.upper())
    if sites is None:
        raise ConfigError(f"invalid insertion-site value '{name}'; expected one of "
                          f"{sorted(_SITE_NAMES)}")
    return sites


def config_from_dict(raw: dict) -> ExperimentConfig:
    top = _mapping(raw, _TOP_SCHEMA, "top level")
    _require("schema_version" in top, "config is missing 'schema_version'")
    _require(top["schema_version"] == SCHEMA_VERSION,
             f"unsupported schema_version {top['schema_version']} (expected {SCHEMA_VERSION})")

    def section(name: str, schema: dict) -> dict:
        return _mapping(top.get(name, {}), schema, name)

    model = _model_from_dict(section("model", _MODEL_SCHEMA))

    petl_raw = section("petl", _PETL_SCHEMA)
    if "sites" in petl_raw:
        petl_raw["sites"] = _sites_tuple(petl_raw["sites"])
    petl = PETLSpec.from_dict(petl_raw)
    petl.validate(model)

    dataset = DatasetSpec(**section("dataset", _DATASET_SCHEMA))
    dataset.validate()

    optimizer = OptimizerConfig(**section("optimizer", _OPT_SCHEMA))
    optimizer.validate()

    abl_raw = section("ablation", _ABLATION_SCHEMA)
    for axis, values in abl_raw.items():
        _require(len(values) > 0, f"ablation axis '{axis}' must be a non-empty list")
    ablation = AblationAxes(
        d_bottle=tuple(abl_raw.get("d_bottle", [petl.d_bottle])),
        s=tuple(abl_raw.get("s", [petl.s_patt])),
        sites=tuple(x.upper() for x in abl_raw.get("sites", ["".join(petl.patt_sites)])),
        frames=tuple(abl_raw.get("frames", [dataset.frames])),
    )
    for name in ablation.sites:
        _sites_tuple(name)

    return ExperimentConfig(
        seed=top.get("seed", 0),
        model=model,
        petl=petl,
        dataset=dataset,
        optimizer=optimizer,
        ablation=ablation,
        output_dir=top.get("output_dir"),
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "output_dir": cfg.output_dir,
        "model": _model_to_dict(cfg.model),
        "petl": cfg.petl.to_dict(),
        "dataset": dataclasses.asdict(cfg.dataset),
        "optimizer": dataclasses.asdict(cfg.optimizer),
        "ablation": {
            "d_bottle": list(cfg.ablation.d_bottle),
            "s": list(cfg.ablation.s),
            "sites": list(cfg.ablation.sites),
            "frames": list(cfg.ablation.frames),
        },
    }


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
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


@dataclass
class RunRow:
    run_id: str
    mechanism: str
    d_bottle: int
    s: float
    sites: str
    frames: int
    trainable_params: int
    trainable_millions: float
    train_top1: float
    eval_top1: float | None
    wall_seconds: float
    seed: int


# The kind of every value of a report.json row, in the config schemas' terms.
_ROW_SCHEMA = {"run_id": str, "mechanism": str, "d_bottle": int, "s": float, "sites": str,
               "frames": int, "trainable_params": int, "trainable_millions": float,
               "train_top1": float, "eval_top1": (float, None), "wall_seconds": float,
               "seed": int}

REPORT_COLUMNS = ("run_id", "mechanism", "d_bottle", "s", "sites", "frames",
                  "trainable_params", "trainable_millions", "train_top1",
                  "eval_top1", "seed")


@dataclass
class TradeoffReport:
    rows: list[RunRow] = field(default_factory=list)

    def write_csv(self, path) -> None:
        # Wall-clock seconds stay out of the CSV: rerunning the same config
        # must produce byte-identical files.
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(REPORT_COLUMNS)
            for r in self.rows:
                writer.writerow([
                    r.run_id, r.mechanism, r.d_bottle, repr(r.s), r.sites, r.frames,
                    r.trainable_params, f"{r.trainable_millions:.2f}",
                    repr(r.train_top1),
                    "" if r.eval_top1 is None else repr(r.eval_top1),
                    r.seed,
                ])

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


def _combo_spec(cfg: ExperimentConfig, d_bottle: int, s: float, sites: str) -> PETLSpec:
    spec = dataclasses.replace(
        cfg.petl, d_bottle=d_bottle, s_adapter=s, s_patt=s,
        patt_sites=_sites_tuple(sites))
    return spec


def _combo_model_cfg(cfg: ExperimentConfig, frames: int) -> ModelConfig:
    ds = cfg.dataset
    return _validated(dataclasses.replace(
        cfg.model, input_size=(frames, ds.height, ds.width), num_classes=ds.n_classes))


def _make_splits(cfg: ExperimentConfig, frames: int):
    """The training and held-out datasets of every run with ``frames`` frames."""
    ds = cfg.dataset
    clip_shape = (frames, ds.height, ds.width)
    return (make_dataset(ds.n_classes, ds.per_class, clip_shape, seed=cfg.seed,
                         noise=ds.noise),
            make_dataset(ds.n_classes, ds.eval_per_class, clip_shape,
                         seed=cfg.seed + 9999, noise=ds.noise))


def execute_run(cfg: ExperimentConfig, index: int, d_bottle: int, s: float,
                sites: str, frames: int, out_dir: Path,
                train_ds: SyntheticVideoDataset, eval_ds: SyntheticVideoDataset) -> RunRow:
    """Train one combo on the given datasets (read only) and write its history."""
    run_id = f"run{index:03d}"
    run_seed = cfg.seed + index
    model_cfg = _combo_model_cfg(cfg, frames)
    spec = _combo_spec(cfg, d_bottle, s, sites)
    model = build_model(model_cfg, seed=run_seed)
    attach_petl(model, spec, seed=run_seed + 1)
    freeze_backbone(model, spec)

    history = train(model, train_ds, cfg.optimizer, seed=run_seed, eval_dataset=eval_ds)
    history.write_csv(out_dir / f"history_{run_id}.csv")

    trainable = count_params(model.registry, "trainable")
    return RunRow(
        run_id=run_id,
        mechanism=_run_label(spec),
        d_bottle=d_bottle,
        s=s,
        sites=sites,
        frames=frames,
        trainable_params=trainable,
        trainable_millions=millions(trainable),
        train_top1=history.final_train_top1,
        eval_top1=history.final_eval_top1,
        wall_seconds=history.wall_seconds,
        seed=run_seed,
    )


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   seed: int | None = None, quiet: bool = False) -> TradeoffReport:
    """Execute the config's ablation cross-product and write all reports."""
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=int(seed))
    if cfg.model.num_classes != cfg.dataset.n_classes:
        raise ConfigError(
            f"model.num_classes={cfg.model.num_classes} disagrees with "
            f"dataset.n_classes={cfg.dataset.n_classes}")
    out = resolve_output_dir(cfg.output_dir, out_dir)
    combos = list(cfg.ablation.combos())
    if not quiet:
        print(f"cross-product: {len(combos)} run(s) -> {out}")

    report = TradeoffReport()
    splits = {}  # frames -> (train, held-out); runs only read them
    for i, (db, s, sites, frames) in enumerate(combos):
        if frames not in splits:
            splits[frames] = _make_splits(cfg, frames)
        row = execute_run(cfg, i, db, s, sites, frames, out, *splits[frames])
        if not quiet:
            print(f"  {row.run_id}: mech={row.mechanism} d_bottle={row.d_bottle} "
                  f"s={row.s} sites={row.sites} frames={row.frames} "
                  f"trainable={row.trainable_params} train_top1={row.train_top1:.3f}")
        report.rows.append(row)

    report.write_csv(out / "report.csv")
    report.write_json(out / "report.json")
    return report


def emit_counts(cfg: ExperimentConfig, out_dir: str | None = None,
                quiet: bool = False) -> dict:
    """Write parameter-count reports without training (plans only, no weights)."""
    out = resolve_output_dir(cfg.output_dir, out_dir)
    is_swin_b = (cfg.model.embed_dims, cfg.model.blocks_per_stage,
                 cfg.model.heads_per_stage, cfg.model.window_size) == (
                     SWIN_B.embed_dims, SWIN_B.blocks_per_stage,
                     SWIN_B.heads_per_stage, SWIN_B.window_size)

    positional_report_csv(cfg.model, out / "counts_positions.csv")
    positions = positional_count_report(cfg.model)
    total = plan_total(backbone_parameter_plan(cfg.model))
    head = head_count(cfg.model.embed_dims[-1], cfg.model.num_classes)
    petl_rows = []
    for i, (db, s, sites, frames) in enumerate(cfg.ablation.combos()):
        spec = _combo_spec(cfg, db, s, sites)
        spec.validate(cfg.model)
        trainable = plan_total(petl_parameter_plan(cfg.model, spec))
        if spec.tune_head:
            trainable += head
        petl_rows.append({
            "config_id": f"cfg{i:03d}",
            "mechanism": _run_label(spec),
            "d_bottle": db,
            "s": s,
            "sites": sites,
            "frames": frames,
            "trainable_params": trainable,
            "trainable_millions": millions(trainable),
            "total_params": total,
            "reference_scale": "swin-b" if is_swin_b else "",
        })
    with open(out / "counts_petl.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = list(petl_rows[0].keys()) if petl_rows else []
        writer.writerow(header)
        for row in petl_rows:
            writer.writerow([
                row[k] if k not in ("s",) else repr(row[k]) for k in header])

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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["mechanism", "trainable_millions", "top1"])
        for mech in groups:
            for row in sorted(groups[mech], key=lambda r: r.trainable_params):
                top1 = row.eval_top1 if row.eval_top1 is not None else row.train_top1
                writer.writerow([mech, f"{row.trainable_millions:.2f}", repr(top1)])


def run_gradcheck(cfg: ExperimentConfig, quiet: bool = False, eps: float = 1e-5) -> float:
    """Build the config's model, freeze the backbone, and finite-difference it."""
    if cfg.model.num_classes != cfg.dataset.n_classes:
        raise ConfigError("model.num_classes must equal dataset.n_classes for gradcheck")
    ds = make_dataset(cfg.dataset.n_classes, 1,
                      (cfg.dataset.frames, cfg.dataset.height, cfg.dataset.width),
                      seed=cfg.seed, noise=cfg.dataset.noise)
    model = build_model(cfg.model, seed=cfg.seed)
    attach_petl(model, cfg.petl, seed=cfg.seed + 1)
    freeze_backbone(model, cfg.petl)
    err = grad_check(model, ds.clips[:2], ds.labels[:2], eps=eps)
    if not quiet:
        print(f"gradcheck max relative error: {err:.3e}")
    return err
