"""Experiment configs, the ablation runner, and trade-off reports.

Config files are YAML with nested sections and a ``schema_version`` field;
unknown keys are hard errors so typos cannot silently change a run. The
runner executes the ablation cross-product (bottleneck width x branch scale
x insertion sites x frame count) with per-run seeds ``base_seed + index``
and emits:

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
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .backbone import SWIN_B, SWIN_MICRO, ModelConfig, build_model
from .errors import ConfigError
from .harness import OptimizerConfig, grad_check, make_dataset, train
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
    parallel: bool = False


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in '{where}' section")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


_MODEL_KEYS = {"preset", "input", "patch", "dims", "blocks", "heads", "window",
               "ffn_ratio", "num_classes"}
_PETL_KEYS = {"mechanisms", "d_bottle", "d_middle", "d_token", "d_prompt",
              "s_adapter", "s_patt", "sites", "tune_head", "attach_stages"}
_DATASET_KEYS = {"n_classes", "per_class", "eval_per_class", "frames",
                 "height", "width", "noise"}
_OPT_KEYS = {"kind", "lr", "momentum", "beta1", "beta2", "eps", "steps",
             "batch_size", "eval_every"}
_ABLATION_KEYS = {"d_bottle", "s", "sites", "frames"}
_TOP_KEYS = {"schema_version", "seed", "output_dir", "model", "petl",
             "dataset", "optimizer", "ablation", "parallel"}


def _model_from_dict(d: dict) -> ModelConfig:
    _check_keys(d, _MODEL_KEYS, "model")
    base = MODEL_PRESETS.get(d.get("preset", "swin-micro"))
    if base is None:
        raise ConfigError(
            f"unknown model preset '{d['preset']}'; expected {sorted(MODEL_PRESETS)}")
    over = {}
    if "input" in d:
        over["input_size"] = tuple(int(x) for x in d["input"])
    if "patch" in d:
        over["patch_size"] = tuple(int(x) for x in d["patch"])
    if "dims" in d:
        over["embed_dims"] = tuple(int(x) for x in d["dims"])
    if "blocks" in d:
        over["blocks_per_stage"] = tuple(int(x) for x in d["blocks"])
    if "heads" in d:
        over["heads_per_stage"] = tuple(int(x) for x in d["heads"])
    if "window" in d:
        over["window_size"] = tuple(int(x) for x in d["window"])
    if "ffn_ratio" in d:
        over["ffn_ratio"] = int(d["ffn_ratio"])
    if "num_classes" in d:
        over["num_classes"] = int(d["num_classes"])
    cfg = dataclasses.replace(base, **over)
    cfg.validate()
    return cfg


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
    sites = _SITE_NAMES.get(str(name).upper())
    if sites is None:
        raise ConfigError(f"invalid insertion-site value '{name}'; expected one of "
                          f"{sorted(_SITE_NAMES)}")
    return sites


def config_from_dict(raw: dict) -> ExperimentConfig:
    _require(isinstance(raw, dict), "config root must be a mapping")
    _check_keys(raw, _TOP_KEYS, "top level")
    _require("schema_version" in raw, "config is missing 'schema_version'")
    _require(raw["schema_version"] == SCHEMA_VERSION,
             f"unsupported schema_version {raw['schema_version']} (expected {SCHEMA_VERSION})")

    model = _model_from_dict(dict(raw.get("model", {})))

    petl_raw = dict(raw.get("petl", {}))
    _check_keys(petl_raw, _PETL_KEYS, "petl")
    if "sites" in petl_raw:
        petl_raw["sites"] = _sites_tuple(petl_raw["sites"])
    petl = PETLSpec.from_dict(petl_raw)
    petl.validate(model)

    ds_raw = dict(raw.get("dataset", {}))
    _check_keys(ds_raw, _DATASET_KEYS, "dataset")
    dataset = DatasetSpec(**{k: (float(v) if k == "noise" else int(v))
                             for k, v in ds_raw.items()})
    dataset.validate()

    opt_raw = dict(raw.get("optimizer", {}))
    _check_keys(opt_raw, _OPT_KEYS, "optimizer")
    opt_kwargs = {}
    for k, v in opt_raw.items():
        if k == "kind":
            opt_kwargs[k] = str(v)
        elif k in ("steps", "batch_size", "eval_every"):
            opt_kwargs[k] = int(v)
        else:
            opt_kwargs[k] = float(v)
    optimizer = OptimizerConfig(**opt_kwargs)
    optimizer.validate()

    abl_raw = dict(raw.get("ablation", {}))
    _check_keys(abl_raw, _ABLATION_KEYS, "ablation")
    for axis, values in abl_raw.items():
        _require(isinstance(values, list) and len(values) > 0,
                 f"ablation axis '{axis}' must be a non-empty list")
    base_sites = "".join(petl.patt_sites)
    ablation = AblationAxes(
        d_bottle=tuple(int(x) for x in abl_raw.get("d_bottle", [petl.d_bottle])),
        s=tuple(float(x) for x in abl_raw.get("s", [petl.s_patt])),
        sites=tuple(str(x).upper() for x in abl_raw.get("sites", [base_sites])),
        frames=tuple(int(x) for x in abl_raw.get("frames", [dataset.frames])),
    )
    for name in ablation.sites:
        _sites_tuple(name)

    return ExperimentConfig(
        seed=int(raw.get("seed", 0)),
        model=model,
        petl=petl,
        dataset=dataset,
        optimizer=optimizer,
        ablation=ablation,
        output_dir=raw.get("output_dir"),
        parallel=bool(raw.get("parallel", False)),
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "output_dir": cfg.output_dir,
        "parallel": cfg.parallel,
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
        with open(path) as fh:
            payload = json.load(fh)
        rows = [RunRow(**row) for row in payload["rows"]]
        return TradeoffReport(rows=rows)


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
    model = dataclasses.replace(
        cfg.model, input_size=(frames, ds.height, ds.width), num_classes=ds.n_classes)
    model.validate()
    return model


def execute_run(cfg: ExperimentConfig, index: int, d_bottle: int, s: float,
                sites: str, frames: int, out_dir: Path) -> RunRow:
    run_id = f"run{index:03d}"
    run_seed = cfg.seed + index
    model_cfg = _combo_model_cfg(cfg, frames)
    spec = _combo_spec(cfg, d_bottle, s, sites)
    spec.validate(model_cfg)

    clip_shape = (frames, cfg.dataset.height, cfg.dataset.width)
    train_ds = make_dataset(cfg.dataset.n_classes, cfg.dataset.per_class,
                            clip_shape, seed=cfg.seed, noise=cfg.dataset.noise)
    eval_ds = make_dataset(cfg.dataset.n_classes, cfg.dataset.eval_per_class,
                           clip_shape, seed=cfg.seed + 9999, noise=cfg.dataset.noise)

    model = build_model(model_cfg, seed=run_seed)
    if spec.mechanisms:
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

    def run(indexed_combo):
        i, (db, s, sites, frames) = indexed_combo
        return execute_run(cfg, i, db, s, sites, frames, out)

    report = TradeoffReport()
    parallel = cfg.parallel and len(combos) > 1
    pool = ThreadPoolExecutor(max_workers=min(4, len(combos))) if parallel else nullcontext()
    with pool:
        for row in (pool.map if parallel else map)(run, enumerate(combos)):  # config order
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
    if cfg.petl.mechanisms:
        attach_petl(model, cfg.petl, seed=cfg.seed + 1)
    freeze_backbone(model, cfg.petl)
    err = grad_check(model, ds.clips[:2], ds.labels[:2], eps=eps)
    if not quiet:
        print(f"gradcheck max relative error: {err:.3e}")
    return err
