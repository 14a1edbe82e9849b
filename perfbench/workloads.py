"""The three workloads, their output checks, and the metrics they yield.

Each workload sets up several times (the median is ``setup_s``), then runs
its job, the user-facing call it exists for: a fixed-length ``harness.train``
for the two fine-tuning workloads and ``experiment.run_experiment`` for
``ablation_parallel``. Held-out evaluation runs before and after the job.

The seed given to the benchmark fixes the generated clips and the batch
order. Backbone and insert weights use fixed seeds, as a pre-trained
checkpoint would, so that the seed varies the inputs and not the model.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import hashlib
import itertools
import math
import time
from pathlib import Path

import numpy as np
import yaml

from petl_lab import backbone, experiment, harness, petl, registry
from petl_lab import tensor as T
from petl_lab.cli import GRADCHECK_TOLERANCE

from conftest import NANO
from reference_impl import ref_forward

import stats

# Oracle tolerance the test suite uses for reference forwards.
REFERENCE_ATOL = 1e-10
MAX_FAILURE_NOTES = 20
# Held-out evaluation runs before and after the job, each time for at least
# this share of --seconds, so that it spans the run and a burst of load on a
# shared host cannot cover all of it.
EVAL_SHARE = 0.15


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, attempted: int, failed: int = 0, why: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(why)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Session:
    """What one benchmark run measured, besides the probe's steps.

    ``seconds`` is the measuring time; None does the minimum fixed work, as
    the traced run does so that its totals compare between versions.
    """

    def __init__(self, seconds: float | None):
        self.start = time.perf_counter()
        self.seconds = seconds
        self.tally = Tally()
        # (start, end) of each call, keyed by the called function's name
        self.windows: dict[str, list[tuple[float, float]]] = {}
        self.tail_steps = 0  # the fixed number of steps the tail is taken over
        self.losses: list[float] = []  # training losses that make up train_loss
        self.evals: list[tuple[int, float]] = []  # (clips, seconds) per evaluate call

    def timed(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.windows.setdefault(fn.__name__, []).append((start, time.perf_counter()))

    def by(self, share: float, at_least: float = 0.0) -> float:
        """The time at which ``share`` of the measuring time has passed, or,
        if later, ``at_least`` of it from now."""
        if self.seconds is None:
            return -math.inf
        return max(self.start + share * self.seconds,
                   time.perf_counter() + at_least * self.seconds)

    def repeat(self, fn, until: float, minimum: int = 1) -> None:
        """Call ``fn`` at least ``minimum`` times, then while another call,
        as long as the last one, would end by ``until``."""
        done = 0
        last = 0.0
        while done < minimum or time.perf_counter() + last <= until:
            start = time.perf_counter()
            fn()
            last = time.perf_counter() - start
            done += 1


# -- output checks ---------------------------------------------------------------


def frozen_digests(model) -> dict[str, bytes]:
    return {p.path: hashlib.blake2b(np.ascontiguousarray(p.tensor.data)).digest()
            for p in model.registry if p.frozen}


def fine_tune(session: Session, model, dataset, opt: harness.OptimizerConfig,
              seed: int) -> None:
    """One fixed-length ``harness.train`` call; each step is one operation.

    A step fails when training raises, when its loss is not finite, or when
    any frozen tensor is not bitwise unchanged afterwards.
    """
    tally = session.tally
    before = frozen_digests(model)
    try:
        history = session.timed(harness.train, model, dataset, opt, seed=seed)
    except Exception as exc:  # counted as failed steps, the run goes on
        tally.record(opt.steps, opt.steps, f"train raised {exc!r}")
        return
    bad = sum(not math.isfinite(x) for x in history.losses)
    tally.record(opt.steps, bad, f"{bad} non-finite training losses")
    changed = [path for path, digest in frozen_digests(model).items()
               if before.get(path) != digest]
    if changed:
        tally.record(0, opt.steps - bad, f"frozen tensors changed: {changed[:3]}")
    session.losses += history.losses
    session.tail_steps += opt.steps


def evaluate_heldout(session: Session, model, heldout, until: float) -> None:
    """Evaluate the held-out clips, one ``harness.evaluate`` call per clip, in
    turn until ``until`` and at least once each; each clip is one operation.

    A call per clip lets the evaluation stop close to ``until`` even where a
    whole pass takes seconds (Swin-B). The model does not change between
    these calls, so each clip must get the same top-1, 0 or 1, every time.
    """
    clips = [harness.SyntheticVideoDataset(heldout.clips[i:i + 1], heldout.labels[i:i + 1],
                                           heldout.n_classes, heldout.seed)
             for i in range(len(heldout))]
    first: dict[int, float] = {}
    turn = itertools.cycle(range(len(clips)))

    def one_clip():
        i = next(turn)
        start = time.perf_counter()
        try:
            top1 = harness.evaluate(model, clips[i])
        except Exception as exc:  # counted as a failed clip, the run goes on
            session.tally.record(1, 1, f"evaluate raised {exc!r}")
            return
        session.evals.append((1, time.perf_counter() - start))
        ok = top1 in (0.0, 1.0) and first.setdefault(i, top1) == top1
        session.tally.record(1, 0 if ok else 1,
                             f"clip {i}: evaluate gave {top1!r}, first {first[i]!r}")

    session.repeat(one_clip, until, minimum=len(clips))


def check_reference(tally: Tally, model, clips) -> None:
    """Logits of each clip must match the plain-numpy oracle forward."""
    for clip in clips:
        try:
            with T.no_grad():
                ours = model.forward(clip).data
            diff = float(np.abs(ours - ref_forward(model, clip)).max())
        except Exception as exc:  # counted as a failed clip
            tally.record(1, 1, f"reference check raised {exc!r}")
            continue
        tally.record(1, 0 if diff <= REFERENCE_ATOL else 1,
                     f"logits differ from the oracle by {diff:.3e}")


def backward_point():
    """A fixed point for checking the program's backward rules.

    The fine-tune workloads' own mechanisms (parallel adapter and PATT) on
    the test suite's NANO config, with re-randomized inserts, because
    zero-initialized up-projections would pin many gradients at exactly
    zero. The point does not follow the benchmark seed: central differences
    fail wherever an adapter ReLU input lies within ``eps`` of its kink,
    though the analytic gradient is right there, and a seeded point meets
    such a kink on some seeds. One check takes 1-2 s.
    """
    spec = petl.PETLSpec(mechanisms=("adapter_parallel", "patt"), d_bottle=1,
                         patt_sites=("K",), tune_head=False)
    model = backbone.build_model(NANO, seed=5)
    petl.attach_petl(model, spec, seed=6)
    registry.freeze_backbone(model, spec)
    rng = np.random.default_rng(7)
    for p in model.registry:
        if not p.frozen:
            p.tensor.data[...] = rng.normal(scale=0.1, size=p.shape)
    return model, harness.make_dataset(NANO.num_classes, 1, NANO.input_size, seed=8)


def check_backward(tally: Tally) -> None:
    """One ``harness.grad_check`` at :func:`backward_point`; it must return
    below the CLI tolerance. It runs outside any timed or traced part of a
    run: no other check catches a broken backward rule."""
    model, point = backward_point()
    try:
        err = harness.grad_check(model, point.clips[:1], point.labels[:1])
    except Exception as exc:  # counted as a failed gradient check
        tally.record(1, 1, f"grad_check raised {exc!r}")
        return
    ok = math.isfinite(err) and err < GRADCHECK_TOLERANCE
    tally.record(1, 0 if ok else 1, f"grad_check returned {err:.3e} >= {GRADCHECK_TOLERANCE}")


# -- workloads ------------------------------------------------------------------------


def swin_bapat() -> petl.PETLSpec:
    return petl.swin_bapat_spec(d_bottle=16, s=0.8, sites=("K", "V"), tune_head=True)


class FineTune:
    """Swin-BAPAT fine-tuning with Adam, then held-out evaluation."""

    job = "train"
    run_span = "harness.train"

    def __init__(self, cfg, per_class: int, heldout_per_class: int, batch: int,
                 steps: int, lr: float, setup_reps: int, reference_clips: int):
        self.cfg = cfg
        self.per_class = per_class
        self.heldout_per_class = heldout_per_class
        self.opt = harness.OptimizerConfig(kind="adam", lr=lr, steps=steps,
                                           batch_size=batch)
        self.setup_reps = setup_reps
        self.reference_clips = reference_clips

    def setup(self, seed: int) -> dict:
        spec = swin_bapat()
        model = petl.build_swin_bapat(self.cfg, spec, seed=0)
        registry.freeze_backbone(model, spec)
        shape = self.cfg.input_size
        classes = self.cfg.num_classes
        return {"model": model,
                "train": harness.make_dataset(classes, self.per_class, shape, seed=seed),
                "heldout": harness.make_dataset(classes, self.heldout_per_class, shape,
                                                seed=seed + 9999)}

    def measure(self, session: Session, state: dict, seed: int) -> None:
        model, heldout = state["model"], state["heldout"]
        evaluate_heldout(session, model, heldout, session.by(EVAL_SHARE))
        fine_tune(session, model, state["train"], self.opt, seed)
        evaluate_heldout(session, model, heldout, session.by(1.0, EVAL_SHARE))
        check_reference(session.tally, model, heldout.clips[:self.reference_clips])

    def probe_input(self, state: dict):
        return state["model"], state["heldout"].clips[0]


ABLATION_CONFIG = {
    "schema_version": 1,
    "parallel": True,
    "model": {"preset": "swin-micro"},
    "petl": {"mechanisms": ["adapter_parallel", "patt"], "d_bottle": 16,
             "s_adapter": 0.8, "s_patt": 0.8, "sites": "KV", "tune_head": True},
    "dataset": {"n_classes": 4, "per_class": 4, "eval_per_class": 2},
    "optimizer": {"kind": "adam", "lr": 0.001, "steps": 8, "batch_size": 4},
    "ablation": {"d_bottle": [8, 16], "sites": ["KV", "QKV"]},
}

_SITES = {"KV": ("K", "V"), "QKV": ("Q", "K", "V")}


def expected_trainable(cfg, d_bottle: int, s: float, sites: str, frames: int) -> int:
    """Trainable count of one ablation run, from the shape plan alone."""
    ds = cfg.dataset
    model_cfg = dataclasses.replace(cfg.model, input_size=(frames, ds.height, ds.width),
                                    num_classes=ds.n_classes)
    spec = dataclasses.replace(cfg.petl, d_bottle=d_bottle, s_adapter=s, s_patt=s,
                               patt_sites=_SITES[sites])
    head = registry.head_count(model_cfg.embed_dims[-1], model_cfg.num_classes)
    return registry.plan_total(registry.petl_parameter_plan(model_cfg, spec)) + head


class AblationParallel:
    """A 4-run Swin-BAPAT cross-product (d_bottle x sites) in the thread pool.

    Each run is one operation. A run fails when its trainable count differs
    from the shape plan, a training loss is not finite, or ``report.csv``
    differs from the first call's. The runs build, attach, freeze, generate
    data and evaluate inside the pool, where those steps count in ``job_s``.
    Set-up parses the config, then builds the configured model and the
    held-out split as a run does, which the held-out evaluation around the
    calls uses: the evaluate calls made inside the pool, 8 or 16 clips
    each, take turns on the GIL with the other runs' training, and the
    fastest of them moved by 35% between seeds.
    """

    job = "run_experiment"
    run_span = "experiment.execute_run"
    setup_reps = 7
    calls_for_tail = 2

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def setup(self, seed: int) -> dict:
        raw = copy.deepcopy(ABLATION_CONFIG)
        raw["seed"] = seed
        path = self.work_dir / "ablation.yaml"
        path.write_text(yaml.safe_dump(raw))
        cfg = experiment.parse_config(path)
        model = backbone.build_model(cfg.model, seed=cfg.seed)
        petl.attach_petl(model, cfg.petl, seed=cfg.seed + 1)
        registry.freeze_backbone(model, cfg.petl)
        ds = cfg.dataset
        heldout = harness.make_dataset(ds.n_classes, ds.eval_per_class, cfg.model.input_size,
                                       seed=cfg.seed + 9999, noise=ds.noise)
        return {"cfg": cfg, "model": model, "heldout": heldout}

    def measure(self, session: Session, state: dict, seed: int) -> None:
        cfg, model, heldout = state["cfg"], state["model"], state["heldout"]
        combos = list(cfg.ablation.combos())
        reports: list[bytes | None] = []  # report.csv of each call, None if it raised

        def one_call():
            out = self.work_dir / f"call{len(reports)}"
            try:
                report = session.timed(experiment.run_experiment, cfg, out_dir=str(out),
                                       quiet=True)
            except Exception as exc:  # counted as failed runs
                reports.append(None)
                session.tally.record(len(combos), len(combos),
                                     f"run_experiment raised {exc!r}")
                return
            reports.append((out / "report.csv").read_bytes())
            if reports[-1] != reports[0]:
                session.tally.record(len(combos), len(combos),
                                     f"report.csv of call {len(reports)} differs")
                return
            for row, (d_bottle, s, sites, frames) in zip(report.rows, combos):
                with open(out / f"history_{row.run_id}.csv", newline="") as fh:
                    history = [float(r["loss"]) for r in csv.DictReader(fh)]
                if len(reports) == 1:
                    session.losses += history
                want = expected_trainable(cfg, d_bottle, s, sites, frames)
                ok = (row.trainable_params == want
                      and all(math.isfinite(x) for x in history)
                      and 0.0 <= row.train_top1 <= 1.0)
                session.tally.record(1, 0 if ok else 1,
                                     f"{row.run_id}: trainable {row.trainable_params} "
                                     f"vs plan {want}, or bad loss/accuracy")
            missing = len(combos) - len(report.rows)
            session.tally.record(missing, missing, "missing report rows")

        evaluate_heldout(session, model, heldout, session.by(EVAL_SHARE))
        session.repeat(one_call, session.by(1.0), minimum=self.calls_for_tail)
        session.tail_steps = self.calls_for_tail * len(combos) * cfg.optimizer.steps
        evaluate_heldout(session, model, heldout, session.by(1.0, EVAL_SHARE))

    def probe_input(self, state: dict):
        return state["model"], state["heldout"].clips[0]


def make(name: str, work_dir: Path):
    if name == "micro_finetune":
        return FineTune(backbone.SWIN_MICRO, per_class=32, heldout_per_class=8, batch=16,
                        steps=60, lr=1e-3, setup_reps=7, reference_clips=2)
    if name == "swinb_finetune":
        # At batch 1 a step's loss is one clip's; at lr 1e-3 how fast the four
        # clips are memorized varies so much between seeds that the mean
        # training loss spreads by about 40%, against about 10% at 1e-4.
        cfg = dataclasses.replace(backbone.SWIN_B, input_size=(8, 64, 64), num_classes=4)
        return FineTune(cfg, per_class=1, heldout_per_class=1, batch=1, steps=24,
                        lr=1e-4, setup_reps=3, reference_clips=0)
    if name == "ablation_parallel":
        return AblationParallel(work_dir)
    raise KeyError(name)


WORKLOADS = ("micro_finetune", "swinb_finetune", "ablation_parallel")


def end_to_end(workload, session: Session, probe, setup_s: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics, and the details needed to read them."""
    step_ms = probe.step_ms()
    tail = stats.tail(step_ms[:session.tail_steps])
    jobs = session.windows.get(workload.job, [])
    eval_clips = sum(clips for clips, _ in session.evals)
    eval_seconds = sum(seconds for _, seconds in session.evals)
    if tail is None or not session.losses or not eval_clips or not jobs:
        raise RuntimeError("the run did not produce every end-to-end metric")
    metrics = {
        "setup_s": (stats.median(setup_s), "s"),
        "job_s": (stats.median([end - start for start, end in jobs]), "s"),
        "train_step_ms": (stats.median(step_ms), "ms"),
        "train_step_ms_tail": (tail[0], "ms"),
        # The fastest call's rate. Every call does the same work, and on a
        # shared host its time grows with the load other tenants put on the
        # core: the median per-clip time of a run moved by 30% between seeds
        # on micro, the fastest by 7%.
        "eval_clips_per_s": (max(clips / seconds for clips, seconds in session.evals),
                             "clips/s"),
        "train_loss": (sum(session.losses) / len(session.losses), "nats"),
    }
    details = {
        "train_step_ms_tail": {"percentile": tail[1], "samples": tail[2]},
        "step_ms": step_ms,
        "eval_clips_per_s_overall": eval_clips / eval_seconds,
        "evaluate_calls_ms": [seconds * 1e3 for _, seconds in session.evals],
        "samples": {"setup": len(setup_s), "jobs": len(jobs),
                    "steps": len(step_ms), "evaluate_calls": len(session.evals),
                    "eval_clips": eval_clips},
    }
    return metrics, details
