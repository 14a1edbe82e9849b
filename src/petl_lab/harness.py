"""Synthetic-video fine-tuning harness: data, optimizers, training, checks.

The dataset is a deterministic stand-in for real action-recognition corpora:
each class is a moving-pattern family (drift direction, with texture
frequency taking over once the eight directions are used up), so labels are
recoverable from motion statistics alone. Regeneration with the same seed is
bit-identical.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, NonFiniteError, ShapeError
from .registry import Parameter
from .tensor import Tensor

# Class families cycle through these drift directions (dy, dx).
DRIFT_DIRECTIONS = (
    (0, 1), (0, -1), (1, 0), (-1, 0),
    (1, 1), (-1, -1), (1, -1), (-1, 1),
)

# Denominator floor for the model-level gradient check. Central differences
# at eps=1e-5 on 64-bit floats carry ~1e-10 absolute noise from rounding in
# the two loss evaluations; the floor keeps that oracle noise from dominating
# the ratio for near-zero gradients while still bounding their absolute
# error at 1e-8 (the fault-injection test shows real bugs still trip it).
GRADCHECK_FLOOR = 1e-4

# grad_check refuses this many trainable entries: each costs two loss evaluations.
GRADCHECK_MAX_PARAMS = 50_000


class SyntheticVideoDataset:
    """Deterministic labeled clips; class = moving-pattern family."""

    def __init__(self, clips: np.ndarray, labels: np.ndarray, n_classes: int, seed: int):
        self.clips = clips
        self.labels = labels
        self.n_classes = n_classes
        self.seed = seed

    def __len__(self) -> int:
        return len(self.labels)


def make_dataset(n_classes: int, per_class: int,
                 clip_shape: tuple[int, int, int] = (8, 32, 32),
                 seed: int = 0, noise: float = 0.05) -> SyntheticVideoDataset:
    """Generate ``n_classes * per_class`` moving-grating clips, channels last."""
    if n_classes < 1 or per_class < 1 or any(x < 1 for x in clip_shape):
        raise ConfigError("dataset sizes must be positive")
    t, h, w = clip_shape
    rng = np.random.default_rng(seed)
    ys = np.linspace(0.0, 1.0, h, endpoint=False)[:, None]
    xs = np.linspace(0.0, 1.0, w, endpoint=False)[None, :]
    channel_gain = np.array([1.0, 0.8, 0.6])
    omega = 1.2  # phase advance per frame

    advance = omega * np.arange(t)[:, None, None]
    clips = np.empty((n_classes * per_class, t, h, w, 3))
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
    for c in range(n_classes):
        dy, dx = DRIFT_DIRECTIONS[c % len(DRIFT_DIRECTIONS)]
        freq = 1.5 + 0.75 * (c // len(DRIFT_DIRECTIONS))
        wave = 2.0 * math.pi * freq * (dy * ys + dx * xs)
        for idx in range(c * per_class, (c + 1) * per_class):
            phase0 = rng.uniform(0.0, 2.0 * math.pi)
            frames = np.sin(wave + phase0 - advance)
            np.multiply(frames[..., None], channel_gain, out=clips[idx])
            clips[idx] += rng.normal(0.0, noise, size=clips[idx].shape)
    return SyntheticVideoDataset(clips, labels, n_classes, seed)


@dataclass
class OptimizerConfig:
    kind: str = "adam"  # "sgd" | "sgd-momentum" | "adam"
    lr: float = 1e-3
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    steps: int = 200
    batch_size: int = 16
    eval_every: int = 0  # 0 = evaluate only at the end

    def validate(self) -> None:
        if self.kind not in ("sgd", "sgd-momentum", "adam"):
            raise ConfigError(f"unknown optimizer kind '{self.kind}'")
        if self.lr < 0:
            raise ConfigError("learning rate must be >= 0")
        if self.batch_size < 1 or self.steps < 1:
            raise ConfigError("steps and batch size must be >= 1")
        if self.eval_every < 0:
            raise ConfigError("eval_every must be >= 0 (0 evaluates only at the end)")


class _Sgd:
    def __init__(self, cfg: OptimizerConfig):
        self.lr = cfg.lr

    def step(self, params: list[Parameter]) -> None:
        for p in params:
            if p.tensor.grad is not None:
                p.tensor.data -= self.lr * p.tensor.grad


class _SgdMomentum:
    def __init__(self, cfg: OptimizerConfig):
        self.lr = cfg.lr
        self.mu = cfg.momentum
        self.buf: dict[str, np.ndarray] = {}

    def step(self, params: list[Parameter]) -> None:
        for p in params:
            g = p.tensor.grad
            if g is None:
                continue
            buf = self.buf.get(p.path)
            buf = g.copy() if buf is None else self.mu * buf + g
            self.buf[p.path] = buf
            p.tensor.data -= self.lr * buf


class _Adam:
    def __init__(self, cfg: OptimizerConfig):
        self.lr = cfg.lr
        self.b1 = cfg.beta1
        self.b2 = cfg.beta2
        self.eps = cfg.eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: list[Parameter]) -> None:
        self.t += 1
        c1 = 1.0 - self.b1 ** self.t
        c2 = 1.0 - self.b2 ** self.t
        for p in params:
            g = p.tensor.grad
            if g is None:
                continue
            m = self.m.get(p.path)
            v = self.v.get(p.path)
            m = (1 - self.b1) * g if m is None else self.b1 * m + (1 - self.b1) * g
            v = (1 - self.b2) * g * g if v is None else self.b2 * v + (1 - self.b2) * g * g
            self.m[p.path] = m
            self.v[p.path] = v
            p.tensor.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def make_optimizer(cfg: OptimizerConfig):
    cfg.validate()
    return {"sgd": _Sgd, "sgd-momentum": _SgdMomentum, "adam": _Adam}[cfg.kind](cfg)


@dataclass
class TrainHistory:
    """Everything a run produced: per-step losses and accuracy checkpoints."""

    losses: list[float] = field(default_factory=list)
    evals: list[tuple[int, float, float | None]] = field(default_factory=list)
    trainable_count: int = 0
    wall_seconds: float = 0.0

    @property
    def final_train_top1(self) -> float:
        return self.evals[-1][1]

    @property
    def final_eval_top1(self) -> float | None:
        return self.evals[-1][2]


def _check_labels(labels: np.ndarray, n_classes: int) -> None:
    """Class indices must be integers in [0, n_classes)."""
    if not np.issubdtype(labels.dtype, np.integer):
        raise ShapeError(f"class labels must be integers, got dtype {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ShapeError(f"class labels must lie in [0, {n_classes}), "
                         f"got {labels.min()}..{labels.max()}")


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Summed softmax cross-entropy of logits (..., C) against class indices (...).

    The log-softmax is picked at flat indices ``arange(B) * C + label``, so
    one clip's (C,) logits and an int label give that clip's loss.
    """
    labels = np.asarray(labels)
    *lead, n_classes = logits.data.shape
    if labels.shape != tuple(lead):
        raise ShapeError(f"labels of shape {labels.shape} do not match logits {logits.shape}")
    _check_labels(labels, n_classes)
    flat = T.reshape(T.log_softmax(logits, axis=-1), (-1,))
    picked = T.gather_rows(flat, np.arange(labels.size) * n_classes + labels.reshape(-1))
    return T.mul(T.tsum(picked), -1.0)


def _check_batch(model, clips: np.ndarray, labels: np.ndarray) -> None:
    """Before any forward: at least one clip, and one valid class index per clip."""
    if len(labels) == 0 or len(clips) != len(labels):
        raise ConfigError(f"need at least one clip and one label per clip, "
                          f"got {len(clips)} clips and {len(labels)} labels")
    _check_labels(np.asarray(labels), model.cfg.num_classes)


def _batch_loss(model, clips: np.ndarray, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of a batch of clips, from one forward over the batch."""
    return T.mul(cross_entropy(model.forward(clips), labels), 1.0 / len(labels))


def evaluate(model, dataset: SyntheticVideoDataset,
             batch_size: int = OptimizerConfig.batch_size) -> float:
    """Top-1 accuracy; argmax ties resolve to the lowest class index.

    Clips go through one no-grad forward per chunk of ``batch_size``
    (``clips[s:s + batch_size]``; the last chunk may be shorter). A no-grad
    forward holds no graph, so at a training run's batch size evaluation
    peaks below one of its training steps. Batched logits equal per-clip
    logits bit for bit, so the chunk size never changes the result.
    """
    if len(dataset) == 0:
        raise ConfigError("evaluate on an empty dataset")
    if batch_size < 1:
        raise ConfigError("evaluate batch size must be >= 1")
    hits = 0
    with T.no_grad():
        for s in range(0, len(dataset), batch_size):
            logits = model.forward(dataset.clips[s:s + batch_size]).data
            hits += int((logits.argmax(axis=-1) == dataset.labels[s:s + batch_size]).sum())
    return hits / len(dataset)


def _check_gradients(params: list[Parameter], where: str) -> None:
    """Every gradient is finite: a finite loss can still back-propagate inf."""
    for p in params:
        g = p.tensor.grad
        if g is not None and not np.isfinite(g).all():
            raise NonFiniteError(f"{where}: gradient of '{p.path}' is not finite")


def train(model, dataset: SyntheticVideoDataset, opt: OptimizerConfig, seed: int = 0,
          eval_dataset: SyntheticVideoDataset | None = None) -> TrainHistory:
    """Fine-tune the model's trainable parameters on the dataset.

    Only parameters with gradient tracking enabled are updated; everything
    else is untouched down to the bit. A fixed seed fixes the batch sequence,
    so reruns reproduce the history exactly. A non-finite gradient raises
    :class:`~petl_lab.errors.NonFiniteError` naming its parameter before the
    optimizer writes any weight. Evaluations run in chunks of
    ``opt.batch_size`` clips, so none outgrows a training step.
    """
    opt.validate()
    trainable = model.registry.trainable()
    if not trainable:
        raise ConfigError("model has no trainable parameters")
    _check_batch(model, dataset.clips, dataset.labels)
    optimizer = make_optimizer(opt)
    rng = np.random.default_rng(seed)
    history = TrainHistory(trainable_count=sum(p.count for p in trainable))

    def record_evals(step: int) -> None:
        history.evals.append((
            step,
            evaluate(model, dataset, opt.batch_size),
            None if eval_dataset is None else evaluate(model, eval_dataset, opt.batch_size),
        ))

    start = time.perf_counter()
    for step in range(1, opt.steps + 1):
        batch = rng.integers(0, len(dataset), size=opt.batch_size)
        loss = _batch_loss(model, dataset.clips[batch], dataset.labels[batch])
        model.zero_grads()
        loss.backward()
        _check_gradients(trainable, f"step {step}")
        optimizer.step(trainable)
        history.losses.append(loss.item())
        if opt.eval_every and step % opt.eval_every == 0 and step < opt.steps:
            record_evals(step)
    model.zero_grads()
    record_evals(opt.steps)
    history.wall_seconds = time.perf_counter() - start
    return history


def _batch_loss_value(model, clips: np.ndarray, labels: np.ndarray) -> float:
    """The same mean loss as :func:`_batch_loss`, computed in plain numpy (numeric side).

    One forward per clip, so the numeric gradient also checks the batched
    forward and loss of the analytic side.
    """
    with T.no_grad():
        total = 0.0
        for clip, label in zip(clips, labels):
            logits = model.forward(clip).data
            m = logits.max()
            total += math.log(np.exp(logits - m).sum()) + m - logits[int(label)]
    return total / len(labels)


class GradCheckResult(float):
    """The worst relative error of :func:`grad_check`, a float, and where it was.

    ``path`` names the parameter and ``index`` the entry of its flattened
    array; ``analytic`` and ``numeric`` are the two gradients there.
    """

    def __new__(cls, error: float, path: str, index: int, analytic: float, numeric: float):
        result = super().__new__(cls, error)
        result.path, result.index = path, index
        result.analytic, result.numeric = float(analytic), float(numeric)
        return result

    def entry(self) -> str:
        return (f"worst entry {self.path}[{self.index}]: analytic {self.analytic:.6e}, "
                f"numeric {self.numeric:.6e}")


def grad_check(model, clips: np.ndarray, labels: np.ndarray, eps: float = 1e-5) -> GradCheckResult:
    """Central-difference verification of every trainable parameter.

    Returns the worst relative error
    ``|analytic - numeric| / max(GRADCHECK_FLOOR, |analytic|, |numeric|)``
    over all trainable parameter entries, for the mean cross-entropy loss on
    the given batch, with the entry it came from. A non-finite analytic
    gradient raises :class:`~petl_lab.errors.NonFiniteError` naming its
    parameter; a non-finite numeric gradient returns ``math.inf`` at that
    entry.
    """
    clips = np.asarray(clips, dtype=np.float64)
    labels = np.asarray(labels)
    trainable = model.registry.trainable()
    n_params = sum(p.count for p in trainable)
    if n_params == 0:
        raise ConfigError("gradient check needs at least one trainable parameter")
    if n_params >= GRADCHECK_MAX_PARAMS:
        raise ConfigError(
            f"{n_params} trainable parameters: too many for finite differences "
            f"(limit {GRADCHECK_MAX_PARAMS})")
    _check_batch(model, clips, labels)

    model.zero_grads()
    _batch_loss(model, clips, labels).backward()
    _check_gradients(trainable, "gradient check")
    analytic = {p.path: (np.zeros_like(p.tensor.data) if p.tensor.grad is None
                         else p.tensor.grad.copy())
                for p in trainable}
    model.zero_grads()

    worst = -1.0  # below any error, so the first entry is always kept
    for p in trainable:
        flat = p.tensor.data.reshape(-1)
        a_flat = analytic[p.path].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = _batch_loss_value(model, clips, labels)
            flat[i] = orig - eps
            down = _batch_loss_value(model, clips, labels)
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            if not math.isfinite(numeric):  # its NaN error would compare false below
                return GradCheckResult(math.inf, p.path, i, a_flat[i], numeric)
            # both sides finite: the error is finite, or inf on overflow
            err = abs(a_flat[i] - numeric) / max(GRADCHECK_FLOOR, abs(a_flat[i]), abs(numeric))
            if err > worst:
                worst, entry = err, (p.path, i, a_flat[i], numeric)
    return GradCheckResult(worst, *entry)
