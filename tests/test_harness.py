import gc
import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from petl_lab import (SWIN_MICRO, ConfigError, ModelConfig, NonFiniteError, OptimizerConfig,
                      ParameterRegistry, PETLLabError, PETLSpec, Tensor, attach_petl,
                      build_model, build_swin_bapat, cross_entropy, evaluate,
                      freeze_backbone, grad_check, make_dataset, train)
from petl_lab import tensor as tensor_mod
from petl_lab import tensor as T
from petl_lab import experiment, harness
from petl_lab.harness import SyntheticVideoDataset, _batch_loss, make_optimizer

from conftest import TINY, nan_add


# -- synthetic dataset ------------------------------------------------------------


def test_dataset_regeneration_is_bitwise_identical():
    a = make_dataset(4, 8, (4, 16, 16), seed=123)
    b = make_dataset(4, 8, (4, 16, 16), seed=123)
    assert a.clips.tobytes() == b.clips.tobytes()
    assert np.array_equal(a.labels, b.labels)
    c = make_dataset(4, 8, (4, 16, 16), seed=124)
    assert a.clips.tobytes() != c.clips.tobytes()


# sha256 over the little-endian clips, then labels, of make_dataset(9, 2, shape,
# seed=11): nine classes reach the second texture frequency
DATASET_DIGESTS = {
    (8, 32, 32): "7c25b589525a29f5c7e7ea66c14579fae0e47126f1fcab6c2fbc89dd800288c2",
    (8, 64, 64): "bd3a861145e8bf801ca9f70c0ad2340dffef8781f0a8377b3cfccde31b589d8e",
    (4, 8, 8): "355d205a07293d55c6092781bd450ec3f1e5cc35c6185d1003001802c5233023",
}


@pytest.mark.parametrize("shape", DATASET_DIGESTS)
def test_dataset_bytes_pinned(shape):
    ds = make_dataset(9, 2, shape, seed=11)
    digest = hashlib.sha256(ds.clips.astype("<f8").tobytes())
    digest.update(ds.labels.astype("<i8").tobytes())
    assert digest.hexdigest() == DATASET_DIGESTS[shape]


def test_dataset_balance_and_shapes():
    ds = make_dataset(4, 32, (8, 32, 32), seed=0)
    assert len(ds) == 128
    assert ds.clips.shape == (128, 8, 32, 32, 3)
    counts = np.bincount(ds.labels, minlength=4)
    assert np.array_equal(counts, [32, 32, 32, 32])


def test_dataset_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        make_dataset(0, 4, (4, 8, 8), seed=0)


def motion_features(clip):
    """Least-squares optical-flow drift plus a texture-frequency proxy."""
    g = clip.mean(axis=-1)
    gx = np.gradient(g, axis=2)
    gy = np.gradient(g, axis=1)
    gt = np.gradient(g, axis=0)
    a = np.array([[np.sum(gx * gx), np.sum(gx * gy)],
                  [np.sum(gx * gy), np.sum(gy * gy)]])
    b = -np.array([np.sum(gx * gt), np.sum(gy * gt)])
    flow = np.linalg.solve(a + 1e-9 * np.eye(2), b)
    return np.array([flow[0], flow[1], np.mean(np.abs(gx)) + np.mean(np.abs(gy))])


def test_classes_recoverable_from_motion_statistics():
    # nearest-centroid on hand-written motion features beats chance by a margin
    ds = make_dataset(4, 16, (8, 16, 16), seed=7)
    feats = np.stack([motion_features(c) for c in ds.clips])
    train_mask = np.arange(len(ds)) % 2 == 0
    centroids = np.stack([feats[train_mask & (ds.labels == c)].mean(axis=0)
                          for c in range(4)])
    test_feats = feats[~train_mask]
    test_labels = ds.labels[~train_mask]
    preds = np.argmin(((test_feats[:, None, :] - centroids[None]) ** 2).sum(-1), axis=1)
    accuracy = (preds == test_labels).mean()
    assert accuracy > 0.5  # chance is 0.25


# -- evaluate -----------------------------------------------------------------------


class OracleModel:
    """Emits the one-hot of each clip's true label (looked up by clip identity)."""

    def __init__(self, dataset, n_classes):
        self.table = {ds_clip.tobytes(): int(label)
                      for ds_clip, label in zip(dataset.clips, dataset.labels)}
        self.n = n_classes

    def forward(self, clips):
        """Clips (B, ...) to logits (B, n_classes)."""
        onehot = np.zeros((len(clips), self.n))
        for row, clip in zip(onehot, np.asarray(clips)):
            row[self.table[clip.tobytes()]] = 1.0
        return Tensor(onehot)


class ConstantModel:
    def __init__(self, n_classes):
        self.n = n_classes

    def forward(self, clips):
        """Clips (B, ...) to all-zero logits (B, n_classes)."""
        return Tensor(np.zeros((len(clips), self.n)))


def test_evaluate_perfect_model_is_one():
    ds = make_dataset(3, 4, (2, 8, 8), seed=1)
    assert evaluate(OracleModel(ds, 3), ds) == 1.0


def test_evaluate_constant_model_ties_to_lowest_index():
    ds = make_dataset(4, 8, (2, 8, 8), seed=2)
    assert evaluate(ConstantModel(4), ds) == pytest.approx(1 / 4)


def test_evaluate_matches_scripted_accuracy(rng):
    model = build_model(TINY, seed=3)
    ds = make_dataset(3, 4, TINY.input_size, seed=3)
    got = evaluate(model, ds)
    with T.no_grad():
        logits = np.stack([model.forward(c).data for c in ds.clips])
    scripted = float((logits.argmax(axis=1) == ds.labels).mean())
    assert got == scripted


def counting_forwards(monkeypatch, model):
    """Record how many clips each of ``model``'s forwards takes, and whether it
    ran without gradient tracking."""
    calls = []
    forward = model.forward

    def counted(clips):
        calls.append((int(np.prod(np.shape(clips)[:-4])), not T.grad_enabled()))
        return forward(clips)

    monkeypatch.setattr(model, "forward", counted)
    return calls


def test_evaluate_forwards_no_grad_chunks(monkeypatch):
    # 15 clips at batch_size=4: chunks of 4, 4, 4 and a partial 3
    model = build_model(TINY, seed=3)
    ds = make_dataset(3, 5, TINY.input_size, seed=5)
    with T.no_grad():
        logits = np.stack([model.forward(c).data for c in ds.clips])
    scripted = float((logits.argmax(axis=1) == ds.labels).mean())
    calls = counting_forwards(monkeypatch, model)
    assert evaluate(model, ds, batch_size=4) == scripted
    assert calls == [(4, True), (4, True), (4, True), (3, True)]


def test_train_evaluates_at_most_a_batch_at_once(monkeypatch):
    model = _head_only_model(seed=6)
    ds = make_dataset(3, 3, TINY.input_size, seed=6)
    held_out = make_dataset(3, 1, TINY.input_size, seed=7)
    opt = OptimizerConfig(lr=1e-3, steps=2, batch_size=2, eval_every=1)
    calls = counting_forwards(monkeypatch, model)
    train(model, ds, opt, seed=6, eval_dataset=held_out)
    evaluated = [n for n, no_grad in calls if no_grad]
    # two evaluation points, each over the 9 training and 3 held-out clips
    assert sum(evaluated) == 2 * (len(ds) + len(held_out))
    assert max(evaluated) <= opt.batch_size
    assert [n for n, no_grad in calls if not no_grad] == [opt.batch_size] * opt.steps


def test_evaluate_rejects_bad_batch_size():
    ds = make_dataset(3, 1, (2, 8, 8), seed=1)
    with pytest.raises(ConfigError, match="batch size"):
        evaluate(ConstantModel(3), ds, batch_size=0)


# -- training ----------------------------------------------------------------------


def _head_only_model(seed=0, cfg=TINY):
    model = build_model(cfg, seed=seed)
    spec = PETLSpec(mechanisms=(), tune_head=True)
    freeze_backbone(model, spec)
    return model


def test_zero_lr_changes_nothing():
    model = _head_only_model(seed=4)
    before = {p.path: p.tensor.data.copy() for p in model.registry}
    ds = make_dataset(1, 1, TINY.input_size, seed=4)  # one clip: fixed batch
    hist = train(model, ds, OptimizerConfig(lr=0.0, steps=5, batch_size=2), seed=4)
    for p in model.registry:
        assert p.tensor.data.tobytes() == before[p.path].tobytes(), p.path
    assert len(set(hist.losses)) == 1  # constant loss on the constant batch


def test_training_reduces_loss():
    from petl_lab import SWIN_MICRO
    model = build_swin_bapat(SWIN_MICRO, d_bottle=8, s=0.8, tune_head=True, seed=5)
    freeze_backbone(model, model.petl_spec)
    ds = make_dataset(4, 8, SWIN_MICRO.input_size, seed=5)
    hist = train(model, ds, OptimizerConfig(lr=1e-3, steps=25, batch_size=8), seed=5)
    assert hist.losses[-1] < hist.losses[0]
    assert hist.trainable_count == sum(
        p.count for p in model.registry if not p.frozen)


def test_frozen_tensors_bitwise_constant_through_training():
    spec = PETLSpec(mechanisms=("adapter_parallel", "patt"), d_bottle=2,
                    tune_head=True)
    model = build_model(TINY, seed=6)
    attach_petl(model, spec, seed=7)
    freeze_backbone(model, spec)
    frozen_before = {p.path: p.tensor.data.copy() for p in model.registry if p.frozen}
    ds = make_dataset(3, 4, TINY.input_size, seed=6)
    train(model, ds, OptimizerConfig(lr=1e-2, steps=10, batch_size=4), seed=6)
    changed = [p.path for p in model.registry
               if not p.frozen and ".petl." in p.path
               and p.tensor.data.tobytes() != b""]
    for p in model.registry:
        if p.frozen:
            assert p.tensor.data.tobytes() == frozen_before[p.path].tobytes(), p.path
    assert changed  # training actually moved the inserts


def test_training_is_deterministic():
    def run():
        model = _head_only_model(seed=8)
        ds = make_dataset(3, 4, TINY.input_size, seed=8)
        return train(model, ds, OptimizerConfig(lr=1e-3, steps=8, batch_size=4),
                     seed=8)
    a, b = run(), run()
    assert a.losses == b.losses
    assert a.evals[-1][1] == b.evals[-1][1]


def test_training_needs_trainable_parameters():
    model = build_model(TINY, seed=9)
    freeze_backbone(model, PETLSpec(mechanisms=(), tune_head=False))
    ds = make_dataset(3, 2, TINY.input_size, seed=9)
    with pytest.raises(ConfigError):
        train(model, ds, OptimizerConfig(steps=1, batch_size=1), seed=9)


class OverflowProbe:
    """Logits ``(scale * 1e200) * 1e200 + bias`` with ``scale = 1e-200``: the
    logits and the loss are finite, but the gradient of ``scale`` is 1e400
    times the logits' gradient, which overflows to inf."""

    def __init__(self, n_classes):
        self.cfg = SimpleNamespace(num_classes=n_classes)
        self.registry = ParameterRegistry()
        self.bias = Tensor(np.linspace(0.0, 1.0, n_classes), requires_grad=True)
        self.scale = Tensor(np.full(n_classes, 1e-200), requires_grad=True)
        self.registry.register("probe.bias", self.bias)
        self.registry.register("probe.scale", self.scale)

    def forward(self, clips):
        """Clips (B, ...) to logits (B, n_classes)."""
        rows = T.broadcast_to(self.scale, (len(clips), self.scale.size))
        return T.add(T.mul(T.mul(rows, 1e200), 1e200), self.bias)

    def zero_grads(self):
        for p in self.registry:
            p.tensor.zero_grad()


def test_nonfinite_gradient_raises_before_any_weight_moves():
    model = OverflowProbe(3)
    ds = SyntheticVideoDataset(np.zeros((3, 2)), np.arange(3), 3, seed=0)
    before = {p.path: p.tensor.data.tobytes() for p in model.registry}
    with (np.errstate(over="ignore", invalid="ignore"),
          pytest.raises(NonFiniteError, match="'probe.scale'")):
        train(model, ds, OptimizerConfig(kind="adam", steps=2, batch_size=2), seed=0)
    for p in model.registry:
        assert p.tensor.data.tobytes() == before[p.path], p.path


def test_s_zero_training_equals_head_only_exactly():
    # zero-scaled inserts receive zero gradients, so the whole run matches
    # head-only tuning bit for bit
    ds = make_dataset(3, 4, TINY.input_size, seed=10)
    opt = OptimizerConfig(lr=1e-3, steps=6, batch_size=4)

    head_only = _head_only_model(seed=10)
    hist_head = train(head_only, ds, opt, seed=10)

    bapat = build_swin_bapat(TINY, d_bottle=2, s=0.0, tune_head=True, seed=10)
    freeze_backbone(bapat, bapat.petl_spec)
    hist_bapat = train(bapat, ds, opt, seed=10)

    assert hist_head.losses == hist_bapat.losses
    head_w = head_only.registry.get("head.weight").tensor.data
    assert head_w.tobytes() == bapat.registry.get("head.weight").tensor.data.tobytes()


def test_bapat_capacity_at_least_head_only():
    ds = make_dataset(4, 8, (8, 32, 32), seed=11)
    opt = OptimizerConfig(lr=2e-3, steps=30, batch_size=8)
    from petl_lab import SWIN_MICRO

    head_only = _head_only_model(seed=11, cfg=SWIN_MICRO)
    top_head = train(head_only, ds, opt, seed=11).final_train_top1

    bapat = build_swin_bapat(SWIN_MICRO, d_bottle=8, s=0.8, tune_head=True, seed=11)
    freeze_backbone(bapat, bapat.petl_spec)
    top_bapat = train(bapat, ds, opt, seed=11).final_train_top1

    assert top_bapat >= top_head


def test_history_csv(tmp_path, monkeypatch):
    # the history file `run` writes for a head-only run on TINY
    histories = []

    def recorded(*args, **kwargs):
        histories.append(train(*args, **kwargs))
        return histories[-1]

    monkeypatch.setattr(experiment, "train", recorded)
    cfg = experiment.config_from_dict({
        "schema_version": 1, "seed": 12,
        "model": {"patch": list(TINY.patch_size), "dims": list(TINY.embed_dims),
                  "blocks": list(TINY.blocks_per_stage), "heads": list(TINY.heads_per_stage),
                  "window": list(TINY.window_size), "num_classes": TINY.num_classes},
        "petl": {"mechanisms": [], "tune_head": True},
        "dataset": {"n_classes": 3, "per_class": 2, "eval_per_class": 1, "frames": 4},
        "optimizer": {"lr": 1e-3, "steps": 3, "batch_size": 2}})
    assert cfg.model == TINY
    experiment.run_experiment(cfg, out_dir=tmp_path, quiet=True)
    hist, = histories
    lines = (tmp_path / "history_run000.csv").read_text().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == hist.losses[0]


# -- optimizers ---------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["sgd", "sgd-momentum", "adam"])
def test_optimizers_apply_updates(kind, rng):
    reg = ParameterRegistry()
    t = Tensor(rng.normal(size=4), requires_grad=True)
    p = reg.register("w", t)
    opt = make_optimizer(OptimizerConfig(kind=kind, lr=0.1))
    before = t.data.copy()
    t.grad = np.ones(4)
    opt.step([p])
    assert not np.array_equal(t.data, before)
    t.grad = None
    moved = t.data.copy()
    opt.step([p])  # no grad: no movement
    assert np.array_equal(t.data, moved)


def test_unknown_optimizer_rejected():
    with pytest.raises(ConfigError):
        make_optimizer(OptimizerConfig(kind="rmsprop"))


def test_optimizer_validation():
    with pytest.raises(ConfigError):
        OptimizerConfig(lr=-1.0).validate()
    with pytest.raises(ConfigError):
        OptimizerConfig(batch_size=0).validate()


# -- gradient checking -----------------------------------------------------------


class LinearProbe:
    """Logits are an exactly linear map of each flattened clip."""

    def __init__(self, in_dim, n_classes, seed):
        rng = np.random.default_rng(seed)
        self.cfg = SimpleNamespace(num_classes=n_classes)
        self.registry = ParameterRegistry()
        self.w = Tensor(rng.normal(scale=0.1, size=(in_dim, n_classes)),
                        requires_grad=True)
        self.b = Tensor(np.zeros(n_classes), requires_grad=True)
        self.registry.register("probe.weight", self.w)
        self.registry.register("probe.bias", self.b)

    def forward(self, clips):
        """Clips (..., in_dim) to logits (..., n_classes)."""
        clips = np.asarray(clips)
        x = Tensor(clips.reshape(-1, self.w.shape[0]))
        logits = T.add(T.matmul(x, self.w), self.b)
        return T.reshape(logits, (*clips.shape[:-1], self.b.size))

    def zero_grads(self):
        for p in self.registry:
            p.tensor.zero_grad()


def test_grad_check_linear_model():
    # inputs bounded away from zero keep every weight's gradient healthy,
    # so the oracle's rounding noise stays far below the 1e-8 bar
    rng = np.random.default_rng(13)
    u = rng.normal(size=(2, 96))
    clips = np.sign(u) * (0.5 + np.abs(u))
    model = LinearProbe(96, 3, seed=13)
    err = grad_check(model, clips, np.array([0, 2]), eps=1e-5)
    assert err < 1e-8


def test_grad_check_fails_on_a_nan_analytic_gradient(monkeypatch):
    # a NaN error compares false with the worst so far, so it was skipped
    model = LinearProbe(6, 3, seed=16)
    clips = np.random.default_rng(16).normal(size=(2, 6))
    monkeypatch.setattr(tensor_mod, "add", nan_add)
    with pytest.raises(NonFiniteError, match="gradient check: gradient of 'probe.weight'"):
        grad_check(model, clips, np.array([0, 2]))


def test_grad_check_returns_inf_on_a_nonfinite_numeric_gradient(monkeypatch):
    model = LinearProbe(6, 3, seed=16)
    clips = np.random.default_rng(16).normal(size=(2, 6))
    loss_value = harness._batch_loss_value
    calls = []

    def infinite_once(*args):
        calls.append(args)
        return math.inf if len(calls) == 1 else loss_value(*args)

    monkeypatch.setattr(harness, "_batch_loss_value", infinite_once)
    assert grad_check(model, clips, np.array([0, 2])) == math.inf


def test_grad_check_reports_its_worst_entry(monkeypatch):
    model = LinearProbe(6, 3, seed=16)
    clips = np.random.default_rng(16).normal(size=(2, 6))
    backward = T.Tensor.backward

    def corrupted_backward(loss):
        backward(loss)
        model.w.grad.reshape(-1)[7] += 0.5  # one entry of one parameter

    monkeypatch.setattr(T.Tensor, "backward", corrupted_backward)
    err = grad_check(model, clips, np.array([0, 2]))
    assert (err.path, err.index) == ("probe.weight", 7)
    assert err > 1e-2 and err.analytic - err.numeric == pytest.approx(0.5)
    assert err.entry().startswith("worst entry probe.weight[7]: analytic ")

    # a non-finite numeric gradient is reported at its entry, the first one here
    monkeypatch.setattr(harness, "_batch_loss_value", lambda *args: math.inf)
    err = grad_check(model, clips, np.array([0, 2]))
    assert err == math.inf and (err.path, err.index) == ("probe.weight", 0)
    assert math.isnan(err.numeric)


def test_grad_check_param_limit():
    model = LinearProbe(60_000, 3, seed=14)
    with pytest.raises(ConfigError):
        grad_check(model, np.zeros((1, 60_000)), np.array([0]))


def _tiny_petl_model(seed=15):
    spec = PETLSpec(mechanisms=("prefix", "patt"), d_bottle=2, d_token=2,
                    d_middle=2, tune_head=False)
    model = build_model(TINY, seed=seed)
    attach_petl(model, spec, seed=seed + 1)
    freeze_backbone(model, spec)
    r = np.random.default_rng(seed + 2)
    for p in model.registry:
        if not p.frozen:
            p.tensor.data[...] = r.normal(scale=0.1, size=p.shape)
    return model


def test_grad_check_detects_corrupted_backward(monkeypatch):
    model = _tiny_petl_model()
    ds = make_dataset(3, 1, TINY.input_size, seed=15)
    baseline = grad_check(model, ds.clips[:1], ds.labels[:1], eps=1e-5)
    assert baseline < 1e-4

    original = tensor_mod.tanh

    def corrupted_tanh(t):
        data = np.tanh(t.data)

        def backward_fn(g):
            if t.requires_grad:
                t._accum_grad(g * (1.0 - data * data) * 1.25)  # wrong by 25%

        return tensor_mod._make_op(data, (t,), backward_fn, "tanh")

    monkeypatch.setattr(tensor_mod, "tanh", corrupted_tanh)
    model = _tiny_petl_model()
    corrupted = grad_check(model, ds.clips[:1], ds.labels[:1], eps=1e-5)
    assert corrupted > 1e-2, f"fault injection went undetected: {corrupted:.3e}"


# -- bad labels and empty batches ----------------------------------------------------


def _refuse_forward(model):
    def forward(clips):
        raise AssertionError("forward ran before the batch was checked")
    model.forward = forward
    return model


def _empty_dataset():
    return SyntheticVideoDataset(np.zeros((0, *TINY.input_size, 3)), np.zeros(0, np.int64),
                                 TINY.num_classes, seed=0)


BAD_BATCHES = {
    # one clip, label -1: must not score the last class
    "loss-negative-label": lambda: cross_entropy(Tensor(np.zeros(3)), -1),
    # a batch, label -1: flat indexing must not read the previous clip's row
    "loss-negative-label-in-batch": lambda: cross_entropy(Tensor(np.zeros((2, 3))), [0, -1]),
    "loss-label-past-classes": lambda: cross_entropy(Tensor(np.zeros(3)), 3),
    "loss-labels-shape": lambda: cross_entropy(Tensor(np.zeros((2, 3))), [0, 1, 2]),
    "train-label-past-classes": lambda: train(
        _refuse_forward(_head_only_model()), make_dataset(4, 1, TINY.input_size, seed=0),
        OptimizerConfig(steps=1, batch_size=2)),
    "train-empty-dataset": lambda: train(
        _refuse_forward(_head_only_model()), _empty_dataset(),
        OptimizerConfig(steps=1, batch_size=2)),
    "grad-check-label-past-classes": lambda: grad_check(
        _refuse_forward(_head_only_model()), np.zeros((1, *TINY.input_size, 3)), np.array([3])),
    "grad-check-no-clips": lambda: grad_check(
        _refuse_forward(_head_only_model()), np.zeros((0, *TINY.input_size, 3)),
        np.zeros(0, np.int64)),
}


@pytest.mark.parametrize("case", list(BAD_BATCHES))
def test_bad_labels_and_empty_batches_raise_typed_errors(case):
    with pytest.raises(PETLLabError):
        BAD_BATCHES[case]()


# -- the clip-batch axis -------------------------------------------------------------


def _all_four_perturbed(cfg):
    model = build_model(cfg, seed=3)
    attach_petl(model, ALL_FOUR, seed=4)
    freeze_backbone(model, model.petl_spec)
    r = np.random.default_rng(5)
    for p in model.registry.trainable():  # off zero-init, so every insert acts
        p.tensor.data[...] = r.normal(scale=0.1, size=p.shape)
    return model


@pytest.mark.parametrize("cfg_name", ["tiny", "multi_group"])
def test_batched_forward_equals_stacked_clips_bitwise(cfg_name):
    cfg = {"tiny": TINY, "multi_group": MULTI_GROUP}[cfg_name]
    model = _all_four_perturbed(cfg)
    clips = np.random.default_rng(6).normal(size=(3, *cfg.input_size, 3))
    with T.no_grad():
        batched = model.forward(clips).data
        stacked = np.stack([model.forward(clip).data for clip in clips])
    assert batched.shape == (3, cfg.num_classes)
    assert np.array_equal(batched, stacked)


@pytest.mark.parametrize("cfg_name", ["tiny", "multi_group"])
def test_batch_loss_gradient_matches_chained_clip_losses(cfg_name):
    # Oracle: the per-clip graph, one forward and one cross_entropy per clip,
    # chained in order. Only the summation order may differ.
    cfg = {"tiny": TINY, "multi_group": MULTI_GROUP}[cfg_name]
    model = _all_four_perturbed(cfg)
    ds = make_dataset(cfg.num_classes, 2, cfg.input_size, seed=7)
    clips, labels = ds.clips[[0, 3, 5, 1]], ds.labels[[0, 3, 5, 1]]

    def grads(loss):
        model.zero_grads()
        loss.backward()
        return loss.item(), {p.path: p.tensor.grad.copy() for p in model.registry.trainable()}

    batched_loss, batched = grads(_batch_loss(model, clips, labels))
    total = cross_entropy(model.forward(clips[0]), labels[0])
    for clip, label in zip(clips[1:], labels[1:]):
        total = T.add(total, cross_entropy(model.forward(clip), label))
    chained_loss, chained = grads(T.mul(total, 1.0 / len(labels)))

    assert abs(batched_loss - chained_loss) <= 1e-12 * abs(chained_loss)
    for path, g in chained.items():
        assert np.abs(batched[path] - g).max() <= 1e-12 * np.abs(g).max(), path


def test_training_forward_graph_holds_only_what_backward_reads():
    # Swin-BAPAT on SWIN_MICRO at batch 16: the graph holds the arrays some rule
    # reads (about 20 MB), not every op output (about 45 MB)
    model = build_swin_bapat(SWIN_MICRO, seed=0)
    freeze_backbone(model, model.petl_spec)
    ds = make_dataset(SWIN_MICRO.num_classes, 4, SWIN_MICRO.input_size, seed=3)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = _batch_loss(model, ds.clips[:16], ds.labels[:16])
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 26e6, f"the graph holds {held / 1e6:.1f} MB"
    model.zero_grads()
    loss.backward()


# -- pinned end-to-end digests -------------------------------------------------------

ALL_FOUR = PETLSpec(mechanisms=("prefix", "adapter_parallel", "prompt", "patt"),
                    d_bottle=2, d_token=3, d_prompt=2, d_middle=2, patt_sites=("Q", "K", "V"))

# Eight blocks with (2, 3, 3) windows: the shifted layouts hold several window
# sizes, so attention runs as several window groups.
MULTI_GROUP = ModelConfig(input_size=(4, 32, 32), embed_dims=(4, 4, 8, 8),
                          blocks_per_stage=(2, 2, 2, 2), heads_per_stage=(2, 2, 2, 2),
                          window_size=(2, 3, 3), num_classes=3)

# sha256 over held-out logits, computed with one attention call per window
# (before windows were batched by size), and over the training losses plus
# every trainable weight after 3 Adam steps, computed with one forward per
# batch. The per-clip graph summed the batch's gradients in another order;
# its losses and weights differ from these by at most 2.2e-16 and 7.6e-16.
PINNED = {
    ("micro", "bapat"): (
        "748b609a5e1e5c365e6e5ca3c37de8cfd01faad1e59bcc1c0a30e798d38dd033",
        "4f25f0a8694f1649df598172d89861ccbfbfae4f034c50ac971fad6728f75de0"),
    ("micro", "all_four"): (
        "6276780b1266b4254c9b10dae653cdf8bde52637ff9d25d6d339532922e3157f",
        "391c9def0d4bdc6b219e0bc8177b802aece34ebe79121b03c5089c14ad63be39"),
    # Forward only: with several groups, the gradient of rows shared by all
    # windows (prefix, prompt) is summed group by group, a different order.
    ("multi_group", "bapat"): (
        "fb9cb4561247f90e39cc56575c73c8b031aee2ef2ab99dc22033ab3f3d1efa07", None),
    ("multi_group", "all_four"): (
        "7c3d4aad93988fa4fe5ba08fc9a435ea7a6ae291936b4a4cb77461bd84a10cd2", None),
}


@pytest.mark.parametrize("cfg_name,spec_name", list(PINNED))
def test_logits_and_training_bitwise_pinned(cfg_name, spec_name):
    cfg = {"micro": SWIN_MICRO, "multi_group": MULTI_GROUP}[cfg_name]
    if spec_name == "bapat":
        model = build_swin_bapat(cfg, d_bottle=4, seed=3)
    else:
        model = build_model(cfg, seed=3)
        attach_petl(model, ALL_FOUR, seed=4)
    freeze_backbone(model, model.petl_spec)
    ds = make_dataset(cfg.num_classes, 2, cfg.input_size, seed=5)
    with T.no_grad():
        logits = np.stack([model.forward(clip).data for clip in ds.clips])
    logits_digest, train_digest = PINNED[(cfg_name, spec_name)]
    assert hashlib.sha256(logits.astype("<f8").tobytes()).hexdigest() == logits_digest
    if train_digest is None:
        return
    history = train(model, ds, OptimizerConfig(kind="adam", lr=1e-2, steps=3, batch_size=4),
                    seed=6)
    digest = hashlib.sha256(np.asarray(history.losses, dtype="<f8").tobytes())
    for p in model.registry.trainable():
        digest.update(p.path.encode())
        digest.update(np.ascontiguousarray(p.tensor.data, dtype="<f8").tobytes())
    assert digest.hexdigest() == train_digest
