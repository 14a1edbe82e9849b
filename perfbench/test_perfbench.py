"""Tests of the benchmark's own logic: span arithmetic, the tail rule, and
that its output checks count an injected fault as a failed operation."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import numpy as np
import pytest

import petl_lab as pl
from petl_lab import experiment, harness
from petl_lab import tensor as T

import stats
import tracing
import workloads


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    parents = np.array([-1, 0, 1, 0])
    durations = np.array([10.0, 3.0, 1.0, 4.0])
    assert tracing.self_times(parents, durations).tolist() == [3.0, 2.0, 1.0, 4.0]
    assert tracing.under(parents, np.array([False, True, False, False])).tolist() == [
        False, False, True, False]


def test_traced_spans_nest_and_partition_the_root():
    tracer = tracing.Tracer()
    leaf = tracer.wrap(lambda: sum(range(1000)), "leaf")
    mid = tracer.wrap(lambda: [leaf() for _ in range(3)], "mid")
    root = tracer.wrap(lambda: (mid(), leaf()), "root")
    root()
    table = tracing.SpanTable(tracer)
    assert table.parent.tolist() == [-1, 0, 1, 1, 1, 0]
    assert table.summary()["leaf"]["calls"] == 4
    assert table.self_time.sum() == pytest.approx(table.duration[0], rel=1e-9)
    assert (table.self_time >= 0).all()


def test_tracer_restores_every_attribute():
    originals = (T.matmul, harness.train, experiment.train, T.Tensor.backward)
    with tracing.Tracer() as tracer:
        assert T.matmul is not originals[0]
        assert experiment.train is harness.train  # one wrapper per function
    assert (T.matmul, harness.train, experiment.train, T.Tensor.backward) == originals
    assert "tensor.Tensor.backward" in tracer.names


def test_tail_takes_the_highest_percentile_with_ten_samples_beyond():
    assert stats.tail(list(range(1, 41))) == (30, 75.0, 40)
    value, percentile, n = stats.tail([5.0] * 11 + [9.0] * 10)
    assert (value, n) == (5.0, 21) and percentile == pytest.approx(100 * 11 / 21)


@pytest.mark.parametrize("n", [0, 5, 10, 11, 20])
def test_a_run_too_short_has_no_tail(n):
    assert stats.tail(list(range(n))) is None


def corrupted_tanh(t):
    """Criterion 5's fault: tanh's backward rule scaled by 1.25."""
    data = np.tanh(t.data)

    def backward_fn(g):
        if t.requires_grad:
            t._accum_grad(g * (1.0 - data * data) * 1.25)

    return T._make_op(data, (t,), backward_fn, "tanh")


def test_backward_check_passes_on_the_intact_program():
    tally = workloads.Tally()
    workloads.check_backward(tally)
    assert (tally.attempted, tally.failed) == (1, 0)


def test_corrupted_tanh_backward_raises_the_error_rate(monkeypatch):
    monkeypatch.setattr(T, "tanh", corrupted_tanh)
    tally = workloads.Tally()
    workloads.check_backward(tally)
    assert tally.failed == 1
    assert tally.error_rate > 0


def test_a_write_to_a_frozen_tensor_fails_the_training_steps(monkeypatch):
    model, ds = workloads.backward_point()
    frozen = next(p for p in model.registry if p.frozen)
    make_optimizer = harness.make_optimizer

    def leaky_make_optimizer(cfg):
        optimizer = make_optimizer(cfg)
        update = optimizer.step

        def step(params):
            update(params)
            frozen.tensor.data += 1e-12

        optimizer.step = step
        return optimizer

    monkeypatch.setattr(harness, "make_optimizer", leaky_make_optimizer)
    session = workloads.Session(seconds=None)
    opt = pl.OptimizerConfig(kind="adam", lr=1e-2, steps=2, batch_size=1)
    workloads.fine_tune(session, model, ds, opt, seed=0)
    assert (session.tally.attempted, session.tally.failed) == (2, 2)


def test_only_held_out_evaluations_are_timed():
    model, ds = workloads.backward_point()
    session = workloads.Session(seconds=None)
    opt = pl.OptimizerConfig(kind="adam", lr=1e-2, steps=1, batch_size=1)
    workloads.fine_tune(session, model, ds, opt, seed=0)  # train evaluates ds at its end
    workloads.evaluate_heldout(session, model, ds, session.by(1.0))
    assert [clips for clips, _ in session.evals] == [1] * len(ds)
    assert (session.tally.attempted, session.tally.failed) == (1 + len(ds), 0)
