"""Instrumentation the benchmark installs from outside the program.

Two layers, both installed by replacing module and class attributes that
``petl_lab`` looks up at call time, and both restored on exit:

* :class:`Probe` is always on. It wraps ``harness.make_optimizer`` so each
  optimizer it returns timestamps its ``step`` calls (the step clock). That
  is two clock reads per optimizer step, so timed runs stay effectively
  untraced.
* :class:`Tracer` is on only in the traced run. It wraps every public
  function of the traced modules, plus the methods that per-layer metrics
  name, and records one span (name, start, end, parent) per call in memory.
  Spans stay per thread, because ``run_experiment`` trains in a thread pool.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from array import array
from contextlib import ExitStack
from unittest import mock

import numpy as np

from petl_lab import backbone, experiment, harness, petl, registry
from petl_lab import tensor as T

TRACED_MODULES = (T, backbone, petl, harness, experiment, registry)

# Called inside every op, or returning a context manager: not layer boundaries.
UNTRACED_FUNCTIONS = {"grad_enabled", "no_grad"}

TRACED_METHODS = (
    (T.Tensor, "backward"),
    (backbone.VideoSwinModel, "forward"),
    (petl.BlockHooks, "attention_extras"),
    (petl.BlockHooks, "ffn_output"),
)


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Probe:
    """Step clock for the timed runs.

    ``steps`` holds one ``(thread, start, optimizer_start, end)`` per
    optimizer step: a step starts when the previous step of the same
    optimizer ended (or when the optimizer was made) and ends when its
    update returns.
    """

    def __init__(self):
        self.steps: list[tuple[int, float, float, float]] = []
        self._patches = ExitStack()

    def __enter__(self) -> "Probe":
        make_optimizer = harness.make_optimizer
        steps = self.steps

        @functools.wraps(make_optimizer)
        def clocked_make_optimizer(cfg):
            optimizer = make_optimizer(cfg)
            update = optimizer.step
            last = [time.perf_counter()]

            def step(params):
                begin = time.perf_counter()
                update(params)
                end = time.perf_counter()
                steps.append((threading.get_ident(), last[0], begin, end))
                last[0] = end

            optimizer.step = step
            return optimizer

        self._patches.enter_context(
            mock.patch.object(harness, "make_optimizer", clocked_make_optimizer))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.close()

    def step_ms(self) -> list[float]:
        return [(end - start) * 1e3 for _, start, _, end in self.steps]


class SpanBuffer:
    """Spans of one thread, in start order; a parent always precedes its children."""

    def __init__(self, thread: int):
        self.thread = thread
        self.names = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []

    def arrays(self):
        return (np.frombuffer(self.names, dtype=np.int64),
                np.frombuffer(self.parents, dtype=np.int64),
                np.frombuffer(self.starts, dtype=np.float64),
                np.frombuffer(self.ends, dtype=np.float64))


class Tracer:
    """Span recorder around the program's public functions and named methods."""

    def __init__(self):
        self.names: list[str] = []
        self.buffers: list[SpanBuffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = ExitStack()

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _buffer(self) -> SpanBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = SpanBuffer(threading.get_ident())
            self._local.buf = buf
            with self._lock:
                self.buffers.append(buf)
        return buf

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        clock = time.perf_counter
        buffer = self._buffer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = buffer()
            index = len(buf.starts)
            buf.names.append(nid)
            buf.parents.append(buf.stack[-1] if buf.stack else -1)
            buf.ends.append(0.0)
            buf.stack.append(index)
            buf.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.ends[index] = clock()
                buf.stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        modules = {m.__name__ for m in TRACED_MODULES}
        wrappers: dict[int, object] = {}
        for module in TRACED_MODULES:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or attr in UNTRACED_FUNCTIONS
                        or not inspect.isfunction(obj) or obj.__module__ not in modules):
                    continue
                # One wrapper per function, installed under every module that
                # binds it (``experiment.train`` is ``harness.train``).
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(obj, f"{_short(obj.__module__)}.{obj.__name__}")
                self._patches.enter_context(mock.patch.object(module, attr, wrappers[id(obj)]))
        for cls, attr in TRACED_METHODS:
            fn = vars(cls)[attr]
            wrapped = self.wrap(fn, f"{_short(cls.__module__)}.{fn.__qualname__}")
            self._patches.enter_context(mock.patch.object(cls, attr, wrapped))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.close()


# -- span analysis -------------------------------------------------------------


def self_times(parents: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span are disjoint and lie
    inside it: what remains is time spent in the span's own code.
    """
    child = np.zeros_like(durations)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], durations[has_parent])
    return durations - child


def under(parents: np.ndarray, is_target: np.ndarray) -> np.ndarray:
    """Whether each span has an ancestor for which ``is_target`` holds."""
    found = np.zeros(len(parents), dtype=bool)
    ancestor = parents.copy()
    while (ancestor >= 0).any():
        live = ancestor >= 0
        found[live] |= is_target[ancestor[live]]
        ancestor[live] = parents[ancestor[live]]
    return found


class SpanTable:
    """All spans of a tracer, flattened across threads, with derived columns."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        columns = [[np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)],
                   [np.zeros(0)], [np.zeros(0, np.int64)]]
        offset = 0
        for buf in tracer.buffers:
            names, parents, starts, ends = buf.arrays()
            for column, values in zip(columns, (
                    names, np.where(parents >= 0, parents + offset, -1), starts, ends,
                    np.full(len(names), buf.thread, dtype=np.int64))):
                column.append(values)
            offset += len(names)
        self.name, self.parent, self.start, self.end, self.thread = (
            np.concatenate(column) for column in columns)
        self.duration = self.end - self.start
        self.self_time = self_times(self.parent, self.duration)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)

    def prefix_mask(self, prefix: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return np.isin(self.name, ids)

    def under(self, name: str) -> np.ndarray:
        return under(self.parent, self.mask(name))

    def summary(self) -> dict:
        """Per span name: calls, total and self milliseconds."""
        out = {}
        for i, name in enumerate(self.names):
            m = self.name == i
            out[name] = {"calls": int(m.sum()),
                         "total_ms": float(self.duration[m].sum() * 1e3),
                         "self_ms": float(self.self_time[m].sum() * 1e3)}
        return out


# -- per-layer metrics -----------------------------------------------------------------

FORWARD = "backbone.VideoSwinModel.forward"
BACKWARD = "tensor.Tensor.backward"
SELF_MS = ("tensor.matmul", "tensor.add", "tensor.gather_rows", "tensor.transpose",
           "tensor.layer_norm", "tensor.softmax", "tensor.gelu",
           "backbone.window_attention", "backbone.swin_block", "backbone.merge_tokens",
           "backbone.patch_embed")
HOOKS_SELF_MS = {"petl.attention_extras": "petl.BlockHooks.attention_extras",
                 "petl.ffn_output": "petl.BlockHooks.ffn_output"}
MEDIAN_MS = {"tensor.backward.ms": BACKWARD,
             "backbone.forward.ms": FORWARD,
             "harness.make_dataset.ms": "harness.make_dataset",
             "setup.build_model.ms": "backbone.build_model",
             "setup.attach_petl.ms": "petl.attach_petl",
             "registry.freeze_backbone.ms": "registry.freeze_backbone"}


def _median_ms(values) -> float:
    if len(values) == 0:
        raise RuntimeError("a per-layer metric has no samples")
    return float(np.median(values) * 1e3)


def step_split(table: SpanTable, steps) -> dict[str, float]:
    """Median forward, backward and update time of the probe's steps.

    Backward is the ``Tensor.backward`` spans of the step's thread between the
    step's start and its update; forward is the rest of that interval.
    """
    backward = table.mask(BACKWARD)
    parts = {"forward": [], "backward": [], "optimizer": []}
    for thread, start, update, end in steps:
        m = backward & (table.thread == thread) & (table.start >= start) & (table.start < update)
        spent = float(table.duration[m].sum())
        parts["forward"].append(update - start - spent)
        parts["backward"].append(spent)
        parts["optimizer"].append(end - update)
    return {f"harness.step.{k}_ms": _median_ms(v) for k, v in parts.items()}


def layer_metrics(table: SpanTable, probe: Probe, jobs, run_span: str) -> dict:
    """Every per-layer metric, as ``name -> (value, unit)``.

    ``*.self_ms`` totals self time over the traced run, ``*.ms`` is the median
    per call, ``*_per_clip`` divides by forward calls and ``calls_per_job`` by
    job calls; ``jobs`` holds the (start, end) of each job call.
    """
    forward = table.mask(FORWARD)
    clips = int(forward.sum())
    in_forward = table.under(FORWARD)
    if clips == 0 or not jobs:
        raise RuntimeError("the traced run made no forward pass or no job call")
    ops = table.prefix_mask("tensor.") & ~table.mask(BACKWARD)
    out = {
        "tensor.ops_per_clip": (int((ops & in_forward).sum()) / clips, "count"),
        "backbone.window_attention.calls_per_clip": (
            int((table.mask("backbone.window_attention") & in_forward).sum()) / clips, "count"),
    }
    for name in SELF_MS:
        out[f"{name}.self_ms"] = (float(table.self_time[table.mask(name)].sum() * 1e3), "ms")
    for name, span in HOOKS_SELF_MS.items():
        out[f"{name}.self_ms"] = (float(table.self_time[table.mask(span)].sum() * 1e3), "ms")
    for name, span in MEDIAN_MS.items():
        out[name] = (_median_ms(table.duration[table.mask(span)]), "ms")

    block = table.mask("backbone.swin_block")
    in_job = np.zeros(len(table.name), dtype=bool)
    for start, end in jobs:
        in_job |= (table.start >= start) & (table.start < end)
    out["backbone.swin_block.calls_per_job"] = (int((block & in_job).sum()) / len(jobs), "count")

    out.update({k: (v, "ms") for k, v in step_split(table, probe.steps).items()})
    evaluate = table.mask("harness.evaluate")
    evaluated = int((forward & table.under("harness.evaluate")).sum())
    out["harness.evaluate.ms_per_clip"] = (
        float(table.duration[evaluate].sum() * 1e3) / max(evaluated, 1), "ms")

    runs = table.duration[table.mask(run_span)]
    out["job.run_ms"] = (_median_ms(runs), "ms")
    out["job.overlap"] = (float(runs.sum()) / sum(end - start for start, end in jobs), "ratio")
    return out
