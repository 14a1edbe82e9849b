"""Parameter naming, freezing, and exact trainable-parameter accounting.

Counts are kept as exact integers; rounding to millions (two decimals)
happens only in :func:`millions`.

The shape plans (:func:`backbone_parameter_plan` and
:func:`petl_parameter_plan`) are the one place that knows every weight's
path and shape: :func:`allocate` builds models from them, and the public
counts are plan totals, usable at full Swin-B scale without allocating.
Three independent routes produce counts and are cross-checked in tests:

1. enumeration over the tensors of a built model (:class:`ParameterRegistry`);
2. the plans themselves (:func:`plan_total`);
3. closed-form arithmetic, kept in the test suite's reference implementation.

The per-position report follows the convention that every position row also
counts the stage-transition downsampling parameters, and rows inside the
attention module additionally count the relative-position bias tables (those
parameters train alongside any attention-internal site).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ConfigError
from .tensor import Tensor


@dataclass
class Parameter:
    """A named model weight: unit of freezing and budget accounting."""

    path: str
    tensor: Tensor

    @property
    def frozen(self) -> bool:
        """A frozen weight is one whose tensor does not track gradients."""
        return not self.tensor.requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.tensor.data.shape

    @property
    def count(self) -> int:
        return int(self.tensor.data.size)


class ParameterRegistry:
    """Ordered collection of uniquely named parameters."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def register(self, path: str, tensor: Tensor) -> Parameter:
        if path in self._params:
            raise ConfigError(f"duplicate parameter path '{path}'")
        if tensor.data.size == 0:
            raise ConfigError(f"parameter '{path}' has zero elements")
        p = Parameter(path, tensor)
        self._params[path] = p
        return p

    def get(self, path: str) -> Parameter:
        return self._params[path]

    def __contains__(self, path: str) -> bool:
        return path in self._params

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._params.values())

    def __len__(self) -> int:
        return len(self._params)

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        """The tensors under ``prefix``, in registry order, keyed by the rest of the path."""
        return {path[len(prefix):]: p.tensor for path, p in self._params.items()
                if path.startswith(prefix)}

    def trainable(self) -> list[Parameter]:
        return [p for p in self if not p.frozen]


def millions(count: int) -> float:
    """Render an exact count as millions with two decimals (report format)."""
    return round(count / 1e6, 2)


def count_params(registry: ParameterRegistry, which: str = "all",
                 prefix: str | None = None) -> int:
    """Exact parameter count filtered by freeze state and/or path prefix."""
    if which not in ("all", "trainable", "frozen"):
        raise ConfigError(f"unknown count filter '{which}'")
    total = 0
    for p in registry:
        if which == "trainable" and p.frozen:
            continue
        if which == "frozen" and not p.frozen:
            continue
        if prefix is not None and not p.path.startswith(prefix):
            continue
        total += p.count
    return total


def _is_petl_path(path: str) -> bool:
    return ".petl." in path


def freeze_backbone(model, spec) -> None:
    """Freeze every backbone weight; fine-tuning inserts stay trainable.

    The classification head follows ``spec.tune_head``. Freezing disables
    gradient tracking on the tensor, so frozen weights never enter the
    autodiff graph.
    """
    tune_head = bool(spec.tune_head) if spec is not None else False
    for p in model.registry:
        p.tensor.requires_grad = (_is_petl_path(p.path)
                                  or (tune_head and p.path.startswith("head.")))


# -- shape plans and allocation ----------------------------------------------


def backbone_parameter_plan(cfg) -> list[tuple[str, tuple[int, ...]]]:
    """(path, shape) for every backbone weight, in registration order."""
    p, m1, m2 = cfg.window_size
    n_bias = (2 * p - 1) * (2 * m1 - 1) * (2 * m2 - 1)
    d0 = cfg.embed_dims[0]
    plan: list[tuple[str, tuple[int, ...]]] = [
        ("patch_embed.proj.weight", (cfg.patch_volume, d0)),
        ("patch_embed.proj.bias", (d0,)),
        ("patch_embed.norm.gamma", (d0,)),
        ("patch_embed.norm.beta", (d0,)),
    ]
    for i in range(cfg.num_stages):
        d = cfg.embed_dims[i]
        heads = cfg.heads_per_stage[i]
        d_hidden = cfg.ffn_ratio * d
        for j in range(cfg.blocks_per_stage[i]):
            base = f"stages.{i}.blocks.{j}"
            plan += [
                (f"{base}.attn.q.weight", (d, d)), (f"{base}.attn.q.bias", (d,)),
                (f"{base}.attn.k.weight", (d, d)), (f"{base}.attn.k.bias", (d,)),
                (f"{base}.attn.v.weight", (d, d)), (f"{base}.attn.v.bias", (d,)),
                (f"{base}.attn.proj.weight", (d, d)), (f"{base}.attn.proj.bias", (d,)),
                (f"{base}.attn.bias_table", (n_bias, heads)),
                (f"{base}.norm1.gamma", (d,)), (f"{base}.norm1.beta", (d,)),
                (f"{base}.norm2.gamma", (d,)), (f"{base}.norm2.beta", (d,)),
                (f"{base}.ffn.fc1.weight", (d, d_hidden)), (f"{base}.ffn.fc1.bias", (d_hidden,)),
                (f"{base}.ffn.fc2.weight", (d_hidden, d)), (f"{base}.ffn.fc2.bias", (d,)),
            ]
        if i < cfg.num_stages - 1:
            d_next = cfg.embed_dims[i + 1]
            plan += [
                (f"stages.{i}.downsample.norm.gamma", (4 * d,)),
                (f"stages.{i}.downsample.norm.beta", (4 * d,)),
                (f"stages.{i}.downsample.reduction.weight", (4 * d, d_next)),
            ]
    d_last = cfg.embed_dims[-1]
    plan += [
        ("norm.gamma", (d_last,)), ("norm.beta", (d_last,)),
        ("head.weight", (d_last, cfg.num_classes)), ("head.bias", (cfg.num_classes,)),
    ]
    return plan


def petl_parameter_plan(cfg, spec) -> list[tuple[str, tuple[int, ...]]]:
    """(path, shape) for every fine-tuning insert the spec would allocate."""
    plan: list[tuple[str, tuple[int, ...]]] = []
    mechanisms = set(spec.mechanisms)
    mask = spec.attach_mask(cfg)
    d_mid = spec.resolved_d_middle
    for i in range(cfg.num_stages):
        if not mask[i]:
            continue
        d = cfg.embed_dims[i]
        for j in range(cfg.blocks_per_stage[i]):
            base = f"stages.{i}.blocks.{j}.petl"
            if ("adapter_parallel" in mechanisms or "adapter_sequential" in mechanisms):
                plan += [
                    (f"{base}.adapter.down.weight", (d, spec.d_bottle)),
                    (f"{base}.adapter.down.bias", (spec.d_bottle,)),
                    (f"{base}.adapter.up.weight", (spec.d_bottle, d)),
                    (f"{base}.adapter.up.bias", (d,)),
                ]
            if "patt" in mechanisms:
                plan.append((f"{base}.patt.down.weight", (d, spec.d_bottle)))
                for site in ("Q", "K", "V"):
                    if site in spec.patt_sites:
                        plan.append((f"{base}.patt.up_{site.lower()}.weight",
                                     (spec.d_bottle, d)))
            if "prefix" in mechanisms and spec.d_token > 0:
                plan += [
                    (f"{base}.prefix.p_k", (spec.d_token, d)),
                    (f"{base}.prefix.p_v", (spec.d_token, d)),
                    (f"{base}.prefix.w_pk", (d, d_mid)),
                    (f"{base}.prefix.w_pv", (d_mid, d)),
                ]
            if "prompt" in mechanisms and spec.d_prompt > 0:
                plan.append((f"{base}.prompt.tokens", (spec.d_prompt, d)))
    return plan


def plan_total(plan: Iterable[tuple[str, tuple[int, ...]]],
               predicate: Callable[[str], bool] | None = None) -> int:
    return sum(math.prod(shape) for path, shape in plan if predicate is None or predicate(path))


def allocate(registry: ParameterRegistry, plan: Iterable[tuple[str, tuple[int, ...]]],
             rng: np.random.Generator) -> None:
    """Register a gradient-tracking tensor for every plan entry, in plan order.

    Init rule, keyed by path: ``.gamma`` gets ones; ``.bias``, ``.beta`` and
    the insert up-projections (``adapter.up.*``, ``patt.up_*``) get zeros
    without drawing from ``rng``; everything else is drawn from N(0, 0.02).
    Zero up-projections make a freshly attached insert contribute exactly
    nothing. Since plan order is registration order, a seed fixes every
    weight bit for bit.
    """
    for path, shape in plan:
        if path.endswith(".gamma"):
            data = np.ones(shape)
        elif (path.endswith((".bias", ".beta")) or ".adapter.up." in path
              or ".patt.up_" in path):
            data = np.zeros(shape)
        else:
            data = rng.normal(0.0, 0.02, size=shape)
        registry.register(path, Tensor(data, requires_grad=True))


def head_count(d_last: int, num_classes: int) -> int:
    """Fully connected classification head: weight plus bias."""
    return d_last * num_classes + num_classes


def count_full_swin_b(num_classes: int) -> int:
    """Full-model count at Swin-B dimensions, from the backbone plan."""
    from .backbone import SWIN_B  # local import: registry stays backbone-free at module load
    return plan_total(backbone_parameter_plan(replace(SWIN_B, num_classes=num_classes)))


# -- positional report ---------------------------------------------------------

POSITION_ORDER = (
    "LayerNorm 1",
    "Attn, Proj",
    "Attn, QKV",
    "Attn, SoftMax",
    "LayerNorm 2",
    "MLP, FC1",
    "MLP, FC2",
    "DownSample",
)


@dataclass
class PositionCount:
    position: str
    count_exact: int

    @property
    def count_millions(self) -> float:
        return millions(self.count_exact)


def positional_count_report(cfg) -> list[PositionCount]:
    """Trainable-parameter count for independently tuning each block position.

    Convention: every row includes the downsampling (patch-merge) parameters;
    rows inside the attention module also include the relative-position bias
    tables. Counts include weight, bias, and norm gain/offset tensors of the
    position itself.
    """
    plan = backbone_parameter_plan(cfg)

    def total(marker: str) -> int:
        return plan_total(plan, lambda path: marker in path)

    down = total(".downsample.")
    tables = total(".attn.bias_table")
    qkv = total(".attn.q.") + total(".attn.k.") + total(".attn.v.")
    rows = {
        "LayerNorm 1": total(".norm1.") + down,
        "Attn, Proj": total(".attn.proj.") + tables + down,
        "Attn, QKV": qkv + tables + down,
        "Attn, SoftMax": tables + down,
        "LayerNorm 2": total(".norm2.") + down,
        "MLP, FC1": total(".ffn.fc1.") + down,
        "MLP, FC2": total(".ffn.fc2.") + down,
        "DownSample": down,
    }
    return [PositionCount(name, rows[name]) for name in POSITION_ORDER]
