"""Pluggable parameter-efficient fine-tuning modules.

Four mechanisms attach to backbone blocks:

* **prefix**: learnable key/value rows, run through a two-layer Tanh
  transform, concatenated to every window's keys and values;
* **adapter** (parallel or sequential): a ReLU bottleneck whose scaled output
  is added to the block output; the parallel variant reads the FFN's
  normalized input, the sequential variant reads the FFN output;
* **prompt**: learnable tokens projected by the block's own (frozen) key and
  value weights and appended to every window's keys/values; prompt positions
  emit no outputs;
* **patt** (parallel attention): a shared Tanh bottleneck producing additive
  corrections to the projected Q/K/V at configurable sites, scaled by ``s``.

Zero-neutrality: ``d_token=0`` / ``d_prompt=0`` attach nothing, zero up
projections and ``s=0`` contribute exact-zero additions, so the modified
forward reproduces the frozen backbone bit for bit.

Adapter and PATT up-projections start at zero (see
:func:`petl_lab.registry.allocate`), so a freshly attached model computes the
identical function to the frozen backbone and fine-tuning starts from the
pre-trained behavior instead of from injected noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import (AttentionExtras, AttentionWeights, ModelConfig,
                       VideoSwinModel, build_model)
from .errors import ConfigError
from .registry import allocate, petl_parameter_plan
from .tensor import Tensor

MECHANISMS = ("prefix", "adapter_parallel", "adapter_sequential", "prompt", "patt")
PATT_SITES = ("Q", "K", "V")


@dataclass(frozen=True)
class PETLSpec:
    """Which fine-tuning modules to attach, where, and how big.

    ``s_adapter`` / ``s_patt`` scale the adapter and parallel-attention
    branches. ``attach_stages`` masks whole stages (None = attach everywhere).
    ``d_middle`` defaults to ``d_bottle``.
    """

    mechanisms: tuple[str, ...] = ()
    d_bottle: int = 16
    d_middle: int | None = None
    d_token: int = 4
    d_prompt: int = 4
    s_adapter: float = 0.8
    s_patt: float = 0.8
    patt_sites: tuple[str, ...] = ("K", "V")
    tune_head: bool = True
    attach_stages: tuple[bool, ...] | None = None

    @property
    def resolved_d_middle(self) -> int:
        return self.d_bottle if self.d_middle is None else self.d_middle

    def attach_mask(self, cfg: ModelConfig) -> tuple[bool, ...]:
        if self.attach_stages is None:
            return tuple(True for _ in range(cfg.num_stages))
        if len(self.attach_stages) != cfg.num_stages:
            raise ConfigError(
                f"attach_stages has {len(self.attach_stages)} entries for "
                f"{cfg.num_stages} stages")
        return tuple(bool(x) for x in self.attach_stages)

    def validate(self, cfg: ModelConfig) -> None:
        for mech in self.mechanisms:
            if mech not in MECHANISMS:
                raise ConfigError(f"unknown mechanism '{mech}'; expected {MECHANISMS}")
        if "adapter_parallel" in self.mechanisms and "adapter_sequential" in self.mechanisms:
            raise ConfigError("conflicting adapter placements: pick parallel or sequential")
        mask = self.attach_mask(cfg)
        uses_bottleneck = bool({"adapter_parallel", "adapter_sequential", "patt"}
                               & set(self.mechanisms))
        if uses_bottleneck:
            if self.d_bottle < 1:
                raise ConfigError("d_bottle must be positive")
            attached_dims = [d for d, on in zip(cfg.embed_dims, mask) if on]
            if attached_dims and self.d_bottle > min(attached_dims):
                raise ConfigError(
                    f"d_bottle={self.d_bottle} exceeds the smallest attached "
                    f"stage dim {min(attached_dims)}")
        if "prefix" in self.mechanisms:
            if self.d_token < 0:
                raise ConfigError("d_token must be >= 0 (0 attaches nothing)")
            if self.resolved_d_middle < 1:
                raise ConfigError("d_middle must be positive")
        if "prompt" in self.mechanisms and self.d_prompt < 0:
            raise ConfigError("d_prompt must be >= 0 (0 attaches nothing)")
        for s, name in ((self.s_adapter, "s_adapter"), (self.s_patt, "s_patt")):
            if not (0.0 <= s <= 2.0):
                raise ConfigError(f"{name}={s} outside the sane range [0, 2]")
        if "patt" in self.mechanisms:
            if not self.patt_sites:
                raise ConfigError("patt enabled with an empty insertion-site set")
            for site in self.patt_sites:
                if site not in PATT_SITES:
                    raise ConfigError(f"unknown PATT site '{site}'; expected Q/K/V")

    def to_dict(self) -> dict:
        return {
            "mechanisms": list(self.mechanisms),
            "d_bottle": self.d_bottle,
            "d_middle": self.d_middle,
            "d_token": self.d_token,
            "d_prompt": self.d_prompt,
            "s_adapter": self.s_adapter,
            "s_patt": self.s_patt,
            "sites": "".join(self.patt_sites),
            "tune_head": self.tune_head,
            "attach_stages": (None if self.attach_stages is None
                              else list(self.attach_stages)),
        }

    @staticmethod
    def from_dict(d: dict) -> "PETLSpec":
        """Spec from a type-checked config section; absent keys keep their defaults.

        ``sites`` (a string such as ``"KV"`` or a sequence of sites) becomes
        ``patt_sites``; lists become tuples.
        """
        kw = {k: tuple(v) if isinstance(v, list) else v
              for k, v in d.items() if k != "sites"}
        if "sites" in d:
            kw["patt_sites"] = tuple(d["sites"])
        return PETLSpec(**kw)


@dataclass
class PrefixBank:
    """Learnable prefix rows plus the shared two-layer Tanh transform.

    With ``transform=False`` the stored rows are used verbatim (raw prefix
    mode; makes prompt tokens expressible as a prefix configuration).
    """

    p_k: Tensor   # (d_token, d)
    p_v: Tensor   # (d_token, d)
    w_pk: Tensor | None  # (d, d_middle)
    w_pv: Tensor | None  # (d_middle, d)
    transform: bool = True

    def transformed(self) -> tuple[Tensor, Tensor]:
        if not self.transform:
            return self.p_k, self.p_v
        k = T.matmul(T.tanh(T.matmul(self.p_k, self.w_pk)), self.w_pv)
        v = T.matmul(T.tanh(T.matmul(self.p_v, self.w_pk)), self.w_pv)
        return k, v


@dataclass
class AdapterWeights:
    """ReLU bottleneck: down-projection, up-projection, and branch scale."""

    w_down: Tensor
    b_down: Tensor
    w_up: Tensor
    b_up: Tensor
    s: float
    placement: str  # "parallel" | "sequential"

    def branch(self, x: Tensor) -> Tensor:
        hidden = T.relu(T.linear(x, self.w_down, self.b_down))
        return T.linear(hidden, self.w_up, self.b_up)


@dataclass
class PattWeights:
    """Shared Tanh bottleneck with one up-projection per insertion site."""

    w_down: Tensor
    w_up: dict[str, Tensor]  # keyed by site, subset of {"Q", "K", "V"}
    s: float

    def corrections(self, ln_tokens: Tensor) -> dict[str, Tensor]:
        hidden = T.tanh(T.matmul(ln_tokens, self.w_down))
        return {site: T.mul(T.matmul(hidden, w), self.s)
                for site, w in self.w_up.items()}


@dataclass
class BlockPETL:
    """All fine-tuning inserts attached to one block."""

    prefix: PrefixBank | None = None
    adapter: AdapterWeights | None = None
    prompt: Tensor | None = None
    patt: PattWeights | None = None


class BlockHooks:
    """Adapts a block's PETL inserts to the backbone's hook call surface."""

    def __init__(self, petl: BlockPETL, attn: AttentionWeights):
        self.petl = petl
        self.attn = attn

    def attention_extras(self, ln_tokens: Tensor) -> AttentionExtras:
        extra_k_rows: list[Tensor] = []
        extra_v_rows: list[Tensor] = []
        if self.petl.prefix is not None:
            pk, pv = self.petl.prefix.transformed()
            extra_k_rows.append(pk)
            extra_v_rows.append(pv)
        if self.petl.prompt is not None:
            # Prompt tokens reuse the frozen projections and skip the block
            # norm, so they are exactly prefix rows P@W_k / P@W_v (zero-init
            # projection biases keep the equivalence exact at build time).
            extra_k_rows.append(T.linear(self.petl.prompt, self.attn.w_k, self.attn.b_k))
            extra_v_rows.append(T.linear(self.petl.prompt, self.attn.w_v, self.attn.b_v))

        add_q = add_k = add_v = None
        if self.petl.patt is not None:
            corr = self.petl.patt.corrections(ln_tokens)
            add_q = corr.get("Q")
            add_k = corr.get("K")
            add_v = corr.get("V")

        extra_k = extra_v = None
        if extra_k_rows:
            extra_k = extra_k_rows[0] if len(extra_k_rows) == 1 else T.concat(extra_k_rows, 0)
            extra_v = extra_v_rows[0] if len(extra_v_rows) == 1 else T.concat(extra_v_rows, 0)
        return AttentionExtras(extra_k=extra_k, extra_v=extra_v,
                               add_q=add_q, add_k=add_k, add_v=add_v)

    def ffn_output(self, out: Tensor, z_hat: Tensor, ln2: Tensor, ffn: Tensor) -> Tensor:
        adapter = self.petl.adapter
        if adapter is None:
            return out
        source = ln2 if adapter.placement == "parallel" else ffn
        return T.add(out, T.mul(adapter.branch(source), adapter.s))


def attach_petl(model: VideoSwinModel, spec: PETLSpec, seed: int = 1) -> VideoSwinModel:
    """Allocate the spec's inserts from :func:`petl_parameter_plan` and wire up the hooks.

    Uses its own RNG stream, so the backbone weights for a given backbone
    seed are unchanged by attaching. Returns the same model instance.
    """
    cfg = model.cfg
    spec.validate(cfg)
    reg = model.registry
    allocate(reg, petl_parameter_plan(cfg, spec), np.random.default_rng(seed))
    placement = "parallel" if "adapter_parallel" in spec.mechanisms else "sequential"
    mask = spec.attach_mask(cfg)
    for i in range(cfg.num_stages):
        if not mask[i]:
            continue
        for j in range(cfg.blocks_per_stage[i]):
            base = f"stages.{i}.blocks.{j}.petl."
            w = {p.path[len(base):]: p.tensor for p in reg if p.path.startswith(base)}
            petl = BlockPETL()
            if "adapter.down.weight" in w:
                petl.adapter = AdapterWeights(
                    w_down=w["adapter.down.weight"], b_down=w["adapter.down.bias"],
                    w_up=w["adapter.up.weight"], b_up=w["adapter.up.bias"],
                    s=spec.s_adapter, placement=placement)
            if "patt.down.weight" in w:
                ups = {site: w[f"patt.up_{site.lower()}.weight"]
                       for site in PATT_SITES if site in spec.patt_sites}
                petl.patt = PattWeights(w_down=w["patt.down.weight"], w_up=ups, s=spec.s_patt)
            if "prefix.p_k" in w:
                petl.prefix = PrefixBank(p_k=w["prefix.p_k"], p_v=w["prefix.p_v"],
                                         w_pk=w["prefix.w_pk"], w_pv=w["prefix.w_pv"])
            petl.prompt = w.get("prompt.tokens")
            model.hooks[i][j] = BlockHooks(petl, model.stages[i].blocks[j].attn)
    model.petl_spec = spec
    return model


def swin_bapat_spec(d_bottle: int = 16, s: float = 0.8,
                    sites: tuple[str, ...] = ("K", "V"),
                    tune_head: bool = True,
                    attach_stages: tuple[bool, ...] | None = None) -> PETLSpec:
    """Composite scheme: PATT at attention plus a parallel adapter at the FFN,
    one shared scale for both branches."""
    return PETLSpec(
        mechanisms=("adapter_parallel", "patt"),
        d_bottle=d_bottle,
        s_adapter=s,
        s_patt=s,
        patt_sites=tuple(sites),
        tune_head=tune_head,
        attach_stages=attach_stages,
    )


def build_swin_bapat(cfg: ModelConfig, spec: PETLSpec | None = None, *,
                     d_bottle: int = 16, s: float = 0.8,
                     sites: tuple[str, ...] = ("K", "V"),
                     tune_head: bool = True,
                     seed: int = 0) -> VideoSwinModel:
    """Build a backbone and attach the adapter+PATT composite."""
    if spec is None:
        spec = swin_bapat_spec(d_bottle=d_bottle, s=s, sites=sites, tune_head=tune_head)
    allowed = {"adapter_parallel", "patt"}
    if not set(spec.mechanisms) <= allowed:
        raise ConfigError(
            f"conflicting placements for this composite: {sorted(set(spec.mechanisms) - allowed)}")
    model = build_model(cfg, seed=seed)
    return attach_petl(model, spec, seed=seed + 1)

