"""Pluggable parameter-efficient fine-tuning modules.

Every mechanism makes one of two edits to a block. It either adds key/value
rows to every window's attention:

* **prefix**: learnable rows run through a shared two-layer Tanh network;
* **prompt**: learnable tokens projected by the block's own (frozen) key and
  value weights; prompt positions emit no outputs;

or it adds a scaled branch:

* **patt** (parallel attention): a shared Tanh bottleneck producing additive
  corrections to the projected Q/K/V at configurable sites, scaled by
  ``s_patt``;
* **adapter** (parallel or sequential): a ReLU bottleneck whose output, scaled
  by ``s_adapter``, is added to the block output; the parallel variant reads
  the FFN's normalized input, the sequential variant reads the FFN output.

:func:`petl_parameter_plan` names every insert weight. :class:`BlockHooks`
holds a block's weights by those plan names and builds both edits from them;
a block the plan gives no insert has no hooks at all.

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
from .backbone import AttentionExtras, ModelConfig, VideoSwinModel, build_model
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


class BlockHooks:
    """One block's inserts on the backbone's hook call surface.

    ``weights`` maps the plan names under the block's
    ``stages.{i}.blocks.{j}.petl.`` prefix (``"adapter.down.weight"``,
    ``"prefix.p_k"``, ``"patt.up_k.weight"``, ...) to their tensors; the names
    held are the inserts the block has, and the ``patt.up_*`` names are its
    PATT sites. ``spec`` supplies the branch scales and the adapter placement,
    and ``block`` the backbone block's own weights by plan name, whose key and
    value projections project the prompt tokens.
    """

    def __init__(self, weights: dict[str, Tensor], spec: PETLSpec, block: dict[str, Tensor]):
        self.weights = weights
        self.block = block
        self.s_adapter = spec.s_adapter
        self.s_patt = spec.s_patt
        self.adapter_reads_ln2 = "adapter_parallel" in spec.mechanisms
        self.patt_sites = tuple(site for site in "qkv" if f"patt.up_{site}.weight" in weights)

    def attention_extras(self, ln_tokens: Tensor) -> AttentionExtras:
        w = self.weights
        k_rows: list[Tensor] = []
        v_rows: list[Tensor] = []
        if "prefix.p_k" in w:
            for rows, p in ((k_rows, w["prefix.p_k"]), (v_rows, w["prefix.p_v"])):
                rows.append(T.matmul(T.tanh(T.matmul(p, w["prefix.w_pk"])), w["prefix.w_pv"]))
        if "prompt.tokens" in w:
            # Prompt tokens reuse the frozen projections and skip the block
            # norm, so they are exactly prefix rows P@W_k / P@W_v (zero-init
            # projection biases keep the equivalence exact at build time).
            blk = self.block
            k_rows.append(T.linear(w["prompt.tokens"], blk["attn.k.weight"], blk["attn.k.bias"]))
            v_rows.append(T.linear(w["prompt.tokens"], blk["attn.v.weight"], blk["attn.v.bias"]))

        add: dict[str, Tensor] = {}
        if self.patt_sites:
            hidden = T.tanh(T.matmul(ln_tokens, w["patt.down.weight"]))
            for site in self.patt_sites:
                add[site] = T.mul(T.matmul(hidden, w[f"patt.up_{site}.weight"]), self.s_patt)

        extra_k, extra_v = (None if not rows else rows[0] if len(rows) == 1
                            else T.concat(rows, 0) for rows in (k_rows, v_rows))
        return AttentionExtras(extra_k=extra_k, extra_v=extra_v,
                               add_q=add.get("q"), add_k=add.get("k"), add_v=add.get("v"))

    def ffn_output(self, out: Tensor, ln2: Tensor, ffn: Tensor) -> Tensor:
        w = self.weights
        if "adapter.down.weight" not in w:
            return out
        source = ln2 if self.adapter_reads_ln2 else ffn
        hidden = T.relu(T.linear(source, w["adapter.down.weight"], w["adapter.down.bias"]))
        branch = T.linear(hidden, w["adapter.up.weight"], w["adapter.up.bias"])
        return T.add(out, T.mul(branch, self.s_adapter))


def attach_petl(model: VideoSwinModel, spec: PETLSpec, seed: int = 1) -> VideoSwinModel:
    """Allocate the spec's inserts from :func:`petl_parameter_plan` and hook up their blocks.

    A block gets :class:`BlockHooks` only if the plan gave it an insert, so
    a spec that allocates nothing leaves every hook ``None``. Uses its own
    RNG stream, so the backbone weights for a given backbone seed are
    unchanged by attaching. Returns the same model instance.
    """
    spec.validate(model.cfg)
    allocate(model.registry, petl_parameter_plan(model.cfg, spec), np.random.default_rng(seed))
    for i, blocks in enumerate(model.blocks):
        for j, blk in enumerate(blocks):
            weights = model.registry.tensors(f"stages.{i}.blocks.{j}.petl.")
            if weights:
                model.hooks[i][j] = BlockHooks(weights, spec, blk)
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

