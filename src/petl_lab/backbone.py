"""Scaled-down 3D shifted-window video transformer.

A video clip ``(t, h, w, 3)`` is cut into non-overlapping spatio-temporal
patches which become tokens. Stages of transformer blocks run windowed
multi-head self-attention with a learnable relative-position bias; blocks
alternate between an aligned window grid and one shifted by half a window.
Between stages a 2x2 spatial patch merge halves the grid and grows the
channel dimension. A final layer norm, global average pool, and fully
connected head produce class logits.

Axes before a clip's ``(t, h, w, 3)`` are clip-batch axes and stay leading
in every token tensor ``(..., N, d)``, so a batch of clips runs as one graph
and a single clip is the same code with no leading axes.

Shifted windows are realized by re-binning tokens into the offset grid:
windows keep only the tokens that actually exist, so boundary windows are
simply smaller and no attention masking is required. The window *count*
matches the padded-grid convention (``ceil((extent + shift) / window)``).
Windows with the same token count form a group, and each group runs as one
batched attention call over leading (clip, window) axes, as in Swin and
Video Swin, without padding.

Fine-tuning modules plug in through a per-block hooks object (see
:mod:`petl_lab.petl`) whose ``attention_extras`` and ``ffn_output`` edit the
block; a block without inserts has ``None`` hooks and runs bare. The backbone
only defines the call surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, GeometryError, ShapeError
from .registry import ParameterRegistry, allocate, backbone_parameter_plan
from .tensor import Tensor


@dataclass(frozen=True)
class ModelConfig:
    """Backbone hyperparameters.

    ``input_size`` is (frames, height, width); clips carry 3 channels.
    ``embed_dims`` / ``blocks_per_stage`` / ``heads_per_stage`` are parallel
    per-stage lists. ``window_size`` is (temporal, spatial, spatial); the
    shifted grid is offset by half a window in every axis (floor division).
    """

    input_size: tuple[int, int, int] = (8, 32, 32)
    patch_size: tuple[int, int, int] = (2, 4, 4)
    embed_dims: tuple[int, ...] = (16, 32, 64, 128)
    blocks_per_stage: tuple[int, ...] = (1, 1, 2, 1)
    heads_per_stage: tuple[int, ...] = (2, 2, 4, 4)
    window_size: tuple[int, int, int] = (4, 4, 4)
    ffn_ratio: int = 4
    num_classes: int = 4
    layer_norm_eps: float = 1e-5
    in_channels: int = 3

    @property
    def num_stages(self) -> int:
        return len(self.embed_dims)

    @property
    def shift(self) -> tuple[int, int, int]:
        p, m, m2 = self.window_size
        return (p // 2, m // 2, m2 // 2)

    @property
    def patch_volume(self) -> int:
        pt, ph, pw = self.patch_size
        return pt * ph * pw * self.in_channels

    def token_grid(self) -> tuple[int, int, int]:
        """Token grid after patch embedding; raises if extents do not divide."""
        t, h, w = self.input_size
        pt, ph, pw = self.patch_size
        if t % pt or h % ph or w % pw:
            raise GeometryError(
                f"input {self.input_size} not divisible by patch {self.patch_size}")
        return (t // pt, h // ph, w // pw)

    def stage_grids(self) -> list[tuple[int, int, int]]:
        """Token grid entering each stage (spatial extents halve at merges)."""
        grids = [self.token_grid()]
        for i in range(self.num_stages - 1):
            gt, gh, gw = grids[-1]
            if gh % 2 or gw % 2:
                raise GeometryError(
                    f"stage {i} grid {(gt, gh, gw)} has odd spatial extents; cannot merge")
            grids.append((gt, gh // 2, gw // 2))
        return grids

    def validate(self) -> None:
        n = self.num_stages
        if not (len(self.blocks_per_stage) == len(self.heads_per_stage) == n):
            raise ConfigError("embed_dims, blocks_per_stage, heads_per_stage lengths differ")
        if not (len(self.input_size) == len(self.patch_size) == len(self.window_size) == 3):
            raise ConfigError("input, patch and window sizes need 3 extents (t, h, w)")
        if any(heads < 1 for heads in self.heads_per_stage):
            raise ConfigError("every stage needs at least one head")
        for d, heads in zip(self.embed_dims, self.heads_per_stage):
            if d % heads:
                raise ConfigError(f"stage dim {d} not divisible by {heads} heads")
        if any(b < 1 for b in self.blocks_per_stage):
            raise ConfigError("every stage needs at least one block")
        if any(x < 1 for x in self.window_size) or any(x < 1 for x in self.patch_size):
            raise ConfigError("window and patch extents must be positive")
        if self.num_classes < 1:
            raise ConfigError("num_classes must be positive")
        if self.ffn_ratio < 1:
            raise ConfigError("ffn_ratio must be >= 1")
        self.stage_grids()


SWIN_MICRO = ModelConfig()

SWIN_B = ModelConfig(
    input_size=(8, 224, 224),
    patch_size=(2, 4, 4),
    embed_dims=(128, 256, 512, 1024),
    blocks_per_stage=(2, 2, 18, 2),
    heads_per_stage=(4, 8, 16, 32),
    window_size=(8, 7, 7),
    num_classes=174,
)


def window_grid_counts(grid: tuple[int, int, int], window: tuple[int, int, int],
                       shifted: bool) -> tuple[int, int, int]:
    """Windows along each axis; shifted grids gain the half-window boundary row."""
    shift = (window[0] // 2, window[1] // 2, window[2] // 2) if shifted else (0, 0, 0)
    return tuple(-(-(g + s) // w) for g, s, w in zip(grid, shift, window))


@dataclass(frozen=True)
class WindowGroup:
    """All windows of a layout that hold ``n`` tokens, stacked on a leading axis.

    ``tokens`` is (G, n): flat token indices of each window in raster order.
    ``bias_index`` is (G, n, n): each in-window token pair's row in the
    relative-position bias table.
    """

    tokens: np.ndarray
    bias_index: np.ndarray


class WindowLayout:
    """Partition of a token grid into attention windows, grouped by size.

    Every token index lands in exactly one window. ``groups`` holds one
    :class:`WindowGroup` per distinct window token count, in ascending count;
    inside a group, windows keep their raster order over the window grid.
    ``inverse_perm`` undoes the group-major concatenation of the groups'
    flattened outputs.
    """

    def __init__(self, grid: tuple[int, int, int], window: tuple[int, int, int],
                 shifted: bool):
        if any(g < 1 for g in grid):
            raise GeometryError(f"empty token grid {grid}")
        self.grid = tuple(grid)
        self.window = tuple(window)
        self.shifted = bool(shifted)
        self.shift = (window[0] // 2, window[1] // 2, window[2] // 2) if shifted else (0, 0, 0)

        extent = np.array(self.window)
        coords = np.stack(np.unravel_index(np.arange(np.prod(self.grid)), self.grid), axis=-1)
        bins = (coords + np.array(self.shift)) // extent
        counts = window_grid_counts(self.grid, self.window, shifted)
        key = np.ravel_multi_index(bins.T, counts)

        order = np.argsort(key, kind="stable")  # stable: raster order within a window
        windows = np.split(order, np.flatnonzero(np.diff(key[order])) + 1)
        if len(windows) != int(np.prod(counts)):
            raise GeometryError("window partition produced an empty window")
        self.window_count = len(windows)

        self.groups: list[WindowGroup] = []
        for n in sorted({len(w) for w in windows}):
            tokens = np.stack([w for w in windows if len(w) == n])
            c = coords[tokens]
            delta = c[:, :, None, :] - c[:, None, :, :] + extent - 1  # each axis in [0, 2w - 1)
            bias_index = np.ravel_multi_index(np.moveaxis(delta, -1, 0), 2 * extent - 1)
            self.groups.append(WindowGroup(tokens, bias_index))
        perm = np.concatenate([g.tokens.reshape(-1) for g in self.groups])
        self.inverse_perm = np.argsort(perm, kind="stable").astype(np.intp)


def window_partition(grid: tuple[int, int, int], window: tuple[int, int, int],
                     shifted: bool) -> WindowLayout:
    """Build the (possibly shifted) window partition of a token grid."""
    return WindowLayout(grid, window, shifted)


@dataclass
class AttentionWeights:
    """Projection weights of one windowed attention module."""

    n_heads: int
    w_q: Tensor
    b_q: Tensor
    w_k: Tensor
    b_k: Tensor
    w_v: Tensor
    b_v: Tensor
    w_o: Tensor
    b_o: Tensor
    bias_table: Tensor  # (distinct relative offsets in a window, n_heads)


@dataclass
class AttentionExtras:
    """Per-block attention modifications supplied by fine-tuning hooks.

    ``extra_k`` / ``extra_v`` are learnable (n_extra, d) rows prepended to
    every window's keys/values (token-dimension concat), shared by all
    windows and clips. ``add_q/k/v`` are full-grid (..., N, d) additive
    corrections, already scaled, gathered per window alongside the tokens.
    """

    extra_k: Tensor | None = None
    extra_v: Tensor | None = None
    add_q: Tensor | None = None
    add_k: Tensor | None = None
    add_v: Tensor | None = None


def window_attention(x: Tensor, weights: AttentionWeights,
                     bias: Tensor | None = None,
                     extra_k: Tensor | None = None,
                     extra_v: Tensor | None = None,
                     add_q: Tensor | None = None,
                     add_k: Tensor | None = None,
                     add_v: Tensor | None = None) -> Tensor:
    """Multi-head self-attention within each window of a stack of windows.

    ``x`` is (..., n, d): any leading axes index independent windows of n
    tokens each. Per head the projected queries attend over the projected
    keys/values, scaled by the inverse square root of the head dimension,
    plus ``bias``, which broadcasts to (..., n_heads, n, n): a (G, n_heads,
    n, n) bias serves every clip of a (B, G) lead. ``add_q/k/v`` have the
    shape of ``x``. The (n_extra, d) ``extra_k``/``extra_v`` rows are
    prepended to the keys/values of every window and carry no position bias.
    Returns (..., n, d) after the output projection.
    """
    *lead, n, d = x.data.shape
    heads = weights.n_heads
    if d % heads:
        raise ShapeError(f"token dim {d} not divisible by {heads} heads")
    hd = d // heads
    b = len(lead)
    heads_first = (*range(b), b + 1, b, b + 2)  # (..., rows, heads, hd) <-> (..., heads, rows, hd)

    def project(weight: Tensor, offset: Tensor, add: Tensor | None) -> Tensor:
        out = T.linear(x, weight, offset)
        return out if add is None else T.add(out, add)

    q = project(weights.w_q, weights.b_q, add_q)
    k = project(weights.w_k, weights.b_k, add_k)
    v = project(weights.w_v, weights.b_v, add_v)

    n_extra = 0
    if extra_k is not None:
        if extra_v is None or extra_k.data.shape != extra_v.data.shape:
            raise ShapeError("extra key/value rows must come in matching pairs")
        n_extra = extra_k.data.shape[0]
        if n_extra:
            k = T.concat([T.broadcast_to(extra_k, (*lead, n_extra, d)), k], axis=-2)
            v = T.concat([T.broadcast_to(extra_v, (*lead, n_extra, d)), v], axis=-2)

    qh = T.transpose(T.reshape(q, (*lead, n, heads, hd)), heads_first)
    kh = T.transpose(T.reshape(k, (*lead, n + n_extra, heads, hd)), (*range(b), b + 1, b + 2, b))
    vh = T.transpose(T.reshape(v, (*lead, n + n_extra, heads, hd)), heads_first)

    logits = T.mul(T.matmul(qh, kh), 1.0 / math.sqrt(hd))
    if bias is not None:
        if n_extra:
            pad = Tensor(np.zeros((*bias.data.shape[:-1], n_extra)))
            bias = T.concat([pad, bias], axis=-1)
        logits = T.add(logits, bias)

    att = T.softmax(logits, axis=-1)
    out = T.matmul(att, vh)
    merged = T.reshape(T.transpose(out, heads_first), (*lead, n, d))
    return T.linear(merged, weights.w_o, weights.b_o)


@dataclass
class BlockParams:
    """All weights of one transformer block."""

    norm1_gamma: Tensor
    norm1_beta: Tensor
    attn: AttentionWeights
    norm2_gamma: Tensor
    norm2_beta: Tensor
    fc1_w: Tensor
    fc1_b: Tensor
    fc2_w: Tensor
    fc2_b: Tensor
    shifted: bool
    eps: float


def _windowed_attention(tokens: Tensor, blk: BlockParams, layout: WindowLayout,
                        extras: AttentionExtras | None) -> Tensor:
    """One batched :func:`window_attention` call per window group, back in raster order.

    ``tokens`` is (..., N, d). A group's (G, n) token indices are gathered
    along the token axis, so each call runs on (..., G, n, d) and its bias
    (G, heads, n, n) is shared by every clip. Returns (..., N, d).
    """
    extras = extras or AttentionExtras()
    heads = blk.attn.n_heads
    *lead, _, d = tokens.data.shape
    outs = []
    for group in layout.groups:
        idx = group.tokens
        add_q, add_k, add_v = (None if t is None else T.gather_rows(t, idx, axis=-2)
                               for t in (extras.add_q, extras.add_k, extras.add_v))
        rows = T.gather_rows(blk.attn.bias_table, group.bias_index.reshape(-1))
        bias = T.transpose(T.reshape(rows, (*group.bias_index.shape, heads)), (0, 3, 1, 2))
        out = window_attention(T.gather_rows(tokens, idx, axis=-2), blk.attn, bias=bias,
                               extra_k=extras.extra_k, extra_v=extras.extra_v,
                               add_q=add_q, add_k=add_k, add_v=add_v)
        outs.append(T.reshape(out, (*lead, idx.size, d)))
    stitched = outs[0] if len(outs) == 1 else T.concat(outs, axis=-2)
    return T.gather_rows(stitched, layout.inverse_perm, axis=-2)


def swin_block(z: Tensor, blk: BlockParams, layout: WindowLayout, hooks=None) -> Tensor:
    """One block: windowed attention and FFN, each behind layer norm + residual."""
    ln1 = T.layer_norm(z, blk.norm1_gamma, blk.norm1_beta, blk.eps)
    extras = hooks.attention_extras(ln1) if hooks is not None else None
    z_hat = T.add(_windowed_attention(ln1, blk, layout, extras), z)

    ln2 = T.layer_norm(z_hat, blk.norm2_gamma, blk.norm2_beta, blk.eps)
    hidden = T.gelu(T.linear(ln2, blk.fc1_w, blk.fc1_b))
    ffn = T.linear(hidden, blk.fc2_w, blk.fc2_b)
    out = T.add(ffn, z_hat)
    if hooks is not None:
        out = hooks.ffn_output(out, z_hat=z_hat, ln2=ln2, ffn=ffn)
    return out


@dataclass
class DownsampleParams:
    norm_gamma: Tensor
    norm_beta: Tensor
    reduction: Tensor  # (4*d_in, d_out), no bias


@dataclass
class StageParams:
    blocks: list[BlockParams]
    downsample: DownsampleParams | None


def merge_tokens(z: Tensor, grid: tuple[int, int, int], ds: DownsampleParams,
                 eps: float) -> tuple[Tensor, tuple[int, int, int]]:
    """2x2 spatial patch merge: concat neighbor features, norm, linear reduce.

    ``z`` is (..., N, d) over ``grid``; returns (..., N / 4, d_out) and the
    halved grid.
    """
    gt, gh, gw = grid
    if gh % 2 or gw % 2:
        raise GeometryError(f"cannot merge grid {grid} with odd spatial extents")
    flat = np.arange(gt * gh * gw).reshape(gt, gh, gw)
    quadrants = [flat[:, 0::2, 0::2], flat[:, 1::2, 0::2],
                 flat[:, 0::2, 1::2], flat[:, 1::2, 1::2]]
    parts = [T.gather_rows(z, q.reshape(-1), axis=-2) for q in quadrants]
    cat = T.concat(parts, axis=-1)
    cat = T.layer_norm(cat, ds.norm_gamma, ds.norm_beta, eps)
    return T.matmul(cat, ds.reduction), (gt, gh // 2, gw // 2)


def extract_patches(video: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Flatten non-overlapping (pt, ph, pw, channels) patches in raster order.

    ``video`` is (..., t, h, w, channels); returns (..., N, patch_volume).
    """
    video = np.asarray(video, dtype=np.float64)
    expected = (*cfg.input_size, cfg.in_channels)
    if video.shape[-4:] != expected:
        raise GeometryError(f"clip shape {video.shape} does not end in config {expected}")
    lead = video.shape[:-4]
    gt, gh, gw = cfg.token_grid()
    pt, ph, pw = cfg.patch_size
    patches = video.reshape(*lead, gt, pt, gh, ph, gw, pw, cfg.in_channels)
    b = len(lead)
    patches = patches.transpose(*range(b), *(b + a for a in (0, 2, 4, 1, 3, 5, 6)))
    return patches.reshape(*lead, gt * gh * gw, cfg.patch_volume)


def patch_embed(video: np.ndarray, cfg: ModelConfig, weight: Tensor,
                bias: Tensor) -> Tensor:
    """Project each flattened patch to the stage-0 embedding dimension.

    Returns tokens (..., prod(token_grid), embed_dims[0]) for clips
    (..., t, h, w, channels); tokens are in raster order over the grid
    ``cfg.token_grid()``.
    """
    return T.linear(Tensor(extract_patches(video, cfg)), weight, bias)


class VideoSwinModel:
    """A built backbone: parameters, cached window layouts, and forward."""

    def __init__(self, cfg: ModelConfig, registry: ParameterRegistry,
                 embed_w: Tensor, embed_b: Tensor, embed_norm_g: Tensor,
                 embed_norm_b: Tensor, stages: list[StageParams],
                 norm_gamma: Tensor, norm_beta: Tensor,
                 head_w: Tensor, head_b: Tensor):
        self.cfg = cfg
        self.registry = registry
        self.embed_w = embed_w
        self.embed_b = embed_b
        self.embed_norm_g = embed_norm_g
        self.embed_norm_b = embed_norm_b
        self.stages = stages
        self.norm_gamma = norm_gamma
        self.norm_beta = norm_beta
        self.head_w = head_w
        self.head_b = head_b
        self.hooks: list[list] = [[None] * len(s.blocks) for s in stages]
        self.petl_spec = None
        self._layouts: dict[tuple, WindowLayout] = {}

    def layout(self, grid: tuple[int, int, int], shifted: bool) -> WindowLayout:
        key = (grid, shifted)
        if key not in self._layouts:
            self._layouts[key] = WindowLayout(grid, self.cfg.window_size, shifted)
        return self._layouts[key]

    def forward(self, video: np.ndarray) -> Tensor:
        """Run clips (..., t, h, w, 3) through the network; returns logits (..., num_classes).

        Leading axes are clip-batch axes and stay leading in every token
        tensor, so a batch is one graph; one clip (t, h, w, 3) gives
        (num_classes,). Each clip's logits equal those of its own forward.
        """
        cfg = self.cfg
        z = patch_embed(video, cfg, self.embed_w, self.embed_b)
        z = T.layer_norm(z, self.embed_norm_g, self.embed_norm_b, cfg.layer_norm_eps)

        grid = cfg.token_grid()
        for i, stage in enumerate(self.stages):
            for j, blk in enumerate(stage.blocks):
                z = swin_block(z, blk, self.layout(grid, blk.shifted), self.hooks[i][j])
            if stage.downsample is not None:
                z, grid = merge_tokens(z, grid, stage.downsample, cfg.layer_norm_eps)

        z = T.layer_norm(z, self.norm_gamma, self.norm_beta, cfg.layer_norm_eps)
        pooled = T.tmean(z, axis=-2, keepdims=True)
        logits = T.linear(pooled, self.head_w, self.head_b)
        return T.reshape(logits, (*z.data.shape[:-2], cfg.num_classes))

    def zero_grads(self) -> None:
        for p in self.registry:
            p.tensor.zero_grad()


def build_model(cfg: ModelConfig, seed: int = 0) -> VideoSwinModel:
    """Allocate and initialize a backbone from :func:`backbone_parameter_plan`."""
    cfg.validate()
    reg = ParameterRegistry()
    allocate(reg, backbone_parameter_plan(cfg), np.random.default_rng(seed))

    def w(path: str) -> Tensor:
        return reg.get(path).tensor

    stages: list[StageParams] = []
    for i in range(cfg.num_stages):
        blocks = []
        for j in range(cfg.blocks_per_stage[i]):
            b = f"stages.{i}.blocks.{j}."
            attn = AttentionWeights(
                n_heads=cfg.heads_per_stage[i],
                w_q=w(b + "attn.q.weight"), b_q=w(b + "attn.q.bias"),
                w_k=w(b + "attn.k.weight"), b_k=w(b + "attn.k.bias"),
                w_v=w(b + "attn.v.weight"), b_v=w(b + "attn.v.bias"),
                w_o=w(b + "attn.proj.weight"), b_o=w(b + "attn.proj.bias"),
                bias_table=w(b + "attn.bias_table"),
            )
            blocks.append(BlockParams(
                norm1_gamma=w(b + "norm1.gamma"), norm1_beta=w(b + "norm1.beta"),
                attn=attn,
                norm2_gamma=w(b + "norm2.gamma"), norm2_beta=w(b + "norm2.beta"),
                fc1_w=w(b + "ffn.fc1.weight"), fc1_b=w(b + "ffn.fc1.bias"),
                fc2_w=w(b + "ffn.fc2.weight"), fc2_b=w(b + "ffn.fc2.bias"),
                shifted=bool(j % 2),
                eps=cfg.layer_norm_eps,
            ))
        downsample = None
        if i < cfg.num_stages - 1:
            ds = f"stages.{i}.downsample."
            downsample = DownsampleParams(norm_gamma=w(ds + "norm.gamma"),
                                          norm_beta=w(ds + "norm.beta"),
                                          reduction=w(ds + "reduction.weight"))
        stages.append(StageParams(blocks=blocks, downsample=downsample))

    return VideoSwinModel(cfg, reg, w("patch_embed.proj.weight"), w("patch_embed.proj.bias"),
                          w("patch_embed.norm.gamma"), w("patch_embed.norm.beta"), stages,
                          w("norm.gamma"), w("norm.beta"), w("head.weight"), w("head.bias"))
