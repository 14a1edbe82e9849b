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

Weights are read by the paths :func:`backbone_parameter_plan` gives them;
there are no weight dataclasses. A block's weights are a dict keyed by the
path below ``stages.{i}.blocks.{j}.`` (``"attn.q.weight"``, ``"norm1.gamma"``,
...), and its head count is the width of its bias table.

Fine-tuning modules plug in through a per-block hooks object (see
:mod:`petl_lab.petl`) whose ``attention_extras`` and ``ffn_output`` edit the
block; a block without inserts has ``None`` hooks and runs bare. The backbone
only defines the call surface.
"""

from __future__ import annotations

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


def window_attention(x: Tensor, w: dict[str, Tensor],
                     bias: Tensor | None = None,
                     extra_k: Tensor | None = None,
                     extra_v: Tensor | None = None,
                     add_q: Tensor | None = None,
                     add_k: Tensor | None = None,
                     add_v: Tensor | None = None) -> Tensor:
    """Multi-head self-attention within each window of a stack of windows.

    ``x`` is (..., n, d): any leading axes index independent windows of n
    tokens each. ``w`` holds the block's weights by plan name; the width of
    ``w["attn.bias_table"]`` is the head count. Per head the projected
    queries attend over the projected keys/values, scaled by the inverse
    square root of the head dimension, plus ``bias``, which broadcasts to
    (..., n_heads, n, n): a (G, n_heads, n, n) bias serves every clip of a
    (B, G) lead. ``add_q/k/v`` have the
    shape of ``x``. The (n_extra, d) ``extra_k``/``extra_v`` rows are
    prepended to the keys/values of every window and carry no position bias.
    Returns (..., n, d) after the output projection.

    The projections are :func:`~petl_lab.tensor.linear` ops; everything from
    the head split to the head merge is one :func:`~petl_lab.tensor.attention`
    op, which keeps only the softmax output for backward.
    """
    *lead, n, d = x.data.shape
    heads = w["attn.bias_table"].data.shape[1]

    def project(weight: Tensor, offset: Tensor, add: Tensor | None) -> Tensor:
        out = T.linear(x, weight, offset)
        return out if add is None else T.add(out, add)

    q = project(w["attn.q.weight"], w["attn.q.bias"], add_q)
    k = project(w["attn.k.weight"], w["attn.k.bias"], add_k)
    v = project(w["attn.v.weight"], w["attn.v.bias"], add_v)

    if extra_k is not None or extra_v is not None:
        if extra_k is None or extra_v is None or extra_k.data.shape != extra_v.data.shape:
            raise ShapeError("extra key/value rows must come in matching pairs")
        n_extra = extra_k.data.shape[0]
        if n_extra:
            k = T.concat([T.broadcast_to(extra_k, (*lead, n_extra, d)), k], axis=-2)
            v = T.concat([T.broadcast_to(extra_v, (*lead, n_extra, d)), v], axis=-2)
            if bias is not None:
                pad = Tensor(np.zeros((*bias.data.shape[:-1], n_extra)))
                bias = T.concat([pad, bias], axis=-1)

    merged = T.attention(q, k, v, bias, heads)
    return T.linear(merged, w["attn.proj.weight"], w["attn.proj.bias"])


def _windowed_attention(tokens: Tensor, w: dict[str, Tensor], layout: WindowLayout,
                        extras: AttentionExtras | None) -> Tensor:
    """One batched :func:`window_attention` call per window group, back in raster order.

    ``tokens`` is (..., N, d). A group's (G, n) token indices are gathered
    along the token axis, so each call runs on (..., G, n, d) and its bias
    (G, heads, n, n) is shared by every clip. Returns (..., N, d).
    """
    extras = extras or AttentionExtras()
    table = w["attn.bias_table"]
    *lead, _, d = tokens.data.shape
    outs = []
    for group in layout.groups:
        idx = group.tokens
        add_q, add_k, add_v = (None if t is None else T.gather_rows(t, idx, axis=-2)
                               for t in (extras.add_q, extras.add_k, extras.add_v))
        bias = T.transpose(T.gather_rows(table, group.bias_index), (0, 3, 1, 2))
        out = window_attention(T.gather_rows(tokens, idx, axis=-2), w, bias=bias,
                               extra_k=extras.extra_k, extra_v=extras.extra_v,
                               add_q=add_q, add_k=add_k, add_v=add_v)
        outs.append(T.reshape(out, (*lead, idx.size, d)))
    stitched = outs[0] if len(outs) == 1 else T.concat(outs, axis=-2)
    return T.gather_rows(stitched, layout.inverse_perm, axis=-2)


def swin_block(z: Tensor, w: dict[str, Tensor], layout: WindowLayout, eps: float,
               hooks=None, scope: str = "block") -> Tensor:
    """One block: windowed attention and FFN, each behind layer norm + residual.

    The two halves run as the scopes ``{scope}.attn`` and ``{scope}.ffn``
    (see :func:`~petl_lab.tensor.scoped`), with the hooks inside them. The
    FFN (fc1, exact GELU, fc2) is one :func:`~petl_lab.tensor.mlp` op, which
    keeps only the GELU derivative for backward, plus the GELU output when
    fc2's weight trains.
    """
    z_hat = T.scoped(f"{scope}.attn", _attention_residual, z, w, layout, eps, hooks)
    return T.scoped(f"{scope}.ffn", _ffn_residual, z_hat, w, eps, hooks)


def _attention_residual(z: Tensor, w: dict[str, Tensor], layout: WindowLayout, eps: float,
                        hooks) -> Tensor:
    ln1 = T.layer_norm(z, w["norm1.gamma"], w["norm1.beta"], eps)
    extras = hooks.attention_extras(ln1) if hooks is not None else None
    return T.add(_windowed_attention(ln1, w, layout, extras), z)


def _ffn_residual(z_hat: Tensor, w: dict[str, Tensor], eps: float, hooks) -> Tensor:
    ln2 = T.layer_norm(z_hat, w["norm2.gamma"], w["norm2.beta"], eps)
    ffn = T.mlp(ln2, w["ffn.fc1.weight"], w["ffn.fc1.bias"],
                w["ffn.fc2.weight"], w["ffn.fc2.bias"])
    out = T.add(ffn, z_hat)
    if hooks is not None:
        out = hooks.ffn_output(out, ln2=ln2, ffn=ffn)
    return out


def merge_tokens(z: Tensor, grid: tuple[int, int, int], w: dict[str, Tensor],
                 eps: float) -> Tensor:
    """2x2 spatial patch merge: concat neighbor features, norm, linear reduce.

    ``z`` is (..., N, d) over ``grid`` and ``w`` holds the merge's weights by
    plan name; returns (..., N / 4, d_out) over the grid with halved spatial
    extents.
    """
    gt, gh, gw = grid
    if gh % 2 or gw % 2:
        raise GeometryError(f"cannot merge grid {grid} with odd spatial extents")
    flat = np.arange(gt * gh * gw).reshape(gt, gh, gw)
    quadrants = [flat[:, 0::2, 0::2], flat[:, 1::2, 0::2],
                 flat[:, 0::2, 1::2], flat[:, 1::2, 1::2]]
    parts = [T.gather_rows(z, q.reshape(-1), axis=-2) for q in quadrants]
    cat = T.concat(parts, axis=-1)
    cat = T.layer_norm(cat, w["norm.gamma"], w["norm.beta"], eps)
    return T.matmul(cat, w["reduction.weight"])


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
    """A built backbone: parameters, cached window layouts, and forward.

    Weights are read by plan path, with no weight dataclasses:
    ``blocks[i][j]`` and ``downsamples[i]`` hold the tensors under
    ``stages.{i}.blocks.{j}.`` and ``stages.{i}.downsample.`` keyed by the
    rest of the path, and ``forward`` reads embed, final norm and head from
    the registry.
    """

    def __init__(self, cfg: ModelConfig, registry: ParameterRegistry):
        self.cfg = cfg
        self.registry = registry
        self.blocks = [[registry.tensors(f"stages.{i}.blocks.{j}.") for j in range(n)]
                       for i, n in enumerate(cfg.blocks_per_stage)]
        self.downsamples = [registry.tensors(f"stages.{i}.downsample.")
                            for i in range(cfg.num_stages - 1)]
        self.hooks: list[list] = [[None] * n for n in cfg.blocks_per_stage]
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

        Every op runs in a named scope (see :func:`~petl_lab.tensor.scoped`):
        ``embed``, ``stage{i}.block{j}.attn``, ``stage{i}.block{j}.ffn``,
        ``merge{i}`` and ``head``; a non-finite value raises
        :class:`~petl_lab.errors.NonFiniteError` naming its scope.
        """
        cfg = self.cfg
        eps = cfg.layer_norm_eps

        def w(path: str) -> Tensor:
            return self.registry.get(path).tensor

        def embed(video: np.ndarray) -> Tensor:
            z = patch_embed(video, cfg, w("patch_embed.proj.weight"), w("patch_embed.proj.bias"))
            return T.layer_norm(z, w("patch_embed.norm.gamma"), w("patch_embed.norm.beta"), eps)

        def head(z: Tensor) -> Tensor:
            z = T.layer_norm(z, w("norm.gamma"), w("norm.beta"), eps)
            pooled = T.tmean(z, axis=-2, keepdims=True)
            logits = T.linear(pooled, w("head.weight"), w("head.bias"))
            return T.reshape(logits, (*z.data.shape[:-2], cfg.num_classes))

        z = T.scoped("embed", embed, video)
        for i, (blocks, grid) in enumerate(zip(self.blocks, cfg.stage_grids())):
            for j, blk in enumerate(blocks):  # odd blocks run on the shifted grid
                z = swin_block(z, blk, self.layout(grid, bool(j % 2)), eps, self.hooks[i][j],
                               f"stage{i}.block{j}")
            if i < len(self.downsamples):
                z = T.scoped(f"merge{i}", merge_tokens, z, grid, self.downsamples[i], eps)
        return T.scoped("head", head, z)

    def zero_grads(self) -> None:
        for p in self.registry:
            p.tensor.zero_grad()


def build_model(cfg: ModelConfig, seed: int = 0) -> VideoSwinModel:
    """Allocate and initialize a backbone from :func:`backbone_parameter_plan`."""
    cfg.validate()
    reg = ParameterRegistry()
    allocate(reg, backbone_parameter_plan(cfg), np.random.default_rng(seed))
    return VideoSwinModel(cfg, reg)
