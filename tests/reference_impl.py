"""Independent plain-numpy re-implementations used as oracles.

Everything here is written from the math with explicit loops and per-head
weight slicing, deliberately avoiding the package's batched reshape/transpose
formulation, its window-layout class, and its autodiff engine. Only weight
*values* are read from a built model.
"""

import math

import numpy as np


def ref_layer_norm(x, gamma, beta, eps):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def ref_softmax_vec(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def ref_gelu(x):
    out = np.empty_like(x)
    flat_in = x.reshape(-1)
    flat_out = out.reshape(-1)
    for i in range(flat_in.size):
        flat_out[i] = flat_in[i] * 0.5 * (1.0 + math.erf(flat_in[i] / math.sqrt(2.0)))
    return out


def bias_flat_index(delta, window):
    p, m1, m2 = window
    dt, dh, dw = delta
    return ((dt + p - 1) * (2 * m1 - 1) + (dh + m1 - 1)) * (2 * m2 - 1) + (dw + m2 - 1)


def ref_window_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, n_heads,
                         bias=None, extra_k=None, extra_v=None,
                         add_q=None, add_k=None, add_v=None):
    """Loop-based attention over one window.

    ``bias`` is (n_heads, n, n) over the real tokens only; extra rows carry
    zero bias. ``add_*`` are pre-scaled additive corrections, shape (n, d).
    """
    n, d = x.shape
    hd = d // n_heads
    q = x @ wq + bq
    k = x @ wk + bk
    v = x @ wv + bv
    if add_q is not None:
        q = q + add_q
    if add_k is not None:
        k = k + add_k
    if add_v is not None:
        v = v + add_v
    if extra_k is not None:
        k = np.vstack([extra_k, k])
        v = np.vstack([extra_v, v])
    n_extra = k.shape[0] - n

    merged = np.zeros((n, d))
    for h in range(n_heads):
        sl = slice(h * hd, (h + 1) * hd)
        qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
        for i in range(n):
            logits = np.array([qh[i] @ kh[j] / math.sqrt(hd) for j in range(kh.shape[0])])
            if bias is not None:
                logits[n_extra:] += bias[h, i]
            alpha = ref_softmax_vec(logits)
            merged[i, sl] = sum(alpha[j] * vh[j] for j in range(kh.shape[0]))
    return merged @ wo + bo


def assign_windows(grid, window, shifted):
    """Group flat token indices by window; independent of WindowLayout."""
    gt, gh, gw = grid
    p, m1, m2 = window
    shift = (p // 2, m1 // 2, m2 // 2) if shifted else (0, 0, 0)
    groups = {}
    coords = {}
    flat = 0
    for a in range(gt):
        for b in range(gh):
            for c in range(gw):
                key = ((a + shift[0]) // p, (b + shift[1]) // m1, (c + shift[2]) // m2)
                groups.setdefault(key, []).append(flat)
                coords[flat] = (a, b, c)
                flat += 1
    return groups, coords


def _petl_params(model, i, j):
    base = f"stages.{i}.blocks.{j}.petl"
    reg = model.registry
    get = lambda name: reg.get(f"{base}.{name}").tensor.data if f"{base}.{name}" in reg else None
    return {
        "adapter_down_w": get("adapter.down.weight"),
        "adapter_down_b": get("adapter.down.bias"),
        "adapter_up_w": get("adapter.up.weight"),
        "adapter_up_b": get("adapter.up.bias"),
        "patt_down": get("patt.down.weight"),
        "patt_up_q": get("patt.up_q.weight"),
        "patt_up_k": get("patt.up_k.weight"),
        "patt_up_v": get("patt.up_v.weight"),
        "prefix_p_k": get("prefix.p_k"),
        "prefix_p_v": get("prefix.p_v"),
        "prefix_w_pk": get("prefix.w_pk"),
        "prefix_w_pv": get("prefix.w_pv"),
        "prompt": get("prompt.tokens"),
    }


def ref_block(z, model, i, j, grid):
    """Reference forward of block (i, j), including any attached inserts."""
    cfg = model.cfg
    reg = model.registry
    base = f"stages.{i}.blocks.{j}"
    w = lambda name: reg.get(f"{base}.{name}").tensor.data
    eps = cfg.layer_norm_eps
    heads = cfg.heads_per_stage[i]
    spec = model.petl_spec
    petl = _petl_params(model, i, j)

    ln1 = ref_layer_norm(z, w("norm1.gamma"), w("norm1.beta"), eps)

    extra_k = extra_v = None
    rows_k, rows_v = [], []
    if petl["prefix_p_k"] is not None:
        rows_k.append(np.tanh(petl["prefix_p_k"] @ petl["prefix_w_pk"]) @ petl["prefix_w_pv"])
        rows_v.append(np.tanh(petl["prefix_p_v"] @ petl["prefix_w_pk"]) @ petl["prefix_w_pv"])
    if petl["prompt"] is not None:
        rows_k.append(petl["prompt"] @ w("attn.k.weight") + w("attn.k.bias"))
        rows_v.append(petl["prompt"] @ w("attn.v.weight") + w("attn.v.bias"))
    if rows_k:
        extra_k = np.vstack(rows_k)
        extra_v = np.vstack(rows_v)

    add_q = add_k = add_v = None
    if petl["patt_down"] is not None:
        hidden = np.tanh(ln1 @ petl["patt_down"])
        s = spec.s_patt
        if petl["patt_up_q"] is not None:
            add_q = s * (hidden @ petl["patt_up_q"])
        if petl["patt_up_k"] is not None:
            add_k = s * (hidden @ petl["patt_up_k"])
        if petl["patt_up_v"] is not None:
            add_v = s * (hidden @ petl["patt_up_v"])

    shifted = bool(j % 2)
    groups, coords = assign_windows(grid, cfg.window_size, shifted)
    table = w("attn.bias_table")
    attn_out = np.zeros_like(z)
    for key in groups:
        idx = groups[key]
        n = len(idx)
        bias = np.zeros((heads, n, n))
        for a, ia in enumerate(idx):
            for b, ib in enumerate(idx):
                delta = tuple(np.array(coords[ia]) - np.array(coords[ib]))
                bias[:, a, b] = table[bias_flat_index(delta, cfg.window_size)]
        out = ref_window_attention(
            ln1[idx], w("attn.q.weight"), w("attn.q.bias"),
            w("attn.k.weight"), w("attn.k.bias"),
            w("attn.v.weight"), w("attn.v.bias"),
            w("attn.proj.weight"), w("attn.proj.bias"),
            heads, bias=bias, extra_k=extra_k, extra_v=extra_v,
            add_q=add_q[idx] if add_q is not None else None,
            add_k=add_k[idx] if add_k is not None else None,
            add_v=add_v[idx] if add_v is not None else None)
        for a, ia in enumerate(idx):
            attn_out[ia] = out[a]

    z_hat = attn_out + z
    ln2 = ref_layer_norm(z_hat, w("norm2.gamma"), w("norm2.beta"), eps)
    ffn = ref_gelu(ln2 @ w("ffn.fc1.weight") + w("ffn.fc1.bias")) \
        @ w("ffn.fc2.weight") + w("ffn.fc2.bias")
    out = ffn + z_hat
    if petl["adapter_up_w"] is not None:
        source = ln2 if "adapter_parallel" in spec.mechanisms else ffn
        branch = np.maximum(source @ petl["adapter_down_w"] + petl["adapter_down_b"], 0.0) \
            @ petl["adapter_up_w"] + petl["adapter_up_b"]
        out = out + spec.s_adapter * branch
    return out


def ref_forward(model, clip):
    """Full-model reference forward: same weights, independent code path."""
    cfg = model.cfg
    reg = model.registry
    w = lambda name: reg.get(name).tensor.data
    t, h, wd = cfg.input_size
    pt, ph, pw = cfg.patch_size
    gt, gh, gw = t // pt, h // ph, wd // pw

    tokens = np.zeros((gt * gh * gw, cfg.patch_volume))
    flat = 0
    for a in range(gt):
        for b in range(gh):
            for c in range(gw):
                patch = clip[a * pt:(a + 1) * pt, b * ph:(b + 1) * ph,
                             c * pw:(c + 1) * pw, :]
                tokens[flat] = patch.reshape(-1)
                flat += 1
    z = tokens @ w("patch_embed.proj.weight") + w("patch_embed.proj.bias")
    z = ref_layer_norm(z, w("patch_embed.norm.gamma"), w("patch_embed.norm.beta"),
                       cfg.layer_norm_eps)

    grid = (gt, gh, gw)
    for i in range(cfg.num_stages):
        for j in range(cfg.blocks_per_stage[i]):
            z = ref_block(z, model, i, j, grid)
        if i < cfg.num_stages - 1:
            a, b, c = grid
            merged = np.zeros((a * (b // 2) * (c // 2), 4 * z.shape[1]))
            d = z.shape[1]
            flat_in = np.arange(a * b * c).reshape(a, b, c)
            row = 0
            for ti in range(a):
                for hi in range(0, b, 2):
                    for wi in range(0, c, 2):
                        quads = [flat_in[ti, hi, wi], flat_in[ti, hi + 1, wi],
                                 flat_in[ti, hi, wi + 1], flat_in[ti, hi + 1, wi + 1]]
                        merged[row] = np.concatenate([z[qi] for qi in quads])
                        row += 1
            merged = ref_layer_norm(
                merged, w(f"stages.{i}.downsample.norm.gamma"),
                w(f"stages.{i}.downsample.norm.beta"), cfg.layer_norm_eps)
            z = merged @ w(f"stages.{i}.downsample.reduction.weight")
            grid = (a, b // 2, c // 2)

    z = ref_layer_norm(z, w("norm.gamma"), w("norm.beta"), cfg.layer_norm_eps)
    pooled = z.mean(axis=0)
    return pooled @ w("head.weight") + w("head.bias")


def closed_form_backbone_count(cfg):
    """Backbone + head parameter count by arithmetic alone (no plan, no allocation)."""
    p, m1, m2 = cfg.window_size
    n_bias = (2 * p - 1) * (2 * m1 - 1) * (2 * m2 - 1)
    d0 = cfg.embed_dims[0]
    total = cfg.patch_volume * d0 + d0  # patch projection
    total += 2 * d0                     # embedding norm
    for i in range(cfg.num_stages):
        d = cfg.embed_dims[i]
        heads = cfg.heads_per_stage[i]
        d_hidden = cfg.ffn_ratio * d
        per_block = (
            3 * (d * d + d)        # q, k, v projections with bias
            + d * d + d            # output projection
            + n_bias * heads       # relative-position bias table
            + 4 * d                # two layer norms
            + d * d_hidden + d_hidden  # fc1
            + d_hidden * d + d     # fc2
        )
        total += cfg.blocks_per_stage[i] * per_block
        if i < cfg.num_stages - 1:
            total += 8 * d + 4 * d * cfg.embed_dims[i + 1]  # merge norm + reduction
    d_last = cfg.embed_dims[-1]
    total += 2 * d_last                          # final norm
    total += d_last * cfg.num_classes + cfg.num_classes  # head
    return total
