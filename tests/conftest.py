import numpy as np
import pytest

from petl_lab import ModelConfig
from petl_lab import tensor as T
from petl_lab.backbone import AttentionExtras

# Four stages, one shifted block (stage 2, block 1), small enough for
# second-implementation oracles and full-model finite differences.
TINY = ModelConfig(
    input_size=(4, 32, 32),
    patch_size=(2, 4, 4),
    embed_dims=(4, 4, 8, 8),
    blocks_per_stage=(1, 1, 2, 1),
    heads_per_stage=(2, 2, 2, 2),
    window_size=(2, 2, 2),
    num_classes=3,
)

# Smaller still, for checks that finite-difference every backbone weight.
NANO = ModelConfig(
    input_size=(4, 32, 32),
    patch_size=(2, 4, 4),
    embed_dims=(2, 2, 4, 4),
    blocks_per_stage=(1, 1, 2, 1),
    heads_per_stage=(1, 1, 2, 2),
    window_size=(2, 2, 2),
    num_classes=3,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_clip(rng, cfg: ModelConfig) -> np.ndarray:
    return rng.normal(size=(*cfg.input_size, 3))


class FixedRows:
    """Hook double: serves fixed key/value rows to a block and leaves its FFN output."""

    def __init__(self, extra_k, extra_v):
        self.extra_k = extra_k
        self.extra_v = extra_v

    def attention_extras(self, ln_tokens):
        return AttentionExtras(extra_k=self.extra_k, extra_v=self.extra_v)

    def ffn_output(self, out, ln2, ffn):
        return out


# Graph ops of the tests, made with ``T._make_op`` as the engine makes its own:
# a fault-injecting ``add``, and the ``transpose`` and ``broadcast_to`` that the
# op-by-op reference graphs and probes are built from.


def nan_add(a, b):
    """``T.add`` with every backward contribution multiplied by NaN."""
    a, b = T._as_tensor(a), T._as_tensor(b)

    def backward_fn(g):
        for t in (a, b):
            if t.requires_grad:
                t._accum_grad(T._unbroadcast(g, t.data.shape) * np.nan)

    return T._make_op(a.data + b.data, (a, b), backward_fn, "add")


def transpose(t, axes):
    """Permute the axes of ``t`` as a graph op of its own; ``axes`` may be negative."""
    axes = tuple(a % t.data.ndim for a in axes)
    inverse = tuple(np.argsort(axes))
    node = t._node

    def backward_fn(g):
        node._accum_grad(g.transpose(inverse))

    return T._make_op(t.data.transpose(axes), (t,), backward_fn, "transpose")


def broadcast_to(t, shape):
    """Repeat ``t`` along new or unit axes to ``shape``, as a graph op of its own."""
    node, source = t._node, t.data.shape

    def backward_fn(g):
        node._accum_grad(T._unbroadcast(g, source))

    return T._make_op(np.broadcast_to(t.data, tuple(shape)), (t,), backward_fn, "broadcast_to")
