import numpy as np
import pytest

from petl_lab import ModelConfig
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
    return rng.normal(size=(*cfg.input_size, cfg.in_channels))


class FixedRows:
    """Hook double: serves fixed key/value rows to a block and leaves its FFN output."""

    def __init__(self, extra_k, extra_v):
        self.extra_k = extra_k
        self.extra_v = extra_v

    def attention_extras(self, ln_tokens):
        return AttentionExtras(extra_k=self.extra_k, extra_v=self.extra_v)

    def ffn_output(self, out, z_hat, ln2, ffn):
        return out
