"""Desk-scale parameter-efficient transfer learning lab.

A self-contained stack: a float64 autodiff tensor engine, a scaled-down 3D
shifted-window video transformer, four pluggable fine-tuning mechanisms
(prefix, adapter, prompt, parallel attention), exact parameter accounting,
a deterministic synthetic-video training harness, and an experiment CLI that
emits parameter-accuracy trade-off reports.
"""

from .backbone import (SWIN_B, SWIN_MICRO, ModelConfig, VideoSwinModel, WindowLayout,
                       build_model, patch_embed, window_attention)
from .checkpoint import load_checkpoint, read_checkpoint, save_checkpoint
from .errors import (ConfigError, GeometryError, NonFiniteError, PETLLabError,
                     ShapeError, StaleGraphError)
from .harness import (OptimizerConfig, SyntheticVideoDataset, TrainHistory,
                      cross_entropy, evaluate, grad_check, make_dataset, train)
from .petl import PETLSpec, attach_petl, build_swin_bapat, swin_bapat_spec
from .registry import (Parameter, ParameterRegistry, backbone_parameter_plan,
                       count_full_swin_b, count_params, freeze_backbone,
                       head_count, millions, petl_parameter_plan,
                       positional_count_report)
from .tensor import Tensor, no_grad

__version__ = "0.1.0"

__all__ = [
    "SWIN_B", "SWIN_MICRO", "ModelConfig", "VideoSwinModel",
    "WindowLayout", "build_model", "patch_embed", "window_attention",
    "load_checkpoint", "read_checkpoint", "save_checkpoint",
    "ConfigError", "GeometryError", "NonFiniteError", "PETLLabError",
    "ShapeError", "StaleGraphError",
    "OptimizerConfig", "SyntheticVideoDataset", "TrainHistory", "cross_entropy",
    "evaluate", "grad_check", "make_dataset", "train",
    "PETLSpec", "attach_petl", "build_swin_bapat", "swin_bapat_spec",
    "Parameter", "ParameterRegistry", "backbone_parameter_plan",
    "count_full_swin_b", "count_params",
    "freeze_backbone", "head_count", "millions", "petl_parameter_plan",
    "positional_count_report",
    "Tensor", "no_grad",
    "__version__",
]
