"""Tensor autodiff kernel, layers, optimizer, and checkpoint IO."""

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .layers import Conv1D, Conv2D, Dense, GlobalAvgPool, Layer, Mode, branches, glorot_uniform
from .optim import SGD
from .tensor import GraphConsumedError, ShapeError, Tensor, concat

__all__ = [
    "Tensor", "concat", "ShapeError", "GraphConsumedError",
    "Layer", "Mode", "Dense", "Conv1D", "Conv2D",
    "GlobalAvgPool", "glorot_uniform", "branches", "SGD",
    "save_checkpoint", "load_checkpoint", "CheckpointError",
]
