"""Tensor autodiff kernel, layers, optimizer, and checkpoint IO."""

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .layers import (BatchConcat, Conv1D, Conv2D, Dense, Dropout, Flatten,
                     GlobalAvgPool, Layer, Mode, ReLU, Sigmoid, Tanh,
                     glorot_uniform)
from .optim import SGD
from .tensor import GraphConsumedError, ShapeError, Tensor, concat

__all__ = [
    "Tensor", "concat", "ShapeError", "GraphConsumedError",
    "Layer", "Mode", "Dense", "Conv1D", "Conv2D",
    "ReLU", "Tanh", "Sigmoid", "Dropout", "GlobalAvgPool", "Flatten",
    "BatchConcat", "glorot_uniform", "SGD",
    "save_checkpoint", "load_checkpoint", "CheckpointError",
]
