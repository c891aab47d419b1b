"""Minimal reverse-mode automatic differentiation on numpy arrays.

Implements exactly the operation set the localization models need: elementwise
arithmetic with limited broadcasting, 2-D matmul, reductions, reshapes,
concatenation, and the usual activations. Convolution layers register their
own custom gradients through :meth:`Tensor.from_op`.

Training runs in float32 from forward through backward; gradient-check tests
use float64 (the finite-difference tolerances are unreachable in single
precision). A non-Tensor operand (Python scalar or ndarray) is cast to the
Tensor's own dtype before the op: under NEP 50 a 0-d float64 array, which is
what a bare ``np.asarray(0.5)`` makes, would otherwise promote a float32
operand, and the promotion would carry on through every later op and its
gradient.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "ShapeError", "GraphConsumedError", "concat"]


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class GraphConsumedError(RuntimeError):
    """backward() was called on a graph whose gradients were already propagated."""


def _sum_to_shape(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    # sum out prepended axes
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # sum over broadcast (size-1) axes
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Tensor:
    """Dense n-d array with optional gradient tracking.

    ``requires_grad`` marks participation in gradient flow; leaves created
    with ``requires_grad=True`` receive accumulated gradients in ``.grad``
    after ``backward()``. Intermediate gradients are freed as soon as they
    have been propagated.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_consumed")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None
        self._consumed = False

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def assert_finite(self, where: str = "") -> "Tensor":
        if not np.all(np.isfinite(self.data)):
            raise FloatingPointError(f"non-finite values in {where or 'tensor'}")
        return self

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # ------------------------------------------------------------------
    # graph construction
    # ------------------------------------------------------------------

    @staticmethod
    def from_op(data: np.ndarray, parents, backward_fn) -> "Tensor":
        """Create an op result; ``backward_fn(grad)`` must accumulate into parents."""
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        return out

    def _accum(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

    def backward(self) -> None:
        """Propagate gradients from a scalar loss to every reachable leaf.

        The graph is single-use: a second backward() through the same nodes
        raises GraphConsumedError.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar loss, got shape {self.data.shape}")
        if self._consumed:
            raise GraphConsumedError("backward() already ran on this graph")
        if not self.requires_grad:
            raise RuntimeError("loss does not require grad; nothing to differentiate")

        # iterative topological sort over grad-requiring nodes
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    if p._consumed:
                        raise GraphConsumedError("graph reuses a node from a consumed graph")
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)
                node._consumed = True
                node.grad = None  # intermediate: free after propagation
                node._backward_fn = None
                node._parents = ()
        self._consumed = True

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, Tensor):
            raise TypeError("internal: use the two-tensor path")
        return np.asarray(other, dtype=self.data.dtype)

    def __add__(self, other):
        if isinstance(other, Tensor):
            out_data = self.data + other.data
            a, b = self, other

            def bw(g):
                if a.requires_grad:
                    a._accum(_sum_to_shape(g, a.data.shape))
                if b.requires_grad:
                    b._accum(_sum_to_shape(g, b.data.shape))

            return Tensor.from_op(out_data, (a, b), bw)
        c = self._coerce(other)
        a = self

        def bwc(g):
            a._accum(_sum_to_shape(g, a.data.shape))

        return Tensor.from_op(self.data + c, (a,), bwc)

    __radd__ = __add__

    def __neg__(self):
        a = self
        return Tensor.from_op(-self.data, (a,), lambda g: a._accum(-g))

    def __sub__(self, other):
        if isinstance(other, Tensor):
            out_data = self.data - other.data
            a, b = self, other

            def bw(g):
                if a.requires_grad:
                    a._accum(_sum_to_shape(g, a.data.shape))
                if b.requires_grad:
                    b._accum(_sum_to_shape(-g, b.data.shape))

            return Tensor.from_op(out_data, (a, b), bw)
        c = self._coerce(other)
        a = self
        return Tensor.from_op(self.data - c, (a,), lambda g: a._accum(_sum_to_shape(g, a.data.shape)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Tensor):
            out_data = self.data * other.data
            a, b = self, other

            def bw(g):
                if a.requires_grad:
                    a._accum(_sum_to_shape(g * b.data, a.data.shape))
                if b.requires_grad:
                    b._accum(_sum_to_shape(g * a.data, b.data.shape))

            return Tensor.from_op(out_data, (a, b), bw)
        c = self._coerce(other)
        a = self
        return Tensor.from_op(self.data * c, (a,), lambda g: a._accum(_sum_to_shape(g * c, a.data.shape)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return self * other ** -1.0
        return self * (1.0 / self._coerce(other))

    def __pow__(self, p):
        p = float(p)
        a = self
        out_data = self.data ** p

        def bw(g):
            a._accum(g * p * a.data ** (p - 1.0))

        return Tensor.from_op(out_data, (a,), bw)

    def __matmul__(self, other):
        if not isinstance(other, Tensor):
            other = Tensor(other, dtype=self.data.dtype)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ShapeError(f"matmul supports 2-D operands, got {self.data.shape} @ {other.data.shape}")
        if self.data.shape[1] != other.data.shape[0]:
            raise ShapeError(f"matmul inner dims differ: {self.data.shape} @ {other.data.shape}")
        a, b = self, other

        def bw(g):
            if a.requires_grad:
                a._accum(g @ b.data.T)
            if b.requires_grad:
                b._accum(a.data.T @ g)

        return Tensor.from_op(self.data @ other.data, (a, b), bw)

    def __getitem__(self, idx):
        a = self
        out_data = self.data[idx]

        def bw(g):
            full = np.zeros_like(a.data)
            np.add.at(full, idx, g)
            a._accum(full)

        return Tensor.from_op(out_data, (a,), bw)

    # ------------------------------------------------------------------
    # reductions and shape ops
    # ------------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def bw(g):
            if axis is None:
                a._accum(np.broadcast_to(g, a.data.shape).copy())
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                a._accum(np.broadcast_to(gg, a.data.shape).copy())

        return Tensor.from_op(out_data, (a,), bw)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else (
            np.prod([self.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        orig = self.data.shape
        out_data = self.data.reshape(shape)
        return Tensor.from_op(out_data, (a,), lambda g: a._accum(g.reshape(orig)))

    def transpose(self, axes):
        a = self
        inv = np.argsort(axes)
        out_data = np.transpose(self.data, axes)
        return Tensor.from_op(out_data, (a,), lambda g: a._accum(np.transpose(g, inv)))

    # ------------------------------------------------------------------
    # activations and pointwise functions
    # ------------------------------------------------------------------

    def relu(self):
        a = self
        out_data = np.maximum(self.data, 0)

        def bw(g):
            a._accum(g * (a.data > 0))

        return Tensor.from_op(out_data, (a,), bw)

    def tanh(self):
        a = self
        out_data = np.tanh(self.data)

        def bw(g):
            a._accum(g * (1.0 - out_data * out_data))

        return Tensor.from_op(out_data, (a,), bw)

    def sigmoid(self):
        a = self
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def bw(g):
            a._accum(g * out_data * (1.0 - out_data))

        return Tensor.from_op(out_data, (a,), bw)

    def exp(self):
        a = self
        out_data = np.exp(self.data)
        return Tensor.from_op(out_data, (a,), lambda g: a._accum(g * out_data))

    def log(self):
        a = self
        return Tensor.from_op(np.log(self.data), (a,), lambda g: a._accum(g / a.data))


def concat(tensors, axis: int = 1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient split on backward."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of an empty tensor list")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        pieces = np.split(g, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accum(piece)

    return Tensor.from_op(out_data, tuple(tensors), bw)
