"""Minimal reverse-mode automatic differentiation on numpy arrays.

Implements exactly the operation set the localization models need: elementwise
arithmetic with limited broadcasting, 2-D matmul, reductions, reshapes,
concatenation, and the usual activations. Convolution layers register their
own custom gradients through :meth:`Tensor.from_op`.

Training runs in float32 from forward through backward; gradient-check tests
use float64 (the finite-difference tolerances are unreachable in single
precision). A non-Tensor operand (Python or numpy scalar, or ndarray), on
either side of an operator, becomes a constant leaf Tensor of the Tensor's
own dtype before the op: under NEP 50 a 0-d float64 array, which is what a
bare ``np.asarray(0.5)`` makes, would otherwise promote a float32 operand,
and the promotion would carry on through every later op and its gradient.
An ndarray on the left defers to the Tensor's reflected operator, so
``ndarray / Tensor`` and ``ndarray @ Tensor``, which have none, raise
TypeError. Each op is its value plus its local vector-Jacobian product,
built by one of two node builders: ``_binary`` for ``+ - *`` and ``@``,
``_unary`` for everything with one operand.

The graph is kept apart from the data, by one rule: a node keeps only what
its backward reads. A Tensor is its data and, if it requires grad, its
``_Node``: the nodes of its parents, its backward function, its gradient
and whether backward has consumed it. No node holds a Tensor, so an
operand's data lives only as long as the caller or a backward that reads
it holds it: add, sub and concat keep no array; mul, matmul, pow and log
keep their operands, tanh, sigmoid and exp their output, relu a bool mask;
sum keeps the operand's shape and dtype, getitem its axis order too.

A gradient passed between nodes may be a read-only view: ``sum``'s is its
upstream broadcast to the operand's shape (``np.broadcast_to``), with no
copy, so a mean over time hands the conv below it a stride-0 array that
the conv reads chunk by chunk. A leaf's ``.grad`` never is one: the first
read copies a read-only gradient into a writable array of the leaf's shape
and axis order, so ``sum``'s gradient of a channels-last leaf is
channels-last, and an optimizer may update it in place.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "ShapeError", "GraphConsumedError", "concat"]


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class GraphConsumedError(RuntimeError):
    """backward() was called on a graph whose gradients were already propagated."""


def _float_dtype(dtype) -> type:
    """``dtype`` as a numpy scalar type if it is float32 or float64, the two
    precisions the package computes in; any other is a ValueError naming it."""
    dt = None if dtype is None else np.dtype(dtype)     # np.dtype(None) is float64
    if dt not in (np.float32, np.float64):
        raise ValueError(f"dtype must be float32 or float64, got {dt}")
    return dt.type


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


def _like(a: np.ndarray):
    """A function that returns a new uninitialized array of ``a``'s shape,
    dtype and axis order, as ``np.empty_like(a)`` does, and keeps no data."""
    order = sorted(range(a.ndim), key=lambda ax: -abs(a.strides[ax]))
    shape, inv, dtype = [a.shape[ax] for ax in order], np.argsort(order), a.dtype
    return lambda: np.empty(shape, dtype).transpose(inv)


def _identity(g):
    return g


class _Node:
    """The graph state of a Tensor that requires grad: its parents' nodes
    and its ``backward_fn`` (none for a leaf), the gradient accumulated so
    far, and whether backward has run through it."""

    __slots__ = ("parents", "backward_fn", "grad", "consumed")

    def __init__(self, parents: tuple = (), backward_fn=None):
        self.parents = parents
        self.backward_fn = backward_fn
        self.grad = None
        self.consumed = False

    def accum(self, grad: np.ndarray) -> None:
        self.grad = grad if self.grad is None else self.grad + grad


class Tensor:
    """Dense n-d array with optional gradient tracking.

    ``requires_grad`` marks participation in gradient flow; leaves created
    with ``requires_grad=True`` receive accumulated gradients in ``.grad``
    after ``backward()``. Intermediate gradients are freed as soon as they
    have been propagated. The graph state lives in the Tensor's node, and a
    node keeps only what its backward reads: never a Tensor, so an op's
    operand dies with the caller's last reference unless its backward reads
    it. Data holds float32 or float64: a given ``dtype`` must be one of
    them (``_float_dtype``, the check ``Layer.cast`` makes too), and data
    of any other inferred dtype becomes float64.
    """

    __slots__ = ("data", "_node")
    # numpy defers to the reflected operators instead of looping over elements
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=None if dtype is None else _float_dtype(dtype))
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self._node = _Node() if requires_grad else None

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

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self):
        """The gradient accumulated so far, or None; a tensor that does not
        require grad has none, and can be set to None only. A read-only
        gradient (a reduction's broadcast view) is copied, on this first
        read, into a writable array of the data's shape and axis order, in
        the gradient's dtype: the leaf rule of the module docstring."""
        node = self._node
        if node is not None and node.grad is not None and not node.grad.flags.writeable:
            full = np.empty_like(self.data, dtype=node.grad.dtype)
            full[...] = node.grad
            node.grad = full
        return None if node is None else node.grad

    @grad.setter
    def grad(self, value) -> None:
        if self._node is not None:
            self._node.grad = value
        elif value is not None:
            raise AttributeError("a tensor that does not require grad has no gradient to set")

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def assert_finite(self, where: str = "") -> "Tensor":
        if not np.all(np.isfinite(self.data)):
            raise FloatingPointError(f"non-finite values in {where or 'tensor'}")
        return self

    # ------------------------------------------------------------------
    # graph construction
    # ------------------------------------------------------------------

    @staticmethod
    def from_op(data: np.ndarray, parents, backward_fn) -> "Tensor":
        """Create an op result; ``backward_fn(grad)`` must accumulate into
        every parent that requires grad. The result's node keeps the
        parents' nodes and ``backward_fn``, so ``backward_fn`` should close
        over only the arrays it reads and the parents' nodes, not the
        parents themselves."""
        out = Tensor(data)
        nodes = tuple(p._node for p in parents if p._node is not None)
        if nodes:
            out._node = _Node(nodes, backward_fn)
        return out

    def backward(self) -> None:
        """Propagate gradients from this scalar loss to every reachable leaf.

        The graph is single-use: a second backward() through the same nodes
        raises GraphConsumedError.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar loss, got shape {self.data.shape}")
        root = self._node
        if root is None:
            raise RuntimeError("loss does not require grad; nothing to differentiate")
        if root.consumed:
            raise GraphConsumedError("backward() already ran on this graph")

        # iterative topological sort over the nodes
        topo: list[_Node] = []
        visited: set[_Node] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for p in node.parents:
                if p not in visited:
                    if p.consumed:
                        raise GraphConsumedError("graph reuses a node from a consumed graph")
                    stack.append((p, False))

        root.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node.backward_fn is not None:
                node.backward_fn(node.grad)
                node.consumed = True
                node.grad = None  # intermediate: free after propagation
                node.backward_fn = None
                node.parents = ()
        root.consumed = True

    # ------------------------------------------------------------------
    # node builders
    # ------------------------------------------------------------------

    def _operand(self, other) -> "Tensor":
        """``other`` itself if a Tensor, else a constant leaf of this dtype."""
        return other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)

    def _binary(self, other, op, grad_a, grad_b) -> "Tensor":
        """A node of value ``op(self, other)``. ``grad_a(a, b)`` and
        ``grad_b``, given the operands' data, return the function of ``g``
        that gives that operand's gradient before the axes it was broadcast
        along are summed out; it is built only for an operand that requires
        grad and closes over only the data it reads."""
        a, b = self, self._operand(other)
        grads = [(t._node, t.data.shape, grad(a.data, b.data))
                 for t, grad in ((a, grad_a), (b, grad_b)) if t._node is not None]

        def bw(g):
            for node, shape, grad in grads:
                node.accum(_sum_to_shape(grad(g), shape))

        return Tensor.from_op(op(a.data, b.data), (a, b), bw)

    def _unary(self, out: np.ndarray, grad) -> "Tensor":
        """A node of value ``out`` whose operand's gradient is ``grad(g)``;
        ``grad`` closes over only the data it reads."""
        node = self._node
        return Tensor.from_op(out, (self,), lambda g: node.accum(grad(g)))

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other):
        return self._binary(other, np.add, lambda a, b: _identity, lambda a, b: _identity)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract, lambda a, b: _identity, lambda a, b: np.negative)

    def __rsub__(self, other):
        return self._operand(other) - self

    def __mul__(self, other):
        return self._binary(other, np.multiply, lambda a, b: lambda g: g * b,
                            lambda a, b: lambda g: g * a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._operand(other) ** -1.0

    def __neg__(self):
        return self._unary(-self.data, np.negative)

    def __pow__(self, p):
        p, x = float(p), self.data
        return self._unary(x ** p, lambda g: g * p * x ** (p - 1.0))

    def __matmul__(self, other):
        other = self._operand(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ShapeError(f"matmul supports 2-D operands, got {self.data.shape} @ {other.data.shape}")
        if self.data.shape[1] != other.data.shape[0]:
            raise ShapeError(f"matmul inner dims differ: {self.data.shape} @ {other.data.shape}")
        return self._binary(other, np.matmul, lambda a, b: lambda g: g @ b.T,
                            lambda a, b: lambda g: a.T @ g)

    def __getitem__(self, idx):
        like = _like(self.data)

        def grad(g):
            full = like()
            full[...] = 0
            np.add.at(full, idx, g)
            return full

        return self._unary(self.data[idx], grad)

    # ------------------------------------------------------------------
    # reductions and shape ops
    # ------------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        # a read-only broadcast of g in the operand's shape and dtype, no
        # copy: every value of it is one of g's, and a conv below reads it
        # chunk by chunk; where it lands on a leaf, Tensor.grad copies it
        shape, dtype = self.data.shape, self.data.dtype

        def grad(g):
            g = g if axis is None or keepdims else np.expand_dims(g, axis)
            return np.broadcast_to(g.astype(dtype, copy=False), shape)

        return self._unary(self.data.sum(axis=axis, keepdims=keepdims), grad)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else (
            np.prod([self.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.data.shape
        return self._unary(self.data.reshape(shape), lambda g: g.reshape(orig))

    def transpose(self, axes):
        inv = np.argsort(axes)
        return self._unary(np.transpose(self.data, axes), lambda g: np.transpose(g, inv))

    # ------------------------------------------------------------------
    # activations and pointwise functions
    # ------------------------------------------------------------------

    def relu(self):
        mask = self.data > 0
        return self._unary(np.maximum(self.data, 0), lambda g: g * mask)

    def tanh(self):
        out = np.tanh(self.data)
        return self._unary(out, lambda g: g * (1.0 - out * out))

    def sigmoid(self):
        # exp(-x) overflows to inf for very negative x, which gives the right 0
        with np.errstate(over="ignore"):
            out = 1.0 / (1.0 + np.exp(-self.data))
        return self._unary(out, lambda g: g * out * (1.0 - out))

    def exp(self):
        out = np.exp(self.data)
        return self._unary(out, lambda g: g * out)

    def log(self):
        x = self.data
        return self._unary(np.log(x), lambda g: g / x)


def concat(tensors, axis: int = 1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient split on backward."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of an empty tensor list")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    nodes = [t._node for t in tensors]

    def bw(g):
        for node, piece in zip(nodes, np.split(g, splits, axis=axis)):
            if node is not None:
                node.accum(piece)

    return Tensor.from_op(out_data, tuple(tensors), bw)
