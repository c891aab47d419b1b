"""Parameter checkpoint file.

Layout (little-endian throughout):

    magic  4s   = "GJW1"
    count  u32  number of tensors
    per tensor: rank u32, dims u32 * rank, data f32 * prod(dims)
    optionally, a trailing metadata block: length u32 + UTF-8 JSON, then
    the end of the file

Weights are stored in float32 regardless of the in-memory training precision.
``save_checkpoint`` refuses, and ``load_checkpoint`` rejects, a NaN or inf in
a weight or in the metadata. A save writes a temporary file beside ``path``
and moves it onto ``path`` only once it is whole on disk, so a save that
fails leaves the checkpoint it was replacing as it was.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import threading

import numpy as np

from .tensor import Tensor

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError"]

MAGIC = b"GJW1"


class CheckpointError(IOError):
    """Malformed or truncated checkpoint file."""


def save_checkpoint(path, params, metadata: dict | None = None) -> None:
    """Write parameter tensors and an optional JSON metadata block. A tensor
    not finite in float32 is a ValueError naming it, raised, as an encoding
    error is, before any file is opened; a write that fails removes its
    temporary file, so a checkpoint at ``path`` survives either way."""
    with np.errstate(over="ignore"):    # a float32 overflow is checked below
        arrays = [np.ascontiguousarray(p.data if isinstance(p, Tensor) else p, dtype="<f4")
                  for p in params]
    for i, a in enumerate(arrays):
        if not np.all(np.isfinite(a)):
            raise ValueError(f"tensor {i} of shape {a.shape} holds non-finite weights")
    blob = (None if metadata is None
            else json.dumps(metadata, sort_keys=True, allow_nan=False).encode("utf-8"))
    # private to this thread, in path's directory so that the replace is a rename
    tmp = f"{os.fspath(path)}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", len(arrays)))
            for a in arrays:
                f.write(struct.pack(f"<I{a.ndim}I", a.ndim, *a.shape))
                f.write(a.tobytes())
            if blob is not None:
                f.write(struct.pack("<I", len(blob)) + blob)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _read_exact(f, n: int, what: str) -> bytes:
    # checked before reading: malformed dims or a malformed length would
    # have read() allocate every byte they ask for
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise CheckpointError(f"truncated checkpoint while reading {what}: "
                              f"{n} bytes would run past the end of the file")
    return f.read(n)


def load_checkpoint(path) -> tuple[list[np.ndarray], dict | None]:
    """Read tensors (as float32 arrays) plus the metadata block if present.
    A NaN or inf in a tensor or in the metadata is a ``CheckpointError``."""
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic") != MAGIC:
            raise CheckpointError(f"bad magic in {path}; not a GJW1 checkpoint")
        (count,) = struct.unpack("<I", _read_exact(f, 4, "tensor count"))
        arrays = []
        for i in range(count):
            (rank,) = struct.unpack("<I", _read_exact(f, 4, f"tensor {i} rank"))
            if rank > 64:      # numpy's limit on the number of dimensions
                raise CheckpointError(f"tensor {i} has rank {rank}; numpy supports at most 64")
            dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, f"tensor {i} dims"))
            n = math.prod(dims)    # exact: numpy's int64 product can wrap
            raw = _read_exact(f, 4 * n, f"tensor {i} data")
            a = np.frombuffer(raw, dtype="<f4").reshape(dims)
            if not np.all(np.isfinite(a)):
                raise CheckpointError(f"tensor {i} of shape {a.shape} holds non-finite weights")
            arrays.append(a.copy())
        tail = f.read(4)
        if not tail:
            return arrays, None
        if len(tail) != 4:
            raise CheckpointError("truncated checkpoint while reading metadata length")
        (mlen,) = struct.unpack("<I", tail)
        blob = _read_exact(f, mlen, "metadata")
        if trailing := os.fstat(f.fileno()).st_size - f.tell():
            raise CheckpointError(f"{path} has {trailing} trailing bytes after the metadata block")

    def non_finite(token):
        raise CheckpointError(f"metadata block of {path} is not strict JSON: it holds {token}")
    try:
        meta = json.loads(blob.decode("utf-8"), parse_constant=non_finite)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"metadata block of {path} is not UTF-8 JSON: {e}") from e
    if not isinstance(meta, dict):
        raise CheckpointError(f"metadata block of {path} is not a JSON object")
    return arrays, meta
