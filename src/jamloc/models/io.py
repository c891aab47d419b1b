"""Model checkpointing: a GJW1 weight file plus a metadata block carrying the
model kind, its config echo and, when given, the fitted IQ and AoA
normalization statistics (``NormalizationSpec``) and a caller's ``extra``.
The spectrogram clamp is a constant of ``dsp``, so the block holds no
bounds; the ``spec_min``/``spec_max`` that older blocks carry were never
applied and are ignored on load.

A config field that became a constant is retired (``_KINDS`` pairs each
with its constant): an older echo that holds it loads if it holds the
constant's value, and any other value is a ``CheckpointError`` naming it.

The block is not enough for inference on its own: the per-patch
standardization of the cfo and stft inputs and the displacement-target
statistics are not in it (the benchmark pipeline keeps them in its own
``Norm``). Storing them is ROADMAP direction 1(a).
"""

from __future__ import annotations

from dataclasses import asdict, fields

import numpy as np

from ..dsp import NormalizationSpec
from ..nn import CheckpointError, load_checkpoint, save_checkpoint
from ..nn.tensor import _float_dtype
from .fusion import IQ_KERNEL, FusionConfig, FusionModel
from .mcaff import ATTENTION_REDUCTION, McaffConfig, McaffModel

__all__ = ["save_model", "load_model"]

# kind -> (model, config, {retired config field: the constant it became})
_KINDS = {FusionModel.KIND: (FusionModel, FusionConfig, {"iq_kernel": IQ_KERNEL,
                                                         "dropout_pre_concat": 0.0,
                                                         "dropout_post_head": 0.0}),
          McaffModel.KIND: (McaffModel, McaffConfig, {"attention_reduction": ATTENTION_REDUCTION})}


def save_model(path, model, norm: NormalizationSpec | None = None,
               extra: dict | None = None) -> None:
    meta = {"kind": model.KIND, "config": asdict(model.cfg)}
    if norm is not None:
        meta["norm"] = norm.to_dict()
    if extra:
        meta["extra"] = extra
    save_checkpoint(path, model.params(), meta)


def load_model(path, dtype=np.float32):
    """Rebuild the model from its config echo and load the stored weights.

    Returns (model, normalization or None, metadata dict). A ``dtype`` other
    than float32 or float64 is a ValueError, raised before the file is read.
    """
    dtype = _float_dtype(dtype)
    arrays, meta = load_checkpoint(path)
    if not meta or "kind" not in meta or "config" not in meta:
        raise CheckpointError(f"{path} has no model metadata block")
    if meta["kind"] not in tuple(_KINDS):     # compared, not hashed: a list kind is unknown
        raise CheckpointError(f"unknown model kind {meta['kind']!r}")
    model_cls, cfg_cls, retired = _KINDS[meta["kind"]]
    config = meta["config"]
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: config echo is not a JSON object")
    for name, value in retired.items():
        if config.get(name, value) != value:
            raise CheckpointError(f"{path}: retired {cfg_cls.__name__} field {name} must hold "
                                  f"its constant {value}, got {config[name]!r}")
    config = {k: v for k, v in config.items() if k not in retired}
    names = {f.name for f in fields(cfg_cls)}
    # a missing field would silently take the dataclass default
    for what, bad in (("unknown", set(config) - names), ("missing", names - set(config))):
        if bad:
            raise CheckpointError(f"{path}: {what} {cfg_cls.__name__} fields {sorted(bad)}")
    try:
        # JSON turns the configs' tuple fields into lists
        cfg = cfg_cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in config.items()})
        model = model_cls(cfg, dtype=dtype)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad {cfg_cls.__name__}: {e}") from e
    params = model.params()
    if len(params) != len(arrays):
        raise CheckpointError(
            f"checkpoint holds {len(arrays)} tensors, model expects {len(params)}")
    for i, (p, a) in enumerate(zip(params, arrays)):
        if p.data.shape != a.shape:
            raise CheckpointError(f"tensor {i}: shape mismatch: {p.data.shape} vs stored {a.shape}")
        p.data[...] = a.astype(p.data.dtype)
    norm = None
    if "norm" in meta:
        try:
            norm = NormalizationSpec.from_dict(meta["norm"])
        except (TypeError, ValueError) as e:
            raise CheckpointError(f"{path}: bad normalization block: {e}") from e
    return model, norm, meta
