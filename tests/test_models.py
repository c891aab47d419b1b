import hashlib

import numpy as np
import pytest

from jamloc.models import (MCAFF_PRESETS, FusionModel, McaffModel,
                           load_model, save_model, tiny_fusion_config,
                           tiny_mcaff_config)
from jamloc.nn import Mode, Tensor

from _oracles import check_grads

GRAD_TOL = 1e-4
PROBES = 12  # finite-difference entries checked per tensor


def _batch(seed, b=2):
    rng = np.random.default_rng(seed)
    return {"spec": rng.uniform(size=(b, 4, 32, 32)), "iq": rng.normal(size=(b, 8, 1024)),
            "aoa": rng.normal(size=(b, 4, 22)), "cfo": rng.normal(size=(b, 4, 1024)),
            "stft": rng.normal(size=(b, 4, 128, 15))}


def _outputs(pred):
    return [t for t in (pred.disp, pred.angle_raw, pred.class_logits, pred.subclass_logits)
            if t is not None]


def _proj_loss(pred):
    terms = [(out * np.random.default_rng(100 + k).normal(size=out.shape)).sum()
             for k, out in enumerate(_outputs(pred))]
    loss = terms[0]
    for t in terms[1:]:
        loss = loss + t
    return loss


def _fusion(dtype):
    cfg = tiny_fusion_config(with_classifier=True, dropout_pre_concat=0.2,
                             dropout_post_head=0.2)
    return FusionModel(cfg, seed=1, dtype=dtype)


def _mcaff(dtype):
    return McaffModel(tiny_mcaff_config(), seed=2, dtype=dtype)


@pytest.mark.parametrize("build", [_fusion, _mcaff])
def test_models_keep_float32(build):
    model = build(np.float32)
    pred = model.forward(_batch(3), Mode.TRAIN, np.random.default_rng(4))
    outs = _outputs(pred)
    assert [t.dtype for t in outs] == [np.float32] * len(outs)
    _proj_loss(pred).backward()
    assert [p.grad.dtype for p in model.params()] == [np.float32] * len(model.params())


def _gradcheck(model, input_names, params, seed):
    """Finite differences through the whole forward (eval mode, so dropout
    is the identity) w.r.t. the named inputs and the given parameters."""
    inputs = {k: Tensor(v, requires_grad=True) for k, v in _batch(seed).items()}
    checked = [inputs[k] for k in input_names] + list(params)
    return check_grads(lambda: _proj_loss(model.forward(inputs, Mode.EVAL)), checked,
                       probes=PROBES)


def test_fusion_gradcheck_all_branches():
    model = _fusion(np.float64)
    spec, iq, aoa = (model.encoders[k] for k in ("spec", "iq", "aoa"))
    params = [spec.convs[0].weight, spec.convs[-1].bias,    # strided Conv2D
              iq.convs[-1].weight, iq.blocks[-1][1].weight,  # dilated and pointwise Conv1D
              aoa.mix.weight, iq.proj.weight,               # Conv1D over features, Dense
              model.disp_head.fc1.weight, model.angle_head.fc2.weight,
              model.class_head.fc2.bias]
    assert _gradcheck(model, ("spec", "iq", "aoa"), params, seed=5) < GRAD_TOL


def test_mcaff_gradcheck_all_paths():
    model = _mcaff(np.float64)
    stems = [model.stems[k] for k in ("iq", "fft", "cfo", "stft")]
    params = [stems[0].conv1.weight, stems[3].conv2.weight,   # strided Conv2D stems
              model.block.grouped.weight, model.block.reduce.weight,
              model.attention.fc1.weight, model.attention.fc2.bias,
              model.disp_head.fc1.weight, model.subclass_head.fc2.weight]
    assert _gradcheck(model, ("iq", "spec", "cfo", "stft"), params, seed=6) < GRAD_TOL


@pytest.mark.parametrize("field", ["dropout_pre_concat", "dropout_post_head"])
@pytest.mark.parametrize("rate", [-0.1, 1.0, -3.0])
def test_fusion_config_rejects_dropout_out_of_range(field, rate):
    with pytest.raises(ValueError, match=field):
        tiny_fusion_config(**{field: rate})


# GJW1 stores params() in order with no names: the tensor count, the shapes and
# the initial values pinned here are the checkpoint contract
FUSION_SHAPES = [
    (2, 4, 3, 3), (2,), (2, 2, 3, 3), (2,), (4, 2, 3, 3), (4,), (4, 4, 3, 3), (4,),
    (4, 8), (8,),                                                   # spec encoder
    (4, 8, 3), (4,), (4, 8, 1), (4,), (4, 4, 3), (4,), (8, 4, 3), (8,), (8, 4, 1), (8,),
    (8, 8), (8,),                                                   # iq: conv, skip per block
    (4, 22, 1), (4,), (16, 4), (4,),                                # aoa encoder
    (20, 16), (16,), (16, 3), (3,), (20, 16), (16,), (16, 2), (2,),
    (20, 16), (16,), (16, 6), (6,),                                 # disp, angle, class heads
]
MCAFF_SHAPES = [
    (4, 8, 3, 3), (4,), (8, 4, 3, 3), (8,),                         # iq stem
    *[(4, 4, 3, 3), (4,), (8, 4, 3, 3), (8,)] * 3,                  # fft, cfo, stft stems
    (8, 2), (2,), (2, 8), (8,),                                     # shared attention
    (8, 32, 1, 1), (8,), (8, 4, 3, 3), (8,), (32, 8, 1, 1), (32,),  # grouped block
    (32, 8), (8,), (8, 3), (3,), (32, 8), (8,), (8, 2), (2,),
    (32, 8), (8,), (8, 3), (3,), (32, 8), (8,), (8, 4), (4,),       # four heads
]


@pytest.mark.parametrize("build,shapes,digest", [
    (lambda: FusionModel(tiny_fusion_config(with_classifier=True), seed=1), FUSION_SHAPES,
     "bb49a946e25378bd6b1c961a6cad14e765071694f31107075144ac44e2950e15"),
    (lambda: McaffModel(tiny_mcaff_config(), seed=2), MCAFF_SHAPES,
     "4944afb991368e71f04c76eb0d83e186ebabc4455d1f8a313624057773068e9e"),
], ids=["fusion", "mcaff"])
def test_params_order_is_the_checkpoint_contract(build, shapes, digest):
    params = build().params()
    assert len(params) == len(shapes)
    assert [p.data.shape for p in params] == shapes
    assert hashlib.sha256(b"".join(p.data.tobytes() for p in params)).hexdigest() == digest


@pytest.mark.parametrize("build", [
    lambda: FusionModel(tiny_fusion_config(enabled_branches=("iq", "aoa"), with_classifier=True),
                        seed=7),
    lambda: McaffModel(tiny_mcaff_config(enabled_paths=MCAFF_PRESETS["iq+cfo+stft"]), seed=8),
], ids=["fusion", "mcaff"])
def test_save_load_round_trip(build, tmp_path):
    model = build()
    save_model(tmp_path / "model.gjw", model)
    loaded, norm, _ = load_model(tmp_path / "model.gjw")
    assert type(loaded) is type(model) and loaded.cfg == model.cfg and norm is None
    batch = _batch(9)
    want, got = model.forward(batch), loaded.forward(batch)
    for a, b in zip(_outputs(want), _outputs(got)):
        assert a.dtype == b.dtype == np.float32
        assert a.data.tobytes() == b.data.tobytes()
