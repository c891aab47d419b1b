import numpy as np
import pytest

from jamloc.models import (FusionModel, McaffModel, tiny_fusion_config,
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
              iq.convs[-1].weight, iq.skips[-1].weight,     # dilated and pointwise Conv1D
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
