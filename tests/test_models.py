import hashlib
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from jamloc import _workers
from jamloc.dsp import NormalizationSpec
from jamloc.models import (MCAFF_PRESETS, FusionConfig, FusionModel, McaffConfig,
                           McaffModel, Prediction, load_model, mcaff, save_model,
                           tiny_fusion_config, tiny_mcaff_config)
from jamloc.nn import SGD, CheckpointError, Conv1D, Conv2D, Mode, Tensor, save_checkpoint

from _oracles import check_grads, iq_encoder_ref

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
    return FusionModel(tiny_fusion_config(with_classifier=True), seed=1, dtype=dtype)


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


BAD_DTYPES = pytest.mark.parametrize("dtype", [np.float16, np.int32, np.complex64],
                                     ids=["float16", "int32", "complex64"])


@BAD_DTYPES
@pytest.mark.parametrize("build", [_fusion, _mcaff], ids=["fusion", "mcaff"])
def test_models_reject_a_dtype_other_than_float32_or_float64(build, dtype):
    # a float16 model said float16 and held float64 weights and outputs
    bad = f"^dtype must be float32 or float64, got {np.dtype(dtype)}$"
    with pytest.raises(ValueError, match=bad):
        build(dtype)


@BAD_DTYPES
def test_load_rejects_a_dtype_other_than_float32_or_float64(dtype, tmp_path):
    save_model(tmp_path / "model.gjw", _fusion(np.float32))
    bad = f"dtype must be float32 or float64, got {np.dtype(dtype)}$"
    with pytest.raises(ValueError, match=bad):
        load_model(tmp_path / "model.gjw", dtype=dtype)


def test_load_checks_the_dtype_before_it_reads_the_file(tmp_path):
    # the file was opened first, so a missing file hid the bad dtype
    with pytest.raises(ValueError, match=r"^dtype must be float32 or float64, got float16$"):
        load_model(tmp_path / "missing.gjw", dtype=np.float16)


@pytest.mark.parametrize("build", [_fusion, _mcaff], ids=["fusion", "mcaff"])
def test_a_float32_model_cast_to_float64_runs_in_float64(build):
    # the cast weights are the float64 model's, rounded to float32 and back
    model, want = build(np.float32).cast(np.float64), build(np.float64)
    assert model.dtype == np.float64
    for p, q in zip(model.params(), want.params()):
        assert p.data.dtype == np.float64 and np.array_equal(p.data, q.data.astype(np.float32))
    pred = model.forward(_batch(3), Mode.TRAIN, np.random.default_rng(4))
    outs = _outputs(pred)
    assert [t.dtype for t in outs] == [np.float64] * len(outs)
    _proj_loss(pred).backward()
    assert [p.grad.dtype for p in model.params()] == [np.float64] * len(model.params())


def _gradcheck(model, input_names, params, seed):
    """Finite differences through the whole forward w.r.t. the named inputs
    and the given parameters."""
    inputs = {k: Tensor(v, requires_grad=True) for k, v in _batch(seed).items()}
    checked = [inputs[k] for k in input_names] + list(params)
    return check_grads(lambda: _proj_loss(model.forward(inputs)), checked,
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
    # dropout is gone: no config takes a rate, and a checkpoint echo that
    # holds one is an unknown field (the dropped-* rows below)
    with pytest.raises(TypeError, match=field):
        tiny_fusion_config(**{field: rate})


@pytest.mark.parametrize("build", [
    lambda: FusionModel(tiny_fusion_config(with_classifier=True), seed=1, dtype=np.float64),
    lambda: McaffModel(tiny_mcaff_config(), seed=2, dtype=np.float64),
    lambda: FusionModel(FusionConfig(), seed=0),
    lambda: McaffModel(McaffConfig(), seed=0),
], ids=["fusion-tiny-f64", "mcaff-tiny-f64", "fusion-paper-f32", "mcaff-paper-f32"])
def test_train_forward_draws_nothing_and_equals_the_plain_forward(build):
    model = build()
    batch = _batch(14)
    rng = np.random.default_rng(15)
    state = rng.bit_generator.state
    got, want = model.forward(batch, Mode.TRAIN, rng), model.forward(batch)
    assert rng.bit_generator.state == state
    for a, b in zip(_outputs(got), _outputs(want), strict=True):
        assert a.dtype == b.dtype == model.dtype
        assert a.data.tobytes() == b.data.tobytes()


@pytest.mark.parametrize("build,read,unread", [
    (lambda: FusionModel(tiny_fusion_config(enabled_branches=("spec", "aoa")), seed=0),
     ("spec", "aoa"), "iq"),
    (lambda: McaffModel(tiny_mcaff_config(enabled_paths=("cfo", "stft")), seed=0),
     ("cfo", "stft"), "spec"),
], ids=["fusion", "mcaff"])
def test_models_take_the_batch_size_from_the_inputs_they_read(build, read, unread):
    # MCAFF took it from the batch's first entry, here one it does not read
    model = build()
    batch, wide = _batch(16), _batch(16, b=5)
    batch[unread] = wide[unread]
    assert model.forward(batch).disp.shape == (2, 3)
    batch[read[1]] = wide[read[1]]
    with pytest.raises(ValueError, match=rf"^batch inputs disagree on the batch size: "
                                         rf"\{{'{read[0]}': 2, '{read[1]}': 5\}}$"):
        model.forward(batch)


def test_prediction_angles_are_the_scaled_tanh_outputs():
    raw = np.array([[0.0, 0.0], [1.0, -1.0], [-1.0, 1.0], [0.5, -0.5], [-0.5, 0.5]])
    pred = Prediction(Tensor(np.zeros((5, 3))), Tensor(raw))
    np.testing.assert_array_equal(pred.alpha_deg, [0.0, 180.0, -180.0, 90.0, -90.0])
    np.testing.assert_array_equal(pred.beta_deg, [0.0, -90.0, 90.0, -45.0, 45.0])


@pytest.mark.parametrize("branches", [("iq", "iq"), ("spec", "iq", "aoa", "spec")])
def test_fusion_config_rejects_a_repeated_branch(branches):
    # ("iq", "iq") counted the IQ width twice in fused_dim, so the first
    # forward failed in the head's Dense
    with pytest.raises(ValueError, match=r"^FusionConfig\.enabled_branches must be .* "
                                         r"each named once"):
        tiny_fusion_config(enabled_branches=branches)


def test_mcaff_config_rejects_a_repeated_path():
    # ("iq", "iq") built one stem, but the config, and so the checkpoint, kept both
    with pytest.raises(ValueError, match=r"^McaffConfig\.enabled_paths must be .* each named once"):
        tiny_mcaff_config(enabled_paths=("iq", "iq"))


@pytest.mark.parametrize("make,overrides", [
    *[(tiny_fusion_config, kw) for kw in (
        dict(iq_channels=(4, 0, 8)), dict(iq_channels=(4, -2, 8)), dict(head_hidden=0),
        dict(n_classes=0), dict(iq_dilations=(1, 0, 4)),
        dict(iq_channels=(), iq_dilations=()), dict(spec_channels=()),
        dict(spec_channels=(2, 0, 4, 4)), dict(spec_branch_dim=0), dict(iq_branch_dim=-1),
        dict(aoa_branch_dim=0), dict(aoa_conv_channels=0),
        # not ints: each failed deep in numpy with a TypeError naming no field
        dict(head_hidden=1.5), dict(head_hidden=True), dict(iq_channels=(4, 4, 8.0)))],
    *[(tiny_mcaff_config, {field: value}) for field, value in (
        ("stem_channels", 0), ("stem_channels", -4), ("head_hidden", 0), ("n_classes", 0),
        ("n_subclasses", 0), ("path_feature_dim", 0), ("block_width", 0),
        ("cardinality", 0), ("path_feature_dim", 6), ("head_hidden", 1.5),
        ("stem_channels", True))],
], ids=lambda v: ",".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict)
   else v.__name__.split("_")[1])
def test_config_rejects_out_of_range_sizes(make, overrides):
    field, config = next(iter(overrides)), type(make()).__name__
    with pytest.raises(ValueError, match=rf"^{config}\.{field}(\[\d\])? must be "):
        make(**overrides)


@pytest.mark.parametrize("value", ["no", 1, None])
def test_fusion_config_rejects_a_non_bool_with_classifier(value):
    # "no" built the class head: the field's truth was read
    with pytest.raises(TypeError, match=rf"^FusionConfig\.with_classifier must be a bool, "
                                        rf"got {value!r}$"):
        tiny_fusion_config(with_classifier=value)


@pytest.mark.parametrize("iq_channels", [(4, 4, 8), (4, 4, 8, 8, 8)],
                         ids=["last-skip-1x1", "last-skip-identity"])
def test_iq_encoder_matches_per_timestep_skip_oracle(iq_channels):
    # the encoder applies the last block's skip after the pool; the oracle
    # applies it at every timestep and pools the residual sum
    cfg = tiny_fusion_config(iq_channels=iq_channels,
                             iq_dilations=(1, 2, 4, 8, 16)[:len(iq_channels)])
    enc = FusionModel(cfg, seed=3, dtype=np.float64).encoders["iq"]
    assert (enc.blocks[-1][1] is None) == (iq_channels[-2] == iq_channels[-1])
    rng = np.random.default_rng(4)
    for p in enc.params():  # nonzero biases, so the skip's bias is checked too
        if p.data.ndim == 1:
            p.data[...] = rng.normal(size=p.shape)
    x = rng.normal(size=(3, 8, 256))
    g = rng.normal(size=(3, cfg.iq_branch_dim))
    results = []
    for forward in (lambda: enc(Tensor(x)), lambda: iq_encoder_ref(enc, x)):
        out = forward()
        (out * g).sum().backward()
        results.append([out.data] + [p.grad for p in enc.params()])
        for p in enc.params():
            p.grad = None
    for got, want in zip(*results):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
    extra = {"seed": 7, "stages_s": {"train": 1.5}, "tags": ["desk", "wall1"]}
    save_model(tmp_path / "model.gjw", model, extra=extra)
    loaded, norm, meta = load_model(tmp_path / "model.gjw")
    assert type(loaded) is type(model) and loaded.cfg == model.cfg and norm is None
    assert meta["extra"] == extra
    batch = _batch(9)
    want, got = model.forward(batch), loaded.forward(batch)
    for a, b in zip(_outputs(want), _outputs(got)):
        assert a.dtype == b.dtype == np.float32
        assert a.data.tobytes() == b.data.tobytes()


def test_load_reads_a_normalization_block_with_the_old_clamp_bounds(tmp_path):
    # checkpoints written before the clamp became a constant carry spec_min
    # and spec_max in the block; they load, and the bounds are dropped
    model = FusionModel(tiny_fusion_config(), seed=0)
    norm = NormalizationSpec(iq_mean=np.arange(8.0), iq_std=np.ones(8))
    block = {"spec_min": -195.69, "spec_max": -19.89, **norm.to_dict()}
    save_checkpoint(tmp_path / "model.gjw", model.params(),
                    {"kind": model.KIND, "config": asdict(model.cfg), "norm": block})
    _, loaded, meta = load_model(tmp_path / "model.gjw")
    assert meta["norm"] == block
    assert loaded.to_dict() == norm.to_dict()


def test_normalization_spec_of_lists_round_trips(tmp_path):
    # the spec takes any array-like statistic; to_dict called .tolist() on
    # each, which a list has not
    model = FusionModel(tiny_fusion_config(), seed=0)
    norm = NormalizationSpec(iq_mean=[0.5] * 8, iq_std=[2.0] * 8,
                             aoa_mean=[[0.25] * 22] * 4, aoa_std=[[1.5] * 22] * 4)
    save_model(tmp_path / "model.gjw", model, norm)
    _, loaded, _ = load_model(tmp_path / "model.gjw")
    for name, value in norm.to_dict().items():
        assert np.array_equal(getattr(loaded, name), value)


def test_load_rejects_bad_normalization_block(tmp_path):
    model = FusionModel(tiny_fusion_config(), seed=0)
    norm = NormalizationSpec(iq_mean=np.zeros(8), iq_std=np.ones(8)).to_dict()
    norm["iq_std"] = [1.0] * 7
    save_checkpoint(tmp_path / "model.gjw", model.params(),
                    {"kind": model.KIND, "config": asdict(model.cfg), "norm": norm})
    with pytest.raises(CheckpointError, match="normalization block.*iq_std must have shape"):
        load_model(tmp_path / "model.gjw")


@pytest.mark.parametrize("kind", [[1], {"FUSION": 1}], ids=["list", "dict"])
def test_load_rejects_a_kind_that_is_not_a_string(tmp_path, kind):
    # the kind was looked up in a dict: a list or a dict raised "unhashable type"
    model = FusionModel(tiny_fusion_config(), seed=0)
    save_checkpoint(tmp_path / "model.gjw", model.params(), {"kind": kind, "config": {}})
    with pytest.raises(CheckpointError, match=rf"^unknown model kind {re.escape(repr(kind))}$"):
        load_model(tmp_path / "model.gjw")


def _tiny_fusion():
    return FusionModel(tiny_fusion_config(), seed=0)


def _tiny_mcaff():
    return McaffModel(tiny_mcaff_config(), seed=0)


def _echo(**fields):
    return lambda meta, arrays: meta["config"].update(fields)


# the echo of a field a config dropped is unknown, even at the value that
# became its constant
@pytest.mark.parametrize("build,edit,match", [
    (_tiny_fusion, _echo(head_width=16), r"unknown FusionConfig fields \['head_width'\]"),
    (_tiny_fusion, _echo(head_hidden=0),
     r"bad FusionConfig: FusionConfig\.head_hidden must be an integer >= 1, got 0$"),
    (_tiny_fusion, lambda meta, arrays: meta["config"].pop("n_classes"),
     r"missing FusionConfig fields \['n_classes'\]"),
    (_tiny_fusion, lambda meta, arrays: arrays[4].fill(np.nan),
     r"tensor 4 of shape \(4, 2, 3, 3\) holds non-finite weights"),
    (_tiny_fusion, _echo(head_hidden=16.0),
     r"bad FusionConfig: FusionConfig\.head_hidden must be an integer >= 1, got 16\.0$"),
    (_tiny_fusion, _echo(iq_kernel=3), r"unknown FusionConfig fields \['iq_kernel'\]$"),
    (_tiny_fusion, _echo(dropout_pre_concat=0.0),
     r"unknown FusionConfig fields \['dropout_pre_concat'\]$"),
    (_tiny_fusion, _echo(dropout_post_head=0.0),
     r"unknown FusionConfig fields \['dropout_post_head'\]$"),
    (_tiny_mcaff, _echo(attention_reduction=4),
     r"unknown McaffConfig fields \['attention_reduction'\]$"),
], ids=["unknown-field", "out-of-range", "missing-field", "nan-weight", "non-int-field",
        "dropped-iq_kernel", "dropped-dropout_pre_concat", "dropped-dropout_post_head",
        "dropped-attention_reduction"])
def test_load_rejects_bad_checkpoint_naming_the_field_or_tensor(tmp_path, build, edit, match):
    model = build()
    meta = {"kind": model.KIND, "config": asdict(model.cfg)}
    arrays = [p.data.copy() for p in model.params()]
    edit(meta, arrays)
    save_checkpoint(tmp_path / "model.gjw", [np.nan_to_num(a) for a in arrays], meta)
    # save_checkpoint refuses a non-finite weight, so one is written into
    # the file's data, as a file made outside the program may hold it
    blob, at = bytearray((tmp_path / "model.gjw").read_bytes()), 8
    for a in arrays:
        at += 4 + 4 * a.ndim
        blob[at:at + 4 * a.size] = a.astype("<f4").tobytes()
        at += 4 * a.size
    (tmp_path / "model.gjw").write_bytes(blob)
    with pytest.raises(CheckpointError, match=match):
        load_model(tmp_path / "model.gjw")


@pytest.mark.parametrize("build", [_fusion, _mcaff], ids=["fusion", "mcaff"])
def test_training_is_deterministic_run_to_run(build, tmp_path):
    # three momentum-SGD steps (train mode) from one seed, twice in one process, give byte-identical GJW1 files.
    # Run is compared with run, not with a stored digest: the trained bits
    # depend on the machine's BLAS kernels.
    files = []
    for run in range(2):
        model = build(np.float32)
        opt = SGD(model.params(), learning_rate=1e-2)
        rng = np.random.default_rng(5)
        for step in range(3):
            _proj_loss(model.forward(_batch(10 + step), Mode.TRAIN, rng)).backward()
            opt.step()
        save_model(tmp_path / f"run{run}.gjw", model)
        files.append((tmp_path / f"run{run}.gjw").read_bytes())
    assert files[0] == files[1]


@pytest.mark.parametrize("build,key", [(_fusion, "aoa"), (_mcaff, "cfo")], ids=["fusion", "mcaff"])
def test_models_reject_a_tensor_input_of_another_dtype(build, key):
    # a float64 Tensor would run the float32 model in float64; a Tensor of
    # the model's dtype is used as it is and receives its gradient
    model = build(np.float32)
    inputs = {k: Tensor(v.astype(np.float32), requires_grad=True) for k, v in _batch(7).items()}
    _proj_loss(model.forward(inputs)).backward()
    assert inputs[key].grad.dtype == np.float32 and np.any(inputs[key].grad)
    inputs[key] = Tensor(_batch(7)[key])
    with pytest.raises(ValueError, match=rf"^batch\['{key}'\] is a float64 Tensor; .* float32$"):
        model.forward(inputs)


def test_paper_width_fusion_training_is_bitwise_for_any_worker_count(monkeypatch):
    # three momentum-SGD steps at B=32, float32: the IQ encoder's convs run
    # 8 chunks each, on one thread or split in two runs
    digests = []
    for runs in (1, 2):
        monkeypatch.setattr(_workers, "_RUNS", runs)
        model = FusionModel(FusionConfig(), seed=0)
        opt = SGD(model.params(), learning_rate=1e-2)
        rng = np.random.default_rng(5)
        h = hashlib.sha256()
        for step in range(3):
            batch = {k: v.astype(np.float32) for k, v in _batch(20 + step, b=32).items()}
            pred = model.forward(batch, Mode.TRAIN, rng)
            _proj_loss(pred).backward()
            for t in _outputs(pred):
                h.update(t.data.tobytes())
            for p in model.params():
                h.update(p.grad.tobytes())
            opt.step()
        digests.append(h.hexdigest())
    assert digests[0] == digests[1]


def test_paper_width_mcaff_training_is_bitwise_for_any_worker_count(map_jobs, at_worker_counts,
                                                                     monkeypatch):
    # three momentum-SGD steps at B=32, float32: the four stems' forwards
    # run as branches in one run, or split in two or three, and every conv
    # has two chunks, so its map has two jobs at two runs or more (inline
    # inside a branch); outputs and gradients are bitwise those of the stems
    # called inline, one after another, at every run count
    def train():
        model = McaffModel(McaffConfig(), seed=0)
        opt = SGD(model.params(), learning_rate=1e-2)
        h = hashlib.sha256()
        for step in range(3):
            batch = {k: v.astype(np.float32) for k, v in _batch(20 + step, b=32).items()}
            pred = model.forward(batch)
            _proj_loss(pred).backward()
            for t in _outputs(pred):
                h.update(t.data.tobytes())
            for p in model.params():
                h.update(p.grad.tobytes())
            opt.step()
        return h.hexdigest()
    with monkeypatch.context() as m:
        m.setattr(mcaff, "branches", lambda layers, inputs: [f(x) for f, x in zip(layers, inputs)])
        inline = at_worker_counts(train)
    digests = at_worker_counts(train)
    assert digests == inline == [inline[0]] * len(inline)
    # per step: forward, the branches' map, the 8 stem convs' maps (inline in
    # their branches) and the block's 3; backward, the 11 convs' maps. Each
    # has two jobs at the two run counts above one, but the branches' map
    # has three at three runs
    per_step = 1 + 8 + 3 + 11
    assert sorted(n for n in map_jobs if n > 1) == [2] * (2 * 3 * per_step - 3) + [3] * 3


@pytest.mark.parametrize("preset", sorted(MCAFF_PRESETS))
def test_mcaff_hands_the_pool_one_run_of_stems_per_pass(preset, monkeypatch, pool_jobs):
    # two runs, as on any host of two CPUs or more: a one-path preset runs
    # its stem inline and submits no run of stems; the others submit one run
    # of stems in forward, and run the other beside it, and none in
    # backward, which runs on the calling thread. A run of stems is a list
    # of (stem, input) pairs; the convs' runs are tuples
    monkeypatch.setattr(_workers, "_RUNS", 2)
    model = McaffModel(McaffConfig(enabled_paths=MCAFF_PRESETS[preset]), seed=0)
    batch = {k: v.astype(np.float32) for k, v in _batch(8, b=32).items()}
    _proj_loss(model.forward(batch)).backward()
    stems = len(model.stems)
    runs = [job for job in pool_jobs if isinstance(job, list)]
    assert [len(job) for job in runs] == ([] if stems == 1 else [stems // 2])


def test_mcaff_block_hands_the_pool_one_run_per_conv_and_pass(monkeypatch, pool_jobs):
    # two runs, as on any host of two CPUs or more, B=32 at paper width:
    # each of the block's convs (2048 rows, under _ROWS) takes the floor's
    # two chunks of 16 items, and hands the pool the first, forward and
    # backward. The stems' convs run inline in their branches forward, but
    # hand the pool their runs in backward, so the block's convs are told
    # by identity: each is wrapped, its call and its output's backward
    # recording what they hand the pool. A conv's job is (chunks, workspace)
    monkeypatch.setattr(_workers, "_RUNS", 2)
    model = McaffModel(McaffConfig(), seed=0)
    jobs = []

    def recorded(name, fn):
        def run(*args):
            n = len(pool_jobs)
            out = fn(*args)
            jobs.extend((name, job[0]) for job in pool_jobs[n:])
            return out
        return run

    def watched(name, conv):
        def call(x):
            y = recorded(name, conv)(x)
            y._node.backward_fn = recorded(name, y._node.backward_fn)
            return y
        return call

    order = ["reduce", "grouped", "expand"]
    for name in order:
        monkeypatch.setattr(model.block, name, watched(name, getattr(model.block, name)))
    batch = {k: v.astype(np.float32) for k, v in _batch(8, b=32).items()}
    _proj_loss(model.forward(batch)).backward()
    assert jobs == [(name, [(0, 16)]) for name in order + order[::-1]]


def test_fusion_train_forward_holds_no_pre_activation_buffers(monkeypatch, traced):
    # what a train-mode forward of the paper-width model keeps for backward,
    # at B=8: 7.8 MiB with each conv's ReLU inside the conv and every node
    # keeping only what its backward reads, 20.6 MiB when each conv kept its
    # output and every node its parents, 30.9 MiB when a separate ReLU node
    # also kept every conv's pre-activation output; in two runs, as on any
    # host of two CPUs or more, so the runs' workspaces count too
    monkeypatch.setattr(_workers, "_RUNS", 2)
    model = FusionModel(FusionConfig(), seed=0)
    batch = {k: v.astype(np.float32) for k, v in _batch(0, b=8).items()}
    pred, held, _ = traced(lambda: model.forward(batch, Mode.TRAIN, np.random.default_rng(0)))
    assert pred.disp.requires_grad
    assert held <= 33 << 20, f"{held / 2**20:.1f} MiB held"


@pytest.mark.parametrize("build,held_mib,peak_mib", [
    (lambda: FusionModel(FusionConfig(), seed=0), 40, 90),
    (lambda: McaffModel(McaffConfig(), seed=0), 19, 34)], ids=["fusion", "mcaff"])
def test_a_train_step_keeps_only_what_backward_reads(build, held_mib, peak_mib, monkeypatch,
                                                     traced):
    # paper width, B=32, float32, in two runs, as on any host of two CPUs or
    # more. Held by the forward, fusion / MCAFF: 29.5 / 14.6 MiB, and 80.7 /
    # 22.4 when every node kept its parents and each ReLU conv its output;
    # forward and backward peak at 77.0 / 30.8 MiB, against 128.6 / 40.3
    monkeypatch.setattr(_workers, "_RUNS", 2)
    model = build()
    batch = {k: v.astype(np.float32) for k, v in _batch(0, b=32).items()}
    pred, held, _ = traced(lambda: model.forward(batch, Mode.TRAIN, np.random.default_rng(0)))
    assert pred.disp.requires_grad
    del pred
    _, _, peak = traced(lambda: _proj_loss(model.forward(batch, Mode.TRAIN,
                                                         np.random.default_rng(0))).backward())
    assert all(p.grad is not None for p in model.params())
    assert held <= held_mib << 20, f"{held / 2**20:.1f} MiB held"
    assert peak <= peak_mib << 20, f"{peak / 2**20:.1f} MiB at peak"


# eval predictions of the paper-width models (seed 0) on _batch(0, b=4),
# captured before the convolutions moved to channels-last memory; the GEMMs
# sum in another order now, so the bound is a float32 tolerance
GOLDEN = Path(__file__).with_name("golden_predictions.npz")


@pytest.mark.parametrize("name,build", [("fusion", lambda: FusionModel(FusionConfig(), seed=0)),
                                        ("mcaff", lambda: McaffModel(McaffConfig(), seed=0))])
def test_paper_width_predictions_match_golden(name, build):
    golden = np.load(GOLDEN)
    pred = build().forward(_batch(0, b=4))
    fields = ("disp", "angle_raw", "class_logits", "subclass_logits")
    want = {f: golden[f"{name}_{f}"] for f in fields if f"{name}_{f}" in golden.files}
    assert set(want) == {f for f in fields if getattr(pred, f) is not None}
    for f, ref in want.items():
        np.testing.assert_allclose(getattr(pred, f).data, ref, atol=1e-5, rtol=1e-4, err_msg=f)


# every parameter gradient of the tiny-width float64 models under
# _golden_loss, captured before the autodiff op layer was rebuilt on shared
# node builders; the fusion_* entries, first taken with dropout 0.1, were
# taken again with both rates 0.0 just before dropout was removed
GOLDEN_GRADS = Path(__file__).with_name("golden_gradients.npz")


def _golden_loss(pred):
    """MSE, a scalar on the left, and a log-sum-exp cross-entropy: exp, log,
    getitem, division and pow, which the models' forwards do not use."""
    target = np.random.default_rng(11).normal(size=pred.disp.shape)
    loss = ((pred.disp - target) ** 2.0).mean() + (1.0 - pred.angle_raw).sum() / 4.0
    for logits in _outputs(pred)[2:]:
        rows = np.arange(logits.shape[0])
        lse = logits.exp().sum(axis=1).log()
        loss = loss + (lse - logits[rows, rows % logits.shape[1]]).mean()
    return loss


def _golden_gradients(name):
    if name == "fusion":
        model = FusionModel(tiny_fusion_config(with_classifier=True), seed=1, dtype=np.float64)
    else:
        model = McaffModel(tiny_mcaff_config(), seed=2, dtype=np.float64)
    _golden_loss(model.forward(_batch(12), Mode.TRAIN, np.random.default_rng(13))).backward()
    return [p.grad for p in model.params()]


@pytest.mark.parametrize("name", ["fusion", "mcaff"])
def test_gradients_match_golden(name):
    golden = np.load(GOLDEN_GRADS)
    refs = [golden[k] for k in sorted(golden.files) if k.startswith(f"{name}_")]
    grads = _golden_gradients(name)
    assert len(grads) == len(refs)
    for i, (got, ref) in enumerate(zip(grads, refs)):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10 * np.abs(ref).max(),
                                   err_msg=f"{name} parameter {i}")


def _spy_convs(monkeypatch):
    """Record, for every conv call, [layer, input array, upstream gradient]."""
    seen = []
    for cls in (Conv1D, Conv2D):
        def spy(self, x, call=cls.__call__):
            out = call(self, x)
            rec, bw = [self, x.data, None], out._node.backward_fn
            seen.append(rec)

            def spy_bw(g):
                rec[2] = g
                bw(g)

            out._node.backward_fn = spy_bw
            return out
        monkeypatch.setattr(cls, "__call__", spy)
    return seen


def _channels_last(a):
    return np.moveaxis(a, 1, -1).flags.c_contiguous


def _normal32(*shape):
    return np.random.default_rng(0).normal(size=shape).astype(np.float32)


@pytest.mark.parametrize("part,make_input", [
    (lambda: FusionModel(tiny_fusion_config()).encoders["iq"], lambda: _normal32(2, 8, 64)),
    (lambda: McaffModel(tiny_mcaff_config()).stems["iq"], lambda: _normal32(2, 8, 32, 32)),
], ids=["iq-encoder", "stem"])
def test_convs_hand_over_channels_last_buffers(part, make_input, monkeypatch):
    # a conv reading a conv's output (through ReLUs and residual adds) must
    # get a channels-last array, and every conv's upstream gradient must be
    # channels-last, so no transposing copy happens between convs
    part, x = part(), make_input()
    seen = _spy_convs(monkeypatch)
    out = part(Tensor(x))
    (out * out).sum().backward()  # hands the last conv an upstream in its own layout
    convs = {id(layer) for layer, _, _ in seen}
    assert len(seen) == len(convs) >= 2
    inner = [(layer, a) for layer, a, _ in seen if a is not x]
    assert len(inner) >= len(seen) - 2
    for layer, a in inner:
        assert _channels_last(a), (type(layer).__name__, a.strides)
    for layer, _, g in seen:
        assert g is not None and _channels_last(g), type(layer).__name__


@pytest.mark.parametrize("preset", sorted(MCAFF_PRESETS))
def test_mcaff_block_reads_channels_last_concat(preset, monkeypatch):
    # the block's convs read the concat of the stems' outputs and of the zero
    # slots of disabled paths; every slot must be channels-last, or numpy
    # makes the concat channels-first
    model = McaffModel(tiny_mcaff_config(enabled_paths=MCAFF_PRESETS[preset]))
    seen = _spy_convs(monkeypatch)
    batch = {k: v.astype(np.float32) for k, v in _batch(6).items()}
    _proj_loss(model.forward(batch)).backward()
    stem_inputs = {id(stem.conv1) for stem in model.stems.values()}
    assert len(seen) == 2 * len(model.stems) + 3
    for layer, a, g in seen:
        assert id(layer) in stem_inputs or _channels_last(a), a.strides
        assert g is not None and _channels_last(g), g.strides


def _fwd_bwd(forward, params, rng):
    """One forward and a backward from sum(out * G), as the benchmark's layer
    sweep times them; every parameter must get a finite float32 gradient."""
    outs = forward()
    outs = outs if isinstance(outs, list) else [outs]
    loss = None
    for o in outs:
        term = (o * rng.standard_normal(o.shape).astype(o.dtype)).sum()
        loss = term if loss is None else loss + term
    loss.backward()
    for p in params:
        if p.requires_grad:
            assert p.grad is not None and p.grad.shape == p.shape
            assert p.grad.dtype == np.float32 and np.all(np.isfinite(p.grad))
            p.grad = None


def test_bench_layer_calls_fusion():
    # the calls perfbench/layers.py makes on the fusion model, at tiny widths
    rng = np.random.default_rng(0)
    model = FusionModel(tiny_fusion_config(iq_channels=(4, 4, 8, 8, 8),
                                           iq_dilations=(1, 2, 4, 8, 16)), seed=0)
    batch = {k: v.astype(np.float32) for k, v in _batch(1).items()}
    for name, enc in model.encoders.items():
        inp = Tensor(batch[name])
        _fwd_bwd(lambda: enc(inp, Mode.TRAIN, rng), enc.params(), rng)
    fused = Tensor(rng.standard_normal((2, model.cfg.fused_dim)).astype(np.float32),
                   requires_grad=True)
    for head in (model.disp_head, model.angle_head):
        _fwd_bwd(lambda: head(fused, Mode.TRAIN, rng), head.params() + [fused], rng)
    t = batch["iq"].shape[-1]
    for i, conv in enumerate(model.encoders["iq"].convs):
        inp = Tensor(rng.standard_normal((2, conv.in_channels, t)).astype(np.float32),
                     requires_grad=i > 0)
        _fwd_bwd(lambda: conv(inp), conv.params() + [inp], rng)


def test_bench_layer_calls_mcaff():
    # the calls perfbench/layers.py makes on the MCAFF model, at tiny widths
    rng = np.random.default_rng(0)
    model = McaffModel(tiny_mcaff_config(n_classes=6, n_subclasses=12), seed=0)
    cfg = model.cfg
    batch = {k: v.astype(np.float32) for k, v in _batch(2).items()}
    paths = {"iq": batch["iq"].reshape(2, 8, 32, 32), "fft": batch["spec"],
             "cfo": batch["cfo"].reshape(2, 4, 32, 32), "stft": batch["stft"]}
    for name, x in paths.items():
        stem, inp = model.stems[name], Tensor(x)
        _fwd_bwd(lambda: stem(inp), stem.params(), rng)

    def grid(c):
        return Tensor(rng.standard_normal((2, c, 8, 8)).astype(np.float32), requires_grad=True)

    h, fused, g_in = grid(cfg.path_feature_dim), grid(cfg.concat_channels), \
        grid(model.block.grouped.in_channels)
    _fwd_bwd(lambda: model.attention(h), model.attention.params() + [h], rng)
    _fwd_bwd(lambda: model.block(fused), model.block.params() + [fused], rng)
    pooled = Tensor(rng.standard_normal((2, cfg.concat_channels)).astype(np.float32),
                    requires_grad=True)
    heads = [model.disp_head, model.angle_head, model.class_head, model.subclass_head]
    _fwd_bwd(lambda: [hd(pooled, Mode.TRAIN, rng) for hd in heads],
             [p for hd in heads for p in hd.params()] + [pooled], rng)
    grouped = model.block.grouped
    _fwd_bwd(lambda: grouped(g_in), grouped.params() + [g_in], rng)
