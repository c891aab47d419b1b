"""Per-layer timings of the traced run, each taken from outside by calling a
layer's public function at fixed sizes: B=32, float32, paper widths (tiny
widths in a ``--tiny`` run). A timing is the median of ``REPEATS`` calls.

The model decomposition calls ``model.encoders[...]``, ``model.stems[...]``,
``model.attention``, ``model.block`` and the heads directly. Internal layers
get inputs that require a gradient, as they do inside the model, so their
backward includes the input gradient; the layers that read model inputs do
not.
"""

from __future__ import annotations

import statistics
import tempfile
import time

import numpy as np

import pipeline as P
from jamloc import dsp, models, nn, sigsim
from spans import NullTracer

REPEATS = 3
GEN_BASEBAND_CALLS = 20
PROPAGATE_POSES = 100
DSP_SNAPSHOTS = 64


def _median_s(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _fwd_bwd_ms(forward, params, rng) -> tuple[float, float]:
    """Median forward and backward ms of ``forward()``; the backward starts
    from sum(out * G) with a fixed random G."""
    fwd, bwd = [], []
    g = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = forward()
        t1 = time.perf_counter()
        outs = out if isinstance(out, list) else [out]
        if g is None:
            g = [rng.standard_normal(o.shape).astype(o.dtype) for o in outs]
        loss = (outs[0] * g[0]).sum()
        for o, gi in zip(outs[1:], g[1:]):
            loss = loss + (o * gi).sum()
        t2 = time.perf_counter()
        loss.backward()
        t3 = time.perf_counter()
        for p in params:
            p.grad = None
        fwd.append(t1 - t0)
        bwd.append(t3 - t2)
    return 1e3 * statistics.median(fwd), 1e3 * statistics.median(bwd)


def _tensor(rng, shape, dtype=np.float32, grad=True) -> nn.Tensor:
    return nn.Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=grad)


def _pair(out: dict, prefix: str, ms: tuple[float, float]) -> None:
    out[f"{prefix}.fwd_ms"] = (ms[0], "ms")
    out[f"{prefix}.bwd_ms"] = (ms[1], "ms")


# ----------------------------------------------------------------------
# sigsim and dsp
# ----------------------------------------------------------------------

def sigsim_layers(cfgs: dict, geometry, seed: int) -> tuple[dict, list]:
    """sigsim timings, and the random_train snapshots made on the way."""
    out = {}
    for key, cfg in cfgs.items():
        t0 = time.perf_counter()
        snaps = sigsim.make_dataset(cfg, geometry, seed, jobs=1)
        out[f"sigsim.make_dataset_ms.{key}"] = (1e3 * (time.perf_counter() - t0), "ms")
        if key == "random_train":
            train = snaps

    rng = np.random.default_rng(seed)
    scene = next(iter(cfgs.values())).scene
    first = {}
    for prof in sigsim.desk_profiles():
        first.setdefault(prof.jclass, prof)
    for jclass, prof in first.items():
        s = _median_s(lambda: sigsim.gen_baseband(prof, scene.snapshot_len, scene.sample_rate, rng),
                      GEN_BASEBAND_CALLS)
        out[f"sigsim.gen_baseband_us.{jclass.name.lower()}"] = (1e6 * s, "us")

    calls, paths, elapsed = 0, 0, 0.0
    poses = []
    for cfg in cfgs.values():
        antenna = np.asarray(cfg.scene.antenna_position, dtype=np.float64)
        for pose in sigsim.gen_trajectory(cfg.trajectory_kind, cfg.trajectory_params, cfg.heights):
            t0 = time.perf_counter()
            n = len(sigsim.compute_paths(cfg.scene, antenna, pose))
            elapsed += time.perf_counter() - t0
            calls += 1
            paths += n
            poses.append((cfg.scene, pose))
    out["sigsim.compute_paths_us"] = (1e6 * elapsed / calls, "us")
    out["sigsim.paths_per_pose"] = (paths / calls, "count")

    wf = sigsim.gen_baseband(first[sigsim.JammerClass.NOISE], scene.snapshot_len,
                             scene.sample_rate, rng)
    sample = [poses[i] for i in P.every_nth(len(poses), PROPAGATE_POSES)]
    t0 = time.perf_counter()
    for scene_i, pose in sample:
        sigsim.propagate(scene_i, geometry, pose, wf, rng)
    out["sigsim.propagate_us"] = (1e6 * (time.perf_counter() - t0) / len(sample), "us")
    return out, train


def dsp_layers(x: np.ndarray, fs: float) -> dict:
    """Extractor timings on a stacked chunk ``x`` (M, 4, N), with IQ
    statistics fitted on ``x``."""
    m = len(x)
    spec = dsp.NormalizationSpec()
    aoa = dsp.aoa_features(x, fs)
    out = {}
    out["dsp.fft_us_per_row"] = (1e6 * _median_s(lambda: dsp.fft(x)) / (m * x.shape[1]), "us")

    def fit():
        spec.iq_mean, spec.iq_std = dsp.fit_iq_stats(x)
        dsp.fit_aoa_stats(aoa)

    out["dsp.fit_norm_ms"] = (1e3 * _median_s(fit), "ms")
    for name in P.ALL_FEATURES:
        s = _median_s(lambda: P.extract(x, (name,), fs, spec, NullTracer()))
        out[f"dsp.{P.EXTRACTOR_NAMES[name]}_us"] = (1e6 * s / m, "us")
    return out


# ----------------------------------------------------------------------
# models and nn
# ----------------------------------------------------------------------

def _model_step(out: dict, name: str, model, batch, rng) -> None:
    """Full-model forward, backward (from the benchmark loss) and SGD step;
    counts float64 prediction tensors coming out of the float32 model."""
    x, tgt = batch
    opt = nn.SGD(model.params(), learning_rate=P.LEARNING_RATE[name])
    fwd, bwd, sgd = [], [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        pred = model.forward(x, nn.Mode.TRAIN, rng)
        t1 = time.perf_counter()
        loss = P.loss_fn(pred, tgt)
        t2 = time.perf_counter()
        loss.backward()
        t3 = time.perf_counter()
        opt.step()
        t4 = time.perf_counter()
        fwd.append(t1 - t0)
        bwd.append(t3 - t2)
        sgd.append(t4 - t3)
    out[f"models.{name}.forward_ms"] = (1e3 * statistics.median(fwd), "ms")
    out[f"models.{name}.backward_ms"] = (1e3 * statistics.median(bwd), "ms")
    out[f"nn.sgd_step_ms.{name}"] = (1e3 * statistics.median(sgd), "ms")
    heads = [pred.disp, pred.angle_raw, pred.class_logits, pred.subclass_logits]
    promoted = sum(1 for t in heads if t is not None and t.dtype == np.float64)
    out[f"models.{name}.promoted_outputs"] = (promoted, "count")


def fusion_layers(batch, width: str, seed: int) -> tuple[dict, object]:
    rng = np.random.default_rng(seed)
    model = P.build_model("fusion", width, seed)
    P.warm_up(model, batch, rng)
    x, _ = batch
    out = {}
    _model_step(out, "fusion", model, batch, rng)
    for name, enc in model.encoders.items():
        inp = nn.Tensor(x[name])
        _pair(out, f"models.fusion.enc.{name}",
              _fwd_bwd_ms(lambda: enc(inp, nn.Mode.TRAIN, rng), enc.params(), rng))
    fused = _tensor(rng, (P.BATCH, model.cfg.fused_dim))
    for name, head in (("disp", model.disp_head), ("angle", model.angle_head)):
        _pair(out, f"models.fusion.head.{name}",
              _fwd_bwd_ms(lambda: head(fused, nn.Mode.TRAIN, rng), head.params() + [fused], rng))

    iq = model.encoders["iq"]
    t = x["iq"].shape[-1]
    for i, conv in enumerate(iq.convs):
        inp = _tensor(rng, (P.BATCH, conv.in_channels, t), grad=i > 0)
        prefix = f"nn.conv1d.d{conv.dilation}"
        _pair(out, prefix, _fwd_bwd_ms(lambda: conv(inp), conv.params() + [inp], rng))
        flop = 2 * P.BATCH * t * conv.out_channels * conv.in_channels * conv.kernel_size
        out[f"{prefix}.fwd_mflop"] = (flop / 1e6, "MFLOP")
    return out, model


def _path_inputs(x: dict) -> dict:
    b = P.BATCH
    return {"iq": x["iq"].reshape(b, 8, 32, 32), "fft": x["spec"],
            "cfo": x["cfo"].reshape(b, 4, 32, 32), "stft": x["stft"]}


def mcaff_layers(batch, width: str, seed: int) -> tuple[dict, object]:
    rng = np.random.default_rng(seed)
    model = P.build_model("mcaff", width, seed)
    P.warm_up(model, batch, rng)
    cfg = model.cfg
    x, _ = batch
    out = {}
    _model_step(out, "mcaff", model, batch, rng)
    for name, inp in _path_inputs(x).items():
        stem, t = model.stems[name], nn.Tensor(inp)
        _pair(out, f"models.mcaff.stem.{name}", _fwd_bwd_ms(lambda: stem(t), stem.params(), rng))
    grid = (8, 8)
    h = _tensor(rng, (P.BATCH, cfg.path_feature_dim) + grid)
    _pair(out, "models.mcaff.attention",
          _fwd_bwd_ms(lambda: model.attention(h), model.attention.params() + [h], rng))
    fused = _tensor(rng, (P.BATCH, cfg.concat_channels) + grid)
    _pair(out, "models.mcaff.block",
          _fwd_bwd_ms(lambda: model.block(fused), model.block.params() + [fused], rng))
    pooled = _tensor(rng, (P.BATCH, cfg.concat_channels))
    heads = [model.disp_head, model.angle_head, model.class_head, model.subclass_head]
    _pair(out, "models.mcaff.heads",
          _fwd_bwd_ms(lambda: [hd(pooled, nn.Mode.TRAIN, rng) for hd in heads],
                      [p for hd in heads for p in hd.params()] + [pooled], rng))
    grouped = model.block.grouped
    g_in = _tensor(rng, (P.BATCH, grouped.in_channels) + grid)
    _pair(out, "nn.conv2d.grouped", _fwd_bwd_ms(lambda: grouped(g_in), grouped.params() + [g_in], rng))
    return out, model


def io_layers(trained: dict, norm: P.Norm, workdir: str) -> dict:
    out = {}
    with tempfile.TemporaryDirectory(dir=workdir) as d:
        for name, model in trained.items():
            path = f"{d}/{name}.gjw"
            out[f"models.io.save_ms.{name}"] = (
                1e3 * _median_s(lambda: models.save_model(path, model, norm.spec)), "ms")
            out[f"models.io.load_ms.{name}"] = (
                1e3 * _median_s(lambda: models.load_model(path, dtype=np.float32)), "ms")
    return out


def sweep(ctx, sim_scale: str, width: str) -> dict:
    """Every per-layer timing, as {name: (value, unit)}."""
    cfgs = P.sim_configs(sim_scale)
    out, snaps = sigsim_layers(cfgs, ctx.geometry, ctx.seed)
    snaps = [snaps[i] for i in P.every_nth(len(snaps), DSP_SNAPSHOTS)]
    fs = cfgs["random_train"].scene.sample_rate
    out.update(dsp_layers(np.stack([s.samples for s in snaps]), fs))

    feat, kept, labs = P.prepare({"random_train": snaps}, fs, P.ALL_FEATURES, NullTracer(), None,
                                 {"random_train": np.arange(P.BATCH)})
    norm = feat.norm
    batch = P.batches(kept, labs, norm, P.ALL_FEATURES, "random_train")[0]

    f_out, fusion = fusion_layers(batch, width, ctx.seed)
    m_out, mcaff = mcaff_layers(batch, width, ctx.seed)
    out.update(f_out)
    out.update(m_out)
    out.update(io_layers({"fusion": fusion, "mcaff": mcaff}, norm, ctx.workdir))
    return out
