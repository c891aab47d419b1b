"""Glue from simulated snapshots to a trained model, through the public APIs
of ``sigsim``, ``dsp``, ``models`` and ``nn``.

The repository has no featurize or train entry point yet, so the benchmark
does this glue itself:

- the ``NormalizationSpec`` (IQ and AoA statistics) is fitted on
  ``random_train`` only;
- ``cfo`` and ``stft``, which ``dsp`` does not normalize, are standardized per
  patch with statistics from the same split (raw ``cfo`` drives MCAFF
  non-finite within a few steps);
- the loss covers every head the model has, because ``SGD.step`` refuses a
  parameter without a gradient.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from jamloc import dsp, models, nn, sigsim
from spans import NullTracer

BATCH = 32
CHUNK = 256          # snapshots featurized per call, which bounds feature memory
ALL_FEATURES = ("spec", "iq", "aoa", "cfo", "stft")
MODEL_FEATURES = {"fusion": ("spec", "iq", "aoa"), "mcaff": ("spec", "iq", "cfo", "stft")}
EXTRACTOR_NAMES = {"spec": "spectrogram", "iq": "normalize_iq", "aoa": "aoa_features",
                   "cfo": "cfo_accumulated", "stft": "stft"}
LEARNING_RATE = {"fusion": 2e-3, "mcaff": 1e-2}
NULL_TRACER = NullTracer()


def _shrink(cfg: sigsim.SimConfig, **params) -> sigsim.SimConfig:
    return replace(cfg, trajectory_params={**cfg.trajectory_params, **params})


def sim_configs(scale: str) -> dict[str, sigsim.SimConfig]:
    """SimConfig per dataset key.

    ``desk`` is all 8 DATASET_KEYS at the repository's desk scale (4,800
    snapshots); ``trainset`` is random_train and random_test thinned to 240
    and 140 snapshots; ``tiny`` and ``tiny_trainset`` are the same shapes at
    test size.
    """
    desk = sigsim.scenario_configs("desk")
    if scale == "desk":
        return desk
    if scale == "trainset":
        return {"random_train": _shrink(desk["random_train"], points_per_circle=12),
                "random_test": _shrink(desk["random_test"], points_per_circle=7)}
    if scale == "tiny_trainset":
        return {"random_train": _shrink(desk["random_train"], points_per_circle=2),
                "random_test": _shrink(desk["random_test"], points_per_circle=2)}
    if scale == "tiny":
        out = {}
        for key, cfg in desk.items():
            if cfg.trajectory_kind == "meander":
                out[key] = _shrink(cfg, rows=2, points_per_row=3)
            elif cfg.trajectory_kind == "grid_circles":
                out[key] = _shrink(cfg, points_per_circle=1, radii=(1.2,))
            else:
                out[key] = _shrink(cfg, points_per_circle=2)
        return out
    raise ValueError(f"unknown scale {scale!r}")


def simulate(cfgs: dict, geometry, seed: int, tracer) -> tuple[dict[str, list], list[float]]:
    """Snapshots per key, and the snapshots per second of each key."""
    out, rates = {}, []
    for key, cfg in cfgs.items():
        t0 = time.perf_counter()
        with tracer.span("sigsim.make_dataset"):
            out[key] = sigsim.make_dataset(cfg, geometry, seed, jobs=1)
        rates.append(len(out[key]) / (time.perf_counter() - t0))
    return out, rates


def extract(x: np.ndarray, names, fs: float, norm: dsp.NormalizationSpec, tracer) -> dict:
    """Raw features of a stacked chunk (M, 4, N); only IQ is normalized here."""
    calls = {"spec": lambda: dsp.spectrogram(x),
             "iq": lambda: dsp.normalize_iq(x, norm),
             "aoa": lambda: dsp.aoa_features(x, fs),
             "cfo": lambda: dsp.cfo_accumulated(x),
             "stft": lambda: dsp.stft(x)}
    out = {}
    for name in names:
        with tracer.span(f"dsp.{EXTRACTOR_NAMES[name]}"):
            out[name] = calls[name]()
    return out


@dataclass
class Norm:
    """Train-split statistics: dsp's spec plus per-patch (mean, std) of cfo
    and stft and per-axis (mean, std) of the displacement target."""

    spec: dsp.NormalizationSpec
    cfo: tuple | None = None
    stft: tuple | None = None
    disp: tuple | None = None


class Featurizer:
    """Runs the extractors chunk by chunk over snapshot lists.

    IQ statistics are fitted on random_train before its chunks run; AoA, cfo
    and stft statistics accumulate over random_train's chunks. ``seconds``
    counts extraction time, ``rates`` holds the snapshots per second of each
    chunk, and ``fit_seconds`` counts fitting time; the time of the
    ``on_chunk`` callback (the correctness checks), if any, is in none of
    them.
    """

    def __init__(self, names, fs: float, tracer, on_chunk=None):
        self.names = tuple(names)
        self.fs = fs
        self.tracer = tracer
        self.on_chunk = on_chunk
        self.seconds = 0.0
        self.rates: list[float] = []
        self.fit_seconds = 0.0
        self.norm = Norm(dsp.NormalizationSpec())
        self._aoa: list[np.ndarray] = []
        self._moments = {name: np.zeros((3, 4)) for name in ("cfo", "stft") if name in self.names}

    def fit_iq(self, train_snaps) -> None:
        t0 = time.perf_counter()
        with self.tracer.span("dsp.fit_iq_stats"):
            x = np.stack([s.samples for s in train_snaps])
            self.norm.spec.iq_mean, self.norm.spec.iq_std = dsp.fit_iq_stats(x)
        self.fit_seconds += time.perf_counter() - t0

    def run(self, snaps, keep: np.ndarray, fit: bool = False) -> dict[str, np.ndarray]:
        """Featurize ``snaps``; return the features of the rows in ``keep``."""
        kept = {name: [] for name in self.names}
        for start in range(0, len(snaps), CHUNK):
            t0 = time.perf_counter()
            with self.tracer.span("bench.stack"):
                x = np.stack([s.samples for s in snaps[start:start + CHUNK]])
            feats = extract(x, self.names, self.fs, self.norm.spec, self.tracer)
            dt = time.perf_counter() - t0
            self.seconds += dt
            self.rates.append(len(x) / dt)
            if self.on_chunk is not None:
                self.on_chunk(x, feats)
            if fit:
                t0 = time.perf_counter()
                self._accumulate(feats)
                self.fit_seconds += time.perf_counter() - t0
            rows = keep[(keep >= start) & (keep < start + len(x))] - start
            for name in self.names:
                kept[name].append(feats[name][rows])
        return {name: np.concatenate(parts) for name, parts in kept.items()}

    def _accumulate(self, feats: dict) -> None:
        if "aoa" in feats:
            self._aoa.append(feats["aoa"])
        for name, m in self._moments.items():
            v = np.moveaxis(feats[name], 1, 0).reshape(4, -1)
            m += [np.full(4, v.shape[1]), v.sum(axis=1), (v * v).sum(axis=1)]

    def finish_fit(self, train_labels: dict) -> Norm:
        t0 = time.perf_counter()
        with self.tracer.span("dsp.fit_aoa_stats"):
            if self._aoa:
                self.norm.spec.aoa_mean, self.norm.spec.aoa_std = \
                    dsp.fit_aoa_stats(np.concatenate(self._aoa))
        for name, (n, s, ss) in self._moments.items():
            mean = s / n
            setattr(self.norm, name, (mean, np.sqrt(np.maximum(ss / n - mean * mean, 0.0))))
        disp = train_labels["disp"]
        if len(disp):         # no target statistics when no rows were kept
            self.norm.disp = (disp.mean(axis=0), disp.std(axis=0))
        self.fit_seconds += time.perf_counter() - t0
        return self.norm


def prepare(data: dict, fs: float, names, tracer, on_chunk, keep_rows: dict) -> tuple:
    """Fit on random_train, featurize every key of ``data`` and keep the rows
    ``keep_rows[key]`` of each (none for a key not in it); returns the
    featurizer with its fit finished, the kept features and their labels,
    both by key."""
    feat = Featurizer(names, fs, tracer, on_chunk)
    feat.fit_iq(data["random_train"])
    kept, labs = {}, {}
    for key, snaps in data.items():
        keep = keep_rows.get(key, np.arange(0))
        kept[key] = feat.run(snaps, keep, fit=key == "random_train")
        labs[key] = labels([snaps[i] for i in keep])
    feat.finish_fit(labs["random_train"])
    return feat, kept, labs


def batches(kept: dict, labs: dict, norm: Norm, names, key: str,
            order: np.ndarray | None = None) -> list[tuple[dict, dict]]:
    """The batches of ``key``'s kept rows, as ``make_batches`` gives them."""
    return make_batches(model_inputs(kept[key], norm, names), labs[key], norm, order)


def every_nth(m: int, n: int) -> np.ndarray:
    """About ``n`` rows spread evenly over ``m``."""
    return np.arange(0, m, max(1, m // n))[:n]


def labels(snaps) -> dict[str, np.ndarray]:
    lab = [s.label for s in snaps]
    return {
        "disp": np.array([[l.dx, l.dy, l.dz] for l in lab]),
        "angle": np.array([[l.alpha_deg / models.ALPHA_SCALE, l.beta_deg / models.BETA_SCALE]
                           for l in lab]),
        "class": np.array([l.class_id for l in lab]),
        "subclass": np.array([l.subclass_id for l in lab]),
    }


def model_inputs(feats: dict, norm: Norm, names) -> dict[str, np.ndarray]:
    out = {}
    for name in names:
        v = feats[name]
        if name == "aoa":
            v = dsp.standardize_aoa(v, norm.spec)
        elif name in ("cfo", "stft"):
            mean, std = getattr(norm, name)
            shape = (4,) + (1,) * (v.ndim - 2)
            v = (v - mean.reshape(shape)) / std.reshape(shape)
        out[name] = np.ascontiguousarray(v, dtype=np.float32)
    return out


def make_batches(inputs: dict, labs: dict, norm: Norm,
                 order: np.ndarray | None = None) -> list[tuple[dict, dict]]:
    """Full batches of BATCH rows, taken in ``order`` (default: as stored):
    (model inputs, loss targets)."""
    n = len(labs["class"])
    order = np.arange(n) if order is None else order
    disp = (labs["disp"] - norm.disp[0]) / norm.disp[1]
    out = []
    for b in range(n // BATCH):
        rows = order[b * BATCH:(b + 1) * BATCH]
        x = {name: np.ascontiguousarray(v[rows]) for name, v in inputs.items()}
        tgt = {"disp": disp[rows].astype(np.float32), "angle": labs["angle"][rows].astype(np.float32),
               "class": labs["class"][rows], "subclass": labs["subclass"][rows]}
        out.append((x, tgt))
    return out


def build_model(kind: str, width: str, seed: int):
    """``paper`` widths, or ``tiny`` widths with every layer of the paper model."""
    if kind == "fusion":
        cfg = models.FusionConfig() if width == "paper" else \
            models.tiny_fusion_config(iq_channels=(4, 4, 8, 8, 8), iq_dilations=(1, 2, 4, 8, 16))
        return models.FusionModel(cfg, seed=seed, dtype=np.float32)
    cfg = models.McaffConfig() if width == "paper" else \
        models.tiny_mcaff_config(n_classes=len(sigsim.JAMMER_CLASSES), n_subclasses=12)
    return models.McaffModel(cfg, seed=seed, dtype=np.float32)


# ----------------------------------------------------------------------
# loss, training and evaluation
# ----------------------------------------------------------------------

def cross_entropy(logits: nn.Tensor, target: np.ndarray) -> nn.Tensor:
    """Mean cross-entropy with a max-subtracted log-sum-exp."""
    z = logits - logits.data.max(axis=1, keepdims=True)
    lse = z.exp().sum(axis=1).log()
    return (lse - z[np.arange(len(target)), target]).mean()


def loss_fn(pred, tgt: dict) -> nn.Tensor:
    """Displacement MSE (standardized metres) + MSE on the two tanh angle
    outputs + cross-entropy on whichever class heads the model has."""
    d = pred.disp - tgt["disp"]
    a = pred.angle_raw - tgt["angle"]
    loss = (d * d).mean() + (a * a).mean()
    for logits, key in ((pred.class_logits, "class"), (pred.subclass_logits, "subclass")):
        if logits is not None:
            loss = loss + cross_entropy(logits, tgt[key])
    return loss


def warm_up(model, batch, rng) -> None:
    """One forward and backward so lazy allocation happens before timing;
    gradients are dropped, so the weights do not change."""
    x, tgt = batch
    loss_fn(model.forward(x, nn.Mode.TRAIN, rng), tgt).backward()
    for p in model.params():
        p.grad = None


@dataclass
class TrainResult:
    losses: list           # finite loss of each completed step
    step_s: list           # wall time of each completed step
    nonfinite_trips: int   # steps stopped by a FloatingPointError
    untraced_step_s: list  # with ``alternate``: the steps run without spans


@dataclass
class EvalResult:
    batch_s: list          # wall time of each completed forward
    preds: list            # (disp, angle_raw) arrays, from ``evaluate``
    nonfinite_trips: int


def _eval_batch(model, x: dict, tracer, res: EvalResult):
    """One forward-only Mode.EVAL pass; its prediction, or None if it tripped."""
    t0 = time.perf_counter()
    with tracer.span("bench.eval_batch"):
        try:
            with tracer.span("models.forward"):
                pred = model.forward(x, nn.Mode.EVAL)
        except FloatingPointError:
            res.nonfinite_trips += 1
            return None
    res.batch_s.append(time.perf_counter() - t0)
    return pred


def train_steps(model, batches, n_steps: int, kind: str, rng, tracer, held: list, n_evals: int,
                alternate: bool = False):
    """Momentum-SGD steps over ``batches`` in turn, with ``n_evals``
    forward-only passes over the ``held`` batches, in turn, spread evenly
    among the steps: host speed drifts over seconds on shared machines, and
    this way the train and the eval timings cover the same stretch of it.
    A generator that yields its TrainResult and EvalResult, as they
    accumulate, after each step, so that a caller can spread the steps over
    other work too.

    With ``alternate`` every second step records only its outer span,
    ``untraced.train_step``, and its time goes to ``untraced_step_s`` rather
    than ``step_s``, so that traced and untraced steps of one run, on the
    same host state, can be compared."""
    opt = nn.SGD(model.params(), learning_rate=LEARNING_RATE[kind])
    res, ev = TrainResult([], [], 0, []), EvalResult([], [], 0)
    for i in range(n_steps):
        for j in range(i * n_evals // n_steps, (i + 1) * n_evals // n_steps):
            _eval_batch(model, held[j % len(held)][0], tracer, ev)
        x, tgt = batches[i % len(batches)]
        plain = alternate and i % 2 == 1
        step_tracer = NULL_TRACER if plain else tracer
        done = False
        t0 = time.perf_counter()
        with tracer.span("untraced.train_step" if plain else "bench.train_step"):
            try:
                with step_tracer.span("models.forward"):
                    pred = model.forward(x, nn.Mode.TRAIN, rng)
                with step_tracer.span("nn.loss"):
                    loss = loss_fn(pred, tgt).assert_finite("loss")
            except FloatingPointError:
                res.nonfinite_trips += 1
                opt.zero_grad()
            else:
                with step_tracer.span("nn.backward"):
                    loss.backward()
                with step_tracer.span("nn.sgd_step"):
                    opt.step()
                done = True
        if done:
            (res.untraced_step_s if plain else res.step_s).append(time.perf_counter() - t0)
            res.losses.append(loss.item())
        yield res, ev


def train(*args, **kwargs) -> tuple[TrainResult, EvalResult]:
    """All of ``train_steps`` in one go."""
    for res, ev in train_steps(*args, **kwargs):
        pass
    return res, ev


def evaluate(model, batches, tracer) -> EvalResult:
    """One forward-only pass over ``batches``, keeping the predictions."""
    res = EvalResult([], [], 0)
    for x, _ in batches:
        pred = _eval_batch(model, x, tracer, res)
        if pred is not None:
            res.preds.append((pred.disp.data, pred.angle_raw.data))
    return res


def tail(samples) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value; with ten samples or fewer, the maximum (percentile 100)."""
    s = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(s)
    if n <= 10:
        return 100.0, float(s[-1])
    return 100.0 * (n - 10) / n, float(s[n - 11])
