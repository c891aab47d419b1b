"""The three workloads. Each is a closed loop driven by one process: the next
call into the program starts only when the previous one has returned.

simfeat_desk
    Simulates all 8 DATASET_KEYS at desk scale (every wall layout, 3 to 6
    reflecting surfaces, and all 12 jammer profiles), then featurizes every
    snapshot with all five extractors the two models consume. ``sigsim`` and
    ``dsp`` do most of the work. So that the train and eval metrics exist
    here too, 24 steps and 20 forwards of the paper-width McaffModel, on
    train_mcaff's set-up data, are spread over each pass, a few after each
    simulated key and featurized chunk: about a fifth of the pass. Spread
    out, they see the same host state as the rest of the pass; run at its
    end, their timings spread more between runs on shared hosts than the
    pass did. (A tiny model was tried first; its millisecond steps spread
    too much.) Predicted unchanged by a Conv1D-only edit; other
    ``models``/``nn`` edits move mainly its train and eval metrics.

train_fusion
    FusionModel at paper widths, B=32, float32: a fixed number of momentum-SGD
    steps with forward-only Mode.EVAL passes over held-out batches spread
    among them (see ``pipeline.train_steps``). The
    dilated Conv1D stack of the IQ encoder dominates. Simulation and
    featurization run in set-up, so ``sigsim``/``dsp`` edits move only
    ``setup_s`` and the set-up rates.

train_mcaff
    The same loop for McaffModel with all four paths: strided Conv2D stems,
    the grouped conv block, shared attention, four heads and no Conv1D.
    Predicted unchanged by a Conv1D-only edit; a Conv2D edit shows here far
    more than in train_fusion, where the spectrogram encoder is about 3 % of
    the forward pass.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import checks as chk
import pipeline as P
from jamloc import models, sigsim
from spans import NullTracer

SETUP_REPEATS = 3
EVAL_BATCHES = 4
EVAL_FORWARDS = 5 * EVAL_BATCHES    # spread among the train steps
# train steps per second of --seconds: a count fixed by --seconds alone, so
# that two commits run the same steps and their percentiles compare; sized
# so that a run measures about --seconds on a 2-core x86-64 host at the time
# of writing
STEPS_PER_SECOND = {"fusion": 1.25, "mcaff": 4.0}
MIN_STEPS = 4
# passes per run = round(--seconds / this), at least one; a fixed count, so
# that two commits run the same passes
SIMFEAT_PASS_S = 25.0
SIMFEAT_TRAIN_STEPS = 24   # so that the tail, the 58th percentile, lies above the median


@dataclass
class Context:
    seed: int
    seconds: float
    tiny: bool
    checks: chk.Checks
    ref: dict
    workdir: str
    geometry: sigsim.ArrayGeometry = field(default_factory=sigsim.ArrayGeometry)


@dataclass
class Phase:
    """One measured phase: end-to-end values plus what the report shows."""

    metrics: dict
    attempted: int
    failed: int
    losses: list
    info: dict


def _train_metrics(tr: P.TrainResult, ev: P.EvalResult) -> tuple[dict, dict]:
    pct, tail_s = P.tail(tr.step_s)
    metrics = {
        "train_samples_per_s": P.BATCH * len(tr.step_s) / sum(tr.step_s),
        "train_step_ms_p50": 1e3 * statistics.median(tr.step_s),
        "train_step_ms_tail": 1e3 * tail_s,
        "eval_snapshots_per_s": P.BATCH / statistics.median(ev.batch_s),
    }
    return metrics, {"train_steps": len(tr.step_s), "train_step_tail_percentile": pct,
                     "eval_batches": len(ev.batch_s), "untraced_step_s": tr.untraced_step_s}


def _batches(kept: dict, labs: dict, norm: P.Norm, names, seed: int) -> tuple[list, list]:
    """Train batches in a seeded shuffle (the splits are stored by height and
    circle, so unshuffled batches each see one region and SGD oscillates),
    and the held-out batches."""
    order = np.random.default_rng(seed).permutation(len(labs["random_train"]["class"]))
    return (P.batches(kept, labs, norm, names, "random_train", order),
            P.batches(kept, labs, norm, names, "random_test")[:EVAL_BATCHES])


def _check_data(ctx: Context, scale: str, cfgs: dict, data: dict) -> None:
    for key, snaps in data.items():
        chk.check_labels(ctx.checks, ctx.ref, scale, key, cfgs[key], snaps)


# ----------------------------------------------------------------------
# simfeat_desk
# ----------------------------------------------------------------------

class _Spread:
    """Runs the ``n`` steps of a ``pipeline.train_steps`` generator spread
    evenly over ``slots`` calls, and any left over at ``finish``."""

    def __init__(self, steps, n: int, slots: int):
        self.steps, self.n, self.slots = steps, n, slots
        self.calls = self.done = 0
        self.result = None

    def __call__(self) -> None:
        self.calls += 1
        self._run_to(self.calls * self.n // self.slots)

    def finish(self) -> tuple[P.TrainResult, P.EvalResult]:
        self._run_to(self.n)
        return self.result

    def _run_to(self, due: int) -> None:
        while self.done < min(due, self.n):
            self.result = next(self.steps)
            self.done += 1


class SimFeat:
    name = "simfeat_desk"
    kind = "mcaff"       # the model trained during each pass

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.scale = "tiny" if ctx.tiny else "desk"
        self.width = "tiny" if ctx.tiny else "paper"
        self.cfgs = P.sim_configs(self.scale)
        self.stats = chk.ChunkStats(ctx.checks)
        self.trainset = Train(ctx, self.kind)
        # a slot for train steps after each simulated key and each featurized chunk
        counts = [r["count"] for r in ctx.ref[self.scale].values()]
        self.slots = len(counts) + sum(-(-c // P.CHUNK) for c in counts)

    @property
    def setup_check_s(self) -> float:
        return self.trainset.setup_check_s

    def setup(self) -> TrainState:
        """train_mcaff's set-up: the batches the passes train and evaluate on."""
        return self.trainset.setup()

    def measure(self, state: TrainState, tracer, alternate: bool = False) -> Phase:
        n = max(1, round(self.ctx.seconds / SIMFEAT_PASS_S))
        passes = [self._pass(state, tracer, alternate) for _ in range(n)]
        metrics = {k: statistics.median(p.metrics[k] for p in passes) for k in passes[0].metrics}
        info = dict(passes[-1].info, passes=len(passes))
        return Phase(metrics, sum(p.attempted for p in passes), sum(p.failed for p in passes),
                     [x for p in passes for x in p.losses], info)

    def _pass(self, state: TrainState, tracer, alternate: bool) -> Phase:
        ctx = self.ctx
        self.stats = chk.ChunkStats(ctx.checks)
        steps = SIMFEAT_TRAIN_STEPS
        t0 = time.perf_counter()
        with tracer.span("bench.pass"):
            rng = np.random.default_rng(ctx.seed)
            model = P.build_model(self.kind, self.width, ctx.seed)
            P.warm_up(model, state.train_b[0], rng)
            spread = _Spread(P.train_steps(model, state.train_b, steps, self.kind, rng, tracer,
                                           state.held_b, EVAL_FORWARDS, alternate),
                             steps, self.slots)
            data, sim_rates = {}, []
            for key, cfg in self.cfgs.items():
                snaps, rates = P.simulate({key: cfg}, ctx.geometry, ctx.seed, tracer)
                data.update(snaps)
                sim_rates += rates
                spread()
            t_chk = time.perf_counter()
            _check_data(ctx, self.scale, self.cfgs, data)
            check_s = time.perf_counter() - t_chk
            n_snaps = sum(len(s) for s in data.values())

            def on_chunk(x, feats):
                self.stats(x, feats)
                spread()

            feat, _, _ = P.prepare(data, self.cfgs["random_train"].scene.sample_rate,
                                   P.ALL_FEATURES, tracer, on_chunk, {})
            tr, ev = spread.finish()
        wall = time.perf_counter() - t0 - check_s - self.stats.seconds
        chk.check_training(ctx.checks, tr.losses, steps, len(state.train_b))
        metrics, info = _train_metrics(tr, ev)
        metrics.update(wall_s=wall,
                       simulate_snapshots_per_s=statistics.median(sim_rates),
                       featurize_snapshots_per_s=statistics.median(feat.rates))
        failed = tr.nonfinite_trips + ev.nonfinite_trips
        info.update(snapshots=n_snaps, featurize_s=feat.seconds, fit_norm_s=feat.fit_seconds,
                    nonfinite_trips=failed, train_slots=self.slots, slot_calls=spread.calls)
        return Phase(metrics, n_snaps + steps + EVAL_FORWARDS, failed, tr.losses, info)


# ----------------------------------------------------------------------
# train_fusion / train_mcaff
# ----------------------------------------------------------------------

@dataclass
class TrainState:
    train_b: list
    held_b: list
    norm: P.Norm
    model: object


class Train:
    def __init__(self, ctx: Context, kind: str):
        self.ctx = ctx
        self.kind = kind
        self.name = f"train_{kind}"
        self.scale = "tiny_trainset" if ctx.tiny else "trainset"
        self.width = "tiny" if ctx.tiny else "paper"
        self.cfgs = P.sim_configs(self.scale)
        self.stats = chk.ChunkStats(ctx.checks)
        self.steps = max(MIN_STEPS, round(STEPS_PER_SECOND[kind] * ctx.seconds))
        self.setup_check_s = 0.0     # check time inside the last setup(), left out of setup_s
        # snapshots per second of each simulated key and featurized chunk,
        # over every setup()
        self.sim_rates: list[float] = []
        self.feat_rates: list[float] = []

    def setup(self) -> TrainState:
        """Simulate and featurize the two splits, build and warm the model."""
        ctx, tracer = self.ctx, NullTracer()
        self.stats = chk.ChunkStats(ctx.checks)
        data, sim_rates = P.simulate(self.cfgs, ctx.geometry, ctx.seed, tracer)
        t0 = time.perf_counter()
        _check_data(ctx, self.scale, self.cfgs, data)
        label_check_s = time.perf_counter() - t0
        names = P.MODEL_FEATURES[self.kind]
        keep = {key: np.arange(len(s)) for key, s in data.items()}
        feat, kept, labs = P.prepare(data, self.cfgs["random_train"].scene.sample_rate, names,
                                     tracer, self.stats, keep)
        train_b, held_b = _batches(kept, labs, feat.norm, names, ctx.seed)
        model = P.build_model(self.kind, self.width, ctx.seed)
        P.warm_up(model, train_b[0], np.random.default_rng(ctx.seed))
        self.sim_rates += sim_rates
        self.feat_rates += feat.rates
        self.setup_check_s = label_check_s + self.stats.seconds
        return TrainState(train_b, held_b, feat.norm, model)

    def measure(self, state: TrainState, tracer, alternate: bool = False) -> Phase:
        ctx = self.ctx
        rng = np.random.default_rng(ctx.seed)
        t0 = time.perf_counter()
        with tracer.span("bench.loop"):
            tr, ev = P.train(state.model, state.train_b, self.steps, self.kind, rng, tracer,
                             state.held_b, EVAL_FORWARDS, alternate)
        wall = time.perf_counter() - t0
        chk.check_training(ctx.checks, tr.losses, self.steps, len(state.train_b))
        self._check_roundtrip(state)
        metrics, info = _train_metrics(tr, ev)
        metrics.update(wall_s=wall, simulate_snapshots_per_s=statistics.median(self.sim_rates),
                       featurize_snapshots_per_s=statistics.median(self.feat_rates))
        failed = tr.nonfinite_trips + ev.nonfinite_trips
        info.update(nonfinite_trips=failed, final_loss=tr.losses[-1] if tr.losses else None)
        return Phase(metrics, self.steps + EVAL_FORWARDS, failed, tr.losses, info)

    def _check_roundtrip(self, state: TrainState) -> None:
        before = P.evaluate(state.model, state.held_b, NullTracer())
        with tempfile.TemporaryDirectory(dir=self.ctx.workdir) as d:
            path = f"{d}/model.gjw"
            models.save_model(path, state.model, state.norm.spec)
            loaded, _, _ = models.load_model(path, dtype=np.float32)
        again = P.evaluate(loaded, state.held_b, NullTracer())
        chk.check_roundtrip(self.ctx.checks, before.preds, again.preds)
