"""Correctness checks that run with every invocation of the benchmark.

The oracles here do not call the code they check:

- the spectrogram is recomputed with ``np.fft.fft`` and the paper's clamp
  bounds on a fixed subsample of every chunk;
- labels are compared with a closed-form rebuild of the nominal trajectory
  and with ``labels_ref.json``, a stored per-key count and digest of the
  seed-independent label fields (class, subclass, scenario tag, height).

Run this file to rewrite ``labels_ref.json`` from the simulator; do that only
when a change to the simulator is meant to change its labels.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("labels_ref.json")
SPEC_DB_BOUNDS = (-195.69, -19.89)     # paper's clamp bounds
SPEC_ATOL = 1e-9                       # unit-scale spectrogram bins
LABEL_ATOL = 1e-9                      # metres and degrees
PREDICTION_RTOL = 1e-5                 # float32 save -> load round trip
PREDICTION_ATOL = 1e-6
PROFILES_PER_CLASS = 2                 # desk profiles: two bandwidth buckets per class


class Checks:
    """Named pass/fail results; the first failure of each keeps its detail."""

    def __init__(self):
        self.results: dict[str, dict] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        r = self.results.setdefault(name, {"passed": 0, "failed": 0})
        if ok:
            r["passed"] += 1
        else:
            r["failed"] += 1
            r.setdefault("detail", detail)
        return ok

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r["failed"] == 0 for r in self.results.values())


# ----------------------------------------------------------------------
# features
# ----------------------------------------------------------------------

def spectrogram_oracle(x: np.ndarray) -> np.ndarray:
    n = x.shape[-1]
    lo, hi = SPEC_DB_BOUNDS
    db = 10.0 * np.log10(np.abs(np.fft.fft(x, axis=-1)) ** 2 / n + 1e-20)
    unit = (np.clip(db, lo, hi) - lo) / (hi - lo)
    return np.fft.fftshift(unit, axes=-1).reshape(x.shape[:-1] + (32, 32))


class ChunkStats:
    """Checks and counts over each featurized chunk: finite samples and
    features, spectrogram range and oracle, clamp saturation, dead channels."""

    def __init__(self, checks: Checks):
        self.checks = checks
        self.bins = 0
        self.clamp_lo = 0
        self.clamp_hi = 0
        self.dead_channels = 0
        self.seconds = 0.0       # time spent here, which the callers leave out of their timings

    def __call__(self, x: np.ndarray, feats: dict) -> None:
        t0 = time.perf_counter()
        self._check(x, feats)
        self.seconds += time.perf_counter() - t0

    def _check(self, x: np.ndarray, feats: dict) -> None:
        c = self.checks
        c.check("finite_samples", bool(np.isfinite(x).all()), "non-finite IQ samples")
        for name, v in feats.items():
            c.check("finite_features", bool(np.isfinite(v).all()), f"non-finite {name}")
        self.dead_channels += int(((x.real ** 2 + x.imag ** 2).sum(axis=-1) == 0).sum())
        spec = feats.get("spec")
        if spec is None:
            return
        c.check("spectrogram_range", bool(spec.min() >= 0.0 and spec.max() <= 1.0),
                f"spectrogram outside [0, 1]: [{spec.min()}, {spec.max()}]")
        self.bins += spec.size
        self.clamp_lo += int((spec == 0.0).sum())
        self.clamp_hi += int((spec == 1.0).sum())
        rows = sorted({0, len(x) // 2, len(x) - 1})
        err = float(np.abs(spec[rows] - spectrogram_oracle(x[rows])).max())
        c.check("spectrogram_oracle", err <= SPEC_ATOL, f"max abs diff {err:g} > {SPEC_ATOL:g}")


# ----------------------------------------------------------------------
# labels
# ----------------------------------------------------------------------

def nominal_poses(cfg) -> np.ndarray:
    """Closed-form trajectory (P, 3) before pose jitter."""
    p = cfg.trajectory_params
    out = []
    for z in cfg.heights:
        if cfg.trajectory_kind == "meander":
            (x0, x1), (y0, y1) = p["x_range"], p["y_range"]
            rows, n = p["rows"], p["points_per_row"]
            for i in range(rows):
                y = y0 + (y1 - y0) * i / (rows - 1) if rows > 1 else y0
                for k in range(n):
                    j = n - 1 - k if i % 2 else k
                    out.append((x0 + (x1 - x0) * j / (n - 1) if n > 1 else x0, y, z))
            continue
        centers = p["centers"] if cfg.trajectory_kind == "grid_circles" else [p["center"]]
        radii = p.get("radii", (3.0, 4.5, 6.0, 7.5, 9.0))
        n, phase = p["points_per_circle"], p.get("phase", 0.0)
        for cx, cy in centers:
            for r in radii:
                for k in range(n):
                    a = phase + 2.0 * math.pi * k / n
                    out.append((cx + r * math.cos(a), cy + r * math.sin(a), z))
    return np.array(out)


def label_digest(snaps) -> str:
    fields = [[s.label.class_id, s.label.subclass_id, s.scenario_tag, round(s.label.dz, 9)]
              for s in snaps]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)


def check_labels(checks: Checks, ref: dict, scale: str, key: str, cfg, snaps) -> None:
    """Compare one key's snapshots with the stored reference and the
    closed-form trajectory (``cycle`` profile assignment, one per pose)."""
    want = ref[scale][key]
    checks.check("snapshot_counts", len(snaps) == want["count"],
                 f"{scale}/{key}: {len(snaps)} snapshots, reference {want['count']}")
    checks.check("labels_reference", label_digest(snaps) == want["digest"],
                 f"{scale}/{key}: label digest differs from the stored reference")
    poses = nominal_poses(cfg)
    if not checks.check("labels_oracle", len(poses) == len(snaps),
                        f"{scale}/{key}: {len(snaps)} snapshots for {len(poses)} poses"):
        return
    lab = np.array([[s.label.dx, s.label.dy, s.label.dz, s.label.alpha_deg, s.label.beta_deg,
                     s.label.class_id, s.label.subclass_id] for s in snaps])
    jammer = lab[:, :3] + np.asarray(cfg.scene.antenna_position)
    jitter = float(np.abs(jammer[:, :2] - poses[:, :2]).max())
    height = float(np.abs(jammer[:, 2] - poses[:, 2]).max())
    alpha = np.degrees(np.arctan2(lab[:, 1], lab[:, 0]))
    alpha = np.where(alpha >= 180.0, alpha - 360.0, alpha)
    beta = np.degrees(np.arctan2(lab[:, 2], np.hypot(lab[:, 0], lab[:, 1])))
    angle = float(max(np.abs(alpha - lab[:, 3]).max(), np.abs(beta - lab[:, 4]).max()))
    sub = np.arange(len(snaps)) % len(cfg.profiles)
    ok = (jitter <= cfg.pose_jitter_m + LABEL_ATOL and height <= LABEL_ATOL
          and angle <= LABEL_ATOL
          and np.array_equal(lab[:, 6], sub)
          and np.array_equal(lab[:, 5], sub // PROFILES_PER_CLASS)
          and all(s.scenario_tag == cfg.scenario_tag for s in snaps))
    checks.check("labels_oracle", ok,
                 f"{scale}/{key}: xy off by {jitter:g} m (jitter {cfg.pose_jitter_m}), "
                 f"z by {height:g} m, angles by {angle:g} deg, or class/subclass/tag differ")


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------

def check_training(checks: Checks, losses: list, steps: int, epoch: int) -> None:
    """Every step finite, and the mean loss over the last epoch below the
    first epoch's (both epochs visit every batch once)."""
    checks.check("train_loss_finite", len(losses) == steps and bool(np.isfinite(losses).all()),
                 f"{steps - len(losses)} of {steps} steps had no finite loss")
    if len(losses) >= 2 * epoch:
        first, last = float(np.mean(losses[:epoch])), float(np.mean(losses[-epoch:]))
        checks.check("train_loss_falls", last < first,
                     f"last-epoch loss {last:.6g} not below first-epoch {first:.6g}")
    else:
        checks.check("train_loss_falls", False, f"{len(losses)} steps, need two epochs of {epoch}")


def check_roundtrip(checks: Checks, before: list, after: list) -> None:
    for (d0, a0), (d1, a1) in zip(before, after):
        ok = (np.allclose(d0, d1, rtol=PREDICTION_RTOL, atol=PREDICTION_ATOL)
              and np.allclose(a0, a1, rtol=PREDICTION_RTOL, atol=PREDICTION_ATOL))
        checks.check("save_load_predictions", ok, "predictions differ after save_model -> load_model")


def write_reference() -> None:
    import pipeline
    from jamloc import sigsim
    from spans import NullTracer

    geom = sigsim.ArrayGeometry()
    ref = {}
    for scale in ("desk", "trainset", "tiny", "tiny_trainset"):
        data, _ = pipeline.simulate(pipeline.sim_configs(scale), geom, 0, NullTracer())
        ref[scale] = {key: {"count": len(s), "digest": label_digest(s)} for key, s in data.items()}
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    import sys
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    write_reference()
