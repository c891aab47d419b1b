"""Labeled snapshot dataset generation.

Poses are simulated ``_CHUNK`` snapshots at a time (``_simulate``). Each pose
draws from an independent generator seeded by (seed, seed_channel,
pose_index), in this order:

1. ``default_rng([seed, seed_channel, pose_index])``;
2. the plan jitter, ``uniform(-j, j, size=2)``, when ``pose_jitter_m`` > 0;
3. for each profile of the pose, ``gen_baseband`` and then one
   ``normal(size=(2, 4, N))`` of receiver noise (real parts, then
   imaginary parts: the stream of two (4, N) draws).

Then the chunk's path geometry and snapshots are computed as arrays (see
``scene``). Neither the streams nor a pose's arithmetic depend on the chunk,
so generation is order-stable, the output is bitwise the same for any chunk
size or ``jobs`` value, and chunks can be split across worker processes.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .geometry import ArrayGeometry
from .jammers import JammerProfile, gen_baseband
from .records import IQSnapshot, Label
from .scene import (SceneConfig, _check_jammers, _check_scene, _draw_noise,
                    _path_arrays, _synthesize)
from .trajectory import DEFAULT_HEIGHTS, gen_trajectory

__all__ = ["SimConfig", "make_dataset"]

# snapshots simulated together. It bounds the chunk's temporaries (about
# 9 MB at snapshot_len 1024, mostly the (Q, 1+S, N) delayed waveforms)
# whatever the assignment. Chunks of 16, 32 and 64 ran the desk suite
# equally fast on a 2-vCPU x86-64 VM; larger chunks left more heap
# behind at peak RSS.
_CHUNK = 32

_ASSIGNMENTS = ("cycle", "cross")


@dataclass
class SimConfig:
    """Simulation section of a run: scene, trajectory, and jammer profiles.

    assignment "cycle" gives pose i the profile i mod len(profiles) (one
    snapshot per pose); "cross" emits one snapshot per (pose, profile) pair.
    """

    scene: SceneConfig = field(default_factory=SceneConfig)
    trajectory_kind: str = "circles"
    trajectory_params: dict = field(default_factory=dict)
    heights: tuple = DEFAULT_HEIGHTS
    profiles: list[JammerProfile] = field(default_factory=list)
    assignment: str = "cycle"
    pose_jitter_m: float = 0.0
    scenario_tag: str = "Random"
    seed_channel: int = 0


def _check_config(cfg: SimConfig, jobs: int) -> None:
    if isinstance(jobs, bool) or not isinstance(jobs, (int, np.integer)) or jobs < 1:
        raise ValueError(f"make_dataset: jobs must be an integer >= 1, got {jobs!r}")
    if cfg.assignment not in _ASSIGNMENTS:
        raise ValueError(f"SimConfig.assignment must be one of {_ASSIGNMENTS}, "
                         f"got {cfg.assignment!r}")
    if not (np.isfinite(cfg.pose_jitter_m) and cfg.pose_jitter_m >= 0):
        raise ValueError(f"SimConfig.pose_jitter_m must be finite and >= 0, "
                         f"got {cfg.pose_jitter_m!r}")
    if not cfg.profiles:
        raise ValueError("no jammer profiles configured")
    for p in cfg.profiles:
        if not isinstance(p, JammerProfile):
            raise TypeError("profiles must be JammerProfile instances")
    _check_scene(cfg.scene)


def _profiles_of(cfg: SimConfig, index: int) -> list[JammerProfile]:
    if cfg.assignment == "cross":
        return cfg.profiles
    return [cfg.profiles[index % len(cfg.profiles)]]


def _simulate(cfg: SimConfig, geometry: ArrayGeometry, seed: int, poses: np.ndarray,
              indices) -> list[IQSnapshot]:
    """The snapshots of the poses ``indices`` (ints) of ``poses``, in order."""
    scene = cfg.scene
    n, fs = scene.snapshot_len, scene.sample_rate
    jammers = poses[list(indices)]
    rows = [(k, prof) for k, index in enumerate(indices) for prof in _profiles_of(cfg, index)]
    waveforms = np.empty((len(rows), n), dtype=np.complex128)
    noise = None if scene.noise_floor_dbm is None else np.empty((len(rows), 2, 4, n))
    r = 0
    for k, index in enumerate(indices):
        rng = np.random.default_rng([seed, cfg.seed_channel, index])
        if cfg.pose_jitter_m > 0:
            jammers[k, :2] += rng.uniform(-cfg.pose_jitter_m, cfg.pose_jitter_m, size=2)
        for prof in _profiles_of(cfg, index):
            np.multiply(gen_baseband(prof, n, fs, rng), 10.0 ** (prof.power_dbm / 20.0),
                        out=waveforms[r])
            if noise is not None:
                noise[r] = _draw_noise(scene, rng, n)
            r += 1

    antenna = np.asarray(scene.antenna_position, dtype=np.float64)
    _check_jammers(scene, antenna, jammers)
    pose_of_row = np.array([k for k, _ in rows], dtype=np.intp)
    samples = _synthesize(scene, geometry, _path_arrays(scene, antenna, jammers), pose_of_row,
                          waveforms, noise)
    return [IQSnapshot(samples=x, scenario_tag=cfg.scenario_tag,
                       label=Label.from_displacement(jammers[k] - antenna, prof.class_id,
                                                     prof.subclass_id))
            for x, (k, prof) in zip(samples, rows)]


def make_dataset(cfg: SimConfig, geometry: ArrayGeometry, seed: int,
                 jobs: int = 1) -> list[IQSnapshot]:
    """Generate one labeled snapshot list; deterministic for a fixed seed.

    ``jobs`` > 1 simulates the chunks in that many worker processes.
    """
    _check_config(cfg, jobs)
    poses = gen_trajectory(cfg.trajectory_kind, cfg.trajectory_params, cfg.heights)
    if len(poses) == 0:
        raise ValueError("trajectory produced no poses")

    per_pose = len(cfg.profiles) if cfg.assignment == "cross" else 1
    step = max(1, _CHUNK // per_pose)
    chunks = [range(i, min(i + step, len(poses))) for i in range(0, len(poses), step)]
    simulate = partial(_simulate, cfg, geometry, seed, poses)
    if jobs == 1:
        parts = map(simulate, chunks)
    else:
        workers = min(jobs, len(chunks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map keeps the input order, so the result is the serial order
            parts = list(pool.map(simulate, chunks, chunksize=-(-len(chunks) // workers)))
    return [snap for part in parts for snap in part]
