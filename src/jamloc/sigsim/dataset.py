"""Labeled snapshot dataset generation.

A snapshot is N = 1024 samples at 100 MHz from the array at (0, 1, 1) m in
the 20 x 30 x 8 m hall: the ``SceneConfig`` constants ``snapshot_len``,
``sample_rate``, ``antenna_position`` and ``hall_extent``.

Pose i is sent by profile i mod len(profiles), one snapshot per pose. Poses
are simulated in chunks (``_simulate``) on the calling process's worker
threads, which the convs and the dsp use too (``jamloc._workers``): ``_CHUNK``
poses in flight over all runs, so two runs take chunks of ``_CHUNK // 2``.
The snapshots come back in pose order. Each pose draws from an independent
generator seeded by (seed, seed_channel, pose_index), in this order:

1. ``default_rng([seed, seed_channel, pose_index])``;
2. the plan jitter, ``uniform(-j, j, size=2)``, when ``pose_jitter_m`` > 0;
3. ``gen_baseband`` of the pose's profile and then one
   ``normal(size=(2, 4, N))`` of receiver noise (real parts, then
   imaginary parts: the stream of two (4, N) draws).

Then the chunk's path geometry and snapshots are computed as arrays (see
``scene``). Neither the streams nor a pose's arithmetic depend on the chunk,
so the output is bitwise the same for any chunk size and worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import _workers
from .geometry import ArrayGeometry
from .jammers import JammerProfile, gen_baseband
from .records import IQSnapshot, Label
from .scene import (SceneConfig, _check_jammers, _check_scene, _draw_noise,
                    _path_arrays, _synthesize)
from .trajectory import DEFAULT_HEIGHTS, gen_trajectory

__all__ = ["SimConfig", "make_dataset"]

# poses in flight over all runs. It bounds the chunks' temporaries (about
# 9 MB, mostly the (P, 1+S, N) delayed waveforms).
# Chunks of 16, 32 and 64 ran the desk suite equally fast on one worker of
# a 2-vCPU x86-64 VM; larger chunks left more heap behind at peak RSS.
_CHUNK = 32


@dataclass
class SimConfig:
    """Simulation section of a run: scene, trajectory, and jammer profiles.

    Pose i of the trajectory is sent by ``profiles[i % len(profiles)]``, one
    snapshot per pose. ``seed_channel`` (an int >= 0) separates the random
    streams of configs that share a ``make_dataset`` seed.
    """

    scene: SceneConfig = field(default_factory=SceneConfig)
    trajectory_kind: str = "circles"
    trajectory_params: dict = field(default_factory=dict)
    heights: tuple = DEFAULT_HEIGHTS
    profiles: list[JammerProfile] = field(default_factory=list)
    pose_jitter_m: float = 0.0
    scenario_tag: str = "Random"
    seed_channel: int = 0


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_config(cfg: SimConfig, seed, jobs) -> None:
    if not _is_int(jobs) or jobs != 1:
        raise ValueError(f"make_dataset: jobs must be 1 (chunks run on the calling "
                         f"process's threads), got {jobs!r}")
    for name, value in (("make_dataset: seed", seed), ("SimConfig.seed_channel", cfg.seed_channel)):
        if not _is_int(value) or value < 0:
            raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
    if not (np.isfinite(cfg.pose_jitter_m) and cfg.pose_jitter_m >= 0):
        raise ValueError(f"SimConfig.pose_jitter_m must be finite and >= 0, "
                         f"got {cfg.pose_jitter_m!r}")
    if not cfg.profiles:
        raise ValueError("no jammer profiles configured")
    for p in cfg.profiles:
        if not isinstance(p, JammerProfile):
            raise TypeError("profiles must be JammerProfile instances")
    _check_scene(cfg.scene)


def _simulate(cfg: SimConfig, geometry: ArrayGeometry, seed: int, poses: np.ndarray,
              indices) -> list[IQSnapshot]:
    """The snapshots of the poses ``indices`` (ints) of ``poses``, in order."""
    scene = cfg.scene
    n, fs = scene.snapshot_len, scene.sample_rate
    jammers = poses[list(indices)]
    profiles = [cfg.profiles[index % len(cfg.profiles)] for index in indices]
    waveforms = np.empty((len(indices), n), dtype=np.complex128)
    noise = None if scene.noise_floor_dbm is None else np.empty((len(indices), 2, 4, n))
    for k, (index, prof) in enumerate(zip(indices, profiles)):
        rng = np.random.default_rng([seed, cfg.seed_channel, index])
        if cfg.pose_jitter_m > 0:
            jammers[k, :2] += rng.uniform(-cfg.pose_jitter_m, cfg.pose_jitter_m, size=2)
        np.multiply(gen_baseband(prof, n, fs, rng), 10.0 ** (prof.power_dbm / 20.0),
                    out=waveforms[k])
        if noise is not None:
            noise[k] = _draw_noise(scene, rng)

    antenna = np.asarray(scene.antenna_position, dtype=np.float64)
    _check_jammers(antenna, jammers)
    samples = _synthesize(scene, geometry, _path_arrays(scene, antenna, jammers), waveforms, noise)
    return [IQSnapshot(samples=x, scenario_tag=cfg.scenario_tag,
                       label=Label.from_displacement(jammer - antenna, prof.class_id,
                                                     prof.subclass_id))
            for x, jammer, prof in zip(samples, jammers, profiles)]


def make_dataset(cfg: SimConfig, geometry: ArrayGeometry, seed: int,
                 jobs: int = 1) -> list[IQSnapshot]:
    """Generate one labeled snapshot list; deterministic for a fixed seed.

    ``seed`` is an int >= 0. ``jobs`` must be 1: the chunks run on the
    calling process's worker threads.
    """
    _check_config(cfg, seed, jobs)
    poses = gen_trajectory(cfg.trajectory_kind, cfg.trajectory_params, cfg.heights)
    if len(poses) == 0:
        raise ValueError("trajectory produced no poses")
    indices = range(len(poses))

    def run(chunks):
        return [snap for s in chunks for snap in _simulate(cfg, geometry, seed, poses, indices[s])]

    return [snap for part in _workers._map(run, _workers._blocks(len(poses), _CHUNK))
            for snap in part]
