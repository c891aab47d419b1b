"""Labeled snapshot dataset generation.

A snapshot is N = 1024 samples at 100 MHz from the array at (0, 1, 1) m in
the 20 x 30 x 8 m hall: the ``SceneConfig`` constants ``snapshot_len``,
``sample_rate``, ``antenna_position`` and ``hall_extent``.

Pose i is sent by profile i mod len(profiles), one snapshot per pose. Poses
are simulated in chunks of ``_CHUNK`` (``_simulate``) on the threads the
convs and the dsp use too, split by ``jamloc._workers._runs``: at most
``_RUNS`` chunks in flight. The snapshots come back in pose order. Each pose
draws from an independent generator seeded by (seed, seed_channel,
pose_index), in this order:

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
from .._checks import choice, count, instance, is_int, real
from .geometry import ArrayGeometry
from .jammers import JammerProfile, gen_baseband
from .records import SCENARIO_TAGS, IQSnapshot
from .scene import SceneConfig, _check_scene, _draw_noise, _receive
from .trajectory import DEFAULT_HEIGHTS, gen_trajectory

__all__ = ["SimConfig", "make_dataset"]

# poses per chunk: it bounds the temporaries, about 9 MB over two chunks,
# mostly the (P, 1+S, N) delayed waveforms. Chunks of 16, 32 and 64 ran the
# desk suite equally fast on one worker of a 2-vCPU x86-64 VM; larger chunks
# left more heap behind at peak RSS.
_CHUNK = 16


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


def _check_config(cfg: SimConfig, geometry, seed, jobs) -> None:
    """Each argument and field of ``make_dataset`` that a wrong value would
    fail deep inside the simulation, checked at entry: the error names it."""
    if not is_int(jobs) or jobs != 1:
        raise ValueError(f"make_dataset: jobs must be 1 (chunks run on the calling "
                         f"process's threads), got {jobs!r}")
    instance("make_dataset: cfg", cfg, SimConfig)
    count("make_dataset: seed", seed, 0)
    count("SimConfig.seed_channel", cfg.seed_channel, 0)
    instance("make_dataset: geometry", geometry, ArrayGeometry)
    instance("SimConfig.scene", cfg.scene, SceneConfig)
    instance("SimConfig.trajectory_kind", cfg.trajectory_kind, str)
    instance("SimConfig.trajectory_params", cfg.trajectory_params, dict)
    instance("SimConfig.heights", cfg.heights, tuple)
    real("SimConfig.pose_jitter_m", cfg.pose_jitter_m, 0)
    choice("SimConfig.scenario_tag", cfg.scenario_tag, SCENARIO_TAGS)
    if not cfg.profiles:
        raise ValueError("no jammer profiles configured")
    for i, p in enumerate(cfg.profiles):
        instance(f"SimConfig.profiles[{i}]", p, JammerProfile)
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

    return _receive(scene, geometry, jammers, waveforms, noise,
                    [(prof.class_id, prof.subclass_id) for prof in profiles], cfg.scenario_tag)


def make_dataset(cfg: SimConfig, geometry: ArrayGeometry, seed: int,
                 jobs: int = 1) -> list[IQSnapshot]:
    """Generate one labeled snapshot list; deterministic for a fixed seed.

    ``seed`` is an integer >= 0 (``_checks.count``), as is ``seed_channel``.
    ``jobs`` must be 1: the chunks run on the calling process's threads.
    """
    _check_config(cfg, geometry, seed, jobs)
    poses = gen_trajectory(cfg.trajectory_kind, cfg.trajectory_params, cfg.heights)
    indices = range(len(poses))

    def run(chunks):
        return [snap for s in chunks for snap in _simulate(cfg, geometry, seed, poses, indices[s])]

    chunks = [slice(s, s + _CHUNK) for s in range(0, len(poses), _CHUNK)]
    return [snap for part in _workers._map(run, _workers._runs(chunks)) for snap in part]
