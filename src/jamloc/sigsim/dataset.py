"""Labeled snapshot dataset generation.

Each pose draws from an independent generator seeded by
(seed, seed_channel, pose_index), so generation is order-stable and can be
split across workers without changing the result.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .geometry import ArrayGeometry
from .jammers import JammerProfile, gen_baseband
from .records import IQSnapshot
from .scene import SceneConfig, propagate
from .trajectory import DEFAULT_HEIGHTS, gen_trajectory

__all__ = ["SimConfig", "make_dataset"]


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


def _pose_snapshots(cfg: SimConfig, geometry: ArrayGeometry, seed: int,
                    index: int, pose: np.ndarray) -> list[IQSnapshot]:
    rng = np.random.default_rng([seed, cfg.seed_channel, index])
    if cfg.pose_jitter_m > 0:
        pose = pose.copy()
        pose[:2] += rng.uniform(-cfg.pose_jitter_m, cfg.pose_jitter_m, size=2)
    if cfg.assignment == "cycle":
        profiles = [cfg.profiles[index % len(cfg.profiles)]]
    elif cfg.assignment == "cross":
        profiles = cfg.profiles
    else:
        raise ValueError(f"unknown profile assignment {cfg.assignment!r}")
    out = []
    for prof in profiles:
        wf = gen_baseband(prof, cfg.scene.snapshot_len, cfg.scene.sample_rate, rng)
        wf = wf * 10.0 ** (prof.power_dbm / 20.0)
        out.append(propagate(cfg.scene, geometry, pose, wf, rng,
                             class_id=prof.class_id, subclass_id=prof.subclass_id,
                             scenario_tag=cfg.scenario_tag))
    return out


def make_dataset(cfg: SimConfig, geometry: ArrayGeometry, seed: int,
                 jobs: int = 1) -> list[IQSnapshot]:
    """Generate one labeled snapshot list; deterministic for a fixed seed."""
    if not cfg.profiles:
        raise ValueError("no jammer profiles configured")
    for p in cfg.profiles:
        if not isinstance(p, JammerProfile):
            raise TypeError("profiles must be JammerProfile instances")
    poses = gen_trajectory(cfg.trajectory_kind, cfg.trajectory_params, cfg.heights)
    if len(poses) == 0:
        raise ValueError("trajectory produced no poses")

    one_pose = partial(_pose_snapshots, cfg, geometry, seed)
    if jobs <= 1:
        per_pose = list(map(one_pose, range(len(poses)), poses))
    else:
        workers = min(jobs, len(poses))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map keeps the input order, so the result is the serial order
            per_pose = list(pool.map(one_pose, range(len(poses)), poses,
                                     chunksize=-(-len(poses) // workers)))
    return [snap for snaps in per_pose for snap in snaps]
