"""Canonical evaluation suite: a line-of-sight train/test split plus five
absorber-wall layouts and a meander sweep, at desk or full recording scale.

The wall layouts drive the NLoS study: walls 1-3 sit between the antenna and
the jammer grid, so sidewall reflections bypass them and corrupt the arrival
geometry; walls 4-5 stand directly in front of the antenna, attenuating every
path roughly equally.
"""

from __future__ import annotations

from .._checks import choice
from .dataset import SimConfig
from .jammers import JammerClass, JammerProfile
from .scene import Reflector, SceneConfig, WallSegment

__all__ = ["DATASET_KEYS", "desk_profiles", "base_scene", "scenario_configs", "SCALE_PRESETS"]

# file-key order used by the simulate/featurize/eval commands
DATASET_KEYS = ("random_train", "random_test", "wall1", "wall2", "wall3",
                "wall4", "wall5", "meander")

# points per circle for the random split / wall grids, meander rows x points
SCALE_PRESETS = {
    "desk": {"train_pts": 100, "test_pts": 25, "wall_pts": 5, "meander": (10, 30)},
    "paper": {"train_pts": 1157, "test_pts": 290, "wall_pts": 45, "meander": (17, 52)},
}


def desk_profiles() -> list[JammerProfile]:
    """Six classes x two bandwidth buckets; the bucket doubles as the subclass."""
    spec = [
        (JammerClass.CHIRP, 5e6, 2.0), (JammerClass.CHIRP, 20e6, 5.0),
        (JammerClass.FREQUENCY_HOPPING, 10e6, 0.0), (JammerClass.FREQUENCY_HOPPING, 40e6, 4.0),
        (JammerClass.MODULATED, 2e6, 1.0), (JammerClass.MODULATED, 8e6, 3.0),
        (JammerClass.MULTITONE, 5e6, 2.0), (JammerClass.MULTITONE, 15e6, 6.0),
        (JammerClass.PULSED, 10e6, 3.0), (JammerClass.PULSED, 30e6, 7.0),
        (JammerClass.NOISE, 20e6, 0.0), (JammerClass.NOISE, 60e6, 8.0),
    ]
    return [JammerProfile(jclass=c, subclass_id=i, bandwidth_hz=bw, power_dbm=p)
            for i, (c, bw, p) in enumerate(spec)]


def _hall_reflectors() -> list[Reflector]:
    return [
        Reflector(-10.0, 0.0, -10.0, 30.0, reflection_coeff=0.35),   # left sidewall
        Reflector(10.0, 0.0, 10.0, 30.0, reflection_coeff=0.35),     # right sidewall
        Reflector(-10.0, 30.0, 10.0, 30.0, reflection_coeff=0.30),   # far end
    ]


_WALL_LAYOUTS = {
    "Wall 1": [WallSegment(-4, 8.0, 4, 8.0, transmission_loss_db=18, reflection_coeff=0.2)],
    "Wall 2": [WallSegment(-4, 7.5, 4, 7.5, transmission_loss_db=18, reflection_coeff=0.2),
               WallSegment(-4, 8.5, 4, 8.5, transmission_loss_db=18, reflection_coeff=0.2),
               WallSegment(-4, 9.5, 4, 9.5, transmission_loss_db=18, reflection_coeff=0.2)],
    "Wall 3": [WallSegment(-4, 7.5, 4, 7.5, transmission_loss_db=15, reflection_coeff=0.5),
               WallSegment(-4, 8.5, 4, 8.5, transmission_loss_db=15, reflection_coeff=0.5),
               WallSegment(-4, 9.5, 4, 9.5, transmission_loss_db=15, reflection_coeff=0.5)],
    "Wall 4": [WallSegment(-5, 3.0, 5, 3.0, transmission_loss_db=12, reflection_coeff=0.2)],
    "Wall 5": [WallSegment(-5, 3.5, 5, 3.5, transmission_loss_db=15, reflection_coeff=0.2)],
    "Meander": [WallSegment(-5, 3.5, 5, 3.5, transmission_loss_db=15, reflection_coeff=0.2)],
}


def base_scene(walls=()) -> SceneConfig:
    return SceneConfig(wall_segments=list(walls), ambient_reflectors=_hall_reflectors())


def scenario_configs(scale: str = "desk") -> dict[str, SimConfig]:
    """SimConfig per dataset key; 'Random' appears as train and test splits."""
    preset = SCALE_PRESETS[choice("scenario_configs: scale", scale, tuple(SCALE_PRESETS))]
    profiles = desk_profiles()
    random_circ = {"center": (0.0, 16.0), "radii": (3.0, 4.5, 6.0, 7.5, 9.0)}
    grid = {"centers": ((-3.5, 12.0), (3.5, 12.0), (-3.5, 17.0), (3.5, 17.0)),
            "radii": (0.8, 1.2, 1.6, 2.0, 2.4),
            "points_per_circle": preset["wall_pts"]}
    rows, row_pts = preset["meander"]

    cfgs: dict[str, SimConfig] = {}
    cfgs["random_train"] = SimConfig(
        scene=base_scene(), trajectory_kind="circles",
        trajectory_params=dict(random_circ, points_per_circle=preset["train_pts"]),
        profiles=profiles, pose_jitter_m=0.15, scenario_tag="Random", seed_channel=0)
    cfgs["random_test"] = SimConfig(
        scene=base_scene(), trajectory_kind="circles",
        trajectory_params=dict(random_circ, points_per_circle=preset["test_pts"], phase=0.123),
        profiles=profiles, pose_jitter_m=0.15, scenario_tag="Random", seed_channel=1)
    for k, tag in enumerate(("Wall 1", "Wall 2", "Wall 3", "Wall 4", "Wall 5")):
        cfgs[f"wall{k + 1}"] = SimConfig(
            scene=base_scene(_WALL_LAYOUTS[tag]), trajectory_kind="grid_circles",
            trajectory_params=dict(grid), profiles=profiles, pose_jitter_m=0.1,
            scenario_tag=tag, seed_channel=2 + k)
    cfgs["meander"] = SimConfig(
        scene=base_scene(_WALL_LAYOUTS["Meander"]), trajectory_kind="meander",
        trajectory_params={"x_range": (-6.0, 6.0), "y_range": (10.0, 20.0),
                           "rows": rows, "points_per_row": row_pts},
        heights=(4.4,), profiles=profiles, pose_jitter_m=0.1,
        scenario_tag="Meander", seed_channel=7)
    return cfgs
