"""Synthetic 4-patch antenna-array snapshot simulator."""

from .dataset import SimConfig, make_dataset
from .geometry import C_LIGHT, DEFAULT_CARRIER_HZ, ArrayGeometry
from .jammers import (BANDWIDTH_RANGE_HZ, JAMMER_CLASSES, POWER_RANGE_DBM,
                      JammerClass, JammerProfile, gen_baseband)
from .records import SCENARIO_TAGS, IQSnapshot, Label, angles_from_displacement
from .scene import (PropPath, Reflector, SceneConfig, WallSegment,
                    compute_paths, propagate)
from .scenarios import (DATASET_KEYS, SCALE_PRESETS, base_scene, desk_profiles,
                        scenario_configs)
from .trajectory import DEFAULT_HEIGHTS, gen_trajectory

__all__ = [
    "ArrayGeometry", "C_LIGHT", "DEFAULT_CARRIER_HZ",
    "JammerClass", "JammerProfile", "JAMMER_CLASSES", "gen_baseband",
    "BANDWIDTH_RANGE_HZ", "POWER_RANGE_DBM",
    "Label", "IQSnapshot", "angles_from_displacement",
    "SceneConfig", "WallSegment", "Reflector", "PropPath", "compute_paths", "propagate",
    "SimConfig", "make_dataset",
    "gen_trajectory", "DEFAULT_HEIGHTS",
    "SCENARIO_TAGS", "DATASET_KEYS", "SCALE_PRESETS",
    "desk_profiles", "base_scene", "scenario_configs",
]
