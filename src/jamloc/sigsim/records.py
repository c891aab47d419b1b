"""Snapshot and label records shared by the simulator, dataset IO, and training."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SCENARIO_TAGS", "Label", "IQSnapshot", "angles_from_displacement"]


def angles_from_displacement(dx: float, dy: float, dz: float) -> tuple[float, float]:
    """Azimuth in [-180, 180) and elevation in [-90, 90], degrees."""
    alpha = float(np.degrees(np.arctan2(dy, dx)))
    if alpha >= 180.0:
        alpha -= 360.0
    beta = float(np.degrees(np.arctan2(dz, np.hypot(dx, dy))))
    return alpha, beta


@dataclass
class Label:
    """Jammer-minus-antenna displacement (m), derived angles (deg), class ids."""

    dx: float
    dy: float
    dz: float
    alpha_deg: float
    beta_deg: float
    class_id: int
    subclass_id: int

    @classmethod
    def from_displacement(cls, delta, class_id: int = -1, subclass_id: int = -1) -> "Label":
        dx, dy, dz = (float(v) for v in delta)
        alpha, beta = angles_from_displacement(dx, dy, dz)
        return cls(dx, dy, dz, alpha, beta, int(class_id), int(subclass_id))


# the scenario_tag values: the rows of the paper's per-scenario table, in order
SCENARIO_TAGS = ("Random", "Wall 1", "Wall 2", "Wall 3", "Wall 4", "Wall 5", "Meander")


@dataclass
class IQSnapshot:
    """One 4-patch complex baseband snapshot with its ground truth."""

    samples: np.ndarray          # (4, 1024) complex: 4 patches x SceneConfig.snapshot_len
    label: Label
    scenario_tag: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.shape != (4, 1024):
            raise ValueError(f"snapshot must have shape (4, 1024), got {self.samples.shape}")
        if not np.iscomplexobj(self.samples):
            raise ValueError(f"IQSnapshot.samples must be complex, got {self.samples.dtype}")
