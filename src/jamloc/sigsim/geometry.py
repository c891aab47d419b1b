"""Receiver array geometry and narrowband steering."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ArrayGeometry", "C_LIGHT", "DEFAULT_CARRIER_HZ"]

C_LIGHT = 299_792_458.0
DEFAULT_CARRIER_HZ = 1.57542e9


@dataclass
class ArrayGeometry:
    """Four patch elements; default is a half-wavelength square in the x-z
    plane, centered at the origin and facing +y."""

    element_positions: np.ndarray = field(default_factory=lambda: _square_layout(DEFAULT_CARRIER_HZ))
    carrier_frequency: float = DEFAULT_CARRIER_HZ

    def __post_init__(self):
        self.element_positions = np.asarray(self.element_positions, dtype=np.float64)
        if self.element_positions.shape != (4, 3):
            raise ValueError(f"array must have exactly 4 elements (x, y, z), got {self.element_positions.shape}")

    @property
    def wavelength(self) -> float:
        return C_LIGHT / self.carrier_frequency

    def steering_vector(self, u: np.ndarray) -> np.ndarray:
        """Per-element response exp(-j 2 pi (e_k . u) / lambda) for unit arrival
        directions u (..., 3), shape (..., 4).

        e_k . u is summed term by term, not by a matmul, so each direction's
        response has the same bits however many directions share the call.
        """
        u = np.asarray(u, dtype=np.float64)[..., None, :]
        e = self.element_positions
        dot = e[:, 0] * u[..., 0] + e[:, 1] * u[..., 1] + e[:, 2] * u[..., 2]
        return np.exp(1j * (-2.0 * np.pi * dot / self.wavelength))


def _square_layout(carrier_hz: float) -> np.ndarray:
    q = C_LIGHT / carrier_hz / 4.0     # quarter wavelength: lambda/2 spacing
    return np.array([
        [-q, 0.0, -q],
        [+q, 0.0, -q],
        [-q, 0.0, +q],
        [+q, 0.0, +q],
    ])
