"""Receiver array geometry and narrowband steering."""

from __future__ import annotations

import numpy as np

__all__ = ["ArrayGeometry", "C_LIGHT", "DEFAULT_CARRIER_HZ"]

C_LIGHT = 299_792_458.0
DEFAULT_CARRIER_HZ = 1.57542e9


def _square_layout(carrier_hz: float) -> np.ndarray:
    q = C_LIGHT / carrier_hz / 4.0     # quarter wavelength: lambda/2 spacing
    layout = np.array([
        [-q, 0.0, -q],
        [+q, 0.0, -q],
        [-q, 0.0, +q],
        [+q, 0.0, +q],
    ])
    layout.flags.writeable = False
    return layout


class ArrayGeometry:
    """The four patch elements: a half-wavelength square at
    ``DEFAULT_CARRIER_HZ`` (the GPS L1 carrier) in the x-z plane, centered at
    the origin and facing +y. ``element_positions`` (4, 3) and ``wavelength``
    are read-only class constants, so ``ArrayGeometry()`` takes no arguments."""

    __slots__ = ()

    element_positions = _square_layout(DEFAULT_CARRIER_HZ)
    wavelength = C_LIGHT / DEFAULT_CARRIER_HZ

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
