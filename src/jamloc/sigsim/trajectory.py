"""Jammer trajectory generators: concentric circles, a 2x2 circle grid, and a
boustrophedon meander sweep, each repeated over a list of heights."""

from __future__ import annotations

import numpy as np

from .._checks import choice, count, instance, real

__all__ = ["gen_trajectory", "DEFAULT_HEIGHTS"]

DEFAULT_HEIGHTS = (3.9, 4.4, 4.9, 5.4)

# the parameters each kind reads; any other key is an error
_PARAMS = {"circles": ("center", "radii", "points_per_circle", "phase"),
           "grid_circles": ("centers", "radii", "points_per_circle", "phase"),
           "meander": ("x_range", "y_range", "rows", "points_per_row")}


def _reals(kind: str, key: str, value, shape: tuple, what: str) -> np.ndarray:
    """``value`` as a nonempty float64 array of ``shape`` (None matches any
    length) with finite entries, else a ValueError naming the key."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        arr = None
    if (arr is None or arr.ndim != len(shape) or arr.size == 0
            or any(m is not None and n != m for n, m in zip(arr.shape, shape))
            or not np.isfinite(arr).all()):
        raise ValueError(f"{kind}: {key} must be {what}, got {value!r}")
    return arr


def _circle(center, radius: float, n_points: int, phase: float) -> np.ndarray:
    ang = phase + 2 * np.pi * np.arange(n_points) / n_points
    return np.stack([center[0] + radius * np.cos(ang),
                     center[1] + radius * np.sin(ang)], axis=1)


def gen_trajectory(kind: str, params: dict, heights=DEFAULT_HEIGHTS) -> np.ndarray:
    """Return poses (P, 3) for one of the kinds {"circles", "grid_circles", "meander"},
    from these keys of the dict ``params``; any other key is an error that
    names it. Each pose is repeated at each of the tuple ``heights``.

    circles:      center (x, y), radii (5 by default), points_per_circle, phase
    grid_circles: centers (4 x (x, y)), radii, points_per_circle, phase
    meander:      x_range, y_range, rows, points_per_row
    """
    kind = choice("gen_trajectory: kind", instance("gen_trajectory: kind", kind, str).lower(),
                  tuple(_PARAMS))
    unknown = sorted(set(instance("gen_trajectory: params", params, dict)) - set(_PARAMS[kind]))
    if unknown:
        raise ValueError(f"{kind}: unknown parameter(s) {unknown}; valid: {_PARAMS[kind]}")
    heights = _reals(kind, "heights", instance("gen_trajectory: heights", heights, tuple), (None,),
                     "a nonempty tuple of finite numbers")
    if kind == "circles":
        centers = _reals(kind, "center", params.get("center", (0.0, 16.0)), (2,),
                         "a finite (x, y) pair")[None]
    elif kind == "grid_circles":
        centers = _reals(kind, "centers", params.get("centers", ()), (None, 2),
                         "a nonempty sequence of finite (x, y) pairs")
    else:
        return _meander(params, heights)

    value = params.get("radii", (3.0, 4.5, 6.0, 7.5, 9.0))
    radii = _reals(kind, "radii", value, (None,), "a nonempty sequence of finite numbers > 0")
    if np.any(radii <= 0):
        raise ValueError(f"{kind}: radii must be a nonempty sequence of finite numbers > 0, "
                         f"got {value!r}")
    n_pts = int(count(f"{kind}: points_per_circle", params.get("points_per_circle", 100), 1))
    phase = float(real(f"{kind}: phase", params.get("phase", 0.0)))
    poses = []
    for z in heights:
        for center in centers:
            for r in radii:
                xy = _circle(center, r, n_pts, phase)
                poses.append(np.column_stack([xy, np.full(n_pts, z)]))
    return np.concatenate(poses, axis=0)


def _meander(params: dict, heights) -> np.ndarray:
    x0, x1 = _reals("meander", "x_range", params.get("x_range", (-6.0, 6.0)), (2,),
                    "a finite (lo, hi) pair")
    y0, y1 = _reals("meander", "y_range", params.get("y_range", (10.0, 20.0)), (2,),
                    "a finite (lo, hi) pair")
    rows = int(count("meander: rows", params.get("rows", 10), 1))
    n_pts = int(count("meander: points_per_row", params.get("points_per_row", 30), 1))
    ys = np.linspace(y0, y1, rows)
    poses = []
    for z in heights:
        for i, y in enumerate(ys):
            xs = np.linspace(x0, x1, n_pts)
            if i % 2:           # alternate direction, monotone x within each row
                xs = xs[::-1]
            poses.append(np.column_stack([xs, np.full(n_pts, y), np.full(n_pts, z)]))
    return np.concatenate(poses, axis=0)
