"""Hall propagation model: direct path plus first-order image-source
reflections, free-space loss, per-crossing wall attenuation, narrowband
steering, and additive receiver noise.

Walls and reflectors are vertical surfaces given by 2-D plan-view segments;
crossing tests and mirror images are computed in the plan and combined with
the source height for 3-D path lengths and arrival directions (image method:
Allen & Berkley, JASA 1979).

Poses are simulated in chunks. For P jammer poses and S reflecting surfaces
(the ambient reflectors, then the walls), ``_path_arrays`` returns the path
lengths, gains and arrival directions as (P, 1+S) arrays, column 0 the direct
path and column 1+i the bounce off surface i, with a mask of the paths that
exist; the wall-crossing tests of every path leg are one (W, P, 1+2S) array
for W walls. ``_synthesize`` turns them into snapshots: one
``(amp * carrier) * steer`` coefficient per path and patch, the delayed
copies of each waveform gathered with one fancy index into a strided view of
the zero-headed waveform, and one batched matmul. The number of numpy calls
per chunk does not depend on P or S. Each call builds its per-surface
arrays from the scene: nothing is cached between calls, and a scene edited
in place is simulated as it now stands. ``_receive`` checks a chunk's poses
and turns them into labeled snapshots; ``propagate`` is its one-pose call,
and ``compute_paths`` lists the paths of one pose.

Every operation is elementwise over poses, the steering phase is an explicit
three-term sum and the matmul runs one GEMM per snapshot, so a pose's output
does not depend on which or how many poses share its chunk. Against the
per-path loop this replaced (kept in ``tests/_oracles.py``), path kinds,
order and gains are bitwise equal (the crossing factors are multiplied in
wall order), distances and directions agree to 1e-12, and samples to
1e-12 of the snapshot's peak magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .._checks import instance, real
from .geometry import C_LIGHT, ArrayGeometry
from .records import IQSnapshot, Label

__all__ = ["WallSegment", "Reflector", "SceneConfig", "PropPath",
           "compute_paths", "propagate"]


def _check_surface(surface) -> None:
    """Finite end points (``_checks.real``) that differ, and a reflection
    coefficient in [0, 1]: more would amplify the bounce, NaN every sample."""
    name = type(surface).__name__
    for f in ("x1", "y1", "x2", "y2"):
        real(f"{name}.{f}", getattr(surface, f))
    if (surface.x1, surface.y1) == (surface.x2, surface.y2):
        raise ValueError(f"{name}.x2, y2 must differ from x1, y1 (a zero-length surface)")
    real(f"{name}.reflection_coeff", surface.reflection_coeff, 0, 1)


@dataclass(frozen=True)
class WallSegment:
    """Absorber wall: attenuates every crossing path; may also reflect."""

    x1: float
    y1: float
    x2: float
    y2: float
    transmission_loss_db: float
    reflection_coeff: float = 0.1

    def __post_init__(self):
        _check_surface(self)
        real("WallSegment.transmission_loss_db", self.transmission_loss_db, 0)


@dataclass(frozen=True)
class Reflector:
    """Purely reflective surface (hall boundary); never crossed by interior paths."""

    x1: float
    y1: float
    x2: float
    y2: float
    reflection_coeff: float

    def __post_init__(self):
        _check_surface(self)


@dataclass(slots=True)
class SceneConfig:
    """The recording hall: x in [-10, 10], y in [0, 30], z in [0, 8] m (20 x 30
    x 8 m), the array at (0, 1, 1) m, sampled at 100 MHz in snapshots of 1024
    samples (one 32 x 32 spectrogram per patch). These four are class
    constants; a scene sets only its walls, its reflectors and its receiver
    noise floor (dBm per complex sample, None for a noise-free scene)."""

    hall_extent: ClassVar[tuple] = (20.0, 30.0, 8.0)
    antenna_position: ClassVar[tuple] = (0.0, 1.0, 1.0)
    sample_rate: ClassVar[float] = 1e8
    snapshot_len: ClassVar[int] = 1024
    wall_segments: list = field(default_factory=list)
    ambient_reflectors: list = field(default_factory=list)
    noise_floor_dbm: float | None = -90.0


@dataclass
class PropPath:
    direction: np.ndarray        # unit vector antenna -> (image) source
    distance: float              # 3-D path length, m
    gain: float                  # reflection x transmission product (free space excluded)
    kind: str


def _check_scene(scene: SceneConfig) -> None:
    """Walls that are a list of ``WallSegment``s, reflectors that are a list
    of ``Reflector``s (a wall among them would lose its transmission loss),
    and a noise floor that does not make every sample non-finite."""
    for name, cls in (("wall_segments", WallSegment), ("ambient_reflectors", Reflector)):
        for i, surface in enumerate(instance(f"SceneConfig.{name}", getattr(scene, name), list)):
            instance(f"SceneConfig.{name}[{i}]", surface, cls)
    if scene.noise_floor_dbm is not None:
        real("SceneConfig.noise_floor_dbm", scene.noise_floor_dbm)


def _pose(where: str, position) -> np.ndarray:
    """``position`` as a (1, 3) float64 array if it is one (x, y, z)
    position; otherwise a ValueError naming ``where``, the argument, and its
    shape, or its value if numpy cannot read it as numbers."""
    rule = f"{where} must be one (x, y, z) position of shape (3,), got"
    try:
        pose = np.asarray(position, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{rule} {position!r}") from err
    if pose.shape != (3,):
        raise ValueError(f"{rule} shape {pose.shape}")
    return pose[None]


def _check_jammers(antenna: np.ndarray, jammers: np.ndarray) -> None:
    """Every pose of ``jammers`` (P, 3) inside the hall and off the antenna."""
    ex, ey, ez = SceneConfig.hall_extent
    outside = ~np.all(((-ex / 2, 0.0, 0.0) <= jammers) & (jammers <= (ex / 2, ey, ez)), axis=-1)
    if outside.any():
        bad = jammers[np.argmax(outside)]
        raise ValueError(f"jammer {bad.tolist()} outside hall extent {SceneConfig.hall_extent}")
    delta = jammers - antenna
    if np.any(np.sqrt(np.sum(delta * delta, axis=-1)) < 1e-6):
        raise ValueError("jammer coincides with the antenna position")


# ----------------------------------------------------------------------
# path enumeration
# ----------------------------------------------------------------------

class _Paths(NamedTuple):
    distance: np.ndarray        # (P, 1+S) 3-D path length, m
    gain: np.ndarray            # (P, 1+S) reflection x transmission product
    direction: np.ndarray       # (P, 1+S, 3) unit vector antenna -> (image) source
    valid: np.ndarray           # (P, 1+S) the path exists


def _path_arrays(scene: SceneConfig, antenna: np.ndarray, jammers: np.ndarray) -> _Paths:
    """Direct and single-bounce paths from each pose of ``jammers`` (P, 3).

    A bounce off surface i exists when its reflection coefficient is
    positive, the jammer and antenna sit strictly on the same side of the
    surface's line, and the antenna -> image segment meets the surface
    inside it. Its gain is the coefficient times the crossing factors of the
    jammer -> bounce point and bounce point -> antenna legs, the surface
    itself excluded. Entries of paths that do not exist are finite filler.
    The (S,) per-surface arrays are built from ``scene`` on every call.
    """
    surfaces = list(scene.ambient_reflectors) + list(scene.wall_segments)
    n_p, n_s = len(jammers), len(surfaces)
    ant_x, ant_y, ant_z = antenna.tolist()
    ax, ay, bx, by, coeff = np.array([(s.x1, s.y1, s.x2, s.y2, s.reflection_coeff)
                                      for s in surfaces], dtype=np.float64).reshape(n_s, 5).T
    ex, ey = bx - ax, by - ay                                       # (S,) each
    norm = np.sqrt(ex * ex + ey * ey)
    ux, uy = ex / norm, ey / norm
    wx, wy = ax - ant_x, ay - ant_y                                 # a - antenna
    side_ant = ex * (ant_y - ay) - ey * (ant_x - ax)                # antenna's side of each line
    jx, jy = jammers[:, 0:1], jammers[:, 1:2]                      # (P, 1)

    # image source of each pose in each surface, and where its ray to the
    # antenna meets the surface line: antenna + t * r, r = image - antenna
    vx, vy = jx - ax, jy - ay                                       # (P, S)
    along = vx * ux + vy * uy
    rx = 2.0 * (ax + ux * along) - jx - ant_x
    ry = 2.0 * (ay + uy * along) - jy - ant_y
    denom = rx * ey - ry * ex
    parallel = np.abs(denom) < 1e-12
    denom = np.where(parallel, 1.0, denom)
    t = (wx * ey - wy * ex) / denom
    u = (wx * ry - wy * rx) / denom
    valid = np.ones((n_p, 1 + n_s), dtype=bool)
    valid[:, 1:] = (~(coeff <= 0.0) & ~((ex * vy - ey * vx) * side_ant <= 0) & ~parallel
                    & (0.0 < t) & (t < 1.0) & (0.0 <= u) & (u <= 1.0))

    legs = _transmission(scene, antenna, jammers, t * rx, t * ry)  # (P, 1+2S)

    vec = np.empty((n_p, 1 + n_s, 3))
    vec[:, 0] = jammers - antenna
    vec[:, 1:, 0], vec[:, 1:, 1], vec[:, 1:, 2] = rx, ry, jammers[:, 2:3] - ant_z
    dx, dy, dz = vec[..., 0], vec[..., 1], vec[..., 2]
    dist = np.where(valid, np.sqrt(dx * dx + dy * dy + dz * dz), 1.0)
    gain = np.empty_like(dist)
    gain[:, 0] = legs[:, 0]
    gain[:, 1:] = coeff * legs[:, 1:1 + n_s] * legs[:, 1 + n_s:]
    return _Paths(dist, gain, vec / dist[..., None], valid)


def _transmission(scene: SceneConfig, antenna: np.ndarray, jammers: np.ndarray,
                  hit_dx: np.ndarray, hit_dy: np.ndarray) -> np.ndarray:
    """Crossing factor product of each leg: leg 0 antenna -> jammer, legs 1+i
    jammer -> bounce point on surface i (antenna + (hit_dx, hit_dy)), legs
    1+S+i bounce point -> antenna.

    A leg that crosses a wall (strict proper intersection of the open
    segments) picks up its factor, unless the leg belongs to that wall's own
    bounce. The factors are multiplied in wall order, a reduction over the
    leading wall axis, as the per-wall loop this replaced did; with no
    walls every product is empty, 1.0. The (W, 1, 1) wall arrays are built
    from ``scene`` on every call.
    """
    walls = scene.wall_segments
    n_p, n_s = hit_dx.shape
    n_w = len(walls)
    p = np.empty((2, n_p, 1 + 2 * n_s))
    q = np.empty_like(p)
    p[:, :, :1] = q[:, :, 1 + n_s:] = antenna[:2, None, None]
    p[:, :, 1:1 + n_s] = q[:, :, :1] = jammers.T[:2, :, None]
    np.add(antenna[0], hit_dx, out=p[0, :, 1 + n_s:])
    np.add(antenna[1], hit_dy, out=p[1, :, 1 + n_s:])
    q[:, :, 1:1 + n_s] = p[:, :, 1 + n_s:]

    wall = np.array([(w.x1, w.y1, w.x2, w.y2) for w in walls], dtype=np.float64).reshape(n_w, 4).T
    ax, ay, bx, by = wall[..., None, None]                          # (W, 1, 1) each
    ex, ey = bx - ax, by - ay
    loss = np.array([10.0 ** (-w.transmission_loss_db / 20.0) for w in walls])[:, None, None]
    # the legs of wall w's own bounce (surface n_s - n_w + w) may not cross it
    free = np.ones((n_w, 1, 1 + 2 * n_s), dtype=bool)
    own = n_s - n_w + np.arange(n_w)
    free[np.arange(n_w), 0, 1 + own] = free[np.arange(n_w), 0, 1 + n_s + own] = False

    (px, py), (qx, qy) = p, q                                       # (P, L) each
    fx, fy = qx - px, qy - py
    crossed = (((ex * (py - ay) - ey * (px - ax)) * (ex * (qy - ay) - ey * (qx - ax)) < 0)
               & ((fx * (ay - py) - fy * (ax - px)) * (fx * (by - py) - fy * (bx - px)) < 0)
               & free)
    return np.where(crossed, loss, 1.0).prod(axis=0)


def compute_paths(scene: SceneConfig, antenna: np.ndarray, jammer: np.ndarray) -> list[PropPath]:
    """Direct path plus one single-bounce path per reflecting surface. The
    scene and the pose are checked as in ``propagate``: an ``antenna`` or a
    ``jammer`` that is not one (x, y, z) position (``_pose``), or a jammer
    outside the hall or on the antenna, is a ValueError (``_check_jammers``),
    and a surface of the wrong type a TypeError (``_check_scene``)."""
    _check_scene(scene)
    antenna = _pose("compute_paths: antenna", antenna)[0]
    jammers = _pose("compute_paths: jammer", jammer)
    _check_jammers(antenna, jammers)
    paths = _path_arrays(scene, antenna, jammers)
    return [PropPath(direction=paths.direction[0, i], distance=float(paths.distance[0, i]),
                     gain=float(paths.gain[0, i]), kind="direct" if i == 0 else f"reflect:{i - 1}")
            for i in np.flatnonzero(paths.valid[0])]


# ----------------------------------------------------------------------
# snapshot synthesis
# ----------------------------------------------------------------------

def _draw_noise(scene: SceneConfig, rng: np.random.Generator) -> np.ndarray | None:
    """Receiver noise (2, 4, N): real parts, then imaginary parts; None when
    the scene is noise free. One draw of the stream two (4, N) draws take."""
    if scene.noise_floor_dbm is None:
        return None
    sigma = np.sqrt(10.0 ** (scene.noise_floor_dbm / 10.0) / 2.0)
    return rng.normal(scale=sigma, size=(2, 4, SceneConfig.snapshot_len))


def _synthesize(scene: SceneConfig, geometry: ArrayGeometry, paths: _Paths,
                waveforms: np.ndarray, noise: np.ndarray | None) -> np.ndarray:
    """Snapshots (P, 4, n): row p receives ``waveforms[p]`` (P, n) sent from
    pose p of ``paths``, plus ``noise[p]`` (P, 2, 4, n).

    Each path contributes amp * carrier * steer times the waveform delayed
    by a whole number of samples, the delay relative to the direct path; a
    path is dropped when its amplitude is 0 or its delay is the whole
    snapshot or more.
    """
    n = waveforms.shape[-1]
    lam = geometry.wavelength
    d = paths.distance
    amp = (lam / (4.0 * np.pi * d)) * paths.gain                    # (P, L)
    shift = np.rint((d - d[:, :1]) / C_LIGHT * scene.sample_rate)
    live = paths.valid & (amp != 0.0) & (shift < n)
    shift = np.where(live, shift, 0.0).astype(np.intp)
    carrier = np.exp(1j * (-2.0 * np.pi * d / lam))
    steer = geometry.steering_vector(paths.direction)              # (P, L, 4)
    coef = np.where(live[..., None], (amp * carrier)[..., None] * steer, 0.0)

    head = int(shift.max())
    padded = np.zeros((len(waveforms), head + n), dtype=np.complex128)
    padded[:, head:] = waveforms
    windows = np.lib.stride_tricks.sliding_window_view(padded, n, axis=-1)
    rows = np.arange(len(waveforms))[:, None]
    delayed = windows[rows, head - shift]                           # (P, L, n)
    out = np.matmul(coef.transpose(0, 2, 1), delayed)
    if noise is not None:
        out.real += noise[:, 0]
        out.imag += noise[:, 1]
    return out


def _receive(scene: SceneConfig, geometry: ArrayGeometry, jammers: np.ndarray,
             waveforms: np.ndarray, noise: np.ndarray | None, classes: list,
             scenario_tag: str) -> list[IQSnapshot]:
    """The snapshots of poses ``jammers`` (P, 3), which ``_check_jammers``
    checks: pose p sends ``waveforms[p]`` (noise as in ``_synthesize``) and
    is labeled ``classes[p]``, a (class_id, subclass_id) pair."""
    antenna = np.asarray(scene.antenna_position, dtype=np.float64)
    _check_jammers(antenna, jammers)
    samples = _synthesize(scene, geometry, _path_arrays(scene, antenna, jammers), waveforms, noise)
    return [IQSnapshot(samples=x, scenario_tag=scenario_tag,
                       label=Label.from_displacement(jammer - antenna, *ids))
            for x, jammer, ids in zip(samples, jammers, classes)]


def propagate(scene: SceneConfig, geometry: ArrayGeometry, jammer_pos,
              waveform: np.ndarray, rng: np.random.Generator, *,
              class_id: int = -1, subclass_id: int = -1,
              scenario_tag: str = "") -> IQSnapshot:
    """Synthesize the 4-channel snapshot received from a jammer at ``jammer_pos``.

    ``waveform`` carries the transmit scale: unit average power corresponds
    to 0 dBm, and amplitudes combine free-space loss 20*log10(4 pi d / lambda),
    wall crossings, and reflection coefficients; its shape is
    ``(SceneConfig.snapshot_len,)``. ``jammer_pos`` is one (x, y, z)
    position. Per-path delay is an integer-sample shift plus the exact
    carrier phase rotation.
    """
    _check_scene(scene)
    jammers = _pose("propagate: jammer_pos", jammer_pos)
    waveform = np.asarray(waveform)
    if waveform.shape != (SceneConfig.snapshot_len,):
        raise ValueError(f"propagate: waveform must have shape ({SceneConfig.snapshot_len},), "
                         f"got {waveform.shape}")
    noise = _draw_noise(scene, rng)
    return _receive(scene, geometry, jammers, waveform[None],
                    None if noise is None else noise[None], [(class_id, subclass_id)],
                    scenario_tag)[0]
