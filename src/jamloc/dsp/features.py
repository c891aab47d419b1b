"""Snapshot-to-feature conversions and the normalization constants.

Everything here accepts a single snapshot (4, N) of complex samples or a
batch (M, 4, N) and is pure; the only state is the fitted normalization
statistics, which must come from the training split.

The extractors (``spectrogram``, ``stft``, ``cfo_accumulated``,
``normalize_iq`` and ``aoa.aoa_features``) check their arguments once, then
run their per-snapshot body over consecutive blocks of ``_BLOCK_ROWS`` rows
of N samples (16 snapshots) through ``_blocked``, so that a block's input
and every temporary the body makes stay in cache; an input that fits in one
block goes to the body as it is. Results do not depend on the blocking, with
one exception: numpy rounds the complex product ``x[..., 1:] *
conj(x[..., :-1])`` differently depending on how it iterates the array, so
``cfo_accumulated`` and the AoA ``if_diff_mean`` column can differ in the
last bits between a batch and its pieces (measured on desk chunks: at most
7.3e-16 of the snapshot's peak for cfo, 6.0e-17 of the column's peak for
AoA). ``spectrogram``, ``stft`` and ``normalize_iq`` are bitwise the same
whatever the batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import fft

__all__ = [
    "NormalizationSpec", "SPEC_DB_MIN", "SPEC_DB_MAX",
    "power_db", "db_to_unit", "spectrogram", "stft",
    "cfo_accumulated", "iq_planes", "fit_iq_stats", "normalize_iq",
]

# spectrogram clamp bounds in dB; values outside map to exactly 0.0 / 1.0
SPEC_DB_MIN = -195.69
SPEC_DB_MAX = -19.89

_EPS_POWER = 1e-20

# rows per pass of fit_iq_stats over the squared deviations
_FIT_CHUNK = 256

# rows of N samples per extractor block: 16 snapshots of 4 patches, 1 MB of
# complex128 at N = 1024, so a block's temporaries stay near a 1 MB L2. On a
# 256-snapshot desk chunk (2-vCPU EPYC VM, one BLAS thread, the benchmark's
# malloc policy), blocks of 8 / 16 / 32 / 64 snapshots took aoa_features
# 25.8 / 23.7 / 24.5 / 26.8 ms and stft 7.7 / 7.3 / 7.3 / 10.3 ms, against
# 29.4 and 9.6 ms for the whole chunk at once.
_BLOCK_ROWS = 64


def _blocked(body, x: np.ndarray, core_ndim: int) -> np.ndarray:
    """``body(x)``, computed over blocks of the leading axes of ``x``.

    The last ``core_ndim`` axes are one item (a (4, N) snapshot, or an
    (N,) row); a block holds ``_BLOCK_ROWS`` rows of N samples worth of
    items. ``body`` maps (b, *core) to (b, *out_core) for any b, and each
    block's result is written into one output allocated after the first
    block, which is then given the leading shape of ``x``. An input of at
    most one block goes to ``body`` directly, without a copy.
    """
    core = x.shape[x.ndim - core_ndim:]
    lead = x.shape[:x.ndim - core_ndim]
    items, step = math.prod(lead), _BLOCK_ROWS // math.prod(core[:-1])
    if items <= step:
        return body(x)
    flat = x.reshape((items,) + core)
    first = body(flat[:step])
    out = np.empty((items,) + first.shape[1:], dtype=first.dtype)
    out[:step] = first
    for start in range(step, items, step):
        out[start:start + step] = body(flat[start:start + step])
    return out.reshape(lead + first.shape[1:])


def _hann_periodic(n: int) -> np.ndarray:
    # periodic variant: DFT main lobe is exactly bins {-1, 0, +1}
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


_STAT_SHAPES = {"iq_mean": (8,), "iq_std": (8,), "aoa_mean": (4, 22), "aoa_std": (4, 22)}
_KIND_NAMES = {"iq": "IQ", "aoa": "AoA"}


def _check_stat(name: str, value) -> None:
    """A fitted statistic has its shape, is finite and, for a std, positive."""
    shape = _STAT_SHAPES[name]
    if np.shape(value) != shape:
        raise ValueError(f"NormalizationSpec.{name} must have shape {shape}, got {np.shape(value)}")
    if not np.all(np.isfinite(value)):
        raise ValueError(f"NormalizationSpec.{name} holds non-finite values")
    if name.endswith("_std") and not np.all(np.asarray(value) > 0):
        raise ValueError(f"NormalizationSpec.{name} must be positive")


@dataclass
class NormalizationSpec:
    """Clamp bounds for spectrograms plus fitted IQ / AoA statistics.

    ``iq_mean``/``iq_std`` are per real channel (patch-major, I before Q,
    shape (8,)); ``aoa_mean``/``aoa_std`` are per (patch, feature), (4, 22).
    Construction checks that the bounds are finite with ``spec_min <
    spec_max`` and that each statistic given has its shape, is finite and,
    for a std, is positive. ``normalize_iq`` and ``standardize_aoa`` run the
    same check on the statistics they apply (``fitted``), so statistics
    assigned after construction are checked too.
    """

    spec_min: float = SPEC_DB_MIN
    spec_max: float = SPEC_DB_MAX
    iq_mean: np.ndarray | None = None
    iq_std: np.ndarray | None = None
    aoa_mean: np.ndarray | None = None
    aoa_std: np.ndarray | None = None

    def __post_init__(self):
        if not (np.isfinite(self.spec_min) and np.isfinite(self.spec_max)
                and self.spec_min < self.spec_max):
            raise ValueError(f"NormalizationSpec needs finite spec_min < spec_max, "
                             f"got {self.spec_min!r}, {self.spec_max!r}")
        for name in _STAT_SHAPES:
            if getattr(self, name) is not None:
                _check_stat(name, getattr(self, name))

    def fitted(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """The (mean, std) pair of ``kind`` ("iq" or "aoa"), checked as at
        construction, since the statistics may have been assigned since."""
        mean, std = getattr(self, f"{kind}_mean"), getattr(self, f"{kind}_std")
        if mean is None or std is None:
            raise ValueError(f"normalization spec has no fitted {_KIND_NAMES[kind]} statistics")
        _check_stat(f"{kind}_mean", mean)
        _check_stat(f"{kind}_std", std)
        return np.asarray(mean), np.asarray(std)

    def to_dict(self) -> dict:
        return {
            "spec_min": self.spec_min,
            "spec_max": self.spec_max,
            "iq_mean": None if self.iq_mean is None else self.iq_mean.tolist(),
            "iq_std": None if self.iq_std is None else self.iq_std.tolist(),
            "aoa_mean": None if self.aoa_mean is None else self.aoa_mean.tolist(),
            "aoa_std": None if self.aoa_std is None else self.aoa_std.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationSpec":
        missing = [k for k in ("spec_min", "spec_max", *_STAT_SHAPES) if k not in d]
        if missing:
            raise ValueError(f"normalization block lacks key(s) {missing}")
        arr = lambda v: None if v is None else np.asarray(v, dtype=np.float64)
        return cls(spec_min=d["spec_min"], spec_max=d["spec_max"],
                   iq_mean=arr(d["iq_mean"]), iq_std=arr(d["iq_std"]),
                   aoa_mean=arr(d["aoa_mean"]), aoa_std=arr(d["aoa_std"]))


def power_db(spectrum: np.ndarray, n: int) -> np.ndarray:
    """Bin power in dB: 10*log10(|X|^2 / n + eps)."""
    return 10.0 * np.log10(np.abs(spectrum) ** 2 / n + _EPS_POWER)


def db_to_unit(db: np.ndarray, norm: NormalizationSpec | None = None) -> np.ndarray:
    """Clamp to [spec_min, spec_max] then map linearly onto [0, 1]."""
    lo = SPEC_DB_MIN if norm is None else norm.spec_min
    hi = SPEC_DB_MAX if norm is None else norm.spec_max
    return (np.clip(db, lo, hi) - lo) / (hi - lo)


def spectrogram(samples: np.ndarray, norm: NormalizationSpec | None = None) -> np.ndarray:
    """(..., 4, 1024) complex -> (..., 4, 32, 32) in [0, 1].

    One 1024-point FFT per patch, power in dB, clamp-normalized, fftshifted
    so the interference band sits centrally, then reshaped row-major.
    Computed in blocks of 16 snapshots (see the module docstring).
    """
    samples = np.asarray(samples)
    n = samples.shape[-1]
    if n != 1024:
        raise ValueError(f"spectrogram expects snapshot_len 1024, got {n}")
    samples = _check_patches(samples, "spectrogram")

    def body(x):
        unit = db_to_unit(power_db(fft(x), n), norm)
        return np.fft.fftshift(unit, axes=-1).reshape(x.shape[:-1] + (32, 32))

    return _blocked(body, samples, 2)


def stft(x: np.ndarray, window: int = 128, hop: int = 64) -> np.ndarray:
    """Hann-windowed magnitude STFT: (..., N) -> (..., window, n_frames).

    Frame f covers samples [f * hop, f * hop + window). The frames are read
    through a strided view of ``x``, so the windowed copy that the FFT reads
    is contiguous; its values equal ``x[..., idx] * win`` for
    ``idx[f, k] = f * hop + k``. Computed in blocks of 64 rows (see the
    module docstring).
    """
    x = np.asarray(x)
    if window <= 0 or window & (window - 1):
        raise ValueError(f"stft window must be a positive power of two, got {window}")
    if hop <= 0:
        raise ValueError(f"stft hop must be positive, got {hop}")
    n = x.shape[-1]
    n_frames = 1 + (n - window) // hop
    if n_frames < 1:
        raise ValueError(f"signal of length {n} shorter than one window {window}")
    win = _hann_periodic(window)

    def body(rows):
        frames = np.lib.stride_tricks.sliding_window_view(rows, window, axis=-1)[..., ::hop, :] * win
        mag = np.abs(fft(frames))           # (..., n_frames, window)
        return np.swapaxes(mag, -1, -2)     # (..., window, n_frames)

    return _blocked(body, x, 1)


def cfo_accumulated(x: np.ndarray) -> np.ndarray:
    """Cumulative instantaneous phase increment; c[0] = 0.

    Increments where either neighboring sample has zero magnitude are 0.
    Computed in blocks of 64 rows (see the module docstring).
    """
    return _blocked(_cfo_rows, np.asarray(x), 1)


def _cfo_rows(x: np.ndarray) -> np.ndarray:
    prod = x[..., 1:] * np.conj(x[..., :-1])
    inc = np.angle(prod)
    inc[prod == 0] = 0.0                # angle(-0 + 0j) would be pi
    out = np.zeros(x.shape, dtype=np.float64)
    np.cumsum(inc, axis=-1, out=out[..., 1:])
    return out


# ----------------------------------------------------------------------
# IQ standardization
# ----------------------------------------------------------------------

def _check_patches(samples, fn: str) -> np.ndarray:
    x = np.asarray(samples)
    if x.ndim < 2 or x.shape[-2] != 4:
        raise ValueError(f"{fn} expects samples of shape (..., 4, N), got {x.shape}")
    return x


def _channel_names(channels) -> str:
    return ", ".join(f"{c} (patch {c // 2} {'IQ'[c % 2]})" for c in channels)


def iq_planes(samples: np.ndarray) -> np.ndarray:
    """(..., 4, N) complex -> (..., 8, N) real; per patch, I plane then Q plane."""
    samples = _check_patches(samples, "iq_planes")
    planes = np.stack([samples.real, samples.imag], axis=-2)   # (..., 4, 2, N)
    return planes.reshape(samples.shape[:-2] + (8, samples.shape[-1]))


def fit_iq_stats(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean/std over a training batch (M, 4, N), channels as in
    ``iq_planes``; a non-finite or constant channel is an error.

    Bitwise equal to ``iq_planes(samples).mean/std(axis=(0, 2))`` without
    building the planes: the mean sums the real and imaginary views, and the
    squared deviations are summed ``_FIT_CHUNK`` rows at a time, each row
    over N (pairwise, as numpy's reduction does), with the running sum
    carried row by row in order. Temporaries stay within two
    (_FIT_CHUNK, 4, N) blocks, 16 MB at N = 1024, whatever M.
    """
    x = np.asarray(samples)
    if x.ndim != 3 or x.shape[1] != 4 or x.size == 0:
        raise ValueError(f"fit_iq_stats expects a non-empty batch of shape (M, 4, N), got {x.shape}")
    count = x.shape[0] * x.shape[2]
    parts = (x.real, x.imag)
    mean = np.stack([p.sum(axis=(0, 2)) for p in parts], axis=-1).reshape(8) / count
    _require_finite("mean", mean)
    acc = np.zeros((1, 8), dtype=mean.dtype)
    for start in range(0, len(x), _FIT_CHUNK):
        block, rows = slice(start, start + _FIT_CHUNK), []
        for j, p in enumerate(parts):
            d = p[block] - mean[j::2, None]
            d *= d
            rows.append(d.sum(axis=-1))                         # (rows, 4)
        rows = np.stack(rows, axis=-1).reshape(-1, 8)
        acc = np.cumsum(np.concatenate([acc, rows]), axis=0)[-1:]
    std = np.sqrt(acc[0] / count)
    _require_finite("std", std)
    if np.any(std == 0):
        raise ValueError(f"fit_iq_stats: constant IQ channel(s) "
                         f"{_channel_names(np.flatnonzero(std == 0))} in the fit split; std would be 0")
    return mean, std


def _require_finite(stat: str, values: np.ndarray) -> None:
    # NaN or inf samples, or sums that overflow, leave a non-finite statistic
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"fit_iq_stats: {stat} is not finite on IQ channel(s) {_channel_names(bad)}")


def normalize_iq(samples: np.ndarray, norm: NormalizationSpec) -> np.ndarray:
    """Apply the fitted per-(patch, I/Q) standardization: (..., 4, N) -> (..., 8, N).

    Computed in blocks of 16 snapshots (see the module docstring).
    """
    mean, std = norm.fitted("iq")
    x = _check_patches(samples, "iq_planes")
    return _blocked(lambda b: (iq_planes(b) - mean[:, None]) / std[:, None], x, 2)
