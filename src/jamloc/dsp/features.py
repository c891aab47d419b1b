"""Snapshot-to-feature conversions and the normalization constants.

Everything here accepts a single snapshot (4, N) of complex samples or a
batch (M, 4, N) and is pure; the only state is the fitted normalization
statistics, which must come from the training split. The spectrogram clamp
(``SPEC_DB_MIN``/``SPEC_DB_MAX``) and the STFT geometry (``STFT_WINDOW``/
``STFT_HOP``) are constants.

The extractors (``spectrogram``, ``stft``, ``cfo_accumulated``,
``normalize_iq`` and ``aoa.aoa_features``) check their arguments once, then
run their per-snapshot body over consecutive blocks of ``_BLOCK_ROWS`` rows
of N samples (16 snapshots) through ``_blocked``, so that a block's input
and every temporary the body makes stay in cache; an input that fits in one
block goes to the body as it is. Results are bitwise the same whatever the
batch size and the blocking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import fft

__all__ = [
    "NormalizationSpec", "SPEC_DB_MIN", "SPEC_DB_MAX", "STFT_WINDOW", "STFT_HOP",
    "power_db", "db_to_unit", "spectrogram", "stft",
    "cfo_accumulated", "fit_iq_stats", "normalize_iq",
]

# spectrogram clamp bounds in dB; values outside map to exactly 0.0 / 1.0
SPEC_DB_MIN = -195.69
SPEC_DB_MAX = -19.89

# STFT frame length and hop in samples: a 1024-sample snapshot gives the
# (128, 15) frames whose shape the MCAFF stft stem's strides assume
STFT_WINDOW = 128
STFT_HOP = 64

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
    """Fitted IQ / AoA statistics; the spectrogram clamp is the constant
    ``SPEC_DB_MIN``/``SPEC_DB_MAX``, not part of the spec.

    ``iq_mean``/``iq_std`` are per real channel (patch-major, I before Q,
    shape (8,)); ``aoa_mean``/``aoa_std`` are per (patch, feature), (4, 22).
    Construction checks that each statistic given has its shape, is finite
    and, for a std, is positive. ``normalize_iq`` and ``standardize_aoa``
    run the same check on the statistics they apply (``fitted``), so
    statistics assigned after construction are checked too.
    """

    iq_mean: np.ndarray | None = None
    iq_std: np.ndarray | None = None
    aoa_mean: np.ndarray | None = None
    aoa_std: np.ndarray | None = None

    def __post_init__(self):
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
            "iq_mean": None if self.iq_mean is None else self.iq_mean.tolist(),
            "iq_std": None if self.iq_std is None else self.iq_std.tolist(),
            "aoa_mean": None if self.aoa_mean is None else self.aoa_mean.tolist(),
            "aoa_std": None if self.aoa_std is None else self.aoa_std.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationSpec":
        """The spec of a ``to_dict`` block. Other keys are ignored, such as
        the ``spec_min``/``spec_max`` that older blocks carry."""
        missing = [k for k in _STAT_SHAPES if k not in d]
        if missing:
            raise ValueError(f"normalization block lacks key(s) {missing}")
        return cls(**{k: None if d[k] is None else np.asarray(d[k], dtype=np.float64)
                      for k in _STAT_SHAPES})


def power_db(spectrum: np.ndarray, n: int) -> np.ndarray:
    """Bin power in dB: 10*log10(|X|^2 / n + eps)."""
    return 10.0 * np.log10(np.abs(spectrum) ** 2 / n + _EPS_POWER)


def db_to_unit(db: np.ndarray) -> np.ndarray:
    """Clamp to [SPEC_DB_MIN, SPEC_DB_MAX] then map linearly onto [0, 1]."""
    return (np.clip(db, SPEC_DB_MIN, SPEC_DB_MAX) - SPEC_DB_MIN) / (SPEC_DB_MAX - SPEC_DB_MIN)


def spectrogram(samples: np.ndarray) -> np.ndarray:
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
        unit = db_to_unit(power_db(fft(x), n))
        return np.fft.fftshift(unit, axes=-1).reshape(x.shape[:-1] + (32, 32))

    return _blocked(body, samples, 2)


def stft(x: np.ndarray) -> np.ndarray:
    """Hann-windowed magnitude STFT: (..., N) -> (..., STFT_WINDOW, n_frames).

    Frame f covers samples [f * STFT_HOP, f * STFT_HOP + STFT_WINDOW). The
    frames are read through a strided view of ``x``, so the windowed copy
    that the FFT reads is contiguous; its values equal ``x[..., idx] * win``
    for ``idx[f, k] = f * STFT_HOP + k``. Computed in blocks of 64 rows (see
    the module docstring).
    """
    x = np.asarray(x)
    n = x.shape[-1]
    if n < STFT_WINDOW:
        raise ValueError(f"signal of length {n} shorter than one window {STFT_WINDOW}")
    win = _hann_periodic(STFT_WINDOW)

    def body(rows):
        frames = (np.lib.stride_tricks.sliding_window_view(rows, STFT_WINDOW, axis=-1)
                  [..., ::STFT_HOP, :] * win)
        mag = np.abs(fft(frames))           # (..., n_frames, window)
        return np.swapaxes(mag, -1, -2)     # (..., window, n_frames)

    return _blocked(body, x, 1)


def cfo_accumulated(x: np.ndarray) -> np.ndarray:
    """Cumulative instantaneous phase increment; c[0] = 0.

    Increments where either neighboring sample has zero magnitude are 0.
    Computed in blocks of 64 rows (see the module docstring).
    """
    return _blocked(_cfo_rows, np.asarray(x), 1)


def _phase_increments(x: np.ndarray) -> np.ndarray:
    """angle(x[n] * conj(x[n-1])) along the last axis; 0 where the product is 0.

    The product is formed from float views, one real ufunc per operation, so
    each element rounds the same way whatever the array's shape; numpy's
    complex multiply rounds differently depending on how it iterates the
    array. It differs from ``np.angle`` of the complex product by at most
    1e-15 rad (4.4e-16 measured on desk snapshots).
    """
    re, im = x.real, x.imag
    pr = re[..., 1:] * re[..., :-1] + im[..., 1:] * im[..., :-1]
    pi = im[..., 1:] * re[..., :-1] - re[..., 1:] * im[..., :-1]
    inc = np.arctan2(pi, pr)
    inc[(pr == 0) & (pi == 0)] = 0.0    # arctan2(0, -0) would be pi
    return inc


def _cfo_rows(x: np.ndarray) -> np.ndarray:
    inc = _phase_increments(x)
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


def fit_iq_stats(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean/std over a training batch (M, 4, N); channel 2p is
    patch p's I (real part), 2p + 1 its Q (imaginary part). A non-finite or
    constant channel is an error.

    Bitwise equal to ``planes.mean/std(axis=(0, 2))`` of the (M, 8, N) planes
    ``np.stack([x.real, x.imag], axis=2).reshape(M, 8, N)`` without building
    them: the mean sums the real and imaginary views, and the squared
    deviations are summed ``_FIT_CHUNK`` rows at a time, each row over N
    (pairwise, as numpy's reduction does), with the running sum carried row
    by row in order. Temporaries stay within two (_FIT_CHUNK, 4, N) blocks,
    16 MB at N = 1024, whatever M.
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
    x = _check_patches(samples, "normalize_iq")

    def body(b):
        # (..., 4, 2, N) -> (..., 8, N): per patch, I then Q. One expression,
        # so numpy subtracts into the stacked temporary; a named one would stay
        # alive and cost a fresh 1 MB buffer per block (2.5x slower)
        return (np.stack([b.real, b.imag], axis=-2).reshape(b.shape[:-2] + (8, b.shape[-1]))
                - mean[:, None]) / std[:, None]

    return _blocked(body, x, 2)
