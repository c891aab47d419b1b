"""Snapshot-to-feature conversions and the normalization constants.

Everything here accepts a single snapshot (4, N) of complex samples or a
batch (M, 4, N) and is pure; the only state is the fitted normalization
statistics, which must come from the training split.
"""

from __future__ import annotations

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


def _hann_periodic(n: int) -> np.ndarray:
    # periodic variant: DFT main lobe is exactly bins {-1, 0, +1}
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


@dataclass
class NormalizationSpec:
    """Clamp bounds for spectrograms plus fitted IQ / AoA statistics.

    ``iq_mean``/``iq_std`` are per real channel (patch-major, I before Q,
    shape (8,)); ``aoa_mean``/``aoa_std`` are per (patch, feature), (4, 22).
    """

    spec_min: float = SPEC_DB_MIN
    spec_max: float = SPEC_DB_MAX
    iq_mean: np.ndarray | None = None
    iq_std: np.ndarray | None = None
    aoa_mean: np.ndarray | None = None
    aoa_std: np.ndarray | None = None

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
    """
    samples = np.asarray(samples)
    n = samples.shape[-1]
    if n != 1024:
        raise ValueError(f"spectrogram expects snapshot_len 1024, got {n}")
    unit = db_to_unit(power_db(fft(samples), n), norm)
    return np.fft.fftshift(unit, axes=-1).reshape(samples.shape[:-1] + (32, 32))


def stft(x: np.ndarray, window: int = 128, hop: int = 64) -> np.ndarray:
    """Hann-windowed magnitude STFT: (..., N) -> (..., window, n_frames)."""
    x = np.asarray(x)
    if window & (window - 1):
        raise ValueError(f"stft window must be a power of two, got {window}")
    if hop <= 0:
        raise ValueError("hop must be positive")
    n = x.shape[-1]
    n_frames = 1 + (n - window) // hop
    if n_frames < 1:
        raise ValueError(f"signal of length {n} shorter than one window {window}")
    win = _hann_periodic(window)
    idx = np.arange(window)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = x[..., idx] * win          # (..., n_frames, window)
    mag = np.abs(fft(frames))
    return np.swapaxes(mag, -1, -2)     # (..., window, n_frames)


def cfo_accumulated(x: np.ndarray) -> np.ndarray:
    """Cumulative instantaneous phase increment; c[0] = 0.

    Increments where either neighboring sample has zero magnitude are 0.
    """
    x = np.asarray(x)
    prod = x[..., 1:] * np.conj(x[..., :-1])
    inc = np.where(np.abs(prod) > 0, np.angle(prod), 0.0)
    out = np.zeros(x.shape, dtype=np.float64)
    np.cumsum(inc, axis=-1, out=out[..., 1:])
    return out


# ----------------------------------------------------------------------
# IQ standardization
# ----------------------------------------------------------------------

def iq_planes(samples: np.ndarray) -> np.ndarray:
    """(..., 4, N) complex -> (..., 8, N) real; per patch, I plane then Q plane."""
    samples = np.asarray(samples)
    planes = np.stack([samples.real, samples.imag], axis=-2)   # (..., 4, 2, N)
    return planes.reshape(samples.shape[:-2] + (8, samples.shape[-1]))


def fit_iq_stats(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean/std over a training batch (M, 4, N); std 0 is an error."""
    planes = iq_planes(np.asarray(samples))
    if planes.ndim != 3:
        raise ValueError("fit_iq_stats expects a batch (M, 4, N)")
    mean = planes.mean(axis=(0, 2))
    std = planes.std(axis=(0, 2))
    if np.any(std == 0):
        bad = np.flatnonzero(std == 0).tolist()
        raise ValueError(f"constant IQ channel(s) {bad} in the fit split; std would be 0")
    return mean, std


def normalize_iq(samples: np.ndarray, norm: NormalizationSpec) -> np.ndarray:
    """Apply the fitted per-(patch, I/Q) standardization: (..., 4, N) -> (..., 8, N)."""
    if norm.iq_mean is None or norm.iq_std is None:
        raise ValueError("normalization spec has no fitted IQ statistics")
    planes = iq_planes(samples)
    return (planes - norm.iq_mean[:, None]) / norm.iq_std[:, None]
