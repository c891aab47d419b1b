"""Snapshot-to-feature conversions and the normalization constants.

The extractors (``spectrogram``, ``stft``, ``cfo_accumulated``,
``normalize_iq`` and ``aoa.aoa_features``) take one snapshot of shape
(4, 1024), 4 patches of 1024 complex samples, or a batch (M, 4, 1024), and
``fit_iq_stats`` a non-empty batch; the length is fixed because one FFT per
patch fills the 32 x 32 spectrogram grid. ``_snapshots`` rejects any other
shape, naming the function and the shape. Each extractor, and the fit's
sum of squared deviations, runs its body over blocks of snapshots
(``_blocked``), so that a block's temporaries stay in cache: on the worker
threads the convs use too (``jamloc._workers``), ``_BLOCK`` snapshots in
flight over all of them, so two runs take blocks of ``_BLOCK // 2``. A
snapshot's result does not depend on its block, so results are bitwise the
same whatever the batch size and the worker count.

The functions are pure; the only state is the fitted normalization
statistics, which must come from the training split. The spectrogram clamp
(``SPEC_DB_MIN``/``SPEC_DB_MAX``) and the STFT geometry (``STFT_WINDOW``/
``STFT_HOP``) are constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import _workers
from .fourier import fft

__all__ = [
    "NormalizationSpec", "SPEC_DB_MIN", "SPEC_DB_MAX", "STFT_WINDOW", "STFT_HOP",
    "db_to_unit", "spectrogram", "stft",
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

# samples per patch in a snapshot: one 1024-point FFT per patch fills the
# 32 x 32 spectrogram grid
_SNAPSHOT_LEN = 1024

# snapshots in flight per extractor call, over all its runs: 1 MB of
# complex128, so a block's temporaries stay near a 1 MB L2. On a 256-snapshot
# desk chunk (2-vCPU EPYC VM, one BLAS thread, one worker, the benchmark's
# malloc policy), blocks of 8 / 16 / 32 / 64 snapshots took aoa_features
# 25.8 / 23.7 / 24.5 / 26.8 ms and stft 7.7 / 7.3 / 7.3 / 10.3 ms, against
# 29.4 and 9.6 ms for the whole chunk at once.
_BLOCK = 16


def _snapshots(fn: str, samples, fit: bool = False) -> np.ndarray:
    """``samples`` as an array if it is a (4, 1024) snapshot or an
    (M, 4, 1024) batch (``fit``: a non-empty batch); otherwise a ValueError
    that names ``fn`` and the shape."""
    x = np.asarray(samples)
    snapshot = x.shape[-2:] == (4, _SNAPSHOT_LEN)
    if fit and not (snapshot and x.ndim == 3 and len(x)):
        raise ValueError(f"{fn} expects a non-empty batch of shape (M, 4, 1024), got {x.shape}")
    if not (snapshot and x.ndim in (2, 3)):
        raise ValueError(f"{fn} expects a snapshot of shape (4, 1024) or a batch of shape "
                         f"(M, 4, 1024), got {x.shape}")
    return x


def _blocked(fn: str, body, samples) -> np.ndarray:
    """``body`` over blocks of ``samples``, which ``_snapshots`` checks for
    ``fn``. ``body`` maps (b, 4, 1024) to (b, ...); a snapshot goes to it as
    a batch of one, and a batch of at most ``_BLOCK`` whole, without a copy.
    A longer batch runs on the shared workers (``_workers._blocks``), which
    keep ``_BLOCK`` snapshots in flight over all runs; each block writes its
    own rows of the output."""
    x = _snapshots(fn, samples)
    if x.ndim == 2:
        return body(x[None])[0]
    if len(x) <= _BLOCK:
        return body(x)
    empty = body(x[:0])
    out = np.empty((len(x),) + empty.shape[1:], dtype=empty.dtype)

    def run(blocks):
        for s in blocks:
            out[s] = body(x[s])

    _workers._map(run, _workers._blocks(len(x), _BLOCK))
    return out


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
        return {k: None if getattr(self, k) is None else np.asarray(getattr(self, k)).tolist()
                for k in _STAT_SHAPES}

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationSpec":
        """The spec of a ``to_dict`` block. Other keys are ignored, such as
        the ``spec_min``/``spec_max`` that older blocks carry."""
        missing = [k for k in _STAT_SHAPES if k not in d]
        if missing:
            raise ValueError(f"normalization block lacks key(s) {missing}")
        return cls(**{k: None if d[k] is None else np.asarray(d[k], dtype=np.float64)
                      for k in _STAT_SHAPES})


def db_to_unit(db: np.ndarray) -> np.ndarray:
    """Clamp to [SPEC_DB_MIN, SPEC_DB_MAX] then map linearly onto [0, 1]."""
    return (np.clip(db, SPEC_DB_MIN, SPEC_DB_MAX) - SPEC_DB_MIN) / (SPEC_DB_MAX - SPEC_DB_MIN)


def spectrogram(samples: np.ndarray) -> np.ndarray:
    """(4, 1024) or (M, 4, 1024) complex -> (4, 32, 32) or (M, 4, 32, 32) in [0, 1].

    One 1024-point FFT per patch, bin power in dB (10*log10(|X|^2 / 1024 +
    eps)), clamp-normalized, fftshifted so the interference band sits
    centrally, then reshaped row-major.
    """
    def body(x):
        unit = db_to_unit(10.0 * np.log10(np.abs(fft(x)) ** 2 / _SNAPSHOT_LEN + _EPS_POWER))
        return np.fft.fftshift(unit, axes=-1).reshape(x.shape[:-1] + (32, 32))

    return _blocked("spectrogram", body, samples)


def stft(samples: np.ndarray) -> np.ndarray:
    """Hann-windowed magnitude STFT of each patch: (4, 1024) or (M, 4, 1024)
    complex -> (4, STFT_WINDOW, 15) or (M, 4, STFT_WINDOW, 15).

    Frame f covers samples [f * STFT_HOP, f * STFT_HOP + STFT_WINDOW). The
    frames are read through a strided view of the samples, so the windowed
    copy that the FFT reads is contiguous; its values equal
    ``x[..., idx] * win`` for ``idx[f, k] = f * STFT_HOP + k``.
    """
    win = _hann_periodic(STFT_WINDOW)

    def body(x):
        frames = (np.lib.stride_tricks.sliding_window_view(x, STFT_WINDOW, axis=-1)
                  [..., ::STFT_HOP, :] * win)
        mag = np.abs(fft(frames))           # (b, 4, n_frames, window)
        return np.swapaxes(mag, -1, -2)     # (b, 4, window, n_frames)

    return _blocked("stft", body, samples)


def cfo_accumulated(samples: np.ndarray) -> np.ndarray:
    """Cumulative instantaneous phase increment of each patch, c[0] = 0:
    (4, 1024) or (M, 4, 1024) complex -> the same shape, float64.

    Increments where either neighboring sample has zero magnitude are 0.
    """
    return _blocked("cfo_accumulated", _cfo_rows, samples)


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

def _channel_names(channels) -> str:
    return ", ".join(f"{c} (patch {c // 2} {'IQ'[c % 2]})" for c in channels)


def _iq_planes(x: np.ndarray) -> np.ndarray:
    """(b, 4, N) complex -> (b, 8, N) real planes: per patch, I then Q."""
    return np.stack([x.real, x.imag], axis=-2).reshape(x.shape[:-2] + (8, x.shape[-1]))


def fit_iq_stats(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean/std over a training batch (M, 4, 1024); channel 2p is
    patch p's I (real part), 2p + 1 its Q (imaginary part). A non-finite or
    constant channel is an error.

    Bitwise equal to ``planes.mean/std(axis=(0, 2))`` of the (M, 8, N)
    ``_iq_planes`` without building them whole: the mean sums the real and
    imaginary views, and each snapshot's squared deviations are summed over
    N (pairwise, as numpy's reduction does) in blocks (``_blocked``), then
    the (M, 8) sums are added in snapshot order. The temporaries in flight
    hold ``_BLOCK`` snapshots, 1 MB each, whatever M and the worker count.
    """
    x = _snapshots("fit_iq_stats", samples, fit=True)
    count = x.shape[0] * x.shape[2]
    mean = np.stack([p.sum(axis=(0, 2)) for p in (x.real, x.imag)], axis=-1).reshape(8) / count
    _require_finite("mean", mean)

    def body(b):
        d = _iq_planes(b) - mean[:, None]
        d *= d
        return d.sum(axis=-1)

    std = np.sqrt(np.cumsum(_blocked("fit_iq_stats", body, x), axis=0)[-1] / count)
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
    """Apply the fitted per-(patch, I/Q) standardization: (4, 1024) or
    (M, 4, 1024) complex -> (8, 1024) or (M, 8, 1024)."""
    mean, std = norm.fitted("iq")

    def body(b):
        # one expression, so numpy subtracts into the planes' temporary; a
        # named one would stay alive and cost a fresh 1 MB buffer per block
        # (2.5x slower)
        return (_iq_planes(b) - mean[:, None]) / std[:, None]

    return _blocked("normalize_iq", body, samples)
