"""Classical angle-of-arrival feature vector: 22 statistics per antenna patch.

Groups: temporal (6), spectral (6), energy (3), envelope (4), and phase
difference against the reference patch 0 (3). All depend on the sample
magnitudes or on inter-patch phase differences, except the zero-crossing
rate of the in-phase component, which is the one feature sensitive to a
global phase rotation.
"""

from __future__ import annotations

import logging

import numpy as np

from .._checks import real
from .features import _blocked, _phase_increments

__all__ = ["aoa_features", "fit_aoa_stats", "standardize_aoa", "N_AOA_FEATURES", "AOA_FEATURE_NAMES"]

logger = logging.getLogger(__name__)

N_AOA_FEATURES = 22

AOA_FEATURE_NAMES = (
    "env_mean_t", "env_std_t", "env_skew", "env_kurtosis", "rms", "zcr_i",
    "spec_centroid", "spec_spread", "spec_flatness", "spec_rolloff85",
    "spec_peak_freq", "spec_entropy",
    "energy_total", "papr", "energy_central_frac",
    "env_mean", "env_std", "env_max", "env_crest",
    "phasediff_circ_mean", "phasediff_circ_std", "if_diff_mean",
)

_EPS = 1e-20

# the spectral and envelope columns, which are 0 for a zero-energy channel
_SPECTRAL_ENV = np.isin(np.arange(N_AOA_FEATURES), [6, 7, 8, 9, 10, 11, 13, 14, 15, 16, 17, 18])


def aoa_features(samples: np.ndarray, fs: float) -> np.ndarray:
    """(4, 1024) or (M, 4, 1024) complex samples at sample rate ``fs`` (Hz)
    -> (4, 22) or (M, 4, 22) features.

    Patch 0 is the phase reference, so its three phase-difference features
    are identically zero. Zero-energy channels get zeroed spectral/envelope
    features and are flagged in the log, one warning per call counting them
    over all blocks.

    The central-band energy (column 14) adds the bins with |f| <= fs/4 one by
    one in ascending frequency, a sequential sum rather than numpy's pairwise
    one; the two differ in the last bits, and the sequential order keeps the
    column bitwise stable across versions.
    """
    real("aoa_features: fs", fs, 0, above=True)
    out = _blocked("aoa_features", lambda b, rows: _aoa_block(b, fs, rows), samples,
                   (4, N_AOA_FEATURES))
    dead = int(np.count_nonzero(out[..., 12] == 0))      # column 12 is the channel energy
    if dead:
        logger.warning("aoa_features: %d zero-energy channel(s); spectral/envelope features set to 0",
                       dead)
    return out


def _aoa_block(x: np.ndarray, fs: float, out: np.ndarray) -> None:
    """Write the (M, 4, 22) features of (M, 4, N) samples into ``out``,
    every column; log nothing."""
    N = x.shape[-1]

    env = np.abs(x)
    env_sq = env ** 2
    env_max = env.max(axis=-1)
    energy = env_sq.sum(axis=-1)                          # (M, 4)
    dead = energy == 0

    # temporal -----------------------------------------------------------
    mu = env.mean(axis=-1)
    sig = env.std(axis=-1)
    cen = env - mu[..., None]
    c2 = cen * cen  # integer powers above 2 go through a per-element pow
    safe_sig = np.where(sig > 0, sig, 1.0)
    out[..., 0] = mu
    out[..., 1] = sig
    out[..., 2] = np.where(sig > 0, (c2 * cen).mean(axis=-1) / safe_sig ** 3, 0.0)
    out[..., 3] = np.where(sig > 0, (c2 * c2).mean(axis=-1) / safe_sig ** 4, 0.0)
    rms = np.sqrt(env_sq.mean(axis=-1))
    out[..., 4] = rms
    i_part = x.real
    out[..., 5] = (i_part[..., 1:] * i_part[..., :-1] < 0).mean(axis=-1)

    # spectral (on the shifted 1024-bin power spectrum) -------------------
    P = np.fft.fftshift(np.abs(np.fft.fft(x)) ** 2, axes=-1)
    f = (np.arange(N) - N // 2) * (fs / N)                # shifted bin freqs, Hz
    Ptot = P.sum(axis=-1)
    Psafe = np.where(Ptot > 0, Ptot, 1.0)
    p = P / Psafe[..., None]
    centroid = (f * p).sum(axis=-1)
    out[..., 6] = centroid
    out[..., 7] = np.sqrt((((f - centroid[..., None]) ** 2) * p).sum(axis=-1))
    out[..., 8] = np.exp(np.log(P + _EPS).mean(axis=-1)) / (P.mean(axis=-1) + _EPS)
    cum = np.cumsum(P, axis=-1)
    roll_idx = np.argmax(cum >= 0.85 * Ptot[..., None], axis=-1)
    out[..., 9] = f[roll_idx]
    out[..., 10] = f[np.argmax(P, axis=-1)]
    out[..., 11] = -(p * np.log(p + _EPS)).sum(axis=-1)

    # energy ---------------------------------------------------------------
    out[..., 12] = energy
    peak = env_sq.max(axis=-1)
    mean_pow = np.where(energy > 0, energy / N, 1.0)
    out[..., 13] = np.where(energy > 0, peak / mean_pow, 0.0)
    # the band |f| <= fs/4 is bins N/4 .. 3N/4; summed bin by bin in order
    band = np.cumsum(P[..., N // 4:N - N // 4 + 1], axis=-1)[..., -1]
    out[..., 14] = band / Psafe

    # envelope ---------------------------------------------------------------
    out[..., 15] = mu
    out[..., 16] = sig
    out[..., 17] = env_max
    out[..., 18] = np.where(rms > 0, env_max / np.where(rms > 0, rms, 1.0), 0.0)

    # phase difference vs patch 0 ------------------------------------------
    z = x * np.conj(x[:, :1])                            # (M, 4, N)
    zmag = np.abs(z)
    live = zmag > 0
    # z / |z| as a product with 1/|z|, which numpy's complex division by a
    # real divisor computes anyway; 0 where z = 0
    unit = z * np.divide(1.0, zmag, out=np.zeros_like(zmag), where=live)
    count = live.sum(axis=-1)
    m = unit.sum(axis=-1) / np.maximum(count, 1)
    m = np.where(count > 0, m, 1.0 + 0.0j)               # dead pair: mean 0, std 0
    out[..., 19] = np.angle(m)
    R = np.clip(np.abs(m), 1e-12, 1.0)
    out[..., 20] = np.sqrt(-2.0 * np.log(R))

    mean_if = _phase_increments(x).mean(axis=-1) * fs / (2.0 * np.pi)
    out[..., 21] = mean_if - mean_if[:, :1]
    out[:, 0, 19:22] = 0.0               # self-reference: exactly zero by definition

    out[dead[..., None] & _SPECTRAL_ENV] = 0.0


def fit_aoa_stats(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-(patch, feature) mean/std over a non-empty training batch (M, 4, 22).

    Features that are constant on the fit split (the patch-0 phase
    references, by construction) get std 1 so they standardize to 0. A
    non-finite mean or std is an error.
    """
    feats = np.asarray(features)
    if feats.shape[1:] != (4, N_AOA_FEATURES) or not len(feats):
        raise ValueError(f"fit_aoa_stats expects a non-empty batch of shape "
                         f"(M, 4, {N_AOA_FEATURES}), got {feats.shape}")
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    bad = ~(np.isfinite(mean) & np.isfinite(std))
    if np.any(bad):
        names = ", ".join(f"patch {p} {AOA_FEATURE_NAMES[k]}" for p, k in zip(*np.nonzero(bad)))
        raise ValueError(f"fit_aoa_stats: mean or std is not finite for {names}")
    std = np.where(std > 0, std, 1.0)
    return mean, std


def standardize_aoa(features: np.ndarray, norm) -> np.ndarray:
    """Apply fitted train-split statistics: (4, 22) or (M, 4, 22) -> the
    same shape. Any other shape is a ValueError naming it, where the
    statistics would broadcast it silently."""
    feats = np.asarray(features)
    if feats.shape[-2:] != (4, N_AOA_FEATURES) or feats.ndim not in (2, 3):
        raise ValueError(f"standardize_aoa expects features of shape (4, {N_AOA_FEATURES}) or "
                         f"(M, 4, {N_AOA_FEATURES}), got {feats.shape}")
    mean, std = norm.fitted("aoa")
    return (feats - mean) / std
