"""Baseband interference waveform generator.

Six interference families, each normalized to unit average power; the
per-class structure (sweep, hops, tone comb, gating, band-limited noise,
PSK symbols) is what the downstream classifiers have to separate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .._checks import count, instance, real

__all__ = ["JammerClass", "JammerProfile", "gen_baseband",
           "BANDWIDTH_RANGE_HZ", "POWER_RANGE_DBM"]

BANDWIDTH_RANGE_HZ = (0.2e6, 60e6)
POWER_RANGE_DBM = (-20.0, 10.0)

# per-class structure: equal-length hops of a frequency-hopping snapshot,
# tones of the multitone comb, and the pulsed chirp's gate periods and duty
# cycle per snapshot
_HOPS = 8
_TONES = 8
_PULSES = 4
_DUTY = 0.3


class JammerClass(enum.Enum):
    CHIRP = "Chirp"
    FREQUENCY_HOPPING = "FrequencyHopping"
    MODULATED = "Modulated"
    MULTITONE = "Multitone"
    PULSED = "Pulsed"
    NOISE = "Noise"


JAMMER_CLASSES = tuple(JammerClass)  # index in this tuple = integer class id


@dataclass(frozen=True)
class JammerProfile:
    """A class, a subclass id >= 0, and a bandwidth (Hz) and power (dBm) within
    ``BANDWIDTH_RANGE_HZ`` and ``POWER_RANGE_DBM``, each checked by a ``_checks`` rule."""

    jclass: JammerClass
    subclass_id: int
    bandwidth_hz: float
    power_dbm: float

    def __post_init__(self):
        instance("JammerProfile.jclass", self.jclass, JammerClass)
        count("JammerProfile.subclass_id", self.subclass_id, 0)
        real("JammerProfile.bandwidth_hz", self.bandwidth_hz, *BANDWIDTH_RANGE_HZ)
        real("JammerProfile.power_dbm", self.power_dbm, *POWER_RANGE_DBM)

    @property
    def class_id(self) -> int:
        return JAMMER_CLASSES.index(self.jclass)


def _unit_power(x: np.ndarray) -> np.ndarray:
    p = np.mean(np.abs(x) ** 2)
    if p == 0:
        raise ValueError("generated waveform has zero power")
    return x / np.sqrt(p)


def gen_baseband(profile: JammerProfile, n: int, fs: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Complex baseband snapshot of class-specific structure, unit average power."""
    if profile.bandwidth_hz >= fs:
        raise ValueError(f"bandwidth {profile.bandwidth_hz:g} must be below sample rate {fs:g}")
    b = profile.bandwidth_hz
    t = np.arange(n) / fs
    dur = n / fs
    kind = profile.jclass

    if kind is JammerClass.CHIRP:
        x = _chirp(t, dur, b, rng)
    elif kind is JammerClass.FREQUENCY_HOPPING:
        x = np.empty(n, dtype=np.complex128)
        edges = np.linspace(0, n, _HOPS + 1).astype(int)
        for h in range(_HOPS):
            f = rng.uniform(-b / 2, b / 2)
            phi = rng.uniform(0, 2 * np.pi)
            seg = slice(edges[h], edges[h + 1])
            x[seg] = np.exp(1j * (2 * np.pi * f * t[seg] + phi))
    elif kind is JammerClass.MULTITONE:
        spacing = b / (_TONES - 1)
        freqs = (np.arange(_TONES) - (_TONES - 1) / 2.0) * spacing
        phases = rng.uniform(0, 2 * np.pi, size=_TONES)
        x = np.exp(1j * (2 * np.pi * np.outer(freqs, t) + phases[:, None])).sum(axis=0)
    elif kind is JammerClass.PULSED:
        period = n // _PULSES
        gate = (np.arange(n) % period) < _DUTY * period
        x = _chirp(t, dur, b, rng) * gate
    elif kind is JammerClass.NOISE:
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        x = _bandlimit(w, fs, b)
    elif kind is JammerClass.MODULATED:
        sps = max(1, int(round(fs / b)))
        n_sym = -(-n // sps)
        symbols = np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, size=n_sym)))
        x = _bandlimit(np.repeat(symbols, sps)[:n], fs, b)
    else:  # pragma: no cover
        raise ValueError(f"unknown jammer class {kind}")

    return _unit_power(x)


def _chirp(t: np.ndarray, dur: float, b: float, rng: np.random.Generator) -> np.ndarray:
    # linear sweep of instantaneous frequency from -b/2 to +b/2 across the snapshot
    phi0 = rng.uniform(0, 2 * np.pi)
    phase = 2 * np.pi * (-b / 2 * t + b / (2 * dur) * t ** 2) + phi0
    return np.exp(1j * phase)


def _bandlimit(x: np.ndarray, fs: float, b: float) -> np.ndarray:
    spec = np.fft.fft(x)
    f = np.fft.fftfreq(len(x), d=1.0 / fs)
    spec[np.abs(f) > b / 2] = 0.0
    return np.fft.ifft(spec)
