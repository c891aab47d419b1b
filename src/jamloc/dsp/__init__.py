"""Feature extraction: FFT/spectrogram, STFT, CFO, and AoA statistics."""

from .aoa import (AOA_FEATURE_NAMES, N_AOA_FEATURES, aoa_features,
                  fit_aoa_stats, standardize_aoa)
from .features import (SPEC_DB_MAX, SPEC_DB_MIN, STFT_HOP, STFT_WINDOW,
                       NormalizationSpec, cfo_accumulated, db_to_unit,
                       fit_iq_stats, normalize_iq, spectrogram, stft)
from .fourier import fft

__all__ = [
    "fft",
    "NormalizationSpec", "SPEC_DB_MIN", "SPEC_DB_MAX", "STFT_WINDOW", "STFT_HOP",
    "db_to_unit", "spectrogram", "stft",
    "cfo_accumulated", "fit_iq_stats", "normalize_iq",
    "aoa_features", "fit_aoa_stats", "standardize_aoa",
    "N_AOA_FEATURES", "AOA_FEATURE_NAMES",
]
