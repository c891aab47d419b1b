"""Synthetic GNSS-jammer localization testbed.

Subpackages:
    nn        tensor autodiff kernel, layers, SGD, checkpoints
    sigsim    4-patch antenna-array snapshot simulator
    dsp       spectrogram / STFT / CFO / AoA feature extraction
    models    concat-fusion regressor and the attentive multi-path baseline
"""

__version__ = "0.1.0"
