"""The one FFT of ``dsp``: numpy's, behind a power-of-two and dtype contract.

``fft`` transforms the last axis of any array whose length is a power of
two. Single precision in (complex64 or float32) gives complex64 out; double
precision gives complex128. The textbook O(N^2) DFT that tests check it against
lives in ``tests/_oracles.py``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fft"]


def fft(x: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT along the last axis; N must be a power of two."""
    x = np.asarray(x)
    n = x.shape[-1]
    if n == 0 or n & (n - 1):
        raise ValueError(f"fft length must be a power of two, got {n}")
    return np.fft.fft(x, axis=-1)
