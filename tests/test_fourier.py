import numpy as np
import pytest

from jamloc.dsp import fft

from _oracles import naive_dft


def test_constant_input_is_dc_only():
    np.testing.assert_allclose(fft(np.ones(4)), [4, 0, 0, 0], atol=1e-12)


def test_impulse_has_flat_spectrum():
    np.testing.assert_allclose(fft(np.array([1.0, 0, 0, 0])), np.ones(4), atol=1e-12)


def test_fft_matches_naive_dft_at_1024():
    rng = np.random.default_rng(0)
    x = rng.normal(size=1024) + 1j * rng.normal(size=1024)
    err = np.max(np.abs(fft(x) - naive_dft(x)))
    assert err < 1e-9 * 1024


def test_fft_batched_axes():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 4, 64)) + 1j * rng.normal(size=(3, 4, 64))
    batched = fft(x)
    for i in range(3):
        for j in range(4):
            np.testing.assert_allclose(batched[i, j], fft(x[i, j]), atol=1e-10)


def test_parseval():
    rng = np.random.default_rng(2)
    x = rng.normal(size=1024) + 1j * rng.normal(size=1024)
    t_energy = np.sum(np.abs(x) ** 2)
    f_energy = np.sum(np.abs(fft(x)) ** 2) / 1024
    assert abs(t_energy - f_energy) / t_energy < 1e-9


def test_non_power_of_two_rejected():
    with pytest.raises(ValueError):
        fft(np.ones(1000))


def test_naive_dft_accepts_any_length():
    x = np.ones(10)
    out = naive_dft(x)
    np.testing.assert_allclose(out[0], 10.0, atol=1e-12)


def test_single_precision_path_stays_complex64():
    for dtype in (np.complex64, np.float32):
        assert fft(np.ones(16, dtype=dtype)).dtype == np.complex64
    assert fft(np.ones(16)).dtype == np.complex128
