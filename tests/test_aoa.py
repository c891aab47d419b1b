import logging
import re

import numpy as np
import pytest

from jamloc.dsp import N_AOA_FEATURES, aoa_features, fit_aoa_stats, standardize_aoa
from jamloc.dsp.features import NormalizationSpec
from jamloc.sigsim import ArrayGeometry

FS = 1e8
N = 1024

# index of the zero-crossing rate of I: the one feature that legitimately
# depends on the global phase (Re(x) is not rotation invariant)
ZCR_INDEX = 5


def _random_snapshot(seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(4, N)) + 1j * rng.normal(size=(4, N))


def test_output_shape():
    assert aoa_features(_random_snapshot(), FS).shape == (4, N_AOA_FEATURES)
    batch = np.stack([_random_snapshot(i) for i in range(3)])
    assert aoa_features(batch, FS).shape == (3, 4, N_AOA_FEATURES)


def test_envelope_skew_and_kurtosis_match_moment_oracle():
    rng = np.random.default_rng(5)
    x = np.stack([_random_snapshot(i) for i in range(8)]) * rng.uniform(0.1, 3.0, size=(8, 4, 1))
    x[::2, :, ::7] *= 20  # heavy-tailed envelopes, as pulsed jammers give
    feats = aoa_features(x, FS)
    env = np.abs(x)
    cen = env - env.mean(axis=-1, keepdims=True)
    sig = env.std(axis=-1)
    for col, k in ((2, 3), (3, 4)):
        ref = (cen ** k).mean(axis=-1) / sig ** k
        assert np.max(np.abs(feats[..., col] - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_patch_zero_phase_features_are_zero():
    feats = aoa_features(_random_snapshot(1), FS)
    np.testing.assert_allclose(feats[0, 19:22], 0.0, atol=1e-12)


def test_broadside_source_has_zero_phase_differences():
    # broadside (u = +y): the x-z plane array sees identical phase on all patches
    geom = ArrayGeometry()
    u = np.array([0.0, 1.0, 0.0])
    steer = geom.steering_vector(u)
    rng = np.random.default_rng(2)
    wf = rng.normal(size=N) + 1j * rng.normal(size=N)
    snap = steer[:, None] * wf[None, :]
    feats = aoa_features(snap, FS)
    np.testing.assert_allclose(feats[:, 19], 0.0, atol=1e-6)


def test_global_phase_invariance():
    snap = _random_snapshot(3)
    rotated = snap * np.exp(1j * 1.2345)
    a = aoa_features(snap, FS)
    b = aoa_features(rotated, FS)
    keep = [i for i in range(N_AOA_FEATURES) if i != ZCR_INDEX]
    np.testing.assert_allclose(a[:, keep], b[:, keep], rtol=1e-9, atol=1e-12)


def test_phase_difference_features_are_invariant_tightly():
    snap = _random_snapshot(4)
    for theta in (0.3, 1.7, 3.0):
        b = aoa_features(snap * np.exp(1j * theta), FS)
        a = aoa_features(snap, FS)
        np.testing.assert_allclose(a[:, 19:22], b[:, 19:22], rtol=1e-9, atol=1e-9)


def test_zero_energy_channel_flagged_and_zeroed(caplog):
    snap = _random_snapshot(5)
    snap[2] = 0.0
    with caplog.at_level(logging.WARNING, logger="jamloc.dsp.aoa"):
        feats = aoa_features(snap, FS)
    assert "zero-energy" in caplog.text
    np.testing.assert_array_equal(feats[2, 6:12], 0.0)   # spectral block
    np.testing.assert_array_equal(feats[2, 15:19], 0.0)  # envelope block
    assert np.all(np.isfinite(feats))


@pytest.mark.parametrize("shape", [(3, 4, 1), (4, 1), (2, 4, 0)])
def test_fewer_than_two_samples_rejected_naming_n(shape):
    # with N = 1, zcr_i and if_diff_mean averaged no neighbour pairs: NaN;
    # N < 2 is outside the (4, 1024) contract, and the error's shape ends in N
    with pytest.raises(ValueError, match=rf"^aoa_features expects .*, got {re.escape(str(shape))}$"):
        aoa_features(np.ones(shape, dtype=complex), FS)


def test_wrong_channel_count_rejected():
    with pytest.raises(ValueError):
        aoa_features(np.zeros((3, N), dtype=complex), FS)


def test_standardization_and_constant_feature_handling():
    batch = np.stack([_random_snapshot(i) for i in range(16)])
    feats = aoa_features(batch, FS)
    mean, std = fit_aoa_stats(feats)
    assert np.all(std > 0)  # constant features mapped to std 1
    norm = NormalizationSpec(aoa_mean=mean, aoa_std=std)
    z = standardize_aoa(feats, norm)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-9)
    # patch-0 phase features are constant zero -> standardized to exactly 0
    np.testing.assert_array_equal(z[:, 0, 19:22], 0.0)
