import numpy as np
import pytest

from jamloc.dsp import (SPEC_DB_MAX, SPEC_DB_MIN, STFT_HOP, STFT_WINDOW,
                        NormalizationSpec, cfo_accumulated, db_to_unit,
                        fit_iq_stats, normalize_iq, spectrogram,
                        standardize_aoa, stft)

from _oracles import naive_dft

FS = 1e8
N = 1024


def _tone(freq_hz, n=N, fs=FS, amp=1.0, phase=0.0):
    t = np.arange(n) / fs
    return amp * np.exp(1j * (2 * np.pi * freq_hz * t + phase))


# ----------------------------------------------------------------------
# spectrogram
# ----------------------------------------------------------------------

def test_db_normalization_constants_map_to_unit_interval():
    db = np.array([SPEC_DB_MIN, SPEC_DB_MAX])
    np.testing.assert_array_equal(db_to_unit(db), [0.0, 1.0])


def test_db_below_min_clamps_to_zero():
    assert db_to_unit(np.array([-250.0]))[0] == 0.0
    assert db_to_unit(np.array([5.0]))[0] == 1.0


def test_spectrogram_shape_and_range():
    rng = np.random.default_rng(0)
    snap = rng.normal(size=(4, N)) + 1j * rng.normal(size=(4, N))
    spec = spectrogram(snap)
    assert spec.shape == (4, 32, 32)
    assert spec.min() >= 0.0 and spec.max() <= 1.0


def test_spectrogram_single_tone_cell():
    # exact-bin tone at unshifted bin b lands at shifted position (b + 512) % 1024
    b = 100
    snap = np.tile(_tone(b * FS / N), (4, 1))
    spec = spectrogram(snap)
    p = (b + N // 2) % N
    row, col = p // 32, p % 32
    hot = spec[0] > 0.5
    assert hot.sum() == 1
    assert hot[row, col]


def test_spectrogram_reshape_round_trips():
    rng = np.random.default_rng(1)
    snap = rng.normal(size=(4, N)) + 1j * rng.normal(size=(4, N))
    spec = spectrogram(snap)
    flat = spec.reshape(4, 1024)
    np.testing.assert_array_equal(flat.reshape(4, 32, 32), spec)


def test_spectrogram_batch_matches_single():
    rng = np.random.default_rng(2)
    batch = rng.normal(size=(3, 4, N)) + 1j * rng.normal(size=(3, 4, N))
    full = spectrogram(batch)
    for i in range(3):
        np.testing.assert_allclose(full[i], spectrogram(batch[i]), atol=1e-12)


def test_spectrogram_rejects_wrong_length():
    with pytest.raises(ValueError):
        spectrogram(np.zeros((4, 512), dtype=complex))


def test_spectrogram_matches_naive_dft_oracle():
    # noise near -100 dB per bin plus a -30 dB tone: inside the clamp bounds,
    # so the comparison is not flattened to 0 or 1
    rng = np.random.default_rng(7)
    x = 1e-5 * (rng.normal(size=(2, 4, N)) + 1j * rng.normal(size=(2, 4, N))) + 1e-3 * _tone(13e6)
    db = 10 * np.log10(np.abs(naive_dft(x)) ** 2 / N + 1e-20)
    unit = (np.clip(db, SPEC_DB_MIN, SPEC_DB_MAX) - SPEC_DB_MIN) / (SPEC_DB_MAX - SPEC_DB_MIN)
    ref = np.roll(unit, N // 2, axis=-1).reshape(2, 4, 32, 32)
    assert 0 < ref.min() and ref.max() < 1
    np.testing.assert_allclose(spectrogram(x), ref, rtol=0, atol=1e-9)


# ----------------------------------------------------------------------
# stft
# ----------------------------------------------------------------------

def test_stft_default_geometry():
    assert stft(np.zeros((4, N), dtype=complex)).shape == (4, 128, 15)
    assert stft(np.zeros((3, 4, N), dtype=complex)).shape == (3, 4, 128, 15)


def test_stft_constant_signal_energy_confined_to_dc_lobe():
    # Hann-windowed constant: all energy in the DC bin and its two lobe
    # neighbors, nothing anywhere else
    out = stft(np.ones((4, N), dtype=complex))
    assert np.all(out[:, 0] > 0)
    assert np.all(out[:, 0] > 1.9 * out[:, 1])              # DC row dominates
    assert np.all(out[:, 2:127] < out[:, :1] * 1e-10)       # outside the main lobe: zero


def test_stft_chirp_argmax_monotone():
    # wide linear sweep: signed argmax frequency must rise strictly per frame
    b = 60e6
    t = np.arange(N) / FS
    dur = N / FS
    x = np.exp(1j * 2 * np.pi * (-b / 2 * t + b / (2 * dur) * t ** 2))
    mag = stft(np.tile(x, (4, 1)))
    signed = (np.argmax(mag, axis=-2) + 64) % 128 - 64      # (4 patches, 15 frames)
    assert np.all(np.diff(signed, axis=-1) > 0)


def test_stft_matches_naive_dft_oracle():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 4, N)) + 1j * rng.normal(size=(2, 4, N))
    window, hop = STFT_WINDOW, STFT_HOP
    hann = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(window) / window)
    n_frames = 1 + (N - window) // hop
    ref = np.stack([np.abs(naive_dft(x[..., f * hop: f * hop + window] * hann))
                    for f in range(n_frames)], axis=-1)
    out = stft(x)
    assert out.shape == (2, 4, 128, 15)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-9)


# ----------------------------------------------------------------------
# accumulated carrier frequency offset
# ----------------------------------------------------------------------

def test_cfo_tone_is_linear_ramp():
    f = 3.2e6
    c = cfo_accumulated(np.tile(_tone(f), (4, 1)))
    n = np.arange(N)
    np.testing.assert_allclose(c, np.tile(2 * np.pi * f * n / FS, (4, 1)), rtol=1e-9, atol=1e-9)
    slope = (c[:, -1] - c[:, 0]) / (N - 1)
    assert np.all(np.abs(slope * FS / (2 * np.pi) - f) / f < 1e-6)


def test_cfo_real_constant_is_zero():
    np.testing.assert_array_equal(cfo_accumulated(np.full((2, 4, N), 2.0 + 0j)), np.zeros((2, 4, N)))


def test_cfo_conjugate_negates():
    rng = np.random.default_rng(4)
    x = np.tile(rng.normal(size=N) + 1j * rng.normal(size=N), (4, 1))
    np.testing.assert_allclose(cfo_accumulated(np.conj(x)), -cfo_accumulated(x), atol=1e-12)


def test_cfo_zero_magnitude_increment_is_zero():
    x = np.full(N, 1.0 + 1j)
    x[:2] = [1.0 + 0j, 0.0]
    c = cfo_accumulated(np.tile(x, (4, 1)))
    assert np.all(c[:, 1] == 0.0) and np.all(c[:, 2] == 0.0)


# ----------------------------------------------------------------------
# IQ standardization
# ----------------------------------------------------------------------

def test_iq_standardization_identity_on_fit_split():
    rng = np.random.default_rng(5)
    batch = rng.normal(size=(50, 4, N)) + 1j * rng.normal(size=(50, 4, N))
    mean, std = fit_iq_stats(batch)
    norm = NormalizationSpec(iq_mean=mean, iq_std=std)
    z = normalize_iq(batch, norm)
    assert z.shape == (50, 8, N)
    np.testing.assert_allclose(z.mean(axis=(0, 2)), 0.0, atol=1e-9)
    np.testing.assert_allclose(z.std(axis=(0, 2)), 1.0, atol=1e-9)


def test_iq_fit_rejects_constant_channel():
    batch = np.ones((10, 4, N), dtype=complex)
    batch += 1j  # imaginary part constant too
    with pytest.raises(ValueError):
        fit_iq_stats(batch)


def test_normalize_requires_fitted_stats():
    with pytest.raises(ValueError):
        normalize_iq(np.zeros((4, N), dtype=complex), NormalizationSpec())


def test_train_stats_apply_to_held_out_data():
    rng = np.random.default_rng(6)
    train = rng.normal(size=(20, 4, N)) + 1j * rng.normal(size=(20, 4, N))
    test = rng.normal(size=(5, 4, N)) + 1j * rng.normal(size=(5, 4, N))
    mean, std = fit_iq_stats(train)
    norm = NormalizationSpec(iq_mean=mean, iq_std=std)
    z = normalize_iq(test, norm)
    assert z.shape == (5, 8, N)


def test_normalization_spec_round_trips_through_dict():
    mean = np.arange(8.0)
    std = np.ones(8)
    norm = NormalizationSpec(iq_mean=mean, iq_std=std)
    d = norm.to_dict()
    assert set(d) == {"iq_mean", "iq_std", "aoa_mean", "aoa_std"}
    again = NormalizationSpec.from_dict(d)
    np.testing.assert_array_equal(again.iq_mean, mean)
    np.testing.assert_array_equal(again.iq_std, std)
    assert again.aoa_mean is None and again.aoa_std is None


def test_normalization_spec_loads_a_block_with_the_old_clamp_bounds():
    # blocks written before the clamp became a constant carry spec_min and
    # spec_max; they were never applied, and loading ignores them
    mean, std = np.arange(8.0), np.ones(8)
    d = {"spec_min": -100.0, "spec_max": -50.0, "iq_mean": mean.tolist(),
         "iq_std": std.tolist(), "aoa_mean": None, "aoa_std": None}
    again = NormalizationSpec.from_dict(d)
    np.testing.assert_array_equal(again.iq_mean, mean)
    np.testing.assert_array_equal(again.iq_std, std)
    assert again.to_dict() == NormalizationSpec(iq_mean=mean, iq_std=std).to_dict()


@pytest.mark.parametrize("kwargs,field", [
    ({"aoa_std": np.ones((4, 21))}, "aoa_std must have shape"),
    ({"iq_std": np.r_[np.ones(7), np.inf]}, "iq_std holds non-finite"),
    ({"aoa_mean": np.full((4, 22), np.nan)}, "aoa_mean holds non-finite"),
    ({"iq_mean": np.zeros(7)}, "iq_mean must have shape"),
    ({"iq_std": np.ones((8, 1))}, "iq_std must have shape"),
    ({"aoa_mean": np.zeros((22, 4))}, "aoa_mean must have shape"),
    ({"iq_std": np.r_[np.ones(7), 0.0]}, "iq_std must be positive"),
    ({"aoa_std": -np.ones((4, 22))}, "aoa_std must be positive"),
    ({"iq_mean": np.r_[np.zeros(7), np.nan]}, "iq_mean holds non-finite"),
    ({"aoa_std": np.full((4, 22), np.inf)}, "aoa_std holds non-finite"),
])
def test_normalization_spec_rejects_broken_statistics(kwargs, field):
    with pytest.raises(ValueError, match=field):
        NormalizationSpec(**kwargs)


def test_normalization_spec_from_dict_names_missing_key():
    d = NormalizationSpec().to_dict()
    del d["iq_std"]
    with pytest.raises(ValueError, match=r"lacks key\(s\) \['iq_std'\]"):
        NormalizationSpec.from_dict(d)


@pytest.mark.parametrize("field,value,match", [
    ("iq_std", np.ones(7), r"iq_std must have shape \(8,\)"),
    ("iq_mean", np.ones((8, 1)), r"iq_mean must have shape \(8,\)"),
    ("iq_std", np.zeros(8), "iq_std must be positive"),
    ("iq_mean", np.full(8, np.nan), "iq_mean holds non-finite"),
    ("aoa_std", np.zeros((4, 22)), "aoa_std must be positive"),
    ("aoa_mean", np.zeros((22, 4)), r"aoa_mean must have shape \(4, 22\)"),
    ("aoa_std", np.full((4, 22), np.inf), "aoa_std holds non-finite"),
], ids=["iq_std-shape", "iq_mean-shape", "iq_std-zero", "iq_mean-nan", "aoa_std-zero",
        "aoa_mean-shape", "aoa_std-inf"])
def test_statistics_assigned_after_construction_are_checked_where_applied(field, value, match):
    # the benchmark glue builds an empty spec and assigns fitted statistics
    norm = NormalizationSpec(iq_mean=np.zeros(8), iq_std=np.ones(8),
                             aoa_mean=np.zeros((4, 22)), aoa_std=np.ones((4, 22)))
    setattr(norm, field, value)
    apply = {"iq": lambda: normalize_iq(np.ones((2, 4, N), dtype=complex), norm),
             "aoa": lambda: standardize_aoa(np.ones((2, 4, 22)), norm)}[field.split("_")[0]]
    with pytest.raises(ValueError, match=f"NormalizationSpec.{match}"):
        apply()
