"""The dsp extractors against the direct formulas in ``_oracles``, bitwise,
on simulated desk chunks and on edge inputs; plus the calls the benchmark's
featurize glue makes."""

import tracemalloc

import numpy as np
import pytest

from jamloc import dsp, sigsim
from jamloc.dsp import features

from _oracles import aoa_band_phase_ref, cfo_ref, iq_stats_ref, stft_gather_ref

FS = 1e8
KEYS = ("wall2", "meander")     # a wall and the meander: different layouts and paths


@pytest.fixture(scope="module")
def desk():
    """The first 64 snapshots of two desk keys (seed 5), as (64, 4, 1024)."""
    cfgs = sigsim.scenario_configs("desk")
    out = {}
    for key in KEYS:
        snaps = sigsim.make_dataset(cfgs[key], sigsim.ArrayGeometry(), 5, jobs=1)
        out[key] = np.stack([s.samples for s in snaps[:64]])
    return out


def _edge_chunks(x):
    """Edge inputs built from a desk chunk: a dead patch, isolated exact
    zeros (patch 0 included, so phase differences lose samples too), and a
    single snapshot."""
    dead = x[:8].copy()
    dead[2:5, 3] = 0.0
    holes = x[:8].copy()
    holes[:, :, ::37] = 0.0
    holes[1, 0, 100:140] = 0.0
    return {"dead_patch": dead, "zeros": holes, "one": x[:1]}


def _chunks(desk):
    out = dict(desk)
    out.update(_edge_chunks(desk["wall2"]))
    return out


def _equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def test_stft_equals_gather_framing(desk):
    for name, x in _chunks(desk).items():
        assert _equal(dsp.stft(x), stft_gather_ref(x)), name
    x = desk["meander"][:4]
    assert _equal(dsp.stft(x, window=64, hop=48), stft_gather_ref(x, 64, 48))


def test_cfo_equals_where_guard(desk):
    for name, x in _chunks(desk).items():
        assert _equal(dsp.cfo_accumulated(x), cfo_ref(x)), name


def test_aoa_band_and_phase_columns_equal_direct_formulas(desk):
    for name, x in _chunks(desk).items():
        feats = dsp.aoa_features(x, FS)
        for col, ref in aoa_band_phase_ref(x, FS).items():
            assert _equal(feats[..., col], ref), (name, col)


def test_aoa_dead_patch_has_no_phase_or_band_terms(desk):
    x = _edge_chunks(desk["wall2"])["dead_patch"]
    feats = dsp.aoa_features(x, FS)
    assert np.all(feats[2:5, 3, 14] == 0.0)
    # no live phase difference: circular mean 0, std 0
    assert np.all(feats[2:5, 3, 19:21] == 0.0)


@pytest.mark.parametrize("rows", [1, features._FIT_CHUNK, features._FIT_CHUNK + 3])
def test_fit_iq_stats_equals_stacked_planes(desk, rows):
    # rows not a multiple of the fit chunk: the last block is short
    x = np.concatenate([desk["wall2"], desk["meander"]] * 5)[:rows]
    mean, std = dsp.fit_iq_stats(x)
    ref_mean, ref_std = iq_stats_ref(x)
    assert _equal(mean, ref_mean) and _equal(std, ref_std)


def test_fit_iq_stats_memory_is_chunk_bounded():
    # the stacked planes alone would be x.nbytes; the fit keeps two blocks
    x = np.random.default_rng(0).standard_normal((1024, 4, 2048)).view(np.complex128)
    tracemalloc.start()
    try:
        dsp.fit_iq_stats(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_iq_stats_rejects_non_finite_sample(desk, bad):
    x = desk["wall2"].copy()
    x[7, 1, 300] = complex(x[7, 1, 300].real, bad)
    with pytest.raises(ValueError, match=r"fit_iq_stats.*not finite.*3 \(patch 1 Q\)$"):
        dsp.fit_iq_stats(x)


def test_fit_aoa_stats_rejects_non_finite_feature():
    feats = np.random.default_rng(1).normal(size=(20, 4, 22))
    feats[3, 2, 7] = np.nan
    with pytest.raises(ValueError, match=r"fit_aoa_stats.*not finite for patch 2 spec_spread$"):
        dsp.fit_aoa_stats(feats)


@pytest.mark.parametrize("call", [dsp.iq_planes, dsp.fit_iq_stats,
                                  lambda x: dsp.normalize_iq(x, dsp.NormalizationSpec(
                                      iq_mean=np.zeros(8), iq_std=np.ones(8)))],
                         ids=["iq_planes", "fit_iq_stats", "normalize_iq"])
def test_iq_calls_reject_three_patches(call):
    with pytest.raises(ValueError, match=r"\(.*4, N\), got \(2, 3, 1024\)"):
        call(np.zeros((2, 3, 1024), dtype=complex))


def test_fit_iq_stats_rejects_empty_batch():
    with pytest.raises(ValueError, match=r"non-empty batch.*got \(0, 4, 1024\)"):
        dsp.fit_iq_stats(np.zeros((0, 4, 1024), dtype=complex))


def test_fit_aoa_stats_rejects_wrong_shape():
    with pytest.raises(ValueError, match="fit_aoa_stats expects"):
        dsp.fit_aoa_stats(np.ones((5, 4, 21)))


def test_stft_rejects_zero_window():
    with pytest.raises(ValueError, match="window must be a positive power of two, got 0"):
        dsp.stft(np.zeros(1024, dtype=complex), window=0)


def test_aoa_features_rejects_non_positive_sample_rate():
    with pytest.raises(ValueError, match="sample rate"):
        dsp.aoa_features(np.ones((4, 64), dtype=complex), 0.0)


def test_bench_extract_calls(desk):
    # the calls perfbench/pipeline.py makes on a stacked (M, 4, 1024)
    # complex128 chunk: the IQ fit, every extractor, the AoA fit
    x = desk["wall2"]
    m = len(x)
    mean, std = dsp.fit_iq_stats(x)
    norm = dsp.NormalizationSpec(iq_mean=mean, iq_std=std)
    out = {"spec": dsp.spectrogram(x), "iq": dsp.normalize_iq(x, norm),
           "aoa": dsp.aoa_features(x, FS), "cfo": dsp.cfo_accumulated(x), "stft": dsp.stft(x)}
    shapes = {"spec": (m, 4, 32, 32), "iq": (m, 8, 1024), "aoa": (m, 4, 22),
              "cfo": (m, 4, 1024), "stft": (m, 4, 128, 15)}
    for name, v in out.items():
        assert v.shape == shapes[name] and v.dtype == np.float64, name
        assert np.all(np.isfinite(v)), name
    assert out["spec"].min() >= 0.0 and out["spec"].max() <= 1.0
    aoa_mean, aoa_std = dsp.fit_aoa_stats(out["aoa"])
    assert aoa_mean.shape == aoa_std.shape == (4, 22)
    assert np.all(np.isfinite(aoa_mean)) and np.all(aoa_std > 0)
    for stat in (mean, std):
        assert stat.shape == (8,) and stat.dtype == np.float64 and np.all(np.isfinite(stat))
