"""The dsp extractors against the direct formulas in ``_oracles`` on
simulated desk chunks and on edge inputs, bitwise except where the phase
increment enters (within the bounds stated below); plus the calls the
benchmark's featurize glue makes."""

import logging
import re
import tracemalloc

import numpy as np
import pytest

from jamloc import _workers, dsp, sigsim
from jamloc.dsp import features

from _oracles import (aoa_band_phase_ref, cfo_ref, iq_stats_ref, phase_increments_ref,
                      stft_gather_ref)

FS = 1e8
# the library forms the phase increment from float views, the oracle from
# numpy's complex product; they may differ by this much per increment
INC_TOL = 1e-15
EPS = np.finfo(np.float64).eps
KEYS = ("wall2", "meander")     # a wall and the meander: different layouts and paths


@pytest.fixture(scope="module")
def desk_full():
    """Every snapshot of two desk keys (seed 5), as (M, 4, 1024) each."""
    cfgs = sigsim.scenario_configs("desk")
    return {key: np.stack([s.samples for s in sigsim.make_dataset(
        cfgs[key], sigsim.ArrayGeometry(), 5, jobs=1)]) for key in KEYS}


@pytest.fixture(scope="module")
def desk(desk_full):
    """The first 64 snapshots of each desk key, as (64, 4, 1024)."""
    return {key: x[:64] for key, x in desk_full.items()}


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


def test_phase_increments_match_the_complex_product(desk):
    for name, x in _chunks(desk).items():
        inc, ref = features._phase_increments(x), phase_increments_ref(x)
        assert inc.dtype == ref.dtype and inc.shape == ref.shape, name
        assert np.all(np.abs(inc - ref) <= INC_TOL), name
        assert np.array_equal(inc == 0, ref == 0), name     # the zero guard


def test_cfo_equals_where_guard(desk):
    # sample k sums k increments, INC_TOL each, and the two cumsums may round
    # their running sum apart by about one unit in its last place; on these
    # chunks the gap reaches 0.47 of k*INC_TOL (1.1e-13 rad at peaks of
    # 440-880 rad) and 0.37 of this bound
    for name, x in _chunks(desk).items():
        cfo, ref = dsp.cfo_accumulated(x), cfo_ref(x)
        assert cfo.dtype == ref.dtype and cfo.shape == ref.shape, name
        k = np.arange(x.shape[-1])
        assert np.all(np.abs(cfo - ref) <= k * INC_TOL + EPS * np.abs(ref)), name


def test_aoa_band_and_phase_columns_equal_direct_formulas(desk):
    # column 21 is a difference of two mean increments in Hz: INC_TOL each,
    # times fs / 2 pi, plus two roundings of the column's peak
    for name, x in _chunks(desk).items():
        feats = dsp.aoa_features(x, FS)
        for col, ref in aoa_band_phase_ref(x, FS).items():
            if col != 21:
                assert _equal(feats[..., col], ref), (name, col)
                continue
            tol = 2 * INC_TOL * FS / (2 * np.pi) + 2 * EPS * np.abs(ref).max()
            assert np.all(np.abs(feats[..., col] - ref) <= tol), (name, col)


def test_aoa_dead_patch_has_no_phase_or_band_terms(desk):
    x = _edge_chunks(desk["wall2"])["dead_patch"]
    feats = dsp.aoa_features(x, FS)
    assert np.all(feats[2:5, 3, 14] == 0.0)
    # no live phase difference: circular mean 0, std 0
    assert np.all(feats[2:5, 3, 19:21] == 0.0)


@pytest.mark.parametrize("rows", [1, features._BLOCK, features._BLOCK + 3, 3 * features._BLOCK + 5])
def test_fit_iq_stats_equals_stacked_planes(desk, rows):
    # rows not a multiple of the block: the last block is short
    x = np.concatenate([desk["wall2"], desk["meander"]])[:rows]
    mean, std = dsp.fit_iq_stats(x)
    ref_mean, ref_std = iq_stats_ref(x)
    assert _equal(mean, ref_mean) and _equal(std, ref_std)


def test_fit_iq_stats_memory_is_chunk_bounded(monkeypatch):
    # the stacked planes alone would be x.nbytes; the fit keeps a few
    # _BLOCK-sized temporaries, 1 MB each, over all its runs on as many
    # workers as a large host has
    monkeypatch.setattr(_workers, "_WORKERS", 8)
    x = np.random.default_rng(0).standard_normal((1024, 4, 2048)).view(np.complex128)
    tracemalloc.start()
    try:
        dsp.fit_iq_stats(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 16


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


def test_fit_iq_stats_rejects_empty_batch():
    with pytest.raises(ValueError, match=r"non-empty batch.*got \(0, 4, 1024\)"):
        dsp.fit_iq_stats(np.zeros((0, 4, 1024), dtype=complex))


def test_fit_aoa_stats_rejects_wrong_shape():
    # the empty batch gave numpy's "Mean of empty slice" RuntimeWarning
    for shape in ((5, 4, 21), (0, 4, 22), (4, 22)):
        with pytest.raises(ValueError, match=r"^fit_aoa_stats expects a non-empty batch of "
                                             rf"shape \(M, 4, 22\), got {re.escape(str(shape))}$"):
            dsp.fit_aoa_stats(np.ones(shape))


def test_aoa_features_rejects_non_positive_sample_rate():
    # fs = inf passed a `fs > 0` check and gave 22 non-finite entries
    for fs in (0.0, -FS, np.inf, np.nan):
        with pytest.raises(ValueError, match=rf"^aoa_features .*sample rate fs, got fs = {fs}$"):
            dsp.aoa_features(np.ones((4, 1024), dtype=complex), fs)


# ----------------------------------------------------------------------
# the contract, a (4, 1024) snapshot or an (M, 4, 1024) batch, and the
# blocking: the extractors run over blocks of 16 snapshots
# ----------------------------------------------------------------------

# one snapshot, one short of a block, a block, one past it, and many blocks
# with a remainder
SPLIT = (1, 15, 16, 17, 259)
EXTRACTORS = ("spectrogram", "stft", "normalize_iq", "cfo_accumulated", "aoa_features")
# shapes outside the (4, 1024) / (M, 4, 1024) contract: a short snapshot,
# three patches, one 1-D row, two leading axes, a batch one sample long, and
# a batch of three patches
BAD_SHAPES = [(4, 512), (3, 1024), (1024,), (2, 2, 4, 1024), (3, 4, 1), (2, 3, 1024)]


@pytest.fixture(scope="module")
def batch(desk_full):
    """sum(SPLIT) snapshots, the first half of them from each desk key."""
    return np.concatenate([x[:sum(SPLIT) // 2] for x in desk_full.values()])


def _extractor(name, x):
    """The dsp call ``name``; normalize_iq with IQ statistics fitted on x."""
    if name == "normalize_iq":
        mean, std = dsp.fit_iq_stats(x)
        norm = dsp.NormalizationSpec(iq_mean=mean, iq_std=std)
        return lambda v: dsp.normalize_iq(v, norm)
    if name == "aoa_features":
        return lambda v: dsp.aoa_features(v, FS)
    return getattr(dsp, name)


@pytest.mark.parametrize("shape", BAD_SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("name", EXTRACTORS + ("fit_iq_stats",))
def test_wrong_snapshot_shape_rejected(batch, name, shape):
    with pytest.raises(ValueError, match=rf"^{name} expects .*, got {re.escape(str(shape))}$"):
        _extractor(name, batch)(np.ones(shape, dtype=complex))


def test_snapshot_length_is_the_scene_snapshot_length():
    assert features._SNAPSHOT_LEN == sigsim.SceneConfig.snapshot_len


def _assert_same(name, whole, parts):
    """Bitwise, for every extractor."""
    assert whole.shape == parts.shape and whole.dtype == parts.dtype
    assert np.array_equal(whole, parts), name


@pytest.mark.parametrize("name", EXTRACTORS)
def test_extractors_do_not_depend_on_the_batch_split(batch, name):
    f = _extractor(name, batch)
    pieces = np.split(batch, np.cumsum(SPLIT)[:-1])
    _assert_same(name, f(batch), np.concatenate([f(p) for p in pieces]))


@pytest.mark.parametrize("name", EXTRACTORS + ("fit_iq_stats",))
def test_extractors_are_bitwise_equal_for_any_worker_count(batch, name, map_jobs,
                                                            at_worker_counts):
    # 259 snapshots: one run of 16-snapshot blocks on one worker, two runs of
    # 8-snapshot blocks on 2 or 8, and three of 5 with the cap raised to
    # three runs; each block writes its own rows of the output
    f = dsp.fit_iq_stats if name == "fit_iq_stats" else _extractor(name, batch)
    outs = [out if isinstance(out, tuple) else (out,) for out in at_worker_counts(lambda: f(batch))]
    assert map_jobs == [1, 2, 2, 3]
    for out in outs[1:]:
        for got, want in zip(out, outs[0]):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("name", EXTRACTORS)
def test_single_snapshot_and_empty_batch(batch, name):
    # a snapshot runs the block body as a batch of one, an empty batch runs
    # it directly
    f = _extractor(name, batch)
    one = f(batch[5])
    assert _equal(one, f(batch[5:6])[0]) and one.dtype == np.float64
    empty = f(batch[:0])
    assert empty.shape == (0,) + one.shape and empty.dtype == np.float64


@pytest.mark.parametrize("name", EXTRACTORS)
def test_extractor_memory_is_block_bounded(monkeypatch, name):
    # unblocked, the temporaries of one 256-snapshot chunk reach 24-126 MB;
    # on as many workers as a large host has, _BLOCK snapshots stay in
    # flight over all runs
    monkeypatch.setattr(_workers, "_WORKERS", 8)
    x = np.random.default_rng(0).standard_normal((256, 4, 2048)).view(np.complex128)
    f = _extractor(name, x)
    tracemalloc.start()
    try:
        out = f(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < x.nbytes


def test_aoa_warns_once_for_dead_channels_in_several_blocks(desk, caplog):
    x = desk["wall2"][:48].copy()               # three blocks
    dead = [(2, 1), (3, 1), (37, 3)]            # in the first and the third
    for snap, patch in dead:
        x[snap, patch] = 0.0
    with caplog.at_level(logging.WARNING, logger="jamloc.dsp.aoa"):
        feats = dsp.aoa_features(x, FS)
    assert [r.getMessage().split(";")[0] for r in caplog.records] == \
        ["aoa_features: 3 zero-energy channel(s)"]
    spectral_env = [6, 7, 8, 9, 10, 11, 13, 14, 15, 16, 17, 18]
    for snap, patch in dead:
        assert np.all(feats[snap, patch, spectral_env] == 0.0)
    assert np.all(np.isfinite(feats))


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
