"""The data path, sim -> features -> normalization statistics, against one
committed golden, ``golden_pipeline.npz``.

Each of the 8 desk keys is simulated whole at seed 7 with ``make_dataset``.
Its label digest, the one ``perfbench/checks.py`` takes, must equal the
key's entry in ``perfbench/labels_ref.json``. The test keeps the poses
``_poses(n)``: the first 32, then every 50th. From those it computes the
samples, the five extractors' outputs, and ``fit_iq_stats`` and
``fit_aoa_stats``.

For each of these arrays the golden holds its layout, its sha256 and a
sketch: its dot products with 8 seeded Gaussian vectors (Freivalds, "Fast
probabilistic algorithms", MFCS 1979). The labels of the kept poses are
stored exactly.

Where ``_host()`` matches the capturing host, every array must match its
sha256 and the labels must match bit for bit. The bits also depend on
numpy's SIMD loops and on the BLAS kernel, so a matching numpy version
alone is not enough. On any other host, each sketch must match to 1e-12 of
the array's norm, and the labels to rtol 1e-12.

Run this file to rewrite the golden. Do that only when a change is meant to
change the data path's bits, and say why in ``CHANGES.md``.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from jamloc import dsp, sigsim

GOLDEN = Path(__file__).with_name("golden_pipeline.npz")
LABELS_REF = Path(__file__).parents[1] / "perfbench" / "labels_ref.json"
SEED = 7
SKETCH_SEED = 2507_14167
SKETCH_RTOL = 1e-12
NAMES = ("samples", "spectrogram", "stft", "cfo_accumulated", "normalize_iq", "aoa_features",
         "iq_mean", "iq_std", "aoa_mean", "aoa_std")


def _host() -> str:
    """What fixes the data path's bits besides the code: numpy's version, the
    SIMD targets its loops dispatch to, and the BLAS build and kernel."""
    config = np.show_config(mode="dicts")
    simd = config.get("SIMD Extensions", {}).get("found", [])
    blas = config.get("Build Dependencies", {}).get("blas", {})
    kernel = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    return f"numpy {np.__version__}; {platform.machine()}; SIMD {' '.join(simd)}; BLAS {kernel}"


def _poses(n: int) -> np.ndarray:
    return np.r_[:min(32, n), 50:n:50]


def _label_digest(snaps) -> str:
    # perfbench/checks.py label_digest: the seed-independent label fields
    fields = [[s.label.class_id, s.label.subclass_id, s.scenario_tag, round(s.label.dz, 9)]
              for s in snaps]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()


def _data_path(key: str) -> tuple[dict, np.ndarray, dict[str, np.ndarray]]:
    """The key's label reference entry (count and digest), the exact labels
    of its kept poses (M, 7) and its arrays by ``NAMES``."""
    snaps = sigsim.make_dataset(sigsim.scenario_configs("desk")[key], sigsim.ArrayGeometry(), SEED)
    ref = {"count": len(snaps), "digest": _label_digest(snaps)}
    kept = [snaps[i] for i in _poses(len(snaps))]
    labels = np.array([[s.label.dx, s.label.dy, s.label.dz, s.label.alpha_deg, s.label.beta_deg,
                        s.label.class_id, s.label.subclass_id] for s in kept])
    x = np.stack([s.samples for s in kept])
    del snaps, kept
    iq_mean, iq_std = dsp.fit_iq_stats(x)
    aoa = dsp.aoa_features(x, sigsim.SceneConfig.sample_rate)
    aoa_mean, aoa_std = dsp.fit_aoa_stats(aoa)
    norm = dsp.NormalizationSpec(iq_mean=iq_mean, iq_std=iq_std)
    arrays = [x, dsp.spectrogram(x), dsp.stft(x), dsp.cfo_accumulated(x), dsp.normalize_iq(x, norm),
              aoa, iq_mean, iq_std, aoa_mean, aoa_std]
    return ref, labels, dict(zip(NAMES, arrays))


def _flat(a: np.ndarray) -> np.ndarray:
    """A float64 or complex128 array as its float64 values, real and
    imaginary parts interleaved."""
    return np.ascontiguousarray(a).reshape(-1).view(np.float64)


def _sketches(arrays: dict) -> np.ndarray:
    """(len(NAMES), 8): each array's dot products with the first ``size``
    rows of one seeded (rows, 8) Gaussian draw."""
    flats = [_flat(arrays[name]) for name in NAMES]
    vectors = np.random.default_rng(SKETCH_SEED).normal(size=(max(f.size for f in flats), 8))
    return np.stack([f @ vectors[:f.size] for f in flats])


def _layout(a: np.ndarray) -> str:
    return f"{a.dtype}{a.shape}"


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def capture() -> None:
    out = {"host": np.array(_host())}
    for key in sigsim.DATASET_KEYS:
        _, labels, arrays = _data_path(key)
        out[f"{key}_labels"] = labels
        out[f"{key}_layout"] = np.array([_layout(arrays[n]) for n in NAMES])
        out[f"{key}_sha256"] = np.array([_sha256(arrays[n]) for n in NAMES])
        out[f"{key}_sketch"] = _sketches(arrays)
    np.savez_compressed(GOLDEN, **out)


def test_golden_is_small():
    assert GOLDEN.stat().st_size <= 200_000


@pytest.mark.parametrize("key", sigsim.DATASET_KEYS)
def test_data_path_matches_golden(key):
    with np.load(GOLDEN) as npz:
        golden = {name: npz[f"{key}_{name}"] for name in ("labels", "layout", "sha256", "sketch")}
        same_host = str(npz["host"]) == _host()
    ref, labels, arrays = _data_path(key)
    assert ref == json.loads(LABELS_REF.read_text())["desk"][key]
    assert [_layout(arrays[n]) for n in NAMES] == golden["layout"].tolist()
    if same_host:
        assert labels.tobytes() == golden["labels"].tobytes()
        for name, want in zip(NAMES, golden["sha256"]):
            assert _sha256(arrays[name]) == want, f"{key} {name}"
    else:
        np.testing.assert_allclose(labels, golden["labels"], rtol=SKETCH_RTOL, atol=0)
        for name, got, want in zip(NAMES, _sketches(arrays), golden["sketch"]):
            tol = SKETCH_RTOL * np.linalg.norm(_flat(arrays[name]))
            np.testing.assert_allclose(got, want, rtol=0, atol=tol, err_msg=f"{key} {name}")


if __name__ == "__main__":
    capture()
