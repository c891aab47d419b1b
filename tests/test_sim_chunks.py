"""The chunked simulation against the per-pose, per-path loop in
``_oracles`` (path kinds, order and gains bitwise; distances and directions
to 1e-12; samples to 1e-12 of the snapshot peak), its independence of the
chunk size, and the sigsim calls the benchmark makes."""

import numpy as np
import pytest

from jamloc import sigsim
from jamloc.sigsim import dataset, scene

from _oracles import paths_ref, propagate_ref

GEOMETRY = sigsim.ArrayGeometry()
TOL = 1e-12


@pytest.fixture(scope="module")
def desk():
    return sigsim.scenario_configs("desk")


def _poses(cfg):
    return sigsim.gen_trajectory(cfg.trajectory_kind, cfg.trajectory_params, cfg.heights)


def _antenna(cfg):
    return np.asarray(cfg.scene.antenna_position, dtype=np.float64)


def _stream(cfg, seed, index, pose):
    """Jittered pose, waveform, profile and generator of one pose, drawing
    the pose's stream in the documented order up to its noise, which is the
    generator's next draw."""
    rng = np.random.default_rng([seed, cfg.seed_channel, index])
    pose = pose.copy()
    if cfg.pose_jitter_m > 0:
        pose[:2] += rng.uniform(-cfg.pose_jitter_m, cfg.pose_jitter_m, size=2)
    prof = cfg.profiles[index % len(cfg.profiles)]
    wf = sigsim.gen_baseband(prof, cfg.scene.snapshot_len, cfg.scene.sample_rate, rng)
    return pose, wf * 10.0 ** (prof.power_dbm / 20.0), prof, rng


def _replay(cfg, seed, index, pose):
    """Samples and jittered pose of one pose, by the oracle."""
    pose, wf, prof, rng = _stream(cfg, seed, index, pose)
    return propagate_ref(cfg.scene, GEOMETRY, pose, wf, rng), pose, prof


def _assert_close_to_peak(got, want):
    peak = np.abs(want).max()
    assert np.abs(got - want).max() <= TOL * peak


def _assert_matches_replay(cfg, seed, indices):
    poses = _poses(cfg)
    snaps = dataset._simulate(cfg, GEOMETRY, seed, poses, indices)
    assert len(snaps) == len(indices)
    for i, snap in zip(indices, snaps):
        want, pose, prof = _replay(cfg, seed, i, poses[i])
        label = sigsim.Label.from_displacement(pose - _antenna(cfg), prof.class_id,
                                               prof.subclass_id)
        _assert_close_to_peak(snap.samples, want)
        assert snap.label == label


@pytest.mark.parametrize("key", sigsim.DATASET_KEYS)
def test_paths_match_oracle_on_every_desk_pose(desk, key):
    cfg = desk[key]
    poses, antenna = _poses(cfg), _antenna(cfg)
    arrays = scene._path_arrays(cfg.scene, antenna, poses)
    for i, pose in enumerate(poses):
        ref = paths_ref(cfg.scene, antenna, pose)
        cols = np.flatnonzero(arrays.valid[i])
        kinds = ["direct"] + [f"reflect:{c - 1}" for c in cols[1:]]
        assert cols[0] == 0 and kinds == [r[0] for r in ref]
        for c, (_, dist, gain, direction) in zip(cols, ref):
            assert arrays.gain[i, c] == gain
            assert abs(arrays.distance[i, c] - dist) <= TOL
            assert np.abs(arrays.direction[i, c] - direction).max() <= TOL
    for pose in poses[::97]:        # the P = 1 call gives the same paths
        got = sigsim.compute_paths(cfg.scene, antenna, pose)
        ref = paths_ref(cfg.scene, antenna, pose)
        assert [(p.kind, p.gain) for p in got] == [(r[0], r[2]) for r in ref]


def test_paths_match_oracle_with_slanted_walls_of_mixed_loss():
    # distinct crossing factors, so a product out of wall order shows
    walls = [sigsim.WallSegment(-4.0, 7.0, 4.0, 8.2, 7.3, 0.3),
             sigsim.WallSegment(-6.0, 9.1, 5.0, 8.7, 11.9, 0.45),
             sigsim.WallSegment(-3.0, 10.5, 3.5, 10.0, 13.1, 0.0),
             sigsim.WallSegment(7.0, 4.0, 7.5, 20.0, 5.5, 0.8)]
    cfg = sigsim.SimConfig(scene=sigsim.base_scene(walls))
    rng = np.random.default_rng(3)
    poses = np.column_stack([rng.uniform(-9.5, 9.5, 600), rng.uniform(0.5, 29.5, 600),
                             rng.uniform(0.5, 7.5, 600)])
    antenna = _antenna(cfg)
    arrays = scene._path_arrays(cfg.scene, antenna, poses)
    crossings = 0
    for i, pose in enumerate(poses):
        ref = paths_ref(cfg.scene, antenna, pose)
        cols = np.flatnonzero(arrays.valid[i])
        assert ["direct"] + [f"reflect:{c - 1}" for c in cols[1:]] == [r[0] for r in ref]
        assert [arrays.gain[i, c] for c in cols] == [r[2] for r in ref]
        crossings += sum(r[2] not in (1.0, 0.35, 0.3, 0.45, 0.8) for r in ref)
    assert crossings > 100


@pytest.mark.parametrize("key", sigsim.DATASET_KEYS)
def test_samples_match_oracle_on_desk_subsample(desk, key):
    cfg = desk[key]
    _assert_matches_replay(cfg, 5, list(range(0, len(_poses(cfg)), 41)))


@pytest.mark.parametrize("key", ["random_test", "wall2"])
def test_propagate_is_the_chunk_path_of_one_pose(desk, key):
    # with pose i's stream, propagate returns make_dataset's snapshot i
    # bitwise: no walls and three walls
    cfg = desk[key]
    poses, snaps = _poses(cfg), sigsim.make_dataset(cfg, GEOMETRY, 5)
    for i in range(0, len(poses), 37):
        pose, wf, prof, rng = _stream(cfg, 5, i, poses[i])
        got = sigsim.propagate(cfg.scene, GEOMETRY, pose, wf, rng, class_id=prof.class_id,
                               subclass_id=prof.subclass_id, scenario_tag=cfg.scenario_tag)
        assert got.samples.tobytes() == snaps[i].samples.tobytes()
        assert got.label == snaps[i].label and got.scenario_tag == snaps[i].scenario_tag


def _small(points=3):
    return sigsim.SimConfig(
        scene=sigsim.base_scene(sigsim.scenario_configs("desk")["wall3"].scene.wall_segments),
        trajectory_kind="circles",
        trajectory_params={"center": (0.0, 16.0), "radii": (4.0, 6.0), "points_per_circle": points},
        heights=(4.4,), profiles=sigsim.desk_profiles()[::5],
        pose_jitter_m=0.1, seed_channel=3)


def test_noise_free_scene_matches_oracle():
    cfg = _small()
    cfg.scene.noise_floor_dbm = None
    _assert_matches_replay(cfg, 12, list(range(6)))


def test_path_delayed_past_the_snapshot_is_dropped():
    # 8-sample waveforms (3 m a sample at 100 MHz): _synthesize takes the
    # snapshot length from them, so some bounces land inside and some past it
    cfg = _small()
    cfg.scene.noise_floor_dbm = None
    poses, antenna = _poses(cfg), _antenna(cfg)
    arrays = scene._path_arrays(cfg.scene, antenna, poses)
    delay = (arrays.distance - arrays.distance[:, :1]) / sigsim.C_LIGHT * cfg.scene.sample_rate
    assert np.any(arrays.valid & (np.rint(delay) >= 8)) and np.any(arrays.valid & (delay > 0.5)
                                                                    & (np.rint(delay) < 8))
    rng = np.random.default_rng(13)
    waveforms = rng.normal(size=(len(poses), 8)) + 1j * rng.normal(size=(len(poses), 8))
    got = scene._synthesize(cfg.scene, GEOMETRY, arrays, waveforms, None)
    for x, pose, wf in zip(got, poses, waveforms):
        _assert_close_to_peak(x, propagate_ref(cfg.scene, GEOMETRY, pose, wf, None))


def test_output_is_bitwise_the_same_for_any_chunk_size(monkeypatch):
    cfg = _small(points=35)                     # 70 poses: more than one default chunk
    ref = sigsim.make_dataset(cfg, GEOMETRY, 21)
    assert len(ref) > dataset._CHUNK
    runs = []
    for chunk in (1, 5):
        monkeypatch.setattr(dataset, "_CHUNK", chunk)
        runs.append(sigsim.make_dataset(cfg, GEOMETRY, 21))
    for run in runs:
        assert len(run) == len(ref)
        for s, t in zip(ref, run):
            assert s.samples.tobytes() == t.samples.tobytes()
            assert s.label == t.label


def test_output_is_bitwise_the_same_for_any_worker_count(map_jobs, at_worker_counts,
                                                         monkeypatch):
    # 100 poses, 7 chunks of 16 at every run count, split in one, two or
    # three runs
    cfg = _small(points=50)
    chunks, simulate = [], dataset._simulate

    def spy(cfg, geometry, seed, poses, indices):
        chunks.append((indices.start, indices.stop))
        return simulate(cfg, geometry, seed, poses, indices)
    monkeypatch.setattr(dataset, "_simulate", spy)

    def call():
        chunks.clear()
        return sigsim.make_dataset(cfg, GEOMETRY, 21), sorted(chunks)
    outs, spans = zip(*at_worker_counts(call))
    assert map_jobs == [1, 2, 3]
    assert spans[0] == [(s, min(s + 16, 100)) for s in range(0, 100, 16)]
    assert all(s == spans[0] for s in spans[1:])
    for out in outs[1:]:
        assert len(out) == len(outs[0]) == 100
        for s, t in zip(outs[0], out):
            assert s.samples.tobytes() == t.samples.tobytes()
            assert s.label == t.label


def test_bench_sim_calls(desk):
    # the calls perfbench/pipeline.py and perfbench/layers.py make into sigsim
    cfg = desk["wall2"]
    snaps = sigsim.make_dataset(cfg, GEOMETRY, 5, jobs=1)
    poses, antenna = _poses(cfg), _antenna(cfg)
    assert len(snaps) == len(poses)
    for s in snaps[::50]:
        assert s.samples.shape == (4, 1024) and s.samples.dtype == np.complex128
        assert np.all(np.isfinite(s.samples)) and s.scenario_tag == "Wall 2"
    surfaces = len(cfg.scene.ambient_reflectors) + len(cfg.scene.wall_segments)
    counts = [len(sigsim.compute_paths(cfg.scene, antenna, pose)) for pose in poses[::20]]
    assert all(1 <= c <= 1 + surfaces for c in counts) and max(counts) > 1
    rng = np.random.default_rng(5)
    wf = sigsim.gen_baseband(sigsim.desk_profiles()[-1], 1024, cfg.scene.sample_rate, rng)
    snap = sigsim.propagate(cfg.scene, GEOMETRY, poses[7], wf, rng)
    assert snap.samples.shape == (4, 1024) and snap.samples.dtype == np.complex128
    assert np.all(np.isfinite(snap.samples))
