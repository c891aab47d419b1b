import re
from dataclasses import replace

import numpy as np
import pytest

from jamloc.sigsim import (ArrayGeometry, IQSnapshot, JammerClass, JammerProfile, Label,
                           Reflector, SceneConfig, SimConfig, WallSegment, angles_from_displacement,
                           compute_paths, gen_baseband, make_dataset, propagate,
                           scenario_configs)

FS = 1e8
N = 1024


def _profile(jclass=JammerClass.CHIRP, bw=20e6, power=0.0):
    return JammerProfile(jclass=jclass, subclass_id=0, bandwidth_hz=bw, power_dbm=power)


def _quiet_scene(walls=(), reflectors=()):
    return SceneConfig(wall_segments=list(walls), ambient_reflectors=list(reflectors),
                       noise_floor_dbm=None)


# ----------------------------------------------------------------------
# waveforms
# ----------------------------------------------------------------------

def test_all_classes_have_unit_average_power():
    rng = np.random.default_rng(0)
    for jclass in JammerClass:
        x = gen_baseband(_profile(jclass, bw=20e6), N, FS, rng)
        assert abs(np.mean(np.abs(x) ** 2) - 1.0) < 1e-6, jclass


def test_chirp_instantaneous_frequency_spans_bandwidth():
    b = 20e6
    x = gen_baseband(_profile(JammerClass.CHIRP, bw=b), N, FS, np.random.default_rng(1))
    inst = np.angle(x[1:] * np.conj(x[:-1])) * FS / (2 * np.pi)
    span = inst[-1] - inst[0]
    assert abs(span - b) / b < 0.02


def test_multitone_is_an_eight_tone_comb_across_the_band():
    # 7 spacings of 32 bins (b = 7 * 32 * FS / N): each tone on a bin centre,
    # symmetric about DC, so the spectrum is 8 lines and nothing between
    b = 7 * 32 * FS / N
    x = gen_baseband(_profile(JammerClass.MULTITONE, bw=b), N, FS, np.random.default_rng(2))
    mag = np.abs(np.fft.fft(x))
    tones = np.sort(np.argsort(mag)[-8:])
    np.testing.assert_array_equal(tones, np.sort((np.arange(8) * 32 - 112) % N))
    assert mag[tones].min() > 1e9 * np.delete(mag, tones).max()


def test_pulsed_has_gated_structure():
    x = gen_baseband(_profile(JammerClass.PULSED, bw=10e6), N, FS,
                     np.random.default_rng(3))
    assert np.sum(np.abs(x) == 0) > 0.5 * N   # off intervals present


def test_noise_is_band_limited():
    b = 10e6
    x = gen_baseband(_profile(JammerClass.NOISE, bw=b), N, FS, np.random.default_rng(4))
    spec = np.abs(np.fft.fft(x)) ** 2
    f = np.fft.fftfreq(N, 1 / FS)
    out_of_band = spec[np.abs(f) > b / 2].sum()
    assert out_of_band < 1e-12 * spec.sum()


def test_bandwidth_must_be_below_sample_rate():
    with pytest.raises(ValueError):
        gen_baseband(_profile(bw=60e6), N, 50e6, np.random.default_rng(0))


def test_profile_range_validation():
    with pytest.raises(ValueError):
        JammerProfile(JammerClass.CHIRP, 0, bandwidth_hz=0.1e6, power_dbm=0.0)
    with pytest.raises(ValueError):
        JammerProfile(JammerClass.CHIRP, 0, bandwidth_hz=1e6, power_dbm=11.0)
    # a class name built a profile whose class_id raised; a subclass id of
    # -1 labelled every snapshot with the last subclass logit's target
    with pytest.raises(TypeError, match=r"^JammerProfile\.jclass must be a JammerClass, "
                                        r"got 'Chirp'$"):
        JammerProfile("Chirp", 0, bandwidth_hz=5e6, power_dbm=0.0)
    for bad in (-1, True, "a", 1.0):
        with pytest.raises(ValueError, match=rf"^JammerProfile.subclass_id must be an integer "
                                             rf">= 0, got {re.escape(repr(bad))}$"):
            JammerProfile(JammerClass.CHIRP, bad, bandwidth_hz=5e6, power_dbm=0.0)
    assert JammerProfile(JammerClass.NOISE, np.int64(3), 5e6, 0.0).class_id == 5


# ----------------------------------------------------------------------
# propagation
# ----------------------------------------------------------------------

def test_broadside_source_phase_identical_channels():
    scene = _quiet_scene()
    geom = ArrayGeometry()
    wf = gen_baseband(_profile(), N, FS, np.random.default_rng(5))
    # directly in front of the antenna: dx = dz = 0
    snap = propagate(scene, geom, (0.0, 11.0, 1.0), wf, np.random.default_rng(6))
    for k in range(1, 4):
        phase = np.angle(np.sum(snap.samples[k] * np.conj(snap.samples[0])))
        assert abs(phase) < 1e-9


def _interferometric_azimuth(samples, geometry):
    """Closed-form two-element estimate from the same steering model."""
    lam_half_pairs = {(1, 0): "x", (2, 0): "z"}
    u = {}
    for (i, j), axis in lam_half_pairs.items():
        phi = np.angle(np.sum(samples[i] * np.conj(samples[j])))
        u[axis] = -phi / np.pi          # spacing lambda/2: phase = -pi * u_axis
    u_y = np.sqrt(max(0.0, 1.0 - u["x"] ** 2 - u["z"] ** 2))
    return np.degrees(np.arctan2(u_y, u["x"]))


def test_interferometry_recovers_azimuth():
    scene = _quiet_scene()
    geom = ArrayGeometry()
    rng = np.random.default_rng(7)
    wf = gen_baseband(_profile(), N, FS, rng)
    truth = 30.0
    r = 10.0
    pos = (r * np.cos(np.radians(truth)), r * np.sin(np.radians(truth)) + 1.0, 1.0)
    snap = propagate(scene, geom, pos, wf, rng)
    est = _interferometric_azimuth(snap.samples, geom)
    assert abs(est - truth) < 1.0
    assert abs(snap.label.alpha_deg - truth) < 1e-9


def test_wall_loss_scales_direct_power():
    geom = ArrayGeometry()
    wf = gen_baseband(_profile(), N, FS, np.random.default_rng(8))
    pos = (0.0, 15.0, 4.0)
    free = propagate(_quiet_scene(), geom, pos, wf, np.random.default_rng(9))
    wall = WallSegment(-5, 8.0, 5, 8.0, transmission_loss_db=20.0, reflection_coeff=0.0)
    blocked = propagate(_quiet_scene(walls=[wall]), geom, pos, wf, np.random.default_rng(9))
    ratio = np.mean(np.abs(free.samples) ** 2) / np.mean(np.abs(blocked.samples) ** 2)
    assert abs(ratio - 100.0) / 100.0 < 0.05


def test_steering_pairwise_phase_consistency():
    geom = ArrayGeometry()
    rng = np.random.default_rng(10)
    for _ in range(20):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        steer = geom.steering_vector(u)
        for i in range(4):
            for j in range(4):
                expect = -2 * np.pi * (geom.element_positions[i] - geom.element_positions[j]) @ u \
                    / geom.wavelength
                got = np.angle(steer[i] * np.conj(steer[j]))
                assert abs((got - expect + np.pi) % (2 * np.pi) - np.pi) < 1e-9


def test_added_wall_never_increases_direct_power():
    geom = ArrayGeometry()
    wf = gen_baseband(_profile(), N, FS, np.random.default_rng(11))
    pos = (2.0, 18.0, 4.0)
    scenes = [
        _quiet_scene(),
        _quiet_scene(walls=[WallSegment(-5, 8, 5, 8, 10.0, 0.0)]),
        _quiet_scene(walls=[WallSegment(-5, 8, 5, 8, 10.0, 0.0),
                            WallSegment(-5, 9, 5, 9, 10.0, 0.0)]),
    ]
    powers = [np.mean(np.abs(propagate(s, geom, pos, wf, np.random.default_rng(12)).samples) ** 2)
              for s in scenes]
    assert powers[0] > powers[1] > powers[2]


def test_label_angles_consistent_with_displacement():
    geom = ArrayGeometry()
    rng = np.random.default_rng(13)
    wf = gen_baseband(_profile(), N, FS, rng)
    snap = propagate(_quiet_scene(), geom, (3.0, 14.0, 5.0), wf, rng)
    lab = snap.label
    alpha = np.degrees(np.arctan2(lab.dy, lab.dx))
    beta = np.degrees(np.arctan2(lab.dz, np.hypot(lab.dx, lab.dy)))
    assert abs(alpha - lab.alpha_deg) < 1e-9
    assert abs(beta - lab.beta_deg) < 1e-9


@pytest.mark.parametrize("d,alpha,beta", [
    ((-1.0, 0.0, 0.0), -180.0, 0.0),      # arctan2 gives +180, outside [-180, 180)
    ((-1.0, -0.0, 0.0), -180.0, 0.0),
    ((0.0, 0.0, 1.0), 0.0, 90.0),
    ((1.0, 1.0, 0.0), 45.0, 0.0),
    ((-1.0, 1.0, 0.0), 135.0, 0.0),
    ((-1.0, -1.0, 0.0), -135.0, 0.0),
    ((1.0, -1.0, -np.sqrt(2.0)), -45.0, -45.0),
], ids=["-x", "-x-0y", "+z", "q1", "q2", "q3", "q4-below"])
def test_angles_from_displacement_hand_cases(d, alpha, beta):
    a, b = angles_from_displacement(*d)
    assert a == pytest.approx(alpha, abs=1e-12) and b == pytest.approx(beta, abs=1e-12)


def test_image_source_reciprocity():
    # one sidewall reflector: reflected path length must equal the
    # leg sum through an independently computed reflection point
    scene = _quiet_scene(reflectors=[Reflector(10.0, 0.0, 10.0, 30.0, 0.5)])
    antenna = np.array(scene.antenna_position)
    jammer = np.array([3.0, 16.0, 4.5])
    paths = compute_paths(scene, antenna, jammer)
    refl = [p for p in paths if p.kind.startswith("reflect")]
    assert len(refl) == 1
    # mirror across x = 10 by hand
    image = np.array([20.0 - jammer[0], jammer[1], jammer[2]])
    t = (10.0 - antenna[0]) / (image[0] - antenna[0])
    r_point = antenna + t * (image - antenna)
    leg_sum = np.linalg.norm(jammer - r_point) + np.linalg.norm(r_point - antenna)
    assert abs(refl[0].distance - leg_sum) < 1e-9
    assert abs(refl[0].distance - np.linalg.norm(image - antenna)) < 1e-9


def test_jammer_position_validation():
    geom = ArrayGeometry()
    wf = np.ones(N, dtype=complex)
    rng = np.random.default_rng(14)
    with pytest.raises(ValueError):
        propagate(_quiet_scene(), geom, (0.0, 1.0, 1.0), wf, rng)  # on the antenna
    with pytest.raises(ValueError):
        propagate(_quiet_scene(), geom, (50.0, 15.0, 4.0), wf, rng)  # outside hall


@pytest.mark.parametrize("pose,match", [
    ((0.0, 1.0, 1.0), r"^jammer coincides with the antenna position$"),
    ((50.0, 15.0, 4.0), r"^jammer \[50\.0, 15\.0, 4\.0\] outside hall extent "),
    ((np.nan, 15.0, 4.0), r"^jammer \[nan, 15\.0, 4\.0\] outside hall extent "),
], ids=["on-antenna", "outside-hall", "nan-x"])
def test_compute_paths_checks_the_pose_as_propagate_does(pose, match):
    # unchecked, these gave a direct path of distance 0 and direction NaN,
    # two paths from outside the hall, and a NaN path
    scene = scenario_configs("desk")["wall1"].scene
    antenna = np.array(scene.antenna_position)
    with pytest.raises(ValueError, match=match) as paths_error:
        compute_paths(scene, antenna, np.array(pose))
    with pytest.raises(ValueError) as propagate_error:
        propagate(scene, ArrayGeometry(), pose, np.ones(N, dtype=complex),
                  np.random.default_rng(18))
    assert str(paths_error.value) == str(propagate_error.value)


@pytest.mark.parametrize("pose", [(0.0, 10.0), np.ones((2, 3)), 5.0, (0.0, 10.0, 1.0, 0.0)],
                         ids=["two-coordinates", "two-poses", "scalar", "four-coordinates"])
def test_a_pose_that_is_not_one_position_is_rejected_naming_the_argument(pose):
    # (0.0, 10.0) failed to broadcast against the antenna, and a (2, 3)
    # array in propagate failed to unpack, naming no argument
    scene = scenario_configs("desk")["wall1"].scene
    tail = rf" must be one \(x, y, z\) position .* got shape {re.escape(str(np.shape(pose)))}$"
    with pytest.raises(ValueError, match="^compute_paths: jammer" + tail):
        compute_paths(scene, np.array(scene.antenna_position), pose)
    with pytest.raises(ValueError, match="^propagate: jammer_pos" + tail):
        propagate(scene, ArrayGeometry(), pose, np.ones(N, dtype=complex),
                  np.random.default_rng(19))


SURFACE_ARGS = {
    Reflector: dict(x1=10.0, y1=0.0, x2=10.0, y2=30.0, reflection_coeff=0.5),
    WallSegment: dict(x1=-5.0, y1=8.0, x2=5.0, y2=8.0, transmission_loss_db=20.0,
                      reflection_coeff=0.2),
}


@pytest.mark.parametrize("cls,field,value", [
    (Reflector, "reflection_coeff", 1.5),
    (Reflector, "reflection_coeff", -0.3),
    (Reflector, "reflection_coeff", np.nan),
    (Reflector, "x1", np.inf),
    (WallSegment, "reflection_coeff", 1.5),
    (WallSegment, "reflection_coeff", np.nan),
    (WallSegment, "transmission_loss_db", -20.0),
    (WallSegment, "transmission_loss_db", np.nan),
    (WallSegment, "y2", np.nan),
], ids=["refl-coeff-above-1", "refl-coeff-negative", "refl-coeff-nan", "refl-x1-inf",
        "wall-coeff-above-1", "wall-coeff-nan", "wall-loss-negative", "wall-loss-nan",
        "wall-y2-nan"])
def test_surface_rejects_bad_field_naming_it(cls, field, value):
    # each of these reached compute_paths unchecked: a bounce of gain 1.5,
    # NaN gains, or a wall that amplified the direct path tenfold
    with pytest.raises(ValueError, match=rf"^{cls.__name__}\.{field} "):
        cls(**{**SURFACE_ARGS[cls], field: value})


@pytest.mark.parametrize("cls", [Reflector, WallSegment])
def test_zero_length_surface_rejected(cls):
    # its unit direction divided by zero and the surface silently never reflected
    args = SURFACE_ARGS[cls]
    with pytest.raises(ValueError, match=rf"^{cls.__name__}\.x2, y2 "):
        cls(**{**args, "x2": args["x1"], "y2": args["y1"]})


def test_surface_accepts_range_edges():
    Reflector(**{**SURFACE_ARGS[Reflector], "reflection_coeff": 1.0})
    Reflector(**{**SURFACE_ARGS[Reflector], "reflection_coeff": 0.0})
    WallSegment(**{**SURFACE_ARGS[WallSegment], "transmission_loss_db": 0.0,
                   "reflection_coeff": 1.0})


@pytest.mark.parametrize("field,value", [("noise_floor_dbm", np.nan)], ids=["noise-nan"])
def test_propagate_checks_the_scene_naming_the_field(field, value):
    # NaN noise gave all-NaN samples
    scene = SceneConfig(**{field: value})
    wf = gen_baseband(_profile(), N, FS, np.random.default_rng(15))
    with pytest.raises(ValueError, match=rf"^SceneConfig\.{field} "):
        propagate(scene, ArrayGeometry(), (0.0, 15.0, 4.0), wf, np.random.default_rng(16))


_POSE = (0.0, 15.0, 4.0)
_ENTRY_POINTS = {
    "compute_paths": lambda scene: compute_paths(scene, np.array(scene.antenna_position),
                                                 np.array(_POSE)),
    "propagate": lambda scene: propagate(scene, ArrayGeometry(), _POSE, np.ones(N, dtype=complex),
                                         np.random.default_rng(19)),
    "make_dataset": lambda scene: make_dataset(replace(_tiny_sim(), scene=scene), ArrayGeometry(),
                                               seed=0),
}


@pytest.mark.parametrize("field,value,match", [
    ("wall_segments", [Reflector(**SURFACE_ARGS[Reflector])],
     r"^SceneConfig\.wall_segments\[0\] must be a WallSegment, got Reflector\(x1="),
    ("wall_segments", [(-5.0, 8.0, 5.0, 8.0, 20.0)],
     r"^SceneConfig\.wall_segments\[0\] must be a WallSegment, "
     r"got \(-5\.0, 8\.0, 5\.0, 8\.0, 20\.0\)$"),
    ("wall_segments", None,
     r"^SceneConfig\.wall_segments must be a list, got None$"),
    ("ambient_reflectors", [WallSegment(**SURFACE_ARGS[WallSegment])],
     r"^SceneConfig\.ambient_reflectors\[0\] must be a Reflector, got WallSegment\(x1?"),
], ids=["reflector-as-wall", "tuple-as-wall", "no-wall-list", "wall-as-reflector"])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_scene_rejects_a_surface_of_the_wrong_type_naming_it(entry, field, value, match):
    # the first three failed deep in the path arrays with an AttributeError or
    # TypeError naming no field; a wall among the reflectors lost its loss
    scene = SceneConfig(**{field: value}, noise_floor_dbm=None)
    with pytest.raises(TypeError, match=match):
        _ENTRY_POINTS[entry](scene)


@pytest.mark.parametrize("shape", [(512,), (2048,), (1, N), (4, N), ()],
                         ids=["short", "long", "row", "four-rows", "scalar"])
def test_propagate_rejects_a_waveform_not_one_snapshot_long(shape):
    # a 512-sample waveform gave a (4, 512) snapshot that spectrogram refused
    wf = np.ones(shape, dtype=complex)
    with pytest.raises(ValueError, match=rf"^propagate: waveform must have shape \({N},\), got "):
        propagate(_quiet_scene(), ArrayGeometry(), (0.0, 15.0, 4.0), wf, np.random.default_rng(17))


_WRONG_SHAPE = rf"^snapshot must have shape \(4, {N}\), got "


@pytest.mark.parametrize("shape,dtype,match", [
    ((4, 512), complex, _WRONG_SHAPE), ((3, N), complex, _WRONG_SHAPE),
    ((1, 4, N), complex, _WRONG_SHAPE), ((4 * N,), complex, _WRONG_SHAPE),
    ((4, N), np.float64, r"^IQSnapshot.samples must be complex, got float64$"),
    ((4, N), np.int64, r"^IQSnapshot.samples must be complex, got int64$"),
], ids=["short", "three-patches", "batch-of-one", "flat", "float64", "int"])
def test_snapshot_record_rejects_a_shape_the_extractors_refuse(shape, dtype, match):
    # a (4, 512) record was built, and failed only when featurized; a
    # float64 record too, and its features had constant Q rows
    label = Label.from_displacement((1.0, 2.0, 3.0))
    assert IQSnapshot(np.zeros((4, N), complex), label).samples.shape == (4, N)
    with pytest.raises(ValueError, match=match):
        IQSnapshot(np.zeros(shape, dtype), label)


def test_hall_array_and_snapshot_shape_are_constants():
    scene, geom = SceneConfig(), ArrayGeometry()
    for name, value in (("hall_extent", (40.0, 30.0, 8.0)), ("antenna_position", (0.0, 2.0, 1.0)),
                        ("sample_rate", 5e7), ("snapshot_len", 512)):
        with pytest.raises(TypeError):
            SceneConfig(**{name: value})
        with pytest.raises(AttributeError):
            setattr(scene, name, value)
        assert getattr(scene, name) == getattr(SceneConfig, name) != value
    with pytest.raises(TypeError):
        ArrayGeometry(np.zeros((4, 3)))
    for name in ("element_positions", "wavelength"):
        with pytest.raises(AttributeError):
            setattr(geom, name, 1.0)
    with pytest.raises(ValueError):
        geom.element_positions[0, 0] = 0.0
    ex, ey, ez = SceneConfig.hall_extent
    x, y, z = SceneConfig.antenna_position
    assert -ex / 2 < x < ex / 2 and 0.0 < y < ey and 0.0 < z < ez


# ----------------------------------------------------------------------
# datasets
# ----------------------------------------------------------------------

def _tiny_sim(tag="Random"):
    return SimConfig(scene=SceneConfig(noise_floor_dbm=-90.0),
                     trajectory_kind="circles",
                     trajectory_params={"center": (0.0, 16.0), "radii": (4.0, 6.0),
                                        "points_per_circle": 3},
                     heights=(4.4,),
                     profiles=[_profile(JammerClass.CHIRP), _profile(JammerClass.NOISE, bw=30e6)],
                     scenario_tag=tag)


def test_dataset_determinism_is_bitwise():
    geom = ArrayGeometry()
    a = make_dataset(_tiny_sim(), geom, seed=42)
    b = make_dataset(_tiny_sim(), geom, seed=42)
    assert len(a) == len(b) == 6
    for s, t in zip(a, b):
        assert s.samples.tobytes() == t.samples.tobytes()
        assert s.label == t.label
    c = make_dataset(_tiny_sim(), geom, seed=43)
    assert any(s.samples.tobytes() != t.samples.tobytes() for s, t in zip(a, c))


def test_cycle_assignment_rotates_profiles():
    geom = ArrayGeometry()
    snaps = make_dataset(_tiny_sim(), geom, seed=1)
    assert [s.label.class_id for s in snaps[:4]] == [0, 5, 0, 5]


@pytest.mark.parametrize("field,value", [
    ("pose_jitter_m", -0.1),
    ("pose_jitter_m", np.nan),
    ("scene.noise_floor_dbm", np.nan),
    ("scenario_tag", "Nope"),
], ids=["jitter-negative", "jitter-nan", "noise-nan", "tag-unknown"])
def test_sim_config_fails_at_entry_naming_the_field(field, value):
    # fields reassigned after construction, as callers do
    cfg = _tiny_sim()
    owner, _, name = field.rpartition(".")
    setattr(cfg.scene if owner else cfg, name, value)
    where = "SceneConfig" if owner else "SimConfig"
    with pytest.raises(ValueError, match=rf"^{where}\.{name} "):
        make_dataset(cfg, ArrayGeometry(), seed=0)


@pytest.mark.parametrize("field,value,match", [
    ("profiles", [_profile(), "chirp"],
     r"^SimConfig\.profiles\[1\] must be a JammerProfile, got 'chirp'$"),
    ("trajectory_params", None, r"^SimConfig\.trajectory_params must be a dict, got None$"),
    ("trajectory_kind", 3, r"^SimConfig\.trajectory_kind must be a str, got 3$"),
    ("pose_jitter_m", "a", r"^SimConfig\.pose_jitter_m must be a finite number in \[0, inf\], "
                           r"got 'a'$"),
    ("geometry", None, r"^make_dataset: geometry must be an ArrayGeometry, got None$"),
    ("geometry", "x", r"^make_dataset: geometry must be an ArrayGeometry, got 'x'$"),
    ("scene", None, r"^SimConfig\.scene must be a SceneConfig, got None$"),
], ids=["profile-str", "params-none", "kind-int", "jitter-str", "geometry-none", "geometry-str",
        "scene-none"])
def test_make_dataset_rejects_a_value_of_the_wrong_type_naming_it(field, value, match):
    # unchecked, the profile's message named neither its index nor its type,
    # and the others failed deeper with a bare TypeError or AttributeError; a
    # string jitter is a ValueError, as every value that is not a number is
    cfg, geometry = _tiny_sim(), ArrayGeometry()
    if field == "geometry":
        geometry = value
    else:
        setattr(cfg, field, value)
    with pytest.raises(ValueError if field == "pose_jitter_m" else TypeError, match=match):
        make_dataset(cfg, geometry, seed=0)


@pytest.mark.parametrize("jobs", [0, -2, 2, 7, True, 1.0])
def test_make_dataset_rejects_jobs_other_than_one(jobs):
    with pytest.raises(ValueError, match=r"^make_dataset: jobs must be 1 .*got "):
        make_dataset(_tiny_sim(), ArrayGeometry(), seed=0, jobs=jobs)


@pytest.mark.parametrize("seed,seed_channel,field", [
    (-1, 0, "make_dataset: seed"),
    (1.5, 0, "make_dataset: seed"),
    (True, 0, "make_dataset: seed"),
    (0, -3, "SimConfig.seed_channel"),
    (0, 2.0, "SimConfig.seed_channel"),
    (0, False, "SimConfig.seed_channel"),
], ids=["seed-negative", "seed-float", "seed-bool", "seed_channel-negative",
        "seed_channel-float", "seed_channel-bool"])
def test_make_dataset_rejects_bad_seeds_naming_the_field(seed, seed_channel, field):
    # unchecked, most of these fail inside numpy's default_rng, naming no field
    cfg = _tiny_sim()
    cfg.seed_channel = seed_channel
    with pytest.raises(ValueError, match=rf"^{field} must be an integer >= 0, got "):
        make_dataset(cfg, ArrayGeometry(), seed=seed)


def test_make_dataset_accepts_numpy_integer_seeds():
    a = make_dataset(_tiny_sim(), ArrayGeometry(), seed=np.int64(4))
    b = make_dataset(_tiny_sim(), ArrayGeometry(), seed=4)
    assert [s.samples.tobytes() for s in a] == [s.samples.tobytes() for s in b]


def test_empty_profiles_rejected():
    cfg = _tiny_sim()
    cfg.profiles = []
    with pytest.raises(ValueError):
        make_dataset(cfg, ArrayGeometry(), seed=0)


def test_scenario_suite_structure():
    cfgs = scenario_configs("desk")
    assert set(cfgs) == {"random_train", "random_test", "wall1", "wall2", "wall3",
                         "wall4", "wall5", "meander"}
    held_out = [cfgs[k].scenario_tag for k in ("wall1", "wall2", "wall3", "wall4",
                                               "wall5", "meander")]
    assert len(held_out) == 6
    assert cfgs["random_train"].scenario_tag == cfgs["random_test"].scenario_tag == "Random"
    with pytest.raises(ValueError):
        scenario_configs("warehouse")
