"""The boundary rules of ``jamloc._checks``, and a table of the public
boundaries that check their scalars with them."""

import math
import re

import numpy as np
import pytest

from jamloc import dsp
from jamloc._checks import choice, count, instance, real
from jamloc.models import FusionConfig, McaffConfig
from jamloc.nn import SGD, Conv2D, Dense
from jamloc.sigsim import (ArrayGeometry, JammerClass, JammerProfile, Reflector, SceneConfig,
                           SimConfig, WallSegment, compute_paths, desk_profiles, gen_trajectory,
                           make_dataset, scenario_configs)

BOOLS = [True, False, np.True_, np.False_]
NON_FINITE = [math.nan, math.inf, -math.inf, np.float32(np.nan), np.float64(-np.inf)]


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), np.int32(7), 2**70])
def test_count_returns_an_integer_at_or_above_least(value):
    assert count("f", value, 3) is value


@pytest.mark.parametrize("value", [*BOOLS, 3.0, np.float64(3.0), "3", None, 2, np.int8(-1), 1 + 0j],
                         ids=repr)
def test_count_rejects_a_non_integer_or_one_below_least(value):
    with pytest.raises(ValueError, match=rf"^f must be an integer >= 3, "
                                         rf"got {re.escape(repr(value))}$"):
        count("f", value, 3)


@pytest.mark.parametrize("value", [-1.0, 1.0, 0, 1, np.float32(0.5), np.float64(-1.0), np.int64(1),
                                   np.float16(0.25)])
def test_real_takes_a_finite_number_in_the_interval_with_both_edges(value):
    assert real("f", value, -1, 1) is value


@pytest.mark.parametrize("value", [*BOOLS, *NON_FINITE, "0.5", None, 0.5 + 0j, np.complex128(0.5),
                                   [0.5], np.array(0.5), -1.5, 1.0000001, np.int64(2)], ids=repr)
def test_real_rejects_a_non_number_a_non_finite_one_or_one_outside(value):
    with pytest.raises(ValueError, match=rf"^f must be a finite number in \[-1, 1\], "
                                         rf"got {re.escape(repr(value))}$"):
        real("f", value, -1, 1)


def test_real_is_unbounded_by_default_and_rejects_only_non_finite_values():
    assert real("f", -1e300) == -1e300 and real("f", 2**1100) == 2**1100
    for value in NON_FINITE:
        with pytest.raises(ValueError, match=r"^f must be a finite number in \[-inf, inf\], got "):
            real("f", value)


def test_real_with_a_strict_lower_bound_excludes_it():
    assert real("rate", 5e-324, 0, above=True) == 5e-324
    for value in (0, 0.0, -0.0, np.float32(0), -1e-9, math.inf, True):
        with pytest.raises(ValueError, match=rf"^rate must be a finite number in \(0, inf\], "
                                             rf"got {re.escape(repr(value))}$"):
            real("rate", value, 0, above=True)


def test_instance_returns_the_value_or_raises_a_type_error_naming_it():
    geometry = ArrayGeometry()
    assert instance("g", geometry, ArrayGeometry) is geometry
    with pytest.raises(TypeError, match=r"^g must be an ArrayGeometry, got None$"):
        instance("g", None, ArrayGeometry)
    with pytest.raises(TypeError, match=r"^s must be a str, got \['a'\]$"):
        instance("s", ["a"], str)
    with pytest.raises(TypeError, match=r"^b must be a bool, got np\.True_$"):
        instance("b", np.True_, bool)
    # the value's repr is bounded, as a whole config's would not be
    with pytest.raises(TypeError, match=r"^n must be a str, got array\(\[0\., ") as error:
        instance("n", np.zeros(10_000), str)
    assert len(str(error.value)) < 60


def test_choice_compares_with_equality_and_hashes_nothing():
    allowed = ("desk", "paper")
    assert choice("scale", "paper", allowed) == "paper"
    assert choice("scale", np.str_("desk"), allowed) == "desk"
    for value in (["desk"], {"desk": 1}, {"desk"}, "Desk", None, 0):
        with pytest.raises(ValueError, match=rf"^scale must be one of \('desk', 'paper'\), "
                                             rf"got {re.escape(repr(value))}$"):
            choice("scale", value, allowed)


# ----------------------------------------------------------------------
# the public boundaries: each row's error has the rule's class and names the field
# ----------------------------------------------------------------------

def _sim(**fields):
    cfg = SimConfig(scene=SceneConfig(noise_floor_dbm=None), trajectory_kind="circles",
                    trajectory_params={"radii": (4.0,), "points_per_circle": 2}, heights=(4.4,),
                    profiles=desk_profiles()[:1])
    vars(cfg).update(fields)
    return cfg


def _profile(**fields):
    return JammerProfile(**{"jclass": JammerClass.CHIRP, "subclass_id": 0, "bandwidth_hz": 5e6,
                            "power_dbm": 0.0, **fields})


def _wall(**fields):
    return WallSegment(**{"x1": -5.0, "y1": 8.0, "x2": 5.0, "y2": 8.0,
                          "transmission_loss_db": 20.0, **fields})


def _paths(**fields):
    scene = SceneConfig(**fields)
    return compute_paths(scene, np.array(scene.antenna_position), np.array([0.0, 15.0, 4.0]))


_RNG = np.random.default_rng(0)
_SNAPSHOT = np.ones((4, 1024), dtype=complex)

BOUNDARIES = {
    "Dense-bool-count": (lambda: Dense(True, 4, _RNG), ValueError,
                         r"^Dense\.in_features must be an integer >= 1, got True$"),
    "Conv2D-int-relu": (lambda: Conv2D(4, 4, 3, _RNG, relu=1), TypeError,
                        r"^Conv2D\.relu must be a bool, got 1$"),
    "Conv2D-bool-stride": (lambda: Conv2D(4, 4, 3, _RNG, stride=(1, True)), ValueError,
                           r"^Conv2D\.stride\[1\] must be an integer >= 1, got True$"),
    "trajectory-numpy-bool-count": (
        lambda: gen_trajectory("meander", {"rows": np.True_}), ValueError,
        r"^meander: rows must be an integer >= 1, got np\.True_$"),
    "trajectory-bool-phase": (
        lambda: gen_trajectory("circles", {"phase": True}), ValueError,
        r"^circles: phase must be a finite number in \[-inf, inf\], got True$"),
    "trajectory-int-kind": (lambda: gen_trajectory(3, {}), TypeError,
                            r"^gen_trajectory: kind must be a str, got 3$"),
    "trajectory-none-params": (lambda: gen_trajectory("circles", None), TypeError,
                               r"^gen_trajectory: params must be a dict, got None$"),
    "trajectory-list-heights": (lambda: gen_trajectory("circles", {}, [4.4]), TypeError,
                                r"^gen_trajectory: heights must be a tuple, got \[4\.4\]$"),
    "trajectory-unknown-kind": (
        lambda: gen_trajectory("spiral", {}), ValueError,
        r"^gen_trajectory: kind must be one of \('circles', 'grid_circles', 'meander'\), "
        r"got 'spiral'$"),
    "FusionConfig-str-tuple-field": (lambda: FusionConfig(spec_channels="abcd"), TypeError,
                                     r"^FusionConfig\.spec_channels must be a tuple, got 'abcd'$"),
    "FusionConfig-bool-tuple-entry": (
        lambda: FusionConfig(iq_channels=(4, True, 8), iq_dilations=(1, 2, 4)), ValueError,
        r"^FusionConfig\.iq_channels\[1\] must be an integer >= 1, got True$"),
    "FusionConfig-int-with_classifier": (
        lambda: FusionConfig(with_classifier=1), TypeError,
        r"^FusionConfig\.with_classifier must be a bool, got 1$"),
    "McaffConfig-float-count": (
        lambda: McaffConfig(head_hidden=np.float64(8)), ValueError,
        r"^McaffConfig\.head_hidden must be an integer >= 1, got np\.float64\(8\.0\)$"),
    "McaffConfig-list-path": (
        lambda: McaffConfig(enabled_paths=("iq", ["fft"])), ValueError,
        r"^McaffConfig\.enabled_paths\[1\] must be one of \('iq', 'fft', 'cfo', 'stft'\), "
        r"got \['fft'\]$"),
    "McaffConfig-int-paths": (lambda: McaffConfig(enabled_paths=3), TypeError,
                              r"^McaffConfig\.enabled_paths must be a tuple, got 3$"),
    "FusionConfig-none-branches": (
        lambda: FusionConfig(enabled_branches=None), TypeError,
        r"^FusionConfig\.enabled_branches must be a tuple, got None$"),
    "make_dataset-no-cfg": (lambda: make_dataset(None, ArrayGeometry(), seed=0), TypeError,
                            r"^make_dataset: cfg must be a SimConfig, got None$"),
    "make_dataset-bool-jitter": (
        lambda: make_dataset(_sim(pose_jitter_m=True), ArrayGeometry(), seed=0), ValueError,
        r"^SimConfig\.pose_jitter_m must be a finite number in \[0, inf\], got True$"),
    "make_dataset-none-heights": (
        lambda: make_dataset(_sim(heights=None), ArrayGeometry(), seed=0), TypeError,
        r"^SimConfig\.heights must be a tuple, got None$"),
    "make_dataset-float-heights": (
        lambda: make_dataset(_sim(heights=4.4), ArrayGeometry(), seed=0), TypeError,
        r"^SimConfig\.heights must be a tuple, got 4\.4$"),
    "JammerProfile-str-class": (lambda: _profile(jclass="chirp"), TypeError,
                                r"^JammerProfile\.jclass must be a JammerClass, got 'chirp'$"),
    "JammerProfile-bool-power": (
        lambda: _profile(power_dbm=True), ValueError,
        r"^JammerProfile\.power_dbm must be a finite number in \[-20, 10\], got True$"),
    "JammerProfile-wide-band": (
        lambda: _profile(bandwidth_hz=1e9), ValueError,
        r"^JammerProfile\.bandwidth_hz must be a finite number in \[200000, 6e\+07\], "
        r"got 1000000000\.0$"),
    "JammerProfile-str-band": (
        lambda: _profile(bandwidth_hz="5e6"), ValueError,
        r"^JammerProfile\.bandwidth_hz must be a finite number in \[200000, 6e\+07\], got '5e6'$"),
    "WallSegment-bool-loss": (
        lambda: _wall(transmission_loss_db=True), ValueError,
        r"^WallSegment\.transmission_loss_db must be a finite number in \[0, inf\], got True$"),
    "WallSegment-bool-coeff": (
        lambda: _wall(reflection_coeff=True), ValueError,
        r"^WallSegment\.reflection_coeff must be a finite number in \[0, 1\], got True$"),
    "Reflector-none-end": (
        lambda: Reflector(None, 0.0, 10.0, 30.0, reflection_coeff=0.5), ValueError,
        r"^Reflector\.x1 must be a finite number in \[-inf, inf\], got None$"),
    "SceneConfig-bool-noise": (
        lambda: _paths(noise_floor_dbm=True), ValueError,
        r"^SceneConfig\.noise_floor_dbm must be a finite number in \[-inf, inf\], got True$"),
    "SceneConfig-tuple-walls": (lambda: _paths(wall_segments=(_wall(),)), TypeError,
                                r"^SceneConfig\.wall_segments must be a list, got \(WallSegment\("),
    "compute_paths-short-antenna": (
        lambda: compute_paths(SceneConfig(), (0.0, 1.0), (0.0, 10.0, 1.0)), ValueError,
        r"^compute_paths: antenna must be one \(x, y, z\) position of shape \(3,\), "
        r"got shape \(2,\)$"),
    "compute_paths-str-jammer": (
        lambda: compute_paths(SceneConfig(), (0.0, 0.0, 1.0), "abc"), ValueError,
        r"^compute_paths: jammer must be one \(x, y, z\) position of shape \(3,\), "
        r"got 'abc'$"),
    "SGD-bool-rate": (lambda: SGD([], learning_rate=True), ValueError,
                      r"^SGD\.learning_rate must be a finite number in \(0, inf\], got True$"),
    "aoa_features-bool-fs": (
        lambda: dsp.aoa_features(_SNAPSHOT, fs=True), ValueError,
        r"^aoa_features: fs must be a finite number in \(0, inf\], got True$"),
    "scenario_configs-list-scale": (
        lambda: scenario_configs(["desk"]), ValueError,
        r"^scenario_configs: scale must be one of \('desk', 'paper'\), got \['desk'\]$"),
}


@pytest.mark.parametrize("call,error,match", BOUNDARIES.values(), ids=BOUNDARIES.keys())
def test_a_public_boundary_rejects_a_bad_scalar_naming_the_field(call, error, match):
    with pytest.raises(error, match=match):
        call()
