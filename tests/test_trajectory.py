import numpy as np
import pytest

from jamloc.sigsim import DEFAULT_HEIGHTS, gen_trajectory


def test_circle_pose_count():
    poses = gen_trajectory("circles", {"radii": (1, 2, 3, 4, 5), "points_per_circle": 100},
                           heights=DEFAULT_HEIGHTS)
    assert poses.shape == (5 * 4 * 100, 3)


def test_default_heights():
    assert DEFAULT_HEIGHTS == (3.9, 4.4, 4.9, 5.4)
    poses = gen_trajectory("circles", {"radii": (2.0,), "points_per_circle": 8})
    assert set(np.unique(poses[:, 2])) == set(DEFAULT_HEIGHTS)


def test_grid_circles_count():
    poses = gen_trajectory("grid_circles",
                           {"centers": ((-3, 12), (3, 12), (-3, 17), (3, 17)),
                            "radii": (1.0, 1.5), "points_per_circle": 10},
                           heights=(4.0, 5.0))
    assert poses.shape == (4 * 2 * 2 * 10, 3)


def test_meander_rows_monotone_in_x():
    poses = gen_trajectory("meander", {"x_range": (-5, 5), "y_range": (10, 20),
                                       "rows": 4, "points_per_row": 12}, heights=(4.4,))
    assert poses.shape == (4 * 12, 3)
    for r in range(4):
        xs = poses[r * 12:(r + 1) * 12, 0]
        diffs = np.diff(xs)
        assert np.all(diffs > 0) or np.all(diffs < 0)


def test_nonpositive_radius_rejected():
    with pytest.raises(ValueError):
        gen_trajectory("circles", {"radii": (1.0, -2.0), "points_per_circle": 4})


@pytest.mark.parametrize("kind,params,name", [
    ("circles", {"radii": ()}, "radii"),
    ("grid_circles", {"centers": ()}, "centers"),
    ("grid_circles", {"centers": ((0.0, 12.0),), "radii": ()}, "radii"),
    ("meander", {"rows": 0}, "rows"),
    ("grid_circles", {"radii": (1.0,)}, "centers"),
    ("circles", {"points_per_circle": 2.7}, "points_per_circle"),
    ("grid_circles", {"centers": ((0.0, 12.0),), "points_per_circle": 0}, "points_per_circle"),
    ("meander", {"rows": True}, "rows"),
    ("meander", {"points_per_row": -3}, "points_per_row"),
], ids=["circles-radii", "grid-centers", "grid-radii", "meander-rows", "grid-no-centers",
        "circles-fractional-points", "grid-zero-points", "meander-bool-rows",
        "meander-negative-points"])
def test_empty_plan_rejected_naming_the_parameter(kind, params, name):
    # the first four failed inside numpy's concatenate, naming no parameter;
    # missing centers raised a bare KeyError, 2.7 points were truncated to 2
    # and -3 gave numpy's negative-dimensions error
    with pytest.raises(ValueError, match=rf"^{kind}: {name} must be "):
        gen_trajectory(kind, params)


def test_empty_heights_rejected():
    with pytest.raises(ValueError):
        gen_trajectory("circles", {"radii": (1.0,)}, heights=())


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        gen_trajectory("spiral", {})


@pytest.mark.parametrize("kind,params,key", [
    ("circles", {"point_per_circle": 2, "radii": (3.0,)}, "point_per_circle"),
    ("grid_circles", {"centers": ((0.0, 12.0),), "center": (0.0, 12.0)}, "center"),
    ("meander", {"rows": 2, "points_per_rows": 3}, "points_per_rows"),
], ids=["circles", "grid_circles", "meander"])
def test_misspelled_parameter_rejected_naming_it(kind, params, key):
    # a misspelled key used to be ignored, leaving the default in its place
    with pytest.raises(ValueError, match=rf"^{kind}: unknown parameter\(s\) \['{key}'\]"):
        gen_trajectory(kind, params)


@pytest.mark.parametrize("kind,params,heights,name", [
    ("circles", {"radii": (3.0, np.nan)}, (4.4,), "radii"),
    ("circles", {"radii": (np.inf,)}, (4.4,), "radii"),
    ("circles", {"phase": np.nan}, (4.4,), "phase"),
    ("meander", {"x_range": (-6.0, np.inf)}, (4.4,), "x_range"),
    ("meander", {"y_range": (np.nan, 20.0)}, (4.4,), "y_range"),
    ("circles", {}, (4.4, np.nan), "heights"),
    ("meander", {}, (np.inf,), "heights"),
    ("meander", {"x_range": (1.0,)}, (4.4,), "x_range"),
    ("circles", {"center": (1.0,)}, (4.4,), "center"),
    ("grid_circles", {"centers": ((0.0, 12.0, 1.0),)}, (4.4,), "centers"),
], ids=["nan-radius", "inf-radius", "nan-phase", "inf-x-range", "nan-y-range", "nan-height",
        "inf-height", "one-value-x-range", "one-value-center", "three-value-center"])
def test_a_non_finite_or_misshapen_parameter_is_rejected_naming_it(kind, params, heights, name):
    # non-finite values gave non-finite poses, the short pairs a bare unpack
    # or index error, and a third center value was dropped
    with pytest.raises(ValueError, match=rf"^{kind}: {name} must be "):
        gen_trajectory(kind, params, heights)
