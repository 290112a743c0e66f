"""Scene construction and the stochastic samplers."""

import math
from dataclasses import replace

import numpy as np
import pytest

from irsvlc.config import ConfigError, RunConfig, validate
from irsvlc.irs import DEFAULT_MIRROR_REFLECTIVITY, MIRROR_HEIGHT, MIRROR_WIDTH
from irsvlc.scene import (BLOCKER_DIMS, BlockerModel, OrientationModel, Room, Scene,
                          _grid_centers, build_arrays, sample_blocker_field,
                          sample_blocker_fields, sample_tilt_deg, sample_ue)
from irsvlc.simulator import trial_rng

from conftest import make_scene, rng


def test_room_validation():
    with pytest.raises(ValueError):
        Room(5.0, 0.0, 3.0)
    with pytest.raises(ValueError):
        Room(-1.0, 5.0, 3.0)


@pytest.mark.parametrize("dims", [(math.nan, 5.0, 3.0), (5.0, math.inf, 3.0),
                                  (5.0, 5.0, -math.inf), (math.nan,) * 3])
def test_room_rejects_non_finite_dimensions(dims):
    with pytest.raises(ValueError, match="positive and finite"):
        Room(*dims)


@pytest.mark.parametrize("overrides", [{"ap_x": 9.0}, {"ap_y": -0.5}, {"ap_z": 3.5},
                                       {"ap_x": 5.0 + 1e-9}])
def test_scene_rejects_a_luminaire_outside_the_room(overrides):
    with pytest.raises(ValueError, match="outside the room"):
        make_scene(**overrides)


def test_scene_accepts_a_luminaire_on_the_room_boundary():
    # the room box is closed: a source on the ceiling or in a corner is inside
    for overrides in ({"ap_z": 3.0}, {"ap_x": 0.0, "ap_y": 5.0, "ap_z": 0.0}):
        assert make_scene(**overrides).aps[0].position.tolist() == \
            [overrides.get("ap_x", 2.5), overrides.get("ap_y", 2.5), overrides["ap_z"]]


def test_validate_still_reports_every_bad_key_with_its_wording():
    # the constructors' checks do not replace the config file's report
    cfg = RunConfig(room_length=math.nan, ap_x=9.0, pd_area=0.0)
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    assert "[room] length: must be finite" in err.value.errors
    assert "[ue] area: must be positive" in err.value.errors


def test_room_walls_are_four_inward_frames():
    room = Room(5.0, 4.0, 3.0)
    walls = room.walls()
    assert len(walls) == 4
    for _label, origin, u_dir, v_dir, u_len, v_len, normal in walls:
        # inward normal points from the wall midpoint toward the room center
        mid = origin + (u_len / 2) * u_dir + (v_len / 2) * v_dir
        to_center = np.array([2.5, 2.0, 1.5]) - mid
        assert float(to_center @ normal) > 0
        assert abs(float(u_dir @ v_dir)) < 1e-15
        assert abs(float(normal @ u_dir)) < 1e-15


def test_default_scene_structure():
    scene = make_scene(n_per_side=50)
    assert len(scene.mirror_arrays) == 4
    for arr in scene.mirror_arrays:
        assert len(arr) == 2500
    assert scene.aps[0].position.tolist() == [2.5, 2.5, 3.0]
    assert scene.aps[0].normal.tolist() == [0.0, 0.0, -1.0]


def test_default_scene_n50_spans_full_wall():
    arr = make_scene(n_per_side=50).mirror_arrays[0]
    centers = arr.centers
    # horizontal span: 50 cells of 0.1 m on a 5 m wall, flush at both ends
    horiz = centers[:, 1]
    assert horiz.min() == pytest.approx(0.05, abs=1e-12)
    assert horiz.max() == pytest.approx(4.95, abs=1e-12)
    # vertical span: 50 cells of 0.06 m fill the 3 m height exactly
    vert = centers[:, 2]
    assert vert.min() == pytest.approx(0.03, abs=1e-12)
    assert vert.max() == pytest.approx(2.97, abs=1e-12)


def test_default_scene_n1_single_mirrors_at_wall_centers():
    scene = make_scene(n_per_side=1)
    assert [len(a) for a in scene.mirror_arrays] == [1, 1, 1, 1]
    centers = sorted(tuple(np.round(a.centers[0], 9)) for a in scene.mirror_arrays)
    assert centers == [(0.0, 2.5, 1.5), (2.5, 0.0, 1.5), (2.5, 5.0, 1.5),
                       (5.0, 2.5, 1.5)]


def test_default_scene_n51_does_not_fit():
    with pytest.raises(ValueError):
        make_scene(n_per_side=51)


def test_default_scene_unknown_irs_type():
    with pytest.raises(ConfigError) as exc:
        validate(RunConfig(irs_type="prisms"))
    assert "[irs] type" in "\n".join(exc.value.errors)


def test_grid_pitch_equals_element_size():
    arr = build_arrays(Room(5.0, 5.0, 3.0), 10, DEFAULT_MIRROR_REFLECTIVITY)[0]
    c = arr.centers.reshape(10, 10, 3)
    np.testing.assert_allclose(c[0, 1] - c[0, 0], [0.0, 0.1, 0.0], atol=1e-12)
    np.testing.assert_allclose(c[1, 0] - c[0, 0], [0.0, 0.0, 0.06], atol=1e-12)


def _loop_grid_centers(origin, u_dir, v_dir, u_len, v_len, n, cell_w, cell_h):
    """Reference: one center at a time, rows bottom to top."""
    u_mid, v_mid = u_len / 2.0, v_len / 2.0
    half = (n - 1) / 2.0
    out = []
    for i in range(n):
        v_off = v_mid + (i - half) * cell_h
        for j in range(n):
            u_off = u_mid + (j - half) * cell_w
            out.append(origin + u_off * u_dir + v_off * v_dir)
    return np.array(out)


@pytest.mark.parametrize("dims", [(5.0, 5.0, 3.0), (4.3, 6.7, 2.9)])
@pytest.mark.parametrize("n", [1, 2, 7, 50])
def test_grid_centers_match_per_cell_loop(dims, n):
    room = Room(*dims)
    for _label, origin, u_dir, v_dir, u_len, v_len, _normal in room.walls():
        args = (origin, u_dir, v_dir, u_len, v_len, n, MIRROR_WIDTH, MIRROR_HEIGHT)
        got = _grid_centers(*args)
        assert got.shape == (n * n, 3)
        assert got.tobytes() == _loop_grid_centers(*args).tobytes()


def test_array_parameters_are_validated_without_cells():
    with pytest.raises(ValueError):
        build_arrays(Room(5.0, 5.0, 3.0), 2, 1.2)
    with pytest.raises(ValueError):
        build_arrays(Room(5.0, 5.0, 3.0), 2, -0.1)


def test_metasurface_scene_patch_area():
    # metasurface cells tile the wall at the mirror pitch: 0.1 m x 0.06 m
    scene = make_scene(n_per_side=3, irs_type="metasurface")
    assert len(scene.metasurface_arrays) == 4
    for arr in scene.metasurface_arrays:
        c = arr.centers.reshape(3, 3, 3)
        width = float(np.linalg.norm(c[0, 1] - c[0, 0]))
        height = float(np.linalg.norm(c[1, 0] - c[0, 0]))
        assert width * height == pytest.approx(0.006, rel=1e-12)


def test_scene_validation():
    with pytest.raises(ValueError):
        make_scene(n_per_side=1, ue_height=3.5)
    with pytest.raises(ValueError):
        make_scene(n_per_side=1, wall_reflectivity=1.2)


def test_orientation_model_validation():
    with pytest.raises(ValueError):
        OrientationModel(95.0, 9.0)
    with pytest.raises(ValueError):
        OrientationModel(41.0, 0.0)


def test_sample_ue_support():
    scene = make_scene(n_per_side=1)
    r = rng(3)
    for _ in range(500):
        ue = sample_ue(r, scene)
        x, y, z = ue.position
        assert 0.0 <= x <= 5.0 and 0.0 <= y <= 5.0
        assert z == scene.ue_height
        assert abs(np.linalg.norm(ue.normal) - 1.0) < 1e-12
        assert ue.normal[2] >= 0.0  # never tilted past horizontal


def test_sample_ue_deterministic_per_stream():
    scene = make_scene(n_per_side=1)
    a = sample_ue(trial_rng(99, 5), scene)
    b = sample_ue(trial_rng(99, 5), scene)
    assert a.position.tolist() == b.position.tolist()
    assert a.normal.tolist() == b.normal.tolist()


@pytest.mark.parametrize("field, value, message", [
    ("pd_area", 0.0, "detector area"), ("pd_fov", 0.0, "field of view")])
def test_sample_ue_never_gets_a_bad_detector(field, value, message):
    # the scene checks its detector settings, so no pose can carry bad ones
    with pytest.raises(ValueError, match=message):
        sample_ue(trial_rng(1, 0), replace(make_scene(irs_type="none"), **{field: value}))


def test_tilt_mean_matches_configuration():
    model = OrientationModel(41.0, 9.0)
    r = rng(17)
    draws = np.array([sample_tilt_deg(r, model) for _ in range(100_000)])
    assert abs(draws.mean() - 41.0) < 0.5
    assert draws.min() >= 0.0 and draws.max() <= 90.0


def test_tilt_degenerate_distribution_faces_up():
    scene = make_scene(n_per_side=1, theta_mean_deg=0.0, theta_std_deg=1e-9)
    ue = sample_ue(rng(1), scene)
    np.testing.assert_allclose(ue.normal, [0.0, 0.0, 1.0], atol=1e-6)


def _blocker_count(r, scene):
    field = sample_blocker_field(r, scene.room, scene.blocker_model)
    return 0 if field is None else len(field)


def test_sample_blockers_empty_at_zero_density():
    scene = make_scene(0.0, n_per_side=1)
    assert sample_blocker_field(rng(2), scene.room, scene.blocker_model) is None


def test_sample_blockers_shape_and_support():
    scene = make_scene(1.0, n_per_side=1)
    r = rng(5)
    seen = 0
    while seen < 200:
        field = sample_blocker_field(r, scene.room, scene.blocker_model)
        if field is None:
            continue
        assert field.half_extents == (BLOCKER_DIMS[0] / 2, BLOCKER_DIMS[1] / 2,
                                      BLOCKER_DIMS[2] / 2)
        assert (field.center[:, 2] == BLOCKER_DIMS[2] / 2).all()  # base on the floor
        assert ((0.0 <= field.yaw) & (field.yaw < math.pi)).all()
        seen += len(field)


def test_sample_blockers_count_mean():
    scene = make_scene(1.0, n_per_side=1)
    r = rng(29)
    counts = [_blocker_count(r, scene) for _ in range(2000)]
    # Poisson(25): 3 sigma over 2000 draws
    assert abs(np.mean(counts) - 25.0) < 3 * math.sqrt(25.0 / 2000)


def test_sample_blockers_match_the_field_draws():
    # the one-row slices of a field hold exactly the field's draws
    scene = make_scene(1.0, n_per_side=1)
    field = sample_blocker_field(rng(6), scene.room, scene.blocker_model)
    assert len(field) > 0
    for k in range(len(field)):
        box = field[k:k + 1]
        assert box.center.tolist() == [field.center[k].tolist()]
        assert box.yaw.tolist() == [field.yaw[k]] and box.half_extents == field.half_extents
    assert field[[2, 0]].center.tolist() == field.center[[2, 0]].tolist()
    # a single row is not a set, and iterating one fails loudly instead of yielding nothing
    with pytest.raises(TypeError, match="1-D index array"):
        field[0]
    with pytest.raises(TypeError, match="1-D index array"):
        list(field)
    empty = make_scene(0.0, n_per_side=1)
    assert sample_blocker_field(rng(6), empty.room, empty.blocker_model) is None


def test_sample_blocker_fields_need_one_blocker_size():
    models = (BlockerModel(1.0), BlockerModel(1.0, dims=(1.0, 1.0, 1.0)))
    with pytest.raises(ValueError):
        sample_blocker_fields(rng(1), Room(5.0, 5.0, 3.0), models)


def test_scene_is_immutable():
    scene = make_scene(n_per_side=1)
    with pytest.raises(AttributeError):
        scene.ue_height = 2.0
    assert isinstance(scene, Scene)
