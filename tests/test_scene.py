"""Scene construction and the stochastic samplers."""

import math
from dataclasses import replace

import numpy as np
import pytest

from irsvlc.config import ConfigError, RunConfig, build_scene, validate
from irsvlc.geometry import OrientedBoxes, unit_normal_from_polar
from irsvlc.irs import DEFAULT_MIRROR_REFLECTIVITY, MIRROR_HEIGHT, MIRROR_WIDTH
from irsvlc.scene import (BLOCKER_DIMS, MAX_MEAN_BLOCKERS, MAX_THETA_STD_DEG, BlockerModel,
                          OrientationModel, Room, Scene, _grid_centers, blocker_boxes,
                          blocker_draws, blocker_means, build_arrays, floor_draws,
                          sample_tilt_deg, sample_ue)
from irsvlc.simulator import trial_rng

from conftest import blocker_field, make_layout, make_scene, rng


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


@pytest.mark.parametrize("count", [0, 2])
def test_scene_needs_exactly_one_luminaire(count):
    ap = make_scene().aps[0]
    with pytest.raises(ValueError, match=f"exactly one luminaire, got {count}"):
        replace(make_scene(), aps=(ap,) * count)


def test_validate_still_reports_every_bad_key_with_its_wording():
    # the constructors' checks do not replace the config file's report
    with pytest.raises(ConfigError) as err:
        validate(RunConfig(room_length=math.nan, ap_x=9.0))
    assert "[room] length: must be finite" in err.value.errors


def test_validate_still_reports_a_range_error_with_its_wording():
    # the range checks run once every number is finite
    with pytest.raises(ConfigError) as err:
        validate(RunConfig(ap_x=9.0, pd_area=0.0))
    assert "[ue] area: must be positive" in err.value.errors


def test_room_walls_are_four_inward_frames():
    room = Room(5.0, 4.0, 3.0)
    walls = room.walls()
    assert len(walls) == 4
    for origin, u_dir, v_dir, u_len, v_len, normal in walls:
        # inward normal points from the wall midpoint toward the room center
        mid = origin + (u_len / 2) * u_dir + (v_len / 2) * v_dir
        to_center = np.array([2.5, 2.0, 1.5]) - mid
        assert float(to_center @ normal) > 0
        assert abs(float(u_dir @ v_dir)) < 1e-15
        assert abs(float(normal @ u_dir)) < 1e-15


def test_default_scene_structure():
    scene = make_scene()
    mirrors, metasurfaces = make_layout(n_per_side=50)
    assert len(mirrors) == 4 and metasurfaces == ()
    for arr in mirrors:
        assert len(arr) == 2500
    assert scene.aps[0].position.tolist() == [2.5, 2.5, 3.0]
    assert scene.aps[0].normal.tolist() == [0.0, 0.0, -1.0]


def test_default_scene_n50_spans_full_wall():
    arr = make_layout(n_per_side=50)[0][0]
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
    mirrors, _ = make_layout(n_per_side=1)
    assert [len(a) for a in mirrors] == [1, 1, 1, 1]
    centers = sorted(tuple(np.round(a.centers[0], 9)) for a in mirrors)
    assert centers == [(0.0, 2.5, 1.5), (2.5, 0.0, 1.5), (2.5, 5.0, 1.5),
                       (5.0, 2.5, 1.5)]


def test_default_scene_n51_does_not_fit():
    with pytest.raises(ValueError):
        make_layout(n_per_side=51)


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
    for origin, u_dir, v_dir, u_len, v_len, _normal in room.walls():
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
    mirrors, metasurfaces = make_layout(n_per_side=3, irs_type="metasurface")
    assert mirrors == () and len(metasurfaces) == 4
    for arr in metasurfaces:
        c = arr.centers.reshape(3, 3, 3)
        width = float(np.linalg.norm(c[0, 1] - c[0, 0]))
        height = float(np.linalg.norm(c[1, 0] - c[0, 0]))
        assert width * height == pytest.approx(0.006, rel=1e-12)


def test_scene_validation():
    with pytest.raises(ValueError):
        make_scene(ue_height=3.5)
    with pytest.raises(ValueError):
        make_scene(wall_reflectivity=1.2)


def test_orientation_model_validation():
    with pytest.raises(ValueError):
        OrientationModel(95.0, 9.0)
    with pytest.raises(ValueError):
        OrientationModel(41.0, 0.0)
    for spread in (MAX_THETA_STD_DEG * (1 + 1e-12), 1e9, math.inf, math.nan):
        with pytest.raises(ValueError, match="tilt spread"):
            OrientationModel(41.0, spread)


def test_widest_tilt_spread_still_samples():
    # at the bound, the truncation keeps >= 3.6 % of draws for any mean in [0, 90]
    r = rng(5)
    for mean in (0.0, 45.0, 90.0):
        model = OrientationModel(mean, MAX_THETA_STD_DEG)
        draws = [sample_tilt_deg(r, model) for _ in range(200)]
        assert all(0.0 <= d <= 90.0 for d in draws)


def test_sample_ue_support():
    scene = make_scene()
    r = rng(3)
    for _ in range(500):
        ue = sample_ue(r, scene)
        x, y, z = ue.position
        assert 0.0 <= x <= 5.0 and 0.0 <= y <= 5.0
        assert z == scene.ue_height
        assert abs(np.linalg.norm(ue.normal) - 1.0) < 1e-12
        assert ue.normal[2] >= 0.0  # never tilted past horizontal


def test_sample_ue_deterministic_per_stream():
    scene = make_scene()
    a = sample_ue(trial_rng(99, 5), scene)
    b = sample_ue(trial_rng(99, 5), scene)
    assert a.position.tolist() == b.position.tolist()
    assert a.normal.tolist() == b.normal.tolist()


@pytest.mark.parametrize("field, value, message", [
    ("pd_area", 0.0, "detector area"), ("pd_fov", 0.0, "field of view")])
def test_sample_ue_never_gets_a_bad_detector(field, value, message):
    # the scene checks its detector settings, so no pose can carry bad ones
    with pytest.raises(ValueError, match=message):
        sample_ue(trial_rng(1, 0), replace(make_scene(), **{field: value}))


def test_tilt_mean_matches_configuration():
    model = OrientationModel(41.0, 9.0)
    r = rng(17)
    draws = np.array([sample_tilt_deg(r, model) for _ in range(100_000)])
    assert abs(draws.mean() - 41.0) < 0.5
    assert draws.min() >= 0.0 and draws.max() <= 90.0


def test_tilt_degenerate_distribution_faces_up():
    scene = make_scene(theta_mean_deg=0.0, theta_std_deg=1e-9)
    ue = sample_ue(rng(1), scene)
    np.testing.assert_allclose(ue.normal, [0.0, 0.0, 1.0], atol=1e-6)


def _blocker_count(r, scene):
    field = blocker_field(r, scene.room, scene.blocker_model)
    return 0 if field is None else len(field)


def test_sample_blockers_empty_at_zero_density():
    scene = make_scene(0.0)
    assert blocker_field(rng(2), scene.room, scene.blocker_model) is None


def test_sample_blockers_shape_and_support():
    scene = make_scene(1.0)
    r = rng(5)
    seen = 0
    while seen < 200:
        field = blocker_field(r, scene.room, scene.blocker_model)
        if field is None:
            continue
        assert field.half_extents == (BLOCKER_DIMS[0] / 2, BLOCKER_DIMS[1] / 2,
                                      BLOCKER_DIMS[2] / 2)
        assert (field.center[:, 2] == BLOCKER_DIMS[2] / 2).all()  # base on the floor
        assert ((0.0 <= field.yaw) & (field.yaw < math.pi)).all()
        seen += len(field)


def test_sample_blockers_count_mean():
    scene = make_scene(1.0)
    r = rng(29)
    counts = [_blocker_count(r, scene) for _ in range(2000)]
    # Poisson(25): 3 sigma over 2000 draws
    assert abs(np.mean(counts) - 25.0) < 3 * math.sqrt(25.0 / 2000)


def test_sample_blockers_match_the_field_draws():
    # the one-row slices of a field hold exactly the field's draws
    scene = make_scene(1.0)
    field = blocker_field(rng(6), scene.room, scene.blocker_model)
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
    empty = make_scene(0.0)
    assert blocker_field(rng(6), empty.room, empty.blocker_model) is None


def test_blocker_means_stop_at_the_memory_bound():
    # on a 1 m x 1 m floor the mean is the density itself
    room = Room(1.0, 1.0, 3.0)
    assert MAX_MEAN_BLOCKERS == 1e5
    assert blocker_means(room, (MAX_MEAN_BLOCKERS,)) == (MAX_MEAN_BLOCKERS,)
    above = math.nextafter(MAX_MEAN_BLOCKERS, math.inf)
    for density in (above, 1e308):
        with pytest.raises(ValueError, match="one field may hold"):
            blocker_means(room, (0.0, density))
    with pytest.raises(ValueError, match="one field may hold"):  # 1e308 * 25 overflows to inf
        blocker_means(Room(5.0, 5.0, 3.0), (1e308,))


def test_blocker_means_keep_order_and_duplicates():
    room = Room(6.0, 4.5, 3.0)
    densities = (0.0, 0.01, 0.5, 4.0, 0.5)
    assert blocker_means(room, densities) == tuple(d * 6.0 * 4.5 for d in densities)


@pytest.mark.parametrize("density", [math.nan, math.inf, -1.0])
def test_blocker_model_rejects_a_bad_density(density):
    with pytest.raises(ValueError, match="non-negative and finite"):
        BlockerModel(density)
    with pytest.raises(ValueError, match="non-negative and finite"):  # the same check
        blocker_means(Room(5.0, 5.0, 3.0), (1.0, density))


# the smallest subnormal halves to 0, which is no valid box half extent
@pytest.mark.parametrize("dims", [(math.nan, 0.2, 1.75), (0.75, math.inf, 1.75),
                                  (0.75, 0.2, 0.0), (5e-324, 0.2, 1.75)])
def test_blocker_model_rejects_bad_dimensions(dims):
    with pytest.raises(ValueError, match="positive and finite"):
        BlockerModel(1.0, dims)


def _uniform_pose(r, scene):
    """Reference: a pose's draws (x, y, tilt, azimuth) with Generator.uniform."""
    x = r.uniform(0.0, scene.room.length)
    y = r.uniform(0.0, scene.room.width)
    theta = math.radians(sample_tilt_deg(r, scene.orientation_model))
    return x, y, theta, r.uniform(0.0, 2.0 * math.pi)


def _uniform_field(r, room, model):
    """Reference: one field's (n, 3) centers and yaws, drawn (count, x, y, yaw) with uniform."""
    lam = model.density * room.length * room.width
    count = 0 if lam == 0.0 else int(r.poisson(lam))
    xs = r.uniform(0.0, room.length, count)
    ys = r.uniform(0.0, room.width, count)
    yaws = r.uniform(0.0, math.pi, count)
    return np.column_stack((xs, ys, np.full(count, model.dims[2] / 2.0))), yaws


# mean counts 2.5, 25 and 100: numpy's multiplication Poisson sampler, then PTRS
@pytest.mark.parametrize("density", [0.0, 0.1, 1.0, 4.0])
def test_pose_and_blocker_draws_match_the_uniform_reference(density):
    scene = make_scene(density)
    room, model = scene.room, scene.blocker_model
    drawn = 0
    for t in range(300):
        got, want = trial_rng(5, t), trial_rng(5, t)
        ue = sample_ue(got, scene)
        x, y, theta, omega = _uniform_pose(want, scene)
        assert ue.position.tobytes() == np.array((x, y, scene.ue_height)).tobytes()
        assert ue.normal.tobytes() == unit_normal_from_polar(theta, omega).tobytes()
        field = blocker_field(got, room, model)
        centers, yaws = _uniform_field(want, room, model)
        assert got.bit_generator.state == want.bit_generator.state
        if field is None:
            assert len(yaws) == 0
            continue
        assert field.center.tobytes() == centers.tobytes()
        assert field.yaw.tobytes() == yaws.tobytes()
        assert field.half_extents == tuple(d / 2.0 for d in model.dims)
        drawn += len(field)
    assert (drawn > 0) == (density > 0.0)


def test_multi_density_rows_match_the_per_model_reference():
    # a non-square room, so a swapped length and width would show
    room = Room(6.0, 4.5, 3.0)
    models = [BlockerModel(d) for d in (0.1, 0.0, 4.0, 1.0, 0.1)]
    for t in range(300):
        r = trial_rng(8, t)
        r.random(4)  # stands in for the pose
        draws = blocker_draws(r, blocker_means(room, [m.density for m in models]))
        offsets = np.cumsum([0] + [unit.shape[1] for unit in draws]).tolist()
        boxes = blocker_boxes(*floor_draws(draws, room), BLOCKER_DIMS)
        for k, model in enumerate(models):
            want = trial_rng(8, t)
            want.random(4)
            centers, yaws = _uniform_field(want, room, model)
            assert offsets[k + 1] - offsets[k] == len(yaws)
            if len(yaws):
                rows = slice(offsets[k], offsets[k + 1])
                assert boxes.center[rows].tobytes() == centers.tobytes()
                assert boxes.yaw[rows].tobytes() == yaws.tobytes()
        assert len(boxes) == offsets[-1]


def test_sampled_boxes_pass_the_checks_they_skip():
    # yaws are pi * r and azimuths tau * r for a double r < 1
    assert math.pi * math.nextafter(1.0, 0.0) < math.pi
    assert math.tau * math.nextafter(1.0, 0.0) < math.tau
    assert math.tau == 2.0 * math.pi
    room = Room(6.0, 4.5, 3.0)
    sets = 0
    for t in range(300):
        draws = blocker_draws(trial_rng(9, t), blocker_means(room, (0.0, 0.1, 1.0, 4.0)))
        if not any(unit.size for unit in draws):
            continue
        boxes = blocker_boxes(*floor_draws(draws, room), (0.3, 1.1, 2.0))
        # the checked constructor keeps float64 arrays as they are
        checked = OrientedBoxes(boxes.center, boxes.half_extents, boxes.yaw)
        assert checked.center is boxes.center and checked.yaw is boxes.yaw
        assert checked.half_extents == boxes.half_extents == (0.15, 0.55, 1.0)
        sets += 1
    assert sets > 0


def test_scene_is_immutable():
    scene = make_scene()
    with pytest.raises(AttributeError):
        scene.ue_height = 2.0
    assert isinstance(scene, Scene)


def test_scenes_compare_by_identity():
    # the ndarray fields of a scene, its luminaires and a detector give no single truth
    # value, so == is identity and never raises
    a, b = build_scene(RunConfig(), 0.0), build_scene(RunConfig(), 0.0)
    assert a == a and a.aps[0] == a.aps[0]
    assert a != b and a.aps[0] != b.aps[0]
    ue = sample_ue(rng(0), a)
    assert ue == ue and ue != sample_ue(rng(0), a)
