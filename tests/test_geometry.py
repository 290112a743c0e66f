"""Vector primitives and the oriented-box occlusion test."""

import math

import numpy as np
import pytest

from irsvlc.channel import shadowed, shadowed_mask
from irsvlc.geometry import (OrientedBoxes, normalize, segments_intersect_box,
                             unit_normal_from_polar, vec3)
from irsvlc.oracles import _interior_interval
from irsvlc.scene import BlockerModel, Room, sample_blocker_field

from conftest import one_box, rng


def hits(p, q, box):
    """The slab test on the single segment p->q."""
    return bool(segments_intersect_box(np.asarray(p)[None, :], np.asarray(q)[None, :], box)[0])


def test_vec3_rejects_non_finite():
    with pytest.raises(ValueError):
        vec3(1.0, float("nan"), 0.0)
    with pytest.raises(ValueError):
        vec3(float("inf"), 0.0, 0.0)


def test_normalize_rejects_zero_vector():
    with pytest.raises(ValueError):
        normalize(np.zeros(3))


def test_unit_normal_upward_at_zero_polar():
    np.testing.assert_allclose(unit_normal_from_polar(0.0, 1.23), [0.0, 0.0, 1.0],
                               atol=1e-15)


def test_unit_normal_horizontal():
    np.testing.assert_allclose(unit_normal_from_polar(math.pi / 2, 0.0),
                               [1.0, 0.0, 0.0], atol=1e-15)


def test_unit_normal_quarter_tilt():
    # theta=45 deg, omega=90 deg: no x component, equal y and z
    n = unit_normal_from_polar(math.pi / 4, math.pi / 2)
    np.testing.assert_allclose(n, [0.0, math.sqrt(2) / 2, math.sqrt(2) / 2],
                               atol=1e-15)


def test_unit_normal_range_checks():
    with pytest.raises(ValueError):
        unit_normal_from_polar(-0.01, 0.0)
    with pytest.raises(ValueError):
        unit_normal_from_polar(math.pi / 2 + 0.01, 0.0)
    with pytest.raises(ValueError):
        unit_normal_from_polar(0.5, 2 * math.pi)


def test_unit_normal_is_unit_everywhere():
    r = rng(7)
    for _ in range(1000):
        n = unit_normal_from_polar(r.uniform(0, math.pi / 2),
                                   r.uniform(0, 2 * math.pi))
        assert abs(np.linalg.norm(n) - 1.0) <= 1e-12


def test_oriented_box_validation():
    def build(center, half, yaw):
        return OrientedBoxes(np.array(center, dtype=float), half, np.array(yaw, dtype=float))

    with pytest.raises(ValueError, match="half extents must be positive"):
        build([[0, 0, 0]], (1.0, -0.1, 1.0), [0.0])
    with pytest.raises(ValueError, match=r"yaw 3.14\d* outside \[0, pi\)"):
        build([[0, 0, 0]], (1.0, 1.0, 1.0), [math.pi])
    with pytest.raises(ValueError, match=r"yaw nan outside \[0, pi\)"):
        build([[0, 0, 0], [1, 1, 1]], (1.0, 1.0, 1.0), [0.2, math.nan])
    with pytest.raises(ValueError, match=r"yaw -1e-12 outside \[0, pi\)"):
        build([[0, 0, 0]], (1.0, 1.0, 1.0), [-1e-12])
    with pytest.raises(ValueError, match=r"center has shape \(2, 3\), want \(1, 3\)"):
        build([[0, 0, 0], [1, 1, 1]], (1.0, 1.0, 1.0), [0.2])


def test_oriented_box_contains_interior():
    box = one_box(vec3(0, 0, 0), (1.0, 0.5, 2.0), math.pi / 4)
    assert box.contains_interior(vec3(0, 0, 0)).tolist() == [True]
    # the +x face midpoint moved by the yaw; a point past the local x extent is out
    assert box.contains_interior(vec3(1.0, 0.0, 0.0)).tolist() == [False]
    # surface points do not count
    assert box.contains_interior(vec3(0, 0, 2.0)).tolist() == [False]


def test_segment_rejects_coincident_endpoints():
    with pytest.raises(ValueError):
        shadowed(vec3(1, 2, 3), vec3(1, 2, 3), ())


def test_segment_box_disjoint():
    box = one_box(vec3(0, 0, 0), (1, 1, 1), 0.0)
    assert not hits(vec3(10, 10, -5), vec3(10, 10, 5), box)


def test_segment_box_through_blocker_center():
    # vertical sight line through an upright blocker standing on the floor
    box = one_box(vec3(0, 0, 0.875), (0.375, 0.1, 0.875), 0.0)
    assert hits(vec3(0, 0, 0), vec3(0, 0, 3), box)


def test_segment_box_surface_touch_does_not_count():
    box = one_box(vec3(0, 0, 0), (1, 1, 1), 0.0)
    # runs along the x=1 face
    assert not hits(vec3(1, -2, 0), vec3(1, 2, 0), box)
    # ends exactly on a face
    assert not hits(vec3(3, 0, 0), vec3(1, 0, 0), box)
    # runs in the plane of the top face
    assert not hits(vec3(0, -3, 1), vec3(0, 3, 1), box)


def test_segment_box_stops_inside():
    box = one_box(vec3(0, 0, 0), (1, 1, 1), 0.0)
    assert hits(vec3(5, 0, 0), vec3(0.5, 0, 0), box)


def test_segment_box_endpoint_symmetry():
    r = rng(23)
    for _ in range(2000):
        box = one_box(r.uniform(-1, 1, 3), tuple(r.uniform(0.1, 1.5, 3)),
                      r.uniform(0, math.pi))
        p, q = r.uniform(-3, 3, 3), r.uniform(-3, 3, 3)
        if np.array_equal(p, q):
            continue
        assert hits(p, q, box) == hits(q, p, box)


def _rot_z(p, angle, center):
    c, s = math.cos(angle), math.sin(angle)
    d = p - center
    return center + np.array([c * d[0] - s * d[1], s * d[0] + c * d[1], d[2]])


def test_segment_box_yaw_equals_rotated_frame():
    # box with yaw vs the yaw-0 box against the counter-rotated segment
    r = rng(31)
    checked = 0
    while checked < 2000:
        center = r.uniform(-1, 1, 3)
        half = tuple(r.uniform(0.1, 1.5, 3))
        yaw = r.uniform(0, math.pi)
        p, q = r.uniform(-3, 3, 3), r.uniform(-3, 3, 3)
        if np.array_equal(p, q):
            continue
        yawed = one_box(center, half, yaw)
        flat = one_box(center, half, 0.0)
        # exclude near-tangent cases: verdicts must be stable under tiny inflation
        grown = one_box(center, tuple(h + 1e-6 for h in half), yaw)
        shrunk = one_box(center, tuple(h - 1e-6 for h in half), yaw)
        if hits(p, q, grown) != hits(p, q, shrunk):
            continue
        assert hits(p, q, yawed) == \
            hits(_rot_z(p, -yaw, center), _rot_z(q, -yaw, center), flat)
        checked += 1


def _grazing_segments(box, r, n=200):
    """Segments near a one-row box set: level with its top, ending on a face, parallel to a face.

    The last kind runs at a fixed world x, which is a fixed box-local x only
    for a box at yaw 0.
    """
    c = box.center[0]
    hx, hy, hz = box.half_extents
    cos_y, sin_y = math.cos(box.yaw[0]), math.sin(box.yaw[0])
    starts, ends = c + r.uniform(-1.5, 1.5, (n, 3)), c + r.uniform(-1.5, 1.5, (n, 3))
    k = n // 4
    starts[:k, 2] = ends[:k, 2] = c[2] + hz
    u, v = r.choice((-hx, hx), k), r.uniform(-hy, hy, k)
    ends[k:2 * k] = c + np.column_stack((cos_y * u - sin_y * v, sin_y * u + cos_y * v,
                                         r.uniform(-hz, hz, k)))
    starts[2 * k:3 * k, 0] = ends[2 * k:3 * k, 0] = c[0] + r.choice((-1, -0.5, 0, 1), k) * hx
    return starts, ends


def _floor_fields(r):
    """A sampled blocker field and the same boxes turned to yaw 0."""
    field = sample_blocker_field(r, Room(5.0, 5.0, 3.0), BlockerModel(1.0))
    return field, OrientedBoxes(field.center, field.half_extents, np.zeros(len(field)))


def _rows(field, count=None):
    """The first count boxes of a set (all by default), each as a one-row set."""
    return [field[k:k + 1] for k in range(min(len(field), count or len(field)))]


def test_segments_intersect_box_matches_scalar():
    # the oracles' scalar slab loop gives a positive interior interval exactly
    # where the vectorized test reports a crossing, also for floor-standing
    # blockers and segments that graze their faces
    r = rng(43)
    box = one_box(vec3(0.5, -0.25, 0.1), (0.8, 0.3, 1.1), 0.7)
    starts = r.uniform(-3, 3, (5000, 3))
    ends = r.uniform(-3, 3, (5000, 3))
    assert 0 < segments_intersect_box(starts, ends, box).sum() < len(starts)
    cases = [(box, starts, ends)]
    for field in _floor_fields(r):
        cases += [(b, *_grazing_segments(b, r)) for b in _rows(field, 6)]
    for box, starts, ends in cases:
        got = segments_intersect_box(starts, ends, box)
        assert got.tolist() == [_interior_interval(p, q, box) > 0.0 for p, q in zip(starts, ends)]


def test_segments_intersect_box_handles_axis_parallel():
    box = one_box(vec3(0, 0, 0), (1, 1, 1), 0.0)
    starts = np.array([[0.0, 0.0, -5.0], [2.0, 0.0, -5.0], [1.0, 0.0, -5.0]])
    ends = np.array([[0.0, 0.0, 5.0], [2.0, 0.0, 5.0], [1.0, 0.0, 5.0]])
    got = segments_intersect_box(starts, ends, box)
    assert got.tolist() == [True, False, False]  # face-touching third case


def test_segments_intersect_box_broadcasts_over_boxes():
    r = rng(44)
    field = OrientedBoxes(r.uniform(-2, 2, (400, 3)), (0.4, 0.1, 0.9),
                          r.uniform(0.0, math.pi, 400))
    cases = [(field, [(r.uniform(-3, 3, 3), r.uniform(-3, 3, 3)) for _ in range(25)])]
    for floor in _floor_fields(r):
        segments = [_grazing_segments(b, r, n=12) for b in _rows(floor, 4)]
        cases.append((floor, [(p, q) for starts, ends in segments for p, q in zip(starts, ends)]))
    for field, segments in cases:
        boxes = _rows(field)
        for p, q in segments:
            got = segments_intersect_box(p[None, :], q[None, :], field).tolist()
            assert got == [hits(p, q, b) for b in boxes]
            assert got == [_interior_interval(p, q, b) > 0.0 for b in boxes]
            for end in (p, q):
                assert field.contains_interior(end).tolist() == \
                    [bool(b.contains_interior(end)[0]) for b in boxes]
    # shadowed_mask's per-box loop over one-row slices, with its pruning of
    # blocked segments, on sampled fields and segments level with the box tops
    hit = 0
    for _ in range(20):
        field = sample_blocker_field(r, Room(5.0, 5.0, 3.0), BlockerModel(2.0))
        starts, ends = r.uniform((0, 0, 0), (5, 5, 3), (2, 100, 3))
        starts[:25, 2] = ends[:25, 2] = field.center[0, 2] + field.half_extents[2]
        want = segments_intersect_box(starts[:, None, :], ends[:, None, :], field).any(axis=1)
        assert shadowed_mask(starts, ends, field).tolist() == want.tolist()
        hit += int(want.sum())
    assert 0 < hit < 20 * 100


def test_zero_length_segment_is_the_containment_test():
    # a segment from a point to itself reports whether the point lies in the
    # box interior, so one slab call can serve the containment test too
    r = rng(45)
    for field in _floor_fields(r):
        faces = field.center[:, None, :] + np.array(field.half_extents) * r.choice(
            (-1.0, -0.5, 0.0, 0.5, 1.0), (len(field), 8, 3))
        for p in np.concatenate((r.uniform(0.0, 5.0, (200, 3)), faces.reshape(-1, 3))):
            got = segments_intersect_box(p[None, :], p[None, :], field)
            assert got.tolist() == field.contains_interior(p).tolist()


def test_stacked_segments_give_the_per_segment_verdicts():
    # (m, 1, 3) endpoints test m segments against every box at once
    r = rng(46)
    field = _floor_fields(r)[0]
    starts, ends = r.uniform(0.0, 5.0, (6, 3)), r.uniform(0.0, 5.0, (6, 3))
    got = segments_intersect_box(starts[:, None, :], ends[:, None, :], field)
    assert got.shape == (6, len(field))
    for row, p, q in zip(got, starts, ends):
        assert row.tolist() == segments_intersect_box(p[None, :], q[None, :], field).tolist()


def test_may_cut_keeps_every_box_the_slab_test_hits():
    r = rng(47)
    for field in _floor_fields(r) + _floor_fields(r):
        for _ in range(200):
            p = np.array([*r.uniform(0.0, 5.0, 2), r.uniform(0.0, 3.0)])
            q = np.array([*r.uniform(0.0, 5.0, 2), r.uniform(0.0, 3.0)])
            hit = segments_intersect_box(p[None, :], q[None, :], field)
            assert not (hit & ~field.may_cut(p, q)).any()
            assert not (field.contains_interior(q) & ~field.may_cut(p, q)).any()


def test_boxes_compute_their_yaw_cosines_on_first_use():
    field = _floor_fields(rng(48))[0]
    assert "_cos_sin" not in vars(field)
    kept = field[[2, 0]]
    kept.contains_interior(np.array([1.0, 1.0, 1.0]))
    assert [c.tolist() for c in kept._cos_sin] == \
        [[math.cos(y) for y in kept.yaw.tolist()], [math.sin(y) for y in kept.yaw.tolist()]]
