"""Steerable mirror and metasurface cascades and element steering."""

import math

import numpy as np
import pytest

from irsvlc import (Luminaire, MirrorElement, PhotoDetector, ReflectorArray, ReflectorBank,
                    Room, build_arrays, mirror_element_gain, optimal_mirror_normal, shadowed,
                    vec3)
from irsvlc.geometry import unit_normal_from_polar
from irsvlc.oracles import reflector_cell_gains

from conftest import box_set, make_layout, make_scene, one_box, rng

S = 1.0 / math.sqrt(2.0)


def _symmetric_cascade(scale):
    """AP and detector two meters from the element, mirror-symmetric about +x."""
    ap = Luminaire(vec3(2 * S, 2 * S, 0.0), vec3(-S, -S, 0.0), 1.0)
    ue = PhotoDetector(vec3(2 * S, -2 * S, 0.0), vec3(-S, S, 0.0))
    # both legs have unit cos, d1 = d2 = 2: scale * 2 * 1e-4 / (2 pi 16)
    return ap, ue, scale * 2.0 * 1e-4 / (32.0 * math.pi)


def _mirror_bank(ap, arr):
    return ReflectorBank(ap, (arr,))


def _msa_bank(ap, arr):
    return ReflectorBank(ap, (), (arr,))


# -- optimal element orientation -----------------------------------------------


def test_optimal_normal_reflects_source_onto_target():
    r = rng(414)
    for _ in range(100):
        c, src, dst = r.uniform(-3.0, 3.0, size=(3, 3))
        if np.allclose(src, c) or np.allclose(dst, c):
            continue
        n = optimal_mirror_normal(src, c, dst)
        assert np.linalg.norm(n) == pytest.approx(1.0, rel=1e-12)
        d_in = (c - src) / np.linalg.norm(c - src)
        reflected = d_in - 2.0 * float(d_in @ n) * n
        want = (dst - c) / np.linalg.norm(dst - c)
        assert reflected == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_optimal_normal_symmetric_pair_gives_bisector():
    n = optimal_mirror_normal(vec3(2, 3, 1), vec3(0, 0, 0), vec3(2, -3, -1))
    assert n == pytest.approx(np.array([1.0, 0.0, 0.0]), abs=1e-12)


def test_optimal_normal_retroreflects_coincident_endpoints():
    n = optimal_mirror_normal(vec3(1, 2, 2), vec3(0, 0, 0), vec3(1, 2, 2))
    assert n == pytest.approx(np.array([1, 2, 2]) / 3.0, rel=1e-12)


def test_optimal_normal_degenerate_geometries_raise():
    with pytest.raises(ValueError):
        optimal_mirror_normal(vec3(1, 0, 0), vec3(0, 0, 0), vec3(-2, 0, 0))
    with pytest.raises(ValueError):
        optimal_mirror_normal(vec3(0, 0, 0), vec3(0, 0, 0), vec3(1, 1, 1))


# -- single mirror element -----------------------------------------------------


def test_element_gain_symmetric_value():
    ap, ue, want = _symmetric_cascade(0.95)
    elem = MirrorElement(vec3(0, 0, 0), optimal_mirror_normal(ap.position, vec3(0, 0, 0), ue.position))
    assert elem.normal == pytest.approx(np.array([1.0, 0.0, 0.0]), abs=1e-12)
    assert mirror_element_gain(ap, elem, ue) == pytest.approx(want, rel=1e-12)


def test_element_gain_back_face_is_zero():
    ap, ue, _ = _symmetric_cascade(0.95)
    elem = MirrorElement(vec3(0, 0, 0), vec3(-1, 0, 0))
    assert mirror_element_gain(ap, elem, ue) == 0.0


def test_element_gain_blocked_legs_are_zero():
    ap, ue, want = _symmetric_cascade(0.95)
    elem = MirrorElement(vec3(0, 0, 0), vec3(1, 0, 0))
    on_ap_leg = one_box(ap.position / 2.0, (0.05, 0.05, 0.05), 0.0)
    on_ue_leg = one_box(ue.position / 2.0, (0.05, 0.05, 0.05), 0.0)
    assert mirror_element_gain(ap, elem, ue) == pytest.approx(want, rel=1e-12)
    assert mirror_element_gain(ap, elem, ue, on_ap_leg) == 0.0
    assert mirror_element_gain(ap, elem, ue, on_ue_leg) == 0.0


def test_element_gain_footprint_gates_misaligned_mirror():
    # normal-incidence source, detector off to the side: the image ray crosses
    # the mirror plane half a meter from the element, far outside the 10 cm face
    # but inside a 1.2 m one
    ap = Luminaire(vec3(2, 0, 0), vec3(-1, 0, 0), 1.0)
    ue = PhotoDetector(vec3(2, 1, 0), vec3(-1, 0, 0))
    elem = MirrorElement(vec3(0, 0, 0), vec3(1, 0, 0))
    wide = MirrorElement(vec3(0, 0, 0), vec3(1, 0, 0), width=1.2, height=1.2)
    assert mirror_element_gain(ap, elem, ue) == 0.0
    assert mirror_element_gain(ap, wide, ue) > 0.0


def test_element_gain_fov_cutoff():
    ap, ue, _ = _symmetric_cascade(0.95)
    narrow = PhotoDetector(ue.position, ue.normal, fov=math.radians(10.0))
    aligned = PhotoDetector(ue.position, ue.normal, fov=math.radians(12.0))
    elem = MirrorElement(vec3(0, 0, 0), vec3(1, 0, 0))
    # the element sits on the detector boresight here, so tilt the detector
    tilted = PhotoDetector(ue.position, vec3(0.0, 1.0, 0.0), fov=math.radians(40.0))
    assert mirror_element_gain(ap, elem, tilted) == 0.0
    assert mirror_element_gain(ap, elem, narrow) > 0.0
    assert mirror_element_gain(ap, elem, aligned) > 0.0


def test_element_gain_coincident_detector_raises():
    ap, _, _ = _symmetric_cascade(0.95)
    elem = MirrorElement(vec3(0, 0, 0), vec3(1, 0, 0))
    ue = PhotoDetector(vec3(0, 0, 0), vec3(1, 0, 0))
    with pytest.raises(ValueError):
        mirror_element_gain(ap, elem, ue)


def test_element_validation():
    with pytest.raises(ValueError):
        MirrorElement(vec3(0, 0, 0), vec3(1, 0, 0), width=0.0)
    with pytest.raises(ValueError):
        MirrorElement(vec3(0, 0, 0), vec3(1, 0, 0), reflectivity=1.01)


# -- mirror arrays -------------------------------------------------------------


def test_ma_singleton_matches_steered_element():
    ap, ue, want = _symmetric_cascade(0.95)
    c = vec3(0, 0, 0)
    elem = MirrorElement(c, optimal_mirror_normal(ap.position, c, ue.position))
    arr = ReflectorArray(vec3(1, 0, 0), c[None, :], elem.reflectivity)
    got = _mirror_bank(ap, arr).gain(ue)
    assert got == pytest.approx(mirror_element_gain(ap, elem, ue), rel=1e-12)
    assert got == pytest.approx(want, rel=1e-12)


def test_ma_matches_per_element_hand_sum():
    ap = Luminaire(vec3(2.5, 2.5, 3.0), vec3(0, 0, -1), 1.0)
    ue = PhotoDetector(vec3(3.4, 1.2, 1.1), vec3(0.1, 0.2, 0.97))
    centers = [vec3(0, 2.45, 1.47), vec3(0, 2.55, 1.47),
               vec3(0, 2.45, 1.53), vec3(0, 2.55, 1.53)]
    elems = [MirrorElement(c, optimal_mirror_normal(ap.position, c, ue.position))
             for c in centers]
    arr = ReflectorArray(vec3(1, 0, 0), np.array(centers), elems[0].reflectivity)
    want = math.fsum(mirror_element_gain(ap, e, ue) for e in elems)
    assert want > 0.0
    assert _mirror_bank(ap, arr).gain(ue) == pytest.approx(want, rel=1e-12)


def test_ma_channel_vector_reports_leg_lengths():
    ap, ue, _ = _symmetric_cascade(0.95)
    arr = ReflectorArray(vec3(1, 0, 0), np.zeros((1, 3)), 0.95)
    assert _mirror_bank(ap, arr).d1[0] == pytest.approx(2.0, rel=1e-12)


def test_precomputed_source_leg_gives_identical_vectors():
    # a layout's bank holds every array's source legs; each array's slice of it
    # has the bytes of that array's own one-array bank
    ap = make_scene().aps[0]
    ue = PhotoDetector(vec3(1.2, 3.1, 1.0), unit_normal_from_polar(0.6, 2.0))
    lit = 0
    for mirrors, metasurfaces in (make_layout(n_per_side=8, irs_type="mirror"),
                                  make_layout(n_per_side=8, irs_type="metasurface")):
        bank = ReflectorBank(ap, mirrors, metasurfaces)
        cached = bank.cascade(ue)
        start = 0
        for arr in mirrors + metasurfaces:
            cells = slice(start, start + len(arr))
            start = cells.stop
            own = _mirror_bank(ap, arr) if mirrors else _msa_bank(ap, arr)
            fresh = own.cascade(ue)
            assert fresh.tobytes() == cached[cells].tobytes()
            assert own.d1.tolist() == bank.d1[cells].tolist()
            lit += int((fresh > 0.0).sum())
        assert start == len(bank)
    assert lit > 0


def _random_poses(r, count, max_wall_gap=None):
    """count detectors anywhere in the room, or within max_wall_gap of a wall."""
    poses = []
    for _ in range(count):
        pos = r.uniform((0.0, 0.0, 0.1), (5.0, 5.0, 2.9))
        if max_wall_gap is not None:
            gap = 10.0 ** r.uniform(math.log10(max_wall_gap) - 6.0, math.log10(max_wall_gap))
            axis = int(r.integers(0, 2))
            pos[axis] = gap if r.random() < 0.5 else 5.0 - gap
        normal = r.normal(size=3)
        poses.append(PhotoDetector(pos, normal / np.linalg.norm(normal)))
    return poses


def _full_antipodal_cascade(bank, source, ue, tol=1e-12):
    """A mirror bank's unblocked gains as its kernel computed them when it tested every
    cell's legs for antipodes (1 + cos <= tol) on every pose."""
    x, y, z = ue.position.tolist()
    nx, ny, nz = (-ue.normal).tolist()
    vx, vy, vz = x - bank.cx, y - bank.cy, z - bank.cz
    d2, g = vx * vx, vy * vy
    d2 += g
    d2 += np.multiply(vz, vz, out=g)
    np.sqrt(d2, out=d2)
    ux, uy, uz = np.ascontiguousarray((source - bank.centers).T)
    antipodal_ok = (ux * vx + uy * vy + uz * vz) / (bank.d1 * d2) > -1.0 + tol
    cos_psi = np.multiply(vx, nx, out=g)
    cos_psi += np.multiply(vy, ny, out=vy)
    cos_psi += np.multiply(vz, nz, out=vz)
    cos_psi /= d2
    ok = (cos_psi >= math.cos(ue.fov)) & antipodal_ok
    total_d = np.add(bank.d1, d2, out=d2)
    total_d *= total_d
    gains = np.multiply(bank.weight, cos_psi, out=g)
    gains /= total_d
    gains *= ue.area / (2.0 * math.pi)
    np.copyto(gains, 0.0, where=~ok)
    return gains


def test_cascade_matches_the_full_antipodal_test():
    # a source that clears every mirror array leaves no antipodal cell for a detector
    # on or in front of the walls, even within 1e-6 m of one or on its plane
    ap = make_scene().aps[0]
    bank = ReflectorBank(ap, make_layout(n_per_side=50)[0])
    r = rng(2_026)
    poses = _random_poses(r, 60) + _random_poses(r, 60, 1e-6) + _random_poses(r, 60, 1e-3)
    # sample_ue reaches the x = 0 and y = 0 planes when its draw is 0.0
    poses += [PhotoDetector(vec3(x, y, 1.0), unit_normal_from_polar(theta, omega))
              for x, y in ((0.0, 1.3), (2.2, 0.0), (0.0, 0.0))
              for theta, omega in ((0.0, 0.0), (1.0, 0.5), (1.5, 3.0), (0.7, 4.5))]
    lit = 0
    for ue in poses:
        got = bank.cascade(ue)
        assert got.tobytes() == _full_antipodal_cascade(bank, ap.position, ue).tobytes()
        lit += int((got > 0.0).sum())
    assert lit > 0


def test_a_source_on_a_mirror_plane_is_refused():
    # the source stands on the first cell's plane, so that cell's legs are antipodal
    # for the detector below it; the bank refuses the source instead of dropping the cell
    ap = Luminaire(vec3(1.0, 2.5, 3.0), vec3(0, 0, -1), 1.0)
    centers = np.array([[1.0, 2.5, 1.5], [0.0, 2.5, 1.5]])
    arr = ReflectorArray(vec3(1, 0, 0), centers, 0.95)
    with pytest.raises(ValueError, match="in front of every mirror array"):
        _mirror_bank(ap, arr)
    # a metasurface array there is fine: its source test is per cell
    assert _msa_bank(ap, arr).weight[1] > 0.0


def test_the_source_must_clear_a_mirror_array_by_the_margin():
    # the margin is 1e-5 times the largest d1, here 1 m to rounding
    arr = ReflectorArray(vec3(1, 0, 0), np.array([[0.0, 2.5, 1.5]]), 0.95)
    for x, ok in ((0.99e-5, False), (1.01e-5, True), (-0.5, False)):
        ap = Luminaire(vec3(x, 2.5, 2.5), vec3(0, 0, -1), 1.0)
        if ok:
            assert _mirror_bank(ap, arr).weight[0] > 0.0
        else:
            with pytest.raises(ValueError, match="in front of every mirror array"):
                _mirror_bank(ap, arr)


# -- reflector bank ---------------------------------------------------------------


def _mixed(n_per_side):
    """A tilted, off-center source and a layout of mirrors and metasurfaces on every wall."""
    room = Room(5.0, 5.0, 3.0)
    ap = Luminaire(vec3(1.2, 3.6, 2.9), vec3(0.2, -0.1, -1.0), 2.0)
    return ap, (build_arrays(room, n_per_side, 0.9), build_arrays(room, n_per_side, 0.7))


@pytest.mark.parametrize("n_per_side", [1, 2, 3, 4, 5])
def test_bank_cells_match_the_single_cell_reference(n_per_side):
    ap, layout = _mixed(n_per_side)
    bank = ReflectorBank(ap, *layout)
    assert len(bank) == 8 * n_per_side ** 2
    r = rng(600 + n_per_side)
    # detectors beyond the walls see the backs of the cells there
    outside = [PhotoDetector(r.uniform((-1.0, -1.0, 0.1), (6.0, 6.0, 2.9)),
                             n / np.linalg.norm(n)) for n in r.normal(size=(25, 3))]
    lit = 0
    for ue in _random_poses(r, 25) + _random_poses(r, 25, 1e-6) + outside:
        got = bank.cascade(ue)
        want = reflector_cell_gains(ap, layout, ue)
        assert ((got == 0.0) == (want == 0.0)).all()
        nonzero = want != 0.0
        if nonzero.any():
            assert np.max(np.abs(got - want)[nonzero] / want[nonzero]) <= 1e-12
        lit += int(nonzero[:bank.n_mirror].any()) + int(nonzero[bank.n_mirror:].any())
    assert lit > 0


def test_bank_blockers_drop_exactly_the_shadowed_cells():
    ap, layout = _mixed(4)
    bank = ReflectorBank(ap, *layout)
    source = ap.position
    r = rng(77)
    dropped = kept = 0
    for ue in _random_poses(r, 10):
        # one box set shares its half extents, so they are drawn once per pose
        boxes = box_set(r.uniform(0.1, 0.6, 3),
                        ((r.uniform((0.5, 0.5, 0.3), (4.5, 4.5, 1.5)), r.uniform(0.0, math.pi))
                         for _ in range(4)))
        clear = bank.cascade(ue)
        got = bank.cascade(ue, boxes)
        for i, c in enumerate(bank.centers):
            blocked = shadowed(source, c, boxes) or shadowed(c, ue.position, boxes)
            assert got[i] == (0.0 if blocked else clear[i])
            dropped += bool(blocked and clear[i] > 0.0)
            kept += bool(got[i] > 0.0)
    assert dropped > 0 and kept > 0


@pytest.mark.parametrize("ap, layout", [(make_scene().aps[0], make_layout(n_per_side=50)),
                                        _mixed(5)], ids=["stock", "mixed"])
def test_bank_total_within_the_summation_bound(ap, layout):
    # all terms are >= 0, so a sum in any order is within (N-1) 2^-53 of exact
    bank = ReflectorBank(ap, *layout)
    for ue in _random_poses(rng(31), 30):
        exact = math.fsum(bank.cascade(ue).tolist())
        assert abs(bank.gain(ue) - exact) <= (len(bank) - 1) * 2.0 ** -53 * exact


def test_ma_opposite_walls_symmetric_for_centered_detector():
    ap = make_scene().aps[0]
    ue = PhotoDetector(vec3(2.5, 2.5, 1.0), vec3(0, 0, 1))
    # each wall's array, by its inward normal
    by_normal = {tuple(arr.normal.tolist()): _mirror_bank(ap, arr).gain(ue)
                 for arr in make_layout(n_per_side=6)[0]}
    x0, xmax, y0, ymax = (by_normal[n] for n in ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0),
                                                 (0.0, 1.0, 0.0), (0.0, -1.0, 0.0)))
    assert x0 > 0.0
    assert x0 == pytest.approx(xmax, rel=1e-9)
    assert y0 == pytest.approx(ymax, rel=1e-9)
    assert x0 == pytest.approx(y0, rel=1e-9)


def test_ma_blockage_monotone():
    ap = make_scene().aps[0]
    ue = PhotoDetector(vec3(1.4, 2.5, 1.0), vec3(0, 0, 1))
    arr = next(a for a in make_layout(n_per_side=6)[0] if a.normal.tolist() == [1.0, 0.0, 0.0])
    clear = _mirror_bank(ap, arr).gain(ue)
    # pedestrian standing between the detector and the array wall
    box = one_box(vec3(0.7, 2.5, 0.875), (0.375, 0.1, 0.875), 0.0)
    blocked = _mirror_bank(ap, arr).cascade(ue, box).sum()
    assert 0.0 <= blocked < clear


# -- metasurface arrays --------------------------------------------------------


def test_msa_singleton_value():
    ap, ue, want = _symmetric_cascade(0.8)
    arr = ReflectorArray(vec3(1, 0, 0), np.zeros((1, 3)), 0.8)
    assert _msa_bank(ap, arr).gain(ue) == pytest.approx(want, rel=1e-12)


def test_msa_zero_efficiency_kills_gain():
    ap, ue, _ = _symmetric_cascade(0.0)
    arr = ReflectorArray(vec3(1, 0, 0), np.zeros((1, 3)), 0.0)
    assert _msa_bank(ap, arr).gain(ue) == 0.0


def test_msa_back_side_detector_sees_nothing():
    ap, _, _ = _symmetric_cascade(0.8)
    arr = ReflectorArray(vec3(1, 0, 0), np.zeros((1, 3)), 0.8)
    behind = PhotoDetector(vec3(-1.0, 0.5, 0.0), vec3(1, 0, 0))
    assert _msa_bank(ap, arr).gain(behind) == 0.0


def test_msa_scales_like_ma_with_efficiency_ratio():
    # same cell layout and distances, so totals differ only by the per-cell factor
    mirrors, _ = make_layout(n_per_side=6, irs_type="mirror")
    _, metasurfaces = make_layout(n_per_side=6, irs_type="metasurface")
    ap = make_scene().aps[0]
    ue = PhotoDetector(vec3(3.1, 1.7, 1.0), vec3(0.2, -0.1, 0.95))
    g_ma = math.fsum(_mirror_bank(ap, a).gain(ue) for a in mirrors)
    g_msa = math.fsum(_msa_bank(ap, a).gain(ue) for a in metasurfaces)
    assert 0.0 < g_msa < g_ma
    assert g_msa == pytest.approx(g_ma * 0.8 / 0.95, rel=1e-12)
