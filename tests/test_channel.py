"""LOS and diffuse wall-bounce gains against scalar reference implementations."""

import math
import tracemalloc

import numpy as np
import pytest

from irsvlc import (Luminaire, PatchSet, PhotoDetector,
                    diffuse_capture, los_gain, nlos_gain, patch_incident_power,
                    shadowed, shadowed_mask, vec3, wall_patches)
from irsvlc.channel import DEFAULT_PATCH_SIZE, _first_bounce_power, _second_bounce_power
from irsvlc.scene import Room

from conftest import box_set, one_box, rng

ROOM = Room(5.0, 5.0, 3.0)


def detector(pos, normal, fov_deg=85.0):
    n = np.asarray(normal, dtype=float)
    return PhotoDetector(np.asarray(pos, dtype=float), n / np.linalg.norm(n),
                         1e-4, math.radians(fov_deg))


# -- line of sight -------------------------------------------------------------


def test_los_boresight_value(ceiling_ap, upward_ue):
    # (m+1) A / (2 pi d^2) at d=2, phi=psi=0
    assert los_gain(ceiling_ap, upward_ue) == pytest.approx(7.957747154594767e-06, rel=1e-12)


def test_los_inverse_square(ceiling_ap):
    near = detector((2.5, 2.5, 2.0), (0, 0, 1))
    far = detector((2.5, 2.5, 1.0), (0, 0, 1))
    assert los_gain(ceiling_ap, near) / los_gain(ceiling_ap, far) == pytest.approx(4.0, rel=1e-9)


def test_los_lambertian_order(upward_ue):
    ap3 = Luminaire(vec3(2.5, 2.5, 3.0), vec3(0.0, 0.0, -1.0), 3.0)
    assert los_gain(ap3, upward_ue) == pytest.approx(4.0 * 1e-4 / (2.0 * math.pi * 4.0), rel=1e-12)


def test_los_fov_cutoff(ceiling_ap):
    # source sits 45 degrees off the detector normal; shrink the FOV below that
    ue_wide = detector((1.5, 2.5, 2.0), (0, 0, 1), fov_deg=46.0)
    ue_narrow = detector((1.5, 2.5, 2.0), (0, 0, 1), fov_deg=44.0)
    assert los_gain(ceiling_ap, ue_wide) > 0.0
    assert los_gain(ceiling_ap, ue_narrow) == 0.0


def test_los_outside_forward_hemispheres(ceiling_ap):
    above = detector((2.5, 2.5, 3.5), (0, 0, 1))      # behind the source plane
    averted = detector((2.5, 2.5, 1.0), (0, 0, -1))   # detector facing the floor
    assert los_gain(ceiling_ap, above) == 0.0
    assert los_gain(ceiling_ap, averted) == 0.0


def test_los_blocked(ceiling_ap, upward_ue):
    box = one_box(vec3(2.5, 2.5, 2.0), vec3(0.3, 0.3, 0.3), 0.0)
    assert los_gain(ceiling_ap, upward_ue, box) == 0.0


def test_los_coincident_positions_raise(ceiling_ap):
    ue = detector((2.5, 2.5, 3.0), (0, 0, 1))
    with pytest.raises(ValueError):
        los_gain(ceiling_ap, ue)


# -- wall patching -------------------------------------------------------------


def test_wall_patches_exact_tiling():
    ps = wall_patches(ROOM, 1.0)
    assert len(ps) == 60  # 15 one-square-meter patches per 5x3 wall
    assert float(ps.areas.sum()) == pytest.approx(60.0, rel=1e-9)
    assert np.all(ps.areas == 1.0)


def test_wall_patches_area_conservation_awkward_target():
    ps = wall_patches(ROOM, 0.3)
    assert float(ps.areas.sum()) == pytest.approx(60.0, rel=1e-9)
    assert float(ps.areas.max()) <= 0.3 * 0.3 + 1e-12


def test_wall_patches_oversized_target_clamps():
    ps = wall_patches(ROOM, 10.0)
    assert len(ps) == 4
    assert np.all(ps.areas == 15.0)


def _per_patch_wall_patches(room, patch_target_size, reflectivity):
    """Reference: wall_patches as a plain loop, one patch at a time."""
    centers, normals, areas = [], [], []
    for _label, origin, u_dir, v_dir, u_len, v_len, normal in room.walls():
        nu = max(1, math.ceil(u_len / patch_target_size))
        nv = max(1, math.ceil(v_len / patch_target_size))
        du, dv = u_len / nu, v_len / nv
        for i in range(nv):
            for j in range(nu):
                centers.append(origin + (j + 0.5) * du * u_dir + (i + 0.5) * dv * v_dir)
                normals.append(normal)
                areas.append(du * dv)
    return PatchSet(np.array(centers), np.array(normals), np.array(areas),
                    np.full(len(areas), float(reflectivity)))


@pytest.mark.parametrize("dims", [(5.0, 5.0, 3.0), (6.3, 4.1, 2.7), (3.0, 7.0, 3.3)])
@pytest.mark.parametrize("size", [0.25, 0.3, 0.13, 8.0])  # 8.0 exceeds every wall side
def test_wall_patches_match_per_patch_loop(dims, size):
    room = Room(*dims)
    got = wall_patches(room, size, 0.55)
    want = _per_patch_wall_patches(room, size, 0.55)
    for field in ("centers", "normals", "areas", "reflectivity"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field


def test_wall_patches_validation():
    with pytest.raises(ValueError):
        wall_patches(ROOM, 0.0)
    with pytest.raises(ValueError):
        wall_patches(ROOM, 0.25, reflectivity=1.2)


# -- diffuse gain vs scalar references ----------------------------------------


def _reference_first_bounce(ap, ps, blockers):
    """Per-patch incident power, written as the plain per-patch formula."""
    m = ap.lambertian_order
    out = np.zeros(len(ps))
    for i in range(len(ps)):
        c = ps.centers[i]
        w = c - ap.position
        d = math.sqrt(float(w @ w))
        cos_phi = float(w @ ap.normal) / d
        cos_in = float(-w @ ps.normals[i]) / d
        if cos_phi <= 0.0 or cos_in <= 0.0:
            continue
        if shadowed(ap.position, c, blockers):
            continue
        out[i] = (m + 1.0) / (2.0 * math.pi * d * d) * cos_phi ** m * cos_in * ps.areas[i]
    return out


def _reference_capture(ps, ue, power, blockers):
    total = []
    for i in range(len(ps)):
        if power[i] <= 0.0:
            continue
        c = ps.centers[i]
        u = ue.position - c
        d = math.sqrt(float(u @ u))
        cos_out = float(u @ ps.normals[i]) / d
        cos_psi = float(-u @ ue.normal) / d
        if cos_out <= 0.0 or cos_psi <= 0.0 or cos_psi < math.cos(ue.fov):
            continue
        if shadowed(c, ue.position, blockers):
            continue
        frac = min(ue.area * cos_out * cos_psi / (math.pi * d * d), 1.0)
        total.append(ps.reflectivity[i] * power[i] * frac)
    return math.fsum(total)


def test_nlos_order1_matches_reference(ceiling_ap):
    ps = wall_patches(ROOM, 1.0)
    r = rng(20_260_814)
    for _ in range(25):
        pos = r.uniform((0.3, 0.3, 0.4), (4.7, 4.7, 2.6))
        normal = r.normal(size=3)
        normal[2] = abs(normal[2])
        ue = detector(pos, normal)
        boxes = box_set(vec3(0.375, 0.1, 0.875),
                        ((vec3(*r.uniform((0.5, 0.5), (4.5, 4.5)), 0.875),
                          float(r.uniform(0, math.pi))) for _ in range(r.integers(0, 4))))
        want = _reference_capture(ps, ue, _reference_first_bounce(ceiling_ap, ps, boxes), boxes)
        got = nlos_gain(ceiling_ap, ue, ps, boxes, order=1)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-30)


def test_nlos_order2_matches_reference(ceiling_ap, upward_ue):
    ps = wall_patches(ROOM, 1.0)
    box = one_box(vec3(1.5, 2.5, 0.875), vec3(0.375, 0.1, 0.875), 0.3)
    power1 = _reference_first_bounce(ceiling_ap, ps, box)
    # one diffuse patch-to-patch transfer, plain double loop
    power2 = np.zeros(len(ps))
    for j in range(len(ps)):
        if power1[j] <= 0.0:
            continue
        for i in range(len(ps)):
            v = ps.centers[i] - ps.centers[j]
            d_sq = float(v @ v)
            if d_sq == 0.0:
                continue
            d = math.sqrt(d_sq)
            cos_out = float(v @ ps.normals[j]) / d
            cos_in = float(-v @ ps.normals[i]) / d
            if cos_out <= 0.0 or cos_in <= 0.0:
                continue
            if shadowed(ps.centers[j], ps.centers[i], box):
                continue
            frac = min(ps.areas[i] * cos_in * cos_out / (math.pi * d_sq), 1.0)
            power2[i] += ps.reflectivity[j] * power1[j] * frac
    want = _reference_capture(ps, upward_ue, power1 + power2, box)
    got = nlos_gain(ceiling_ap, upward_ue, ps, box, order=2)
    assert got == pytest.approx(want, rel=1e-9)


def _per_source_second_bounce(ps, power1, blockers):
    """Reference: the patch-to-patch transfer one source row at a time."""
    n = len(ps)
    out = np.zeros(n)
    for j in np.flatnonzero(power1 > 0.0):
        v = ps.centers - ps.centers[j]
        d_sq = np.einsum("ij,ij->i", v, v)
        with np.errstate(divide="ignore", invalid="ignore"):
            cos_out = (np.einsum("ij,ij->i", v, np.broadcast_to(ps.normals[j], (n, 3)))
                       / np.sqrt(d_sq))
            cos_in = -np.einsum("ij,ij->i", v, ps.normals) / np.sqrt(d_sq)
            frac = ps.areas * cos_in * cos_out / (math.pi * d_sq)
        ok = np.isfinite(frac) & (cos_out > 0.0) & (cos_in > 0.0)
        frac = np.where(ok, np.minimum(frac, 1.0), 0.0)
        idx = np.flatnonzero(frac > 0.0)
        if blockers and idx.size:
            starts = np.broadcast_to(ps.centers[j], (idx.size, 3))
            frac[idx[shadowed_mask(starts, ps.centers[idx], blockers)]] = 0.0
        out += ps.reflectivity[j] * power1[j] * frac
    return out


@pytest.mark.parametrize("case", ["stock", "shuffled", "blocked"])
def test_blocked_second_bounce_matches_per_source_rows(ceiling_ap, case):
    ps = wall_patches(ROOM, 1.0 if case == "blocked" else 0.25)
    boxes = ()
    if case == "shuffled":
        r = rng(11)
        perm = r.permutation(len(ps))
        ps = PatchSet(ps.centers[perm], ps.normals[perm], ps.areas[perm],
                      r.uniform(0.2, 0.9, len(ps)))
    elif case == "blocked":
        boxes = box_set(vec3(0.375, 0.1, 0.875),
                        [(vec3(1.5, 2.5, 0.875), 0.3), (vec3(3.9, 1.1, 0.875), 1.2)])
    power1 = _first_bounce_power(ceiling_ap, ps, boxes)
    if case == "shuffled":
        power1[rng(12).random(len(ps)) < 0.3] = 0.0  # leave a partial last block
    want = _per_source_second_bounce(ps, power1, boxes)
    got = _second_bounce_power(ps, power1, boxes)
    assert (want > 0.0).any()
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dims, size, dark, blocked", [
    # non-square rooms, where a wrong per-axis summation order changes bits;
    # their 126- and 189-patch walls span several source blocks each, and
    # each wall's last block is cut short by the change to the next wall
    ((6.3, 4.1, 2.7), 0.3, None, False),
    ((3.0, 7.0, 3.3), 0.2, None, False),
    ((5.0, 5.0, 3.0), 6.0, None, False),  # one patch per wall
    ((6.3, 4.1, 2.7), 0.3, "wall", False),  # no source on the x0 wall
    ((6.3, 4.1, 2.7), 0.3, "all", False),  # no source at all
    ((6.3, 4.1, 2.7), 0.5, None, True),
], ids=["6.3x4.1x2.7", "3x7x3.3", "one_per_wall", "dark_wall", "all_dark", "blocked"])
def test_plane_run_kernel_matches_per_source_rows(dims, size, dark, blocked):
    length, width, height = dims
    ap = Luminaire(vec3(length / 2, width / 2, height), vec3(0.0, 0.0, -1.0), 1.0)
    ps = wall_patches(Room(*dims), size)
    boxes = ()
    if blocked:
        boxes = box_set(vec3(0.375, 0.1, 0.875),
                        [(vec3(1.5, 2.5, 0.875), 0.3), (vec3(4.9, 1.1, 0.875), 1.2)])
    power1 = _first_bounce_power(ap, ps, boxes)
    if dark == "wall":
        power1[ps.normals[:, 0] == 1.0] = 0.0
    elif dark == "all":
        power1[:] = 0.0
    want = _per_source_second_bounce(ps, power1, boxes)
    got = _second_bounce_power(ps, power1, boxes)
    assert got.tobytes() == want.tobytes()
    if dark == "all":
        assert got.tobytes() == np.zeros(len(ps)).tobytes()  # +0.0 everywhere
    else:
        assert (want > 0.0).any()


def test_order2_field_peak_memory(ceiling_ap):
    # the stock order-2 field once warm; the (64, P, 3) einsum temporaries of
    # the earlier kernel peaked at 5.2 MiB here, the plane-run kernel at 1.3
    ps = wall_patches(ROOM, DEFAULT_PATCH_SIZE)
    patch_incident_power(ceiling_ap, ps, order=2)
    tracemalloc.start()
    try:
        patch_incident_power(ceiling_ap, ps, order=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_nlos_zero_reflectivity(ceiling_ap, upward_ue):
    assert nlos_gain(ceiling_ap, upward_ue, wall_patches(ROOM, 0.5, reflectivity=0.0)) == 0.0


def test_nlos_empty_patchset(ceiling_ap, upward_ue):
    empty = PatchSet(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0), np.zeros(0))
    assert nlos_gain(ceiling_ap, upward_ue, empty) == 0.0


def test_nlos_four_wall_symmetry(ceiling_ap, upward_ue):
    ps = wall_patches(ROOM, 0.25)
    per_wall = len(ps) // 4
    sums = []
    for k in range(4):
        sub = PatchSet(ps.centers[k * per_wall:(k + 1) * per_wall],
                       ps.normals[k * per_wall:(k + 1) * per_wall],
                       ps.areas[k * per_wall:(k + 1) * per_wall],
                       ps.reflectivity[k * per_wall:(k + 1) * per_wall])
        sums.append(nlos_gain(ceiling_ap, upward_ue, sub))
    for s in sums[1:]:
        assert s == pytest.approx(sums[0], rel=1e-9)


def test_nlos_grid_refinement_converges(ceiling_ap, upward_ue):
    coarse = nlos_gain(ceiling_ap, upward_ue, wall_patches(ROOM, 0.25))
    fine = nlos_gain(ceiling_ap, upward_ue, wall_patches(ROOM, 0.125))
    assert coarse == pytest.approx(fine, rel=0.02)


def test_nlos_second_order_adds_power(ceiling_ap, upward_ue):
    ps = wall_patches(ROOM, 0.25)
    g1 = nlos_gain(ceiling_ap, upward_ue, ps, order=1)
    g2 = nlos_gain(ceiling_ap, upward_ue, ps, order=2)
    assert g2 > g1 > 0.0
    with pytest.raises(ValueError):
        nlos_gain(ceiling_ap, upward_ue, ps, order=3)


def test_nlos_patch_order_invariance(ceiling_ap):
    ue = detector((3.7, 1.2, 1.4), (0.2, 0.5, 0.9))
    ps = wall_patches(ROOM, 0.5)
    perm = rng(7).permutation(len(ps))
    shuffled = PatchSet(ps.centers[perm], ps.normals[perm], ps.areas[perm],
                        ps.reflectivity[perm])
    # order 1 sums once through fsum, which is exact under permutation
    assert nlos_gain(ceiling_ap, ue, shuffled) == nlos_gain(ceiling_ap, ue, ps)
    assert nlos_gain(ceiling_ap, ue, shuffled, order=2) == pytest.approx(
        nlos_gain(ceiling_ap, ue, ps, order=2), abs=1e-12)


def test_nlos_blockage_monotone(ceiling_ap):
    ue = detector((1.1, 3.9, 1.2), (0.4, -0.2, 0.89))
    ps = wall_patches(ROOM, 0.5)
    r = rng(99)
    boxes = box_set(vec3(0.375, 0.1, 0.875),
                    ((vec3(*r.uniform((0.5, 0.5), (4.5, 4.5)), 0.875), float(r.uniform(0, math.pi)))
                     for _ in range(6)))
    gains = [nlos_gain(ceiling_ap, ue, ps, boxes[:k]) for k in range(7)]
    for a, b in zip(gains, gains[1:]):
        assert b <= a


# -- precomputed diffuse field -------------------------------------------------


def test_patch_incident_power_energy_bound(ceiling_ap):
    ps = wall_patches(ROOM, 0.25)
    p1 = patch_incident_power(ceiling_ap, ps, order=1)
    p2 = patch_incident_power(ceiling_ap, ps, order=2)
    assert np.all(p1 >= 0.0) and np.all(p2 >= p1)
    # walls cannot collect more than was emitted, even after a second bounce
    assert p1.sum() < p2.sum() < 1.0


def test_diffuse_capture_equals_nlos_gain(ceiling_ap):
    ue = detector((0.8, 4.1, 1.6), (0.7, -0.6, 0.4))
    ps = wall_patches(ROOM, 0.25)
    power = patch_incident_power(ceiling_ap, ps, order=2)
    assert diffuse_capture(ps, ue, power) == nlos_gain(ceiling_ap, ue, ps, order=2)


def test_capture_fraction_is_capped(ceiling_ap):
    ps = wall_patches(ROOM, 0.25)
    power = patch_incident_power(ceiling_ap, ps, order=1)
    # detector a millimeter in front of a patch center, staring at it: the raw
    # area/(pi d^2) fraction exceeds 1 there, so the capped sum must come in
    # strictly below the uncapped reference and below total re-emitted power
    ue = detector((0.001, 2.375, 1.375), (-1, 0, 0), fov_deg=90.0)
    g = diffuse_capture(ps, ue, power)

    u = ue.position - ps.centers
    d_sq = np.einsum("ij,ij->i", u, u)
    d = np.sqrt(d_sq)
    cos_out = np.einsum("ij,ij->i", u, ps.normals) / d
    cos_psi = -(u @ ue.normal) / d
    frac = ue.area * cos_out * cos_psi / (math.pi * d_sq)
    live = (cos_out > 0) & (cos_psi > 0)
    uncapped = float((ps.reflectivity * power * np.where(live, frac, 0.0)).sum())

    assert frac[live].max() > 1.0
    assert math.isfinite(g)
    assert 0.0 < g < uncapped
    assert g <= float(ps.reflectivity.max() * power.sum())


# -- occlusion folding ---------------------------------------------------------


def test_shadowed_is_or_fold_over_boxes():
    r = rng(67_415)
    p, q = vec3(0.2, 0.3, 2.4), vec3(4.6, 4.4, 0.2)
    boxes = box_set(vec3(0.375, 0.1, 0.875),
                    ((vec3(*r.uniform(0.0, 5.0, size=2), 0.875), float(r.uniform(0, math.pi)))
                     for _ in range(100)))
    assert shadowed(p, q, boxes) == any(shadowed(p, q, boxes[k:k + 1]) for k in range(100))
    assert shadowed(p, q, ()) is False


def test_shadowed_mask_matches_scalar():
    r = rng(31_337)
    starts = r.uniform((0, 0, 0), (5, 5, 3), size=(200, 3))
    ends = r.uniform((0, 0, 0), (5, 5, 3), size=(200, 3))
    boxes = box_set(vec3(0.375, 0.1, 0.875),
                    ((vec3(*r.uniform(0.5, 4.5, size=2), 0.875), float(r.uniform(0, math.pi)))
                     for _ in range(5)))
    mask = shadowed_mask(starts, ends, boxes)
    for i in range(len(starts)):
        assert mask[i] == shadowed(starts[i], ends[i], boxes)
