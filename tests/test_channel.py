"""LOS and diffuse wall-bounce gains against scalar reference implementations."""

import math
import platform
import tracemalloc

import numpy as np
import pytest

from irsvlc import (Luminaire, PatchSet, PhotoDetector, los_gain, nlos_gain,
                    patch_incident_power, shadowed, shadowed_mask, vec3, wall_patches)
from irsvlc.channel import (DEFAULT_PATCH_SIZE, MAX_PATCHES, PoweredPatches, _first_bounce_power,
                            _grid_pairs, _grid_walls, _second_bounce_power, wall_patch_grid)
from irsvlc.scene import Room

from conftest import box_set, one_box, python_lines, rng

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
    for origin, u_dir, v_dir, u_len, v_len, normal in room.walls():
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


def test_wall_patch_count_is_bounded():
    # 200 x 125 patches on each of four walls is the bound; one more row is over it
    side, edge = 1 / 128, 200 / 128
    grid = wall_patch_grid(Room(edge, edge, 125 / 128), side)
    assert [counts for _, *counts in grid] == [[200, 125]] * 4
    assert 4 * 200 * 125 == MAX_PATCHES
    with pytest.raises(ValueError, match="more than the 100000 patches"):
        wall_patch_grid(Room(edge, edge, 126 / 128), side)
    # the stock tiling and criterion 9f's finer one stay as they were
    assert len(wall_patches(ROOM)) == 960 and len(wall_patches(ROOM, 0.125)) == 3840
    # refused before any array is sized: 6e7 patches, a side count that overflows
    # np.arange, and one that overflows a float
    for size in (1e-3, 1e-9, 5e-324):
        with pytest.raises(ValueError, match=f"patch size {size:g} tiles the walls"):
            wall_patches(ROOM, size)


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
    power1 = _reference_first_bounce(ceiling_ap, ps, ())
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
            frac = min(ps.areas[i] * cos_in * cos_out / (math.pi * d_sq), 1.0)
            power2[i] += ps.reflectivity[j] * power1[j] * frac
    want = _reference_capture(ps, upward_ue, power1 + power2, ())
    got = nlos_gain(ceiling_ap, upward_ue, ps, order=2)
    assert got == pytest.approx(want, rel=1e-9)


def test_order2_rejects_blockers(ceiling_ap, upward_ue):
    # the patch-to-patch legs are never occlusion-tested, so a blocked order-2
    # field would shadow only some of its legs; order 1 keeps its blockers
    ps = wall_patches(ROOM, 1.0)
    box = one_box(vec3(1.5, 2.5, 0.875), vec3(0.375, 0.1, 0.875), 0.3)
    for call in (lambda: patch_incident_power(ceiling_ap, ps, box, order=2),
                 lambda: nlos_gain(ceiling_ap, upward_ue, ps, box, order=2)):
        with pytest.raises(ValueError, match="order 2 takes none"):
            call()
    assert nlos_gain(ceiling_ap, upward_ue, ps, box[:0], order=2) == \
        nlos_gain(ceiling_ap, upward_ue, ps, order=2)
    assert nlos_gain(ceiling_ap, upward_ue, ps, box, order=1) < \
        nlos_gain(ceiling_ap, upward_ue, ps, order=1)


def _per_source_second_bounce(ps, power1):
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
        out += ps.reflectivity[j] * power1[j] * frac
    return out


@pytest.mark.parametrize("case", ["stock", "random_reflectivity", "blocked"])
def test_blocked_second_bounce_matches_per_source_rows(ceiling_ap, case):
    ps = wall_patches(ROOM, 1.0 if case == "blocked" else 0.25)
    boxes = ()
    if case == "random_reflectivity":
        ps = PatchSet(ps.centers, ps.normals, ps.areas, rng(11).uniform(0.2, 0.9, len(ps)))
    elif case == "blocked":
        boxes = box_set(vec3(0.375, 0.1, 0.875),
                        [(vec3(1.5, 2.5, 0.875), 0.3), (vec3(3.9, 1.1, 0.875), 1.2)])
    # blockers shadow the first bounce only; the kernel takes its power as is
    power1 = _first_bounce_power(ceiling_ap, ps, boxes)
    if case == "random_reflectivity":
        power1[rng(12).random(len(ps)) < 0.3] = 0.0  # leave a partial last block
    want = _per_source_second_bounce(ps, power1)
    got = _second_bounce_power(ps, power1)
    assert (want > 0.0).any()
    assert got.tobytes() == want.tobytes()
    if boxes:
        assert (power1 < _first_bounce_power(ceiling_ap, ps, ())).any()
        with pytest.raises(ValueError, match="order 2 takes none"):
            patch_incident_power(ceiling_ap, ps, boxes, order=2)


def _turned(ps, ap):
    """The patches and the source turned about a skew axis: no normal stays axis-aligned."""
    k = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    skew = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    rot = np.eye(3) + math.sin(0.4) * skew + (1.0 - math.cos(0.4)) * skew @ skew
    return (PatchSet(ps.centers @ rot.T, ps.normals @ rot.T, ps.areas, ps.reflectivity),
            Luminaire(rot @ ap.position, rot @ ap.normal, ap.lambertian_order))


def _with_panel(ps):
    """The patches with a copy of the x0 wall 1 m into the room right after it: one
    normal on two planes, whose sources follow each other."""
    k = int(np.sum(ps.normals[:, 0] == 1.0))  # the x0 wall's patches come first
    centers = np.concatenate((ps.centers[:k], ps.centers[:k] + (1.0, 0.0, 0.0), ps.centers[k:]))
    return PatchSet(centers, *(np.concatenate((a[:k], a)) for a in
                               (ps.normals, ps.areas, ps.reflectivity)))


@pytest.mark.parametrize("dims, size, dark, blocked", [
    # non-square rooms, where a wrong per-axis summation order changes bits
    ((6.3, 4.1, 2.7), 0.3, None, False),
    ((3.0, 7.0, 3.3), 0.2, None, False),
    ((5.0, 5.0, 3.0), 6.0, None, False),  # one patch per wall
    ((6.3, 4.1, 2.7), 0.3, "wall", False),  # no source on the x0 wall
    ((6.3, 4.1, 2.7), 0.3, "all", False),  # no source at all
    ((6.3, 4.1, 2.7), 0.5, None, True),  # shadowed first bounce
    # lit sources that skip across a wall, 24 rows per wall, and a one-patch wall
    ((5.0, 5.0, 3.0), 0.25, "third", False),
    ((5.0, 5.0, 3.0), 0.125, None, False),
    ((5.0, 0.2, 0.2), 0.25, None, False),
    # walls of more than 181 rows, cut into bands: 181 + 3 rows, and 181 + 181 + 38
    # rows of 3 and 2 columns with lit sources that skip across the bands
    ((0.5, 0.5, 46.0), 0.25, None, False),
    ((0.75, 0.5, 100.0), 0.25, "third", False),
], ids=["6.3x4.1x2.7", "3x7x3.3", "one_per_wall", "dark_wall", "all_dark", "blocked",
        "partly_dark", "fine_stock", "one_patch_walls", "two_bands", "three_bands"])
def test_grid_transfer_matches_per_source_rows(dims, size, dark, blocked):
    length, width, height = dims
    ap = Luminaire(vec3(length / 2, width / 2, height), vec3(0.0, 0.0, -1.0), 1.0)
    ps = wall_patches(Room(*dims), size)
    boxes = ()
    if blocked:
        boxes = box_set(vec3(0.375, 0.1, 0.875),
                        [(vec3(1.5, 2.5, 0.875), 0.3), (vec3(4.9, 1.1, 0.875), 1.2)])
        with pytest.raises(ValueError, match="order 2 takes none"):
            patch_incident_power(ap, ps, boxes, order=2)
    power1 = _first_bounce_power(ap, ps, boxes)
    if dark == "wall":
        power1[ps.normals[:, 0] == 1.0] = 0.0
    elif dark == "all":
        power1[:] = 0.0
    elif dark == "third":
        power1[rng(13).permutation(len(ps))[:len(ps) // 3]] = 0.0
    want = _per_source_second_bounce(ps, power1)
    got = _second_bounce_power(ps, power1)
    assert got.tobytes() == want.tobytes()
    if dark == "all":
        assert got.tobytes() == np.zeros(len(ps)).tobytes()  # +0.0 everywhere
    else:
        assert (want > 0.0).any()


@pytest.mark.parametrize("dims, size", [((5.0, 5.0, 3.0), DEFAULT_PATCH_SIZE),
                                         ((6.3, 4.1, 2.7), 0.3)], ids=["stock", "6.3x4.1x2.7"])
def test_second_bounce_is_reciprocal(dims, size):
    # the kernel cos_in cos_out / (pi d^2) is symmetric: a unit source at i putting
    # out_j on j and one at j putting out_i on i give A_i out_j / rho_i = A_j out_i / rho_j
    # wherever the cap at 1 does not fire, which in these rooms is everywhere. Both
    # directions get the same d^2 and cosines, bit for bit (v negates exactly); each
    # side then rounds at most six times (times the area, times the other cosine,
    # over pi d^2, times the reflectivity, and this test's product and quotient), so
    # the sides differ by at most 12 units of 2^-53 relative: the bound is 2^-49, 16
    ps = wall_patches(Room(*dims), size)
    rho = rng(16).uniform(0.2, 0.9, len(ps))
    ps = PatchSet(ps.centers, ps.normals, ps.areas, rho)
    left, right = [], []
    for i, j in rng(17).integers(len(ps), size=(150, 2)).tolist():
        from_i, from_j = (_second_bounce_power(ps, np.eye(1, len(ps), k)[0]) for k in (i, j))
        assert from_i[j] < rho[i] and from_j[i] < rho[j]  # the cap at 1 never fires
        left.append(ps.areas[i] * from_i[j] / rho[i])
        right.append(ps.areas[j] * from_j[i] / rho[j])
    left, right = np.array(left), np.array(right)
    assert np.count_nonzero(left) > len(left) // 2
    assert ((left == 0.0) == (right == 0.0)).all()
    assert (np.abs(left - right) <= 2.0**-49 * np.maximum(left, right)).all()


def test_grid_walls_only_for_exact_grids(ceiling_ap):
    ps = wall_patches(Room(6.3, 4.1, 2.7), 0.3)
    walls = _grid_walls(ps)
    assert [(start, x.size, z.size) for start, x, _, z, _, _ in walls] == \
        [(0, 14, 10), (140, 14, 10), (280, 21, 10), (490, 21, 10)]
    nudged = PatchSet(ps.centers.copy(), ps.normals, ps.areas, ps.reflectivity)
    nudged.centers[20, 1] = np.nextafter(nudged.centers[20, 1], math.inf)  # x0 wall, row 1
    perm = rng(14).permutation(len(ps))
    shuffled = PatchSet(ps.centers[perm], ps.normals[perm], ps.areas[perm], ps.reflectivity)
    uneven = PatchSet(ps.centers, ps.normals, np.r_[ps.areas[:-1], 0.5], ps.reflectivity)
    for other in (nudged, shuffled, uneven, _turned(ps, ceiling_ap)[0], _with_panel(ps)):
        assert _grid_walls(other) is None
    assert len(_grid_walls(wall_patches(Room(0.5, 0.5, 45.25), 0.25))) == 4  # 181 rows
    # 184 rows: 184^2 offsets > 2^15, so each wall is a band of 181 rows and one of 3
    tall = wall_patches(Room(0.5, 0.5, 46.0), 0.25)
    bands = _grid_walls(tall)
    assert [(start, x.size, z.size) for start, x, _, z, _, _ in bands] == \
        [(s, 2, rows) for w in range(4) for s, rows in ((368 * w, 181), (368 * w + 362, 3))]
    for start, x, y, z, normal, area in bands:
        rows = tall.centers[start:start + z.size * x.size].reshape(z.size, x.size, 3)
        assert (rows == np.stack(np.broadcast_arrays(x, y, z[:, None]), axis=-1)).all()
        assert (tall.normals[start] == normal).all() and tall.areas[start] == area


def test_order2_refuses_patch_sets_not_laid_out_as_walls(ceiling_ap, upward_ue):
    # order 2 takes a room's walls only as wall_patches lays them out; order 1 any set
    ps = wall_patches(ROOM, 0.5)
    turned, turned_ap = _turned(ps, ceiling_ap)
    perm = rng(15).permutation(len(ps))
    shuffled = PatchSet(ps.centers[perm], ps.normals[perm], ps.areas[perm], ps.reflectivity)
    nudged = PatchSet(ps.centers.copy(), ps.normals, ps.areas, ps.reflectivity)
    nudged.centers[25, 1] = np.nextafter(nudged.centers[25, 1], math.inf)  # x0 wall, row 2
    for other, ap in ((turned, turned_ap), (shuffled, ceiling_ap), (_with_panel(ps), ceiling_ap),
                      (nudged, ceiling_ap)):
        for call in (lambda: patch_incident_power(ap, other, order=2),
                     lambda: nlos_gain(ap, upward_ue, other, order=2)):
            with pytest.raises(ValueError, match="order 2 needs the patches as wall_patches"):
                call()
        assert (patch_incident_power(ap, other, order=1) > 0.0).any()


@pytest.mark.parametrize("dims, size", [((6.3, 4.1, 2.7), 0.3), ((5.0, 5.0, 3.0), 0.125)],
                         ids=["later_pairs_larger", "column_blocks"])
def test_grid_blocks_of_every_size_share_one_buffer(dims, size):
    # the grid transfer sizes one buffer per call for its largest blocks: a block
    # larger than the first pair's, or narrower than the one before it, must still
    # read and write its own view of it
    length, width, height = dims
    ap = Luminaire(vec3(length / 2, width / 2, height), vec3(0.0, 0.0, -1.0), 1.0)
    ps = wall_patches(Room(*dims), size)
    power1 = _first_bounce_power(ap, ps, ())
    pairs = [(a, b, dz, cols, rows)
             for a, _, dz, receivers in _grid_pairs(np.flatnonzero(power1 > 0.0), _grid_walls(ps))
             for b, cols, rows in receivers]
    if size == 0.3:
        work = [dz.size * a[1].size * cols for a, _, dz, cols, _ in pairs]
        gather = [rows * b[3].size * cols for _, b, _, cols, rows in pairs]
        assert max(work) > work[0] and max(gather) > gather[0]
    else:  # every pair's last block of receiver columns is narrower
        assert all(b[1].size % cols for _, b, _, cols, _ in pairs)
    got = _second_bounce_power(ps, power1)
    assert got.tobytes() == _per_source_second_bounce(ps, power1).tobytes()


def test_second_bounce_adds_a_lone_receiver_in_source_order(ceiling_ap):
    # the x0 wall's 240 sources and one xmax patch: each source block has one
    # receiver column, which numpy's reduce would sum pairwise
    ps = wall_patches(ROOM, DEFAULT_PATCH_SIZE)
    keep = np.r_[0:240, 300]
    ps = PatchSet(*(a[keep] for a in (ps.centers, ps.normals, ps.areas, ps.reflectivity)))
    power1 = _first_bounce_power(ceiling_ap, ps, ())
    assert np.count_nonzero(power1) == len(ps)
    got = _second_bounce_power(ps, power1)
    assert got.tobytes() == _per_source_second_bounce(ps, power1).tobytes()
    assert got[-1] > 0.0


@pytest.mark.parametrize("dims, size, bound", [
    ((5.0, 5.0, 3.0), DEFAULT_PATCH_SIZE, 4 * 2**20),
    ((5.0, 5.0, 3.0), 0.125, 5.4 * 2**20),
    ((0.25, 0.25, 300.0), DEFAULT_PATCH_SIZE, 6.7 * 2**20),  # 4 walls of 7 bands
], ids=["0.25m", "0.125m", "28_bands"])
def test_order2_field_peak_memory(dims, size, bound):
    # the order-2 field once warm. The per-pair kernel peaked at 1.32, 4.91 and
    # 6.09 MiB here, the grid kernel at 0.92 and 2.14 MiB in the stock room and at
    # 1.49 MiB in 28 bands; one wall x wall array of gathered terms (7.4 MB at
    # 0.125 m) fails, and so does a plan that keeps a (rows, rows) index for each of
    # the 28 bands' 588 pairs (134.75 MiB)
    length, width, height = dims
    ap = Luminaire(vec3(length / 2, width / 2, height), vec3(0.0, 0.0, -1.0), 1.0)
    ps = wall_patches(Room(*dims), size)
    patch_incident_power(ap, ps, order=2)
    tracemalloc.start()
    try:
        patch_incident_power(ap, ps, order=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts the minor page faults of glibc's allocator on Linux")
def test_order2_field_reuses_its_pages():
    # the third call of a fresh process, in the stock room and in one whose band
    # pairs' blocks differ in size. Work blocks made afresh per wall pair were handed
    # back to the OS and faulted in again, about 2,300 faults per stock call; the
    # bound is a tenth of that
    faults = python_lines(
        "import resource\n"
        "from irsvlc import Luminaire, patch_incident_power, vec3, wall_patches\n"
        "from irsvlc.scene import Room\n"
        "for (l, w, h), size in (((5.0, 5.0, 3.0), 0.25), ((6.3, 4.1, 2.7), 0.3)):\n"
        "    ap = Luminaire(vec3(l / 2, w / 2, h), vec3(0.0, 0.0, -1.0), 1.0)\n"
        "    ps = wall_patches(Room(l, w, h), size)\n"
        "    for _ in range(2):\n"
        "        patch_incident_power(ap, ps, order=2)\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    patch_incident_power(ap, ps, order=2)\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    assert len(faults) == 2 and all(int(f) <= 230 for f in faults)


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
    # order 2 takes whole walls in any order, each as wall_patches lays it out
    walls = np.arange(len(ps)).reshape(4, -1)[[2, 0, 3, 1]].ravel()
    reordered = PatchSet(ps.centers[walls], ps.normals[walls], ps.areas[walls],
                         ps.reflectivity[walls])
    assert nlos_gain(ceiling_ap, ue, reordered, order=2) == pytest.approx(
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
    assert PoweredPatches(ps, power).capture([ue]) == [nlos_gain(ceiling_ap, ue, ps, order=2)]


def test_capture_fraction_is_capped(ceiling_ap):
    ps = wall_patches(ROOM, 0.25)
    power = patch_incident_power(ceiling_ap, ps, order=1)
    # detector a millimeter in front of a patch center, staring at it: the raw
    # area/(pi d^2) fraction exceeds 1 there, so the capped sum must come in
    # strictly below the uncapped reference and below total re-emitted power
    ue = detector((0.001, 2.375, 1.375), (-1, 0, 0), fov_deg=90.0)
    (g,) = PoweredPatches(ps, power).capture([ue])

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
