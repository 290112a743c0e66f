"""Optical channel gains: line-of-sight and diffuse wall reflections.

All gains are dimensionless ratios of received optical power at the detector
to transmitted optical power, for a generalized-Lambertian source of order m
and a flat photodetector with a field-of-view cutoff. Blockers are one
OrientedBoxes set or (); a sight line crossing a box interior contributes zero.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .geometry import OrientedBoxes, Vec3, segments_intersect_box

if TYPE_CHECKING:  # pragma: no cover
    from .scene import Luminaire, PhotoDetector, Room

DEFAULT_WALL_REFLECTIVITY = 0.7
DEFAULT_PATCH_SIZE = 0.25  # meters; target side length of wall patches
DEFAULT_NLOS_ORDER = 2  # wall bounces: direct illumination plus one patch-to-patch transfer
MAX_PATCHES = 1e5  # per room; the second bounce's one buffer is 8.4 MB at the bound in the stock room


class PatchSet:
    """Diffuse wall patches as stacked arrays for vectorized sums."""

    def __init__(self, centers: np.ndarray, normals: np.ndarray, areas: np.ndarray,
                 reflectivity: np.ndarray):
        self.centers = np.ascontiguousarray(centers, dtype=float)
        self.normals = np.ascontiguousarray(normals, dtype=float)
        self.areas = np.ascontiguousarray(areas, dtype=float)
        self.reflectivity = np.ascontiguousarray(reflectivity, dtype=float)

    def __len__(self) -> int:
        return len(self.areas)


def shadowed(p: Vec3, q: Vec3, blockers: OrientedBoxes | tuple[()]) -> bool:
    """True iff the open sight line p->q crosses any blocker's interior."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.array_equal(p, q):
        raise ValueError("degenerate segment: endpoints coincide")
    return bool(shadowed_mask(p[None, :], q[None, :], blockers)[0])


def shadowed_mask(starts: np.ndarray, ends: np.ndarray,
                  blockers: OrientedBoxes | tuple[()]) -> np.ndarray:
    """shadowed() over (n, 3) segment endpoint arrays, one slab test per box."""
    n = len(starts)
    blocked = np.zeros(n, dtype=bool)
    for k in range(len(blockers)):
        alive = ~blocked
        if not alive.any():
            break
        blocked[alive] = segments_intersect_box(starts[alive], ends[alive], blockers[k:k + 1])
    return blocked


def los_gain(ap: "Luminaire", ue: "PhotoDetector",
             blockers: OrientedBoxes | tuple[()] = ()) -> float:
    """Direct-path DC gain between a Lambertian source and the detector.

    Zero when the detector lies outside the source's forward hemisphere,
    when the source falls outside the detector field of view, or when the
    sight line is blocked.
    """
    delta = ue.position - ap.position
    d_sq = float(np.dot(delta, delta))
    if d_sq == 0.0:
        raise ValueError("source and detector positions coincide")
    d = math.sqrt(d_sq)
    cos_phi = float(np.dot(delta, ap.normal)) / d
    cos_psi = float(np.dot(-delta, ue.normal)) / d
    if cos_phi <= 0.0 or cos_psi <= 0.0:
        return 0.0
    if cos_psi < math.cos(ue.fov):
        return 0.0
    if blockers and shadowed(ap.position, ue.position, blockers):
        return 0.0
    m = ap.lambertian_order
    return (m + 1.0) * ue.area / (2.0 * math.pi * d_sq) * cos_phi ** m * cos_psi


def wall_patch_grid(room: "Room", patch_target_size: float) -> list[tuple[tuple, int, int]]:
    """Each wall of room.walls() with its patch counts along u and along v: the one check
    of a patch size, which must be positive and give at most MAX_PATCHES patches."""
    if patch_target_size <= 0:
        raise ValueError(f"patch size must be positive, got {patch_target_size}")
    # a side clamped to MAX_PATCHES is already over the bound, and the clamp keeps
    # a tiny size from overflowing the ceil
    grid = [(wall, *(max(1, math.ceil(min(side / patch_target_size, MAX_PATCHES)))
                     for side in wall[3:5]))  # u_len, v_len
            for wall in room.walls()]
    if sum(nu * nv for _, nu, nv in grid) > MAX_PATCHES:
        raise ValueError(f"patch size {patch_target_size:g} tiles the walls with more than "
                         f"the {MAX_PATCHES:g} patches one diffuse field may hold")
    return grid


def wall_patches(room: "Room", patch_target_size: float = DEFAULT_PATCH_SIZE,
                 reflectivity: float = DEFAULT_WALL_REFLECTIVITY) -> PatchSet:
    """Tile the four walls with near-square patches no larger than the target.

    Patch side counts are rounded up, so patches shrink to fit exactly and
    their areas sum to the total wall area.
    """
    grid = wall_patch_grid(room, patch_target_size)
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(f"wall reflectivity {reflectivity} outside [0, 1]")
    centers, normals, areas = [], [], []
    for (origin, u_dir, v_dir, u_len, v_len, normal), nu, nv in grid:
        du, dv = u_len / nu, v_len / nv
        i, j = np.divmod(np.arange(nu * nv), nu)  # row-major: v index, then u index
        centers.append(origin + ((j + 0.5) * du)[:, None] * u_dir
                       + ((i + 0.5) * dv)[:, None] * v_dir)
        normals.append(np.broadcast_to(normal, (nu * nv, 3)))
        areas.append(np.full(nu * nv, du * dv))
    areas = np.concatenate(areas)
    return PatchSet(np.concatenate(centers), np.concatenate(normals), areas,
                    np.full(areas.size, float(reflectivity)))


def _first_bounce_power(ap: "Luminaire", ps: PatchSet,
                        blockers: OrientedBoxes | tuple[()]) -> np.ndarray:
    """Optical power collected by each patch per unit transmitted power."""
    w = ps.centers - ap.position
    d1_sq = np.einsum("ij,ij->i", w, w)
    d1 = np.sqrt(d1_sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_phi = (w @ ap.normal) / d1
        cos_in = -np.einsum("ij,ij->i", w, ps.normals) / d1
    m = ap.lambertian_order
    ok = (cos_phi > 0.0) & (cos_in > 0.0)
    power = np.where(
        ok,
        (m + 1.0) / (2.0 * math.pi * d1_sq) * np.power(np.maximum(cos_phi, 0.0), m) * cos_in * ps.areas,
        0.0,
    )
    idx = np.flatnonzero(power > 0.0)
    if blockers and idx.size:
        starts = np.broadcast_to(ap.position, (idx.size, 3))
        blocked = shadowed_mask(starts, ps.centers[idx], blockers)
        power[idx[blocked]] = 0.0
    return power


# float64 elements (0.26 MB) in a block of the grid transfer: the terms in one of its six
# work arrays, unless one receiver column needs more; the terms a block of sources
# gathers; and a band pair's (rows, rows) row offsets, so a band has at most
# isqrt(_GRID_BLOCK) = 181 rows
_GRID_BLOCK = 2**15


def _dot3(x: np.ndarray, y: np.ndarray, z: np.ndarray, a, b, c,
          out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """x*a + y*b + z*c into out, using tmp; out may alias x.

    Summed as (x*a + z*c) + y*b: the order numpy's einsum uses for a
    three-term contraction, so the bits match an einsum dot product.
    """
    np.multiply(x, a, out=out)
    out += np.multiply(z, c, out=tmp)
    out += np.multiply(y, b, out=tmp)
    return out


def _pair_fractions(v, normal, normals, areas, work: np.ndarray) -> np.ndarray:
    """Fraction of a source patch's re-emitted power that lands on a receiver patch.

    v = (vx, vy, vz) is the receiver center minus the source center per axis,
    normal the source normal, normals = (nx, ny, nz) and areas the receivers';
    all broadcast to the shape of work's six arrays, and v may be work[:3].
    The result, in work[2], is capped at 1 and +0.0 where either cosine is not
    positive or the fraction is not finite.
    """
    vx, vy, vz = v
    cos_in, d, frac, d_sq, cos_out, tmp = work
    _dot3(vx, vy, vz, vx, vy, vz, d_sq, tmp)
    _dot3(vx, vy, vz, *normal, cos_out, tmp)
    _dot3(vx, vy, vz, *normals, cos_in, tmp)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.sqrt(d_sq, out=d)
        cos_out /= d
        np.negative(cos_in, out=cos_in)
        cos_in /= d
        np.multiply(areas, cos_in, out=frac)
        frac *= cos_out
        frac /= np.multiply(d_sq, math.pi, out=tmp)
    keep = np.isfinite(frac)
    keep &= cos_out > 0.0
    keep &= cos_in > 0.0
    np.minimum(frac, 1.0, out=frac)
    frac[~keep] = 0.0
    return frac


def _add_rows(frac: np.ndarray) -> np.ndarray:
    """frac's rows added in order. numpy's reduce along axis 0 does that, except
    where a row holds one element: it then sums the column pairwise."""
    if frac.size == len(frac):
        return np.add.accumulate(frac, axis=0)[-1]
    return np.add.reduce(frac, axis=0)


def _grid_walls(ps: PatchSet) -> list[tuple] | None:
    """The patch set as grid walls cut into row bands, as wall_patches lays out
    every Room, or None.

    A grid wall is a run of consecutive patches with one normal, which no
    other run has (in a shuffled set every patch would be a wall), and one
    area, laid out row-major with z varying by row only and x and y by
    column only, exactly. A band pair's row offsets are a (rows, rows)
    array, so each wall is cut into bands of at most isqrt(_GRID_BLOCK) = 181
    consecutive rows, in order, each a grid wall in its own right. Each band
    is (start, x, y, z, normal, area), the normal a tuple: its patch (r, c) is
    start + r * x.size + c, at (x[c], y[c], z[r]). Bands share a normal only
    within one wall.
    """
    cuts = np.flatnonzero((ps.normals[1:] != ps.normals[:-1]).any(axis=1)) + 1
    starts = [0, *cuts.tolist()]
    if len({tuple(n) for n in ps.normals[starts].tolist()}) < len(starts):
        return None
    band = math.isqrt(_GRID_BLOCK)
    walls = []
    for start, stop in zip(starts, [*starts[1:], len(ps)]):
        c = ps.centers[start:stop]
        cols = int(np.argmin(c[:, 2] == c[0, 2])) or len(c)  # the first row's length
        if len(c) % cols:
            return None
        g = c.reshape(-1, cols, 3)
        if not ((g[:, :, :2] == g[0, :, :2]).all() and (g[:, :, 2] == g[:, :1, 2]).all()
                and (ps.areas[start:stop] == ps.areas[start]).all()):
            return None
        normal = tuple(ps.normals[start].tolist())
        walls += [(start + r0 * cols, g[0, :, 0], g[0, :, 1], g[r0:r0 + band, 0, 2], normal,
                   ps.areas[start]) for r0 in range(0, len(g), band)]
    return walls


def _grid_pairs(sources: np.ndarray, walls: list[tuple]) -> list[tuple]:
    """The plan of the grid transfer: its (source band, receiver band) pairs, in
    source order, grouped by the receivers' rows.

    Each group is (a, lit, dz, receivers): a source band as _grid_walls gives it,
    its lit sources, the distinct row offsets z_b[rb] - z_a[ra], sorted, that
    every receiver band b of the group shares, and receivers, one (b, width,
    rows) per b: the receiver columns and the sources per block. The walls of a
    room share their row heights, so dz is made once per distinct (z_a, z_b) and
    shared. Each receiver band keeps its own running total, so their order
    leaves the bits. A group keeps no (rows, rows) array, so the plan's memory
    does not grow with the number of bands.
    """
    offsets: dict[tuple[bytes, bytes], np.ndarray] = {}
    plan = []
    for a in walls:
        start_a, xa, _, za, normal, _ = a
        lit = sources[slice(*np.searchsorted(sources, (start_a, start_a + za.size * xa.size)))]
        if not lit.size:
            continue
        groups: dict[bytes, list[tuple]] = {}
        for b in walls:
            # a band of a's wall is left out: a receiver with the source's normal n gets
            # cos_in = -(v . n) and cos_out = v . n from the same _dot3, never both
            # positive, so every term is +0.0 and leaving it out keeps the bits
            if b[4] != normal:
                groups.setdefault(b[3].tobytes(), []).append(b)
        for zb_bytes, group in groups.items():
            if (dz := offsets.get(key := (za.tobytes(), zb_bytes))) is None:
                # the distinct offsets, sorted. != merges -0.0 and +0.0, whose terms agree:
                # a zero offset's sign reaches a cosine only where that cosine is zero, and
                # then the term is +0.0. (np.unique without an inverse loads numpy.ma on
                # first use.)
                dz = np.sort(group[0][3] - za[:, None], axis=None)
                offsets[key] = dz = dz[np.concatenate(([True], dz[1:] != dz[:-1]))]
            receivers = []
            for b in group:
                width = min(b[1].size, max(1, _GRID_BLOCK // (dz.size * xa.size)))
                rows = min(lit.size, max(1, _GRID_BLOCK // (b[3].size * width)))
                receivers.append((b, width, rows))
            plan.append((a, lit, dz, receivers))
    return plan


def _grid_transfer(scale: np.ndarray, sources: np.ndarray, walls: list[tuple], out: np.ndarray):
    """Add the transfer into out band pair by band pair (see _grid_walls).

    For a source band a and a receiver band b, a pair's fraction depends only on
    the row offset z_b[rb] - z_a[ra], the source column and the receiver
    column. So _pair_fractions runs once per distinct offset and column pair,
    over a block of receiver columns at a time, and each block of sources
    gathers its rows, (sources, rows of b, columns), from those terms. The
    work arrays and the gathered rows share one buffer made once per call,
    sized for the call's largest block from the plan (_grid_pairs); blocks
    made afresh are handed back to the OS and faulted in again on every band
    pair (README, "Fixed cost of a run").
    """
    plan = _grid_pairs(sources, walls)
    # a block's six work arrays of n terms, and its gather from 3n on: the terms are
    # in work[2], and work[3:] is spent once they are
    size = max((3 * dz.size * a[1].size * width
                + max(3 * dz.size * a[1].size * width, rows * b[3].size * width)
                for a, _, dz, receivers in plan for b, width, rows in receivers), default=0)
    if not size:
        return
    # 64-byte aligned: on malloc's 16-byte alignment the AVX-512 loops ran about 7 %
    # slower at 0.125 m
    raw = np.empty(size + 7)
    buf = raw[(-raw.ctypes.data // 8) % 8:][:size]
    for (start_a, xa, ya, za, normal, _), lit, dz, receivers in plan:
        # the terms row that source row ra and receiver row rb read from: the index of
        # the offset's exact equal in dz, as np.unique's inverse gives it, at under
        # half its cost on a pair of 181-row bands. The group's receivers share their rows.
        first = np.searchsorted(dz, receivers[0][0][3] - za[:, None]) * xa.size
        ra, ca = np.divmod(lit - start_a, xa.size)
        for (start_b, xb, yb, zb, normal_b, area), width, rows in receivers:
            received = out[start_b:start_b + zb.size * xb.size].reshape(zb.size, xb.size)
            for c0 in range(0, xb.size, width):
                cb = slice(c0, c0 + width)
                xs, ys = xb[cb], yb[cb]
                v = (xs - xa[:, None], ys - ya[:, None], dz[:, None, None])
                n = dz.size * xa.size * xs.size
                work = buf[:6 * n].reshape(6, dz.size, xa.size, xs.size)
                terms = _pair_fractions(v, normal, normal_b, area, work)
                terms = terms.reshape(dz.size * xa.size, -1)
                total = received[:, cb]
                for k in (slice(k0, k0 + rows) for k0 in range(0, lit.size, rows)):
                    index = first[ra[k]] + ca[k, None]
                    frac = buf[3 * n:3 * n + index.size * xs.size].reshape(*index.shape, -1)
                    # the index is in range; mode="raise" would copy through a temporary
                    np.take(terms, index, axis=0, out=frac, mode="clip")
                    frac *= scale[lit[k], None, None]
                    frac[0] += total
                    total = _add_rows(frac)
                received[:, cb] = total


def _second_bounce_power(ps: PatchSet, power1: np.ndarray) -> np.ndarray:
    """Patch powers after one unblocked diffuse patch-to-patch transfer.

    O(P^2) pairs over the grid walls' row bands (_grid_walls), each distinct
    pair geometry evaluated once (_grid_transfer); a patch set that is not
    laid out as wall_patches lays it out raises ValueError. It gives the bits
    of adding one source row at a time, in source order, each row computed
    with einsum dot products: the per-axis sums follow einsum's order (_dot3),
    skipped pairs would only add +0.0, and the rows join the running total in
    order (_add_rows).
    """
    walls = _grid_walls(ps)
    if walls is None:
        raise ValueError("order 2 needs the patches as wall_patches lays them out")
    out = np.zeros(len(ps))
    sources = np.flatnonzero(power1 > 0.0)
    if sources.size:
        _grid_transfer(ps.reflectivity * power1, sources, walls, out)
    return out


def patch_incident_power(ap: "Luminaire", ps: PatchSet,
                         blockers: OrientedBoxes | tuple[()] = (),
                         order: int = 1) -> np.ndarray:
    """Optical power landing on each wall patch per unit transmitted power.

    order=1 is direct source-to-patch illumination, whose legs the blockers
    shadow; order=2 adds one diffuse patch-to-patch transfer and takes no
    blockers, as the patch-to-patch legs are never occlusion-tested. Order 2
    takes the patches only as wall_patches lays out a room's walls, and
    raises ValueError for any other patch set (turned, shuffled, a panel on
    a wall's normal). The result depends only on the source and the walls,
    so it can be computed once and reused across receiver poses.
    """
    if order not in (1, 2):
        raise ValueError(f"reflection order must be 1 or 2, got {order}")
    if blockers and order == 2:
        raise ValueError("blockers shadow order 1 only; order 2 takes none")
    if len(ps) == 0:
        return np.zeros(0)
    power = _first_bounce_power(ap, ps, blockers)
    if order == 2:
        power = power + _second_bounce_power(ps, power)
    return power


_POSE_BLOCK = 8  # poses per capture block: six (8, P') float64 work arrays, 0.37 MB at P' = 960


class PoweredPatches:
    """The patches that carry power, ready for the diffuse capture of a block of receiver poses.

    Holds the centers as axis vectors, the normals as axis vectors and
    reflectivity * power per patch, for the patches with power > 0 only. It is
    read-only once built: each `capture` call makes its own work arrays.
    """

    def __init__(self, ps: PatchSet, power: np.ndarray):
        rows = np.flatnonzero(power > 0.0)
        self._axes = np.ascontiguousarray(ps.centers[rows].T)
        self._normals = np.ascontiguousarray(ps.normals[rows].T)
        self.scale = ps.reflectivity[rows] * power[rows]

    def __len__(self) -> int:
        return len(self.scale)

    def capture(self, ues: Sequence["PhotoDetector"],
                blockers: OrientedBoxes | tuple[()] = ()) -> list[float]:
        """Detector power per pose from the diffusely re-emitted patch powers; compensated sums.

        Only the patches that face a detector and lie in its field of view
        enter its exact sum, so the zero terms of the other patches cannot
        change it. Each term is the arithmetic of the per-patch formula,
        evaluated in place over (poses, P') work arrays, _POSE_BLOCK poses at
        a time, before the live ones are kept; a pose's terms get the same
        elementwise operations in any block. d2^2 and cos_out are summed per
        axis in einsum's order (_dot3); cos_psi stays the `u @ normal` matmul,
        stacked over the poses, whose rounding a per-axis sum does not
        reproduce (README, Determinism).
        """
        if not len(self):
            return [0.0] * len(ues)
        sums: list[float] = []
        buf = np.empty(6 * min(len(ues), _POSE_BLOCK) * len(self))  # shared by every block
        for a in range(0, len(ues), _POSE_BLOCK):
            block = ues[a:a + _POSE_BLOCK]
            n = len(block) * len(self)
            u = buf[:3 * n].reshape(len(block), len(self), 3)
            position = np.array([ue.position for ue in block])
            for axis, c in enumerate(self._axes):
                np.subtract(position[:, axis, None], c, out=u[:, :, axis])
            ux, uy, uz = u.transpose(2, 0, 1)
            d2_sq, frac, cos_psi = buf[3 * n:6 * n].reshape(3, len(block), len(self))
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                _dot3(ux, uy, uz, ux, uy, uz, d2_sq, cos_psi)
                cos_out = _dot3(ux, uy, uz, *self._normals, frac, cos_psi)
                np.matmul(u, np.array([ue.normal for ue in block])[:, :, None],
                          out=cos_psi[:, :, None])
                # u is spent: its first (poses, P') elements hold d2, contiguous
                d2 = np.sqrt(d2_sq, out=u.reshape(-1)[:d2_sq.size].reshape(d2_sq.shape))
                cos_out /= d2
                np.negative(cos_psi, out=cos_psi)
                cos_psi /= d2
                # the FOV is at most 90 degrees, so this also requires cos_psi > 0
                live = cos_out > 0.0
                live &= cos_psi >= [[math.cos(ue.fov)] for ue in block]
                # capture fraction of the re-emitted power; capped at 1 so a detector
                # almost touching a patch cannot receive more than the patch reflected
                frac *= [[ue.area] for ue in block]
                frac *= cos_psi
                frac /= np.multiply(d2_sq, math.pi, out=d2)
                np.minimum(frac, 1.0, out=frac)
                frac *= self.scale
            contrib = frac[live]  # every pose's live terms, pose by pose
            counts = live.sum(axis=1)
            if blockers and contrib.size:
                starts = np.broadcast_to(self._axes.T, u.shape)[live]
                contrib[shadowed_mask(starts, np.repeat(position, counts, axis=0), blockers)] = 0.0
            terms = memoryview(contrib)  # fsum iterates the floats without a list
            stops = np.cumsum(counts).tolist()
            sums += [math.fsum(terms[i:j]) for i, j in zip([0, *stops], stops)]
        return sums


def nlos_gain(ap: "Luminaire", ue: "PhotoDetector", ps: PatchSet,
              blockers: OrientedBoxes | tuple[()] = (), order: int = 1) -> float:
    """Diffuse wall-bounce DC gain summed over all patches.

    order=1 models a single wall bounce; order=2 adds one patch-to-patch
    transfer before the detector leg, takes no blockers and needs the patches
    as wall_patches lays them out (patch_incident_power).
    """
    power = patch_incident_power(ap, ps, blockers, order=order)
    return PoweredPatches(ps, power).capture([ue], blockers)[0]
