"""Optical channel gains: line-of-sight and diffuse wall reflections.

All gains are dimensionless ratios of received optical power at the detector
to transmitted optical power, for a generalized-Lambertian source of order m
and a flat photodetector with a field-of-view cutoff. Blockers are one
OrientedBoxes set or (); a sight line crossing a box interior contributes zero.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .geometry import OrientedBoxes, Vec3, segments_intersect_box

if TYPE_CHECKING:  # pragma: no cover
    from .scene import Luminaire, PhotoDetector, Room

DEFAULT_WALL_REFLECTIVITY = 0.7
DEFAULT_PATCH_SIZE = 0.25  # meters; target side length of wall patches


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


def wall_patches(room: "Room", patch_target_size: float = DEFAULT_PATCH_SIZE,
                 reflectivity: float = DEFAULT_WALL_REFLECTIVITY) -> PatchSet:
    """Tile the four walls with near-square patches no larger than the target.

    Patch side counts are rounded up, so patches shrink to fit exactly and
    their areas sum to the total wall area.
    """
    if patch_target_size <= 0:
        raise ValueError(f"patch size must be positive, got {patch_target_size}")
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(f"wall reflectivity {reflectivity} outside [0, 1]")
    centers, normals, areas = [], [], []
    for _label, origin, u_dir, v_dir, u_len, v_len, normal in room.walls():
        nu = max(1, math.ceil(u_len / patch_target_size))
        nv = max(1, math.ceil(v_len / patch_target_size))
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


_SOURCE_BLOCK = 32  # source rows per block: six (32, P') float64 work arrays, 1.1 MB at P' = 720


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


def _plane_runs(ps: PatchSet, sources: np.ndarray):
    """Cut the sources into runs of consecutive sources with one normal on one plane.

    Yields (run, columns, normal). A source whose normal is axis-aligned
    lies on the plane of its own wall coordinate; every patch whose center
    shares that coordinate bit for bit gives v . n_j == 0, hence
    cos_out == 0 and a +0.0 term, so columns leaves those patches out. Runs
    of sources with any other normal keep every column.
    """
    normals = ps.normals[sources]
    nonzero = normals != 0.0
    axis = np.where(nonzero.sum(axis=1) == 1, nonzero.argmax(axis=1), -1)
    coord = np.where(axis >= 0, ps.centers[sources, axis.clip(0)], 0.0)
    cuts = np.flatnonzero((normals[1:] != normals[:-1]).any(axis=1)
                          | (coord[1:] != coord[:-1])) + 1
    bounds = [0, *cuts.tolist(), sources.size]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        a = axis[start]
        cols = (np.arange(len(ps)) if a < 0
                else np.flatnonzero(ps.centers[:, a] != coord[start]))
        yield sources[start:stop], cols, normals[start]


def _second_bounce_power(ps: PatchSet, power1: np.ndarray,
                         blockers: OrientedBoxes | tuple[()]) -> np.ndarray:
    """Patch powers after one diffuse patch-to-patch transfer.

    O(P^2) pairs, evaluated per plane run of sources (see _plane_runs) and
    _SOURCE_BLOCK sources at a time within a run; with blockers every pair
    is occlusion-tested against every box, so blockers are meant for coarse
    patch grids or one-off evaluations, not the Monte Carlo hot path.

    The result is bit-identical to adding one source row at a time, in
    source order, each row computed with einsum dot products: the per-axis
    sums follow einsum's order (_dot3), skipped columns would only add
    +0.0, and each block's rows join the running total in one reduce along
    axis 0, which adds rows in order.
    """
    out = np.zeros(len(ps))
    sources = np.flatnonzero(power1 > 0.0)
    if not sources.size:
        return out
    centers, normals = ps.centers.T, ps.normals.T  # (3, P) axis vectors
    scale = ps.reflectivity * power1
    runs = list(_plane_runs(ps, sources))
    rows = min(_SOURCE_BLOCK, sources.size)
    buf = np.empty(6 * rows * max(cols.size for _, cols, _ in runs))  # shared by every run
    for run, cols, normal in runs:
        cx, cy, cz = centers[:, cols]
        nx, ny, nz = normals[:, cols]
        areas = ps.areas[cols]
        total = out[cols]
        work = buf[:6 * rows * cols.size].reshape(6, rows, cols.size)
        for b0 in range(0, run.size, _SOURCE_BLOCK):
            js = run[b0:b0 + _SOURCE_BLOCK]
            vx, vy, vz, d_sq, cos_out, tmp = work[:, :js.size]
            sx, sy, sz = centers[:, js, None]
            np.subtract(cx, sx, out=vx)  # v[k, i] = centers[i] - centers[js[k]]
            np.subtract(cy, sy, out=vy)
            np.subtract(cz, sz, out=vz)
            _dot3(vx, vy, vz, vx, vy, vz, d_sq, tmp)
            _dot3(vx, vy, vz, *normal, cos_out, tmp)
            cos_in = _dot3(vx, vy, vz, nx, ny, nz, vx, tmp)
            with np.errstate(divide="ignore", invalid="ignore"):
                d = np.sqrt(d_sq, out=vy)
                cos_out /= d
                np.negative(cos_in, out=cos_in)
                cos_in /= d
                frac = np.multiply(areas, cos_in, out=vz)
                frac *= cos_out
                frac /= np.multiply(d_sq, math.pi, out=tmp)
            keep = np.isfinite(frac)
            keep &= cos_out > 0.0
            keep &= cos_in > 0.0
            np.minimum(frac, 1.0, out=frac)
            frac[~keep] = 0.0
            frac *= scale[js, None]
            if blockers:
                for row, j in zip(frac, js.tolist()):
                    idx = np.flatnonzero(row > 0.0)
                    if idx.size:
                        starts = np.broadcast_to(ps.centers[j], (idx.size, 3))
                        row[idx[shadowed_mask(starts, ps.centers[cols[idx]], blockers)]] = 0.0
            frac[0] += total
            total = np.add.reduce(frac, axis=0)
        out[cols] = total
    return out


def patch_incident_power(ap: "Luminaire", ps: PatchSet,
                         blockers: OrientedBoxes | tuple[()] = (),
                         order: int = 1) -> np.ndarray:
    """Optical power landing on each wall patch per unit transmitted power.

    order=1 is direct source-to-patch illumination; order=2 adds one diffuse
    patch-to-patch transfer. The result depends only on the source and the
    walls, so it can be computed once and reused across receiver poses.
    """
    if order not in (1, 2):
        raise ValueError(f"reflection order must be 1 or 2, got {order}")
    if len(ps) == 0:
        return np.zeros(0)
    power = _first_bounce_power(ap, ps, blockers)
    if order == 2:
        power = power + _second_bounce_power(ps, power, blockers)
    return power


class PoweredPatches:
    """The patches that carry power, ready for one diffuse capture per receiver pose.

    Holds the centers as (P', 3) rows and as axis vectors, the normals as
    axis vectors and reflectivity * power per patch, for the patches with
    power > 0 only, plus the work arrays of `capture`. One instance serves one
    caller at a time.
    """

    def __init__(self, ps: PatchSet, power: np.ndarray):
        rows = np.flatnonzero(power > 0.0)
        self.centers = ps.centers[rows]
        self._axes = np.ascontiguousarray(self.centers.T)
        self._normals = np.ascontiguousarray(ps.normals[rows].T)
        self.scale = ps.reflectivity[rows] * power[rows]
        self._u = np.empty_like(self.centers)
        self._work = np.empty((4, rows.size))
        self._mask = np.empty((2, rows.size), dtype=bool)

    def __len__(self) -> int:
        return len(self.scale)

    def capture(self, ue: "PhotoDetector", blockers: OrientedBoxes | tuple[()] = ()) -> float:
        """Detector power from the diffusely re-emitted patch powers; compensated sum.

        Only the patches that face the detector and lie in its field of view
        enter the exact sum, so the zero terms of the other patches cannot
        change it. Each term is the arithmetic of the per-patch formula,
        evaluated in place over all rows before the live ones are kept.
        d2^2 and cos_out are summed per axis in einsum's order (_dot3); cos_psi
        stays the `u @ normal` matmul, whose rounding a per-axis sum does not
        reproduce (README, Determinism).
        """
        if not len(self):
            return 0.0
        u = self._u
        for axis, (p, c) in enumerate(zip(ue.position.tolist(), self._axes)):
            np.subtract(p, c, out=u[:, axis])
        ux, uy, uz = u.T
        d2_sq, d2, frac, cos_psi = self._work
        live, in_fov = self._mask
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            _dot3(ux, uy, uz, ux, uy, uz, d2_sq, d2)
            np.sqrt(d2_sq, out=d2)
            cos_out = _dot3(ux, uy, uz, *self._normals, frac, cos_psi)
            cos_out /= d2
            np.matmul(u, ue.normal, out=cos_psi)
            np.negative(cos_psi, out=cos_psi)
            cos_psi /= d2
            # the FOV is at most 90 degrees, so this also requires cos_psi > 0
            np.greater(cos_out, 0.0, out=live)
            live &= np.greater_equal(cos_psi, math.cos(ue.fov), out=in_fov)
            # capture fraction of the re-emitted power; capped at 1 so a detector
            # almost touching a patch cannot receive more than the patch reflected
            frac *= ue.area
            frac *= cos_psi
            frac /= np.multiply(d2_sq, math.pi, out=d2)
            np.minimum(frac, 1.0, out=frac)
            frac *= self.scale
        contrib = frac[live]
        if blockers and contrib.size:
            ends = np.broadcast_to(ue.position, (contrib.size, 3))
            contrib[shadowed_mask(self.centers[live], ends, blockers)] = 0.0
        return math.fsum(memoryview(contrib))  # iterates the floats without a list


def diffuse_capture(ps: PatchSet, ue: "PhotoDetector", power: np.ndarray,
                    blockers: OrientedBoxes | tuple[()] = ()) -> float:
    """Detector gain from per-patch incident powers after one re-emission."""
    return PoweredPatches(ps, power).capture(ue, blockers)


def nlos_gain(ap: "Luminaire", ue: "PhotoDetector", ps: PatchSet,
              blockers: OrientedBoxes | tuple[()] = (), order: int = 1) -> float:
    """Diffuse wall-bounce DC gain summed over all patches.

    order=1 models a single wall bounce; order=2 adds one patch-to-patch
    transfer before the detector leg.
    """
    power = patch_incident_power(ap, ps, blockers, order=order)
    return diffuse_capture(ps, ue, power, blockers)
