"""Reconfigurable reflector arrays: steerable mirrors and metasurface patches.

A mirror element redirects the source specularly; its contribution at the
detector is modeled by the image of the source across the element plane, so
an element behaves like a copy of the source at the image point, attenuated
by the mirror reflectivity and gated by the element aperture (footprint).
A metasurface patch steers anomalously with a flat efficiency factor and no
aperture gating beyond front-side visibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .channel import shadowed, shadowed_mask
from .geometry import OrientedBoxes, Vec3, normalize

if TYPE_CHECKING:  # pragma: no cover
    from .scene import Luminaire, PhotoDetector

DEFAULT_MIRROR_REFLECTIVITY = 0.95
DEFAULT_MSA_EFFICIENCY = 0.8
MIRROR_WIDTH = 0.1  # meters, horizontal
MIRROR_HEIGHT = 0.06  # meters, vertical

_UP = np.array([0.0, 0.0, 1.0])
_X = np.array([1.0, 0.0, 0.0])


@dataclass(frozen=True)
class MirrorElement:
    """One small flat mirror; normal is its current orientation."""

    center: Vec3
    normal: Vec3
    width: float = MIRROR_WIDTH
    height: float = MIRROR_HEIGHT
    reflectivity: float = DEFAULT_MIRROR_REFLECTIVITY

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("mirror element dimensions must be positive")
        if not 0.0 <= self.reflectivity <= 1.0:
            raise ValueError(f"mirror reflectivity {self.reflectivity} outside [0, 1]")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "normal", normalize(np.asarray(self.normal, dtype=float)))


@dataclass(frozen=True, eq=False)
class ReflectorArray:
    """An n x n grid of cells mounted flat on one wall, as its cell centers.

    centers is (n * n, 3) in row-major grid order. scale is the mirror
    reflectivity or the metasurface steering efficiency: the Scene tuple
    holding the array says which kind it is.
    """

    wall: str
    normal: Vec3
    n_per_side: int
    centers: np.ndarray
    scale: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.scale <= 1.0:
            raise ValueError(f"reflectivity or efficiency {self.scale} outside [0, 1]")
        object.__setattr__(self, "normal", normalize(np.asarray(self.normal, dtype=float)))
        object.__setattr__(self, "centers", np.asarray(self.centers, dtype=float))

    def __len__(self) -> int:
        return len(self.centers)


def optimal_mirror_normal(src: Vec3, elem_center: Vec3, dst: Vec3) -> Vec3:
    """Orientation that reflects the ray src->element exactly onto dst.

    The half-vector of the two outward unit legs. Degenerate when src and dst
    sit exactly opposite each other through the element (no plane works).
    """
    u = np.asarray(src, dtype=float) - elem_center
    v = np.asarray(dst, dtype=float) - elem_center
    nu, nv = math.sqrt(float(u @ u)), math.sqrt(float(v @ v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("source or destination coincides with the element center")
    h = u / nu + v / nv
    hn = math.sqrt(float(h @ h))
    if hn < 1e-12:
        raise ValueError("degenerate geometry: source and destination are antipodal "
                         "through the element")
    return h / hn


def _plane_basis(n: Vec3) -> tuple[Vec3, Vec3]:
    """In-plane axes for a rectangle with normal n: e1 horizontal-ish, e2 = n x e1."""
    e1 = np.cross(_UP, n)
    if float(e1 @ e1) < 1e-18:
        e1 = np.cross(_X, n)
    e1 = normalize(e1)
    return e1, np.cross(n, e1)


def mirror_element_gain(ap: "Luminaire", elem: MirrorElement, ue: "PhotoDetector",
                        blockers: OrientedBoxes | tuple[()] = ()) -> float:
    """Cascaded gain of one mirror element at its current orientation.

    Image-source model: zero unless the source is on the element's front
    side, the ray from the source image to the detector passes through the
    element rectangle, the element sits inside the detector field of view,
    and both legs are unobstructed.
    """
    c = elem.center
    n = elem.normal
    s = ap.position - c
    sn = float(s @ n)
    if sn <= 0.0:  # source behind or on the mirror plane
        return 0.0
    d1 = math.sqrt(float(s @ s))
    cos_phi = float(-s @ ap.normal) / d1
    if cos_phi <= 0.0:
        return 0.0
    image = ap.position - 2.0 * sn * n

    v = ue.position - c
    d2 = math.sqrt(float(v @ v))
    if d2 == 0.0:
        raise ValueError("detector position coincides with the element center")
    cos_psi = float(-v @ ue.normal) / d2
    if cos_psi <= 0.0 or cos_psi < math.cos(ue.fov):
        return 0.0

    ray = ue.position - image
    dist_sq = float(ray @ ray)
    if dist_sq == 0.0:
        return 0.0
    denom = float(ray @ n)
    if denom <= 0.0:  # ray runs along or away from the mirror plane
        return 0.0
    t = float((c - image) @ n) / denom
    if not 0.0 < t < 1.0:
        return 0.0
    hit = image + t * ray - c
    e1, e2 = _plane_basis(n)
    if abs(float(hit @ e1)) > elem.width / 2 or abs(float(hit @ e2)) > elem.height / 2:
        return 0.0
    if blockers and (shadowed(ap.position, c, blockers) or shadowed(c, ue.position, blockers)):
        return 0.0
    m = ap.lambertian_order
    return (elem.reflectivity * (m + 1.0) * ue.area / (2.0 * math.pi * dist_sq)
            * cos_phi ** m * cos_psi)


_ANTIPODAL_TOL = 1e-12  # a mirror cell is dropped when 1 + cos(leg angle) <= this
_GAP_MARGIN = 1e-5  # see ReflectorBank._antipodes_impossible


class ReflectorBank:
    """Every cell of every (source, array) pair, stacked for one pass per pose.

    Cells run source by source over the mirror arrays (the first `n_mirror`
    cells), then over the metasurface arrays, each array in grid order. Per
    cell the bank holds its source, the center and the source leg u = source -
    center as axis vectors, d1 = |u|, and a weight folding the reflectivity or
    efficiency, (m + 1) and cos^m(phi): zero where the source does not light it.

    Every mirror cell is steered to the half-vector orientation for the
    detector. The image, cell center and detector are then collinear, so the
    image-detector distance is exactly d1 + d2 and the footprint is met at
    the cell center; the front-side condition reduces to the legs not being
    exactly antipodal. A metasurface cell keeps its wall normal and needs the
    source and the detector in front of it.
    """

    def __init__(self, aps: Sequence["Luminaire"], mirror_arrays: Sequence[ReflectorArray] = (),
                 metasurface_arrays: Sequence[ReflectorArray] = ()):
        pairs = [(ap, arr) for arrays in (mirror_arrays, metasurface_arrays)
                 for ap in aps for arr in arrays]
        k = len(aps) * len(mirror_arrays)  # the pairs holding mirrors come first
        sizes = [len(arr) for _, arr in pairs]
        self.n_mirror = sum(sizes[:k])
        normals = np.array([arr.normal for _, arr in pairs]).reshape(-1, 3)
        self._mirror_normals, self._msa_normals = normals[:k], normals[k:]
        # the kernel reads centers and legs as contiguous axis vectors
        self.sources = np.repeat(np.array([ap.position for ap, _ in pairs]).reshape(-1, 3),
                                 sizes, axis=0)
        centers = np.concatenate([np.zeros((0, 3))] + [arr.centers for _, arr in pairs])
        self.cx, self.cy, self.cz = self._c = np.ascontiguousarray(centers.T)
        self.ux, self.uy, self.uz = u = np.ascontiguousarray((self.sources - centers).T)
        self.d1 = np.sqrt(self.ux * self.ux + self.uy * self.uy + self.uz * self.uz)
        self.weight, cn, fronts, start = np.zeros(len(centers)), np.zeros(len(centers)), [], 0
        slices = []
        for i, (ap, arr) in enumerate(pairs):
            cells = slice(start, start + len(arr))
            start = cells.stop
            slices.append(cells)
            cos_phi = -_dot(*u[:, cells], ap.normal) / self.d1[cells]
            lit = cos_phi > 0.0
            if i >= k:  # a metasurface also needs the source in front
                lit &= _dot(*u[:, cells], arr.normal) > 0.0
            m = ap.lambertian_order
            self.weight[cells] = np.where(
                lit, arr.scale * (m + 1.0) * np.maximum(cos_phi, 0.0) ** m, 0.0)
            cn[cells] = _dot(*self._c[:, cells], arr.normal)
            fronts.append(cn[cells].max())
        self._mirror_front = np.array(fronts[:k])  # per mirror pair: max over cells of c.n
        self._sources_in_front = all(float(ap.position @ arr.normal) >= front
                                     for (ap, arr), front in zip(pairs, fronts[:k]))
        # per metasurface pair: its cells and the largest c.n among them
        self._cn, self._msa_cells, self._msa_front = cn, slices[k:], np.array(fronts[k:])
        self._work = None  # the kernel's work arrays, made on first use

    def __len__(self) -> int:
        return len(self.d1)

    @property
    def centers(self) -> np.ndarray:
        """(N, 3) cell centers, a view of the axis vectors."""
        return self._c.T

    def _antipodes_impossible(self, ue_position: np.ndarray, d2_max: float) -> bool:
        """True when no mirror cell's two legs can come within _ANTIPODAL_TOL of antipodal.

        Holds when every mirror array has its source in front (source . n >=
        front = max c . n) and detector . n - front > _GAP_MARGIN * d2_max, where
        d2_max bounds every detector distance: then each cell has 1 + cos >
        5e-11 (README, "Fixed cost of a run", derives it).
        """
        ue_gap = self._mirror_normals @ ue_position - self._mirror_front
        return self._sources_in_front and bool((ue_gap > _GAP_MARGIN * d2_max).all())

    def _kernel(self, ue: "PhotoDetector") -> np.ndarray:
        """Unblocked per-cell gains, in a work array that the next call overwrites.

        The gains are weight * A cos(psi) / (2 pi (d1 + d2)^2), zero outside the
        detector's field of view, for a mirror cell whose legs are exactly
        antipodal and for a metasurface cell with the detector behind it.
        Every step writes into the bank's work arrays (about 0.4 MB for 10^4
        cells), with the arithmetic of one fresh array per step.
        """
        if self._work is None:
            self._work = np.empty((5, len(self))), np.empty(len(self), dtype=bool)
        (vx, vy, vz, d2, g), ok = self._work
        x, y, z = ue.position.tolist()
        nx, ny, nz = (-ue.normal).tolist()
        np.subtract(x, self.cx, out=vx)
        np.subtract(y, self.cy, out=vy)
        np.subtract(z, self.cz, out=vz)
        np.multiply(vx, vx, out=d2)
        d2 += np.multiply(vy, vy, out=g)
        d2 += np.multiply(vz, vz, out=g)
        np.sqrt(d2, out=d2)
        k = self.n_mirror
        antipodal_ok = None
        if k and not self._antipodes_impossible(ue.position, float(d2.max())):
            dot = self.ux[:k] * vx[:k] + self.uy[:k] * vy[:k] + self.uz[:k] * vz[:k]
            antipodal_ok = dot / (self.d1[:k] * d2[:k]) > -1.0 + _ANTIPODAL_TOL
        cos_psi = np.multiply(vx, nx, out=g)
        cos_psi += np.multiply(vy, ny, out=vy)
        cos_psi += np.multiply(vz, nz, out=vz)
        cos_psi /= d2
        # a detector's fov is at most pi/2, so its cosine is > 0 and this test
        # also drops the cells behind the detector (cos_psi <= 0)
        np.greater_equal(cos_psi, math.cos(ue.fov), out=ok)
        if antipodal_ok is not None:
            ok[:k] &= antipodal_ok
        if k < len(ok):  # detector in front: ue . n > c . n, cell by cell
            ue_n = (self._msa_normals @ ue.position).tolist()
            for cells, s, front in zip(self._msa_cells, ue_n, self._msa_front.tolist()):
                if s <= front:  # else every cell of the pair passes
                    ok[cells] &= s > self._cn[cells]
        total_d = np.add(self.d1, d2, out=d2)
        total_d *= total_d
        gains = np.multiply(self.weight, cos_psi, out=g)
        gains /= total_d
        gains *= ue.area / (2.0 * math.pi)
        np.copyto(gains, 0.0, where=np.logical_not(ok, out=ok))
        return gains

    def cascade(self, ue: "PhotoDetector", blockers: OrientedBoxes | tuple[()] = ()
                ) -> np.ndarray:
        """Per-cell gains, a new array: the kernel's, with blocked cells zeroed.

        A cell whose source or detector leg crosses a blocker gets zero.
        """
        gains = self._kernel(ue).copy() if len(self) else np.zeros(0)
        if blockers:
            idx = np.flatnonzero(gains > 0.0)
            if idx.size:
                pts = self.centers[idx]
                blocked = shadowed_mask(self.sources[idx], pts, blockers)
                blocked |= shadowed_mask(pts, np.broadcast_to(ue.position, (idx.size, 3)),
                                         blockers)
                gains[idx[blocked]] = 0.0
        return gains

    def gain(self, ue: "PhotoDetector") -> float:
        """Total gain of the bank: one fixed-order np.sum (README, Determinism)."""
        return float(np.sum(self._kernel(ue))) if len(self) else 0.0


def _dot(x: np.ndarray, y: np.ndarray, z: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Per-axis dot products of the vectors (x, y, z) with the rows of n."""
    return x * n[..., 0] + y * n[..., 1] + z * n[..., 2]

