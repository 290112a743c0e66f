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
    """Cells mounted flat on one wall, as their (cells, 3) centers.

    build_arrays lays out n x n cells in row-major grid order. scale is the mirror
    reflectivity or the metasurface steering efficiency: the tuple of the
    layout (mirror arrays, metasurface arrays) holding the array says which
    kind it is.
    """

    normal: Vec3
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


_GAP_MARGIN = 1e-5  # a source must clear each mirror array by this times the largest d1


class ReflectorBank:
    """Every cell of every array lit by the scene's one source, stacked for one pass
    per pose.

    Cells run over the mirror arrays (the first `n_mirror` cells), then over
    the metasurface arrays, each array in grid order. Per cell the bank holds
    the center as axis vectors, d1 = |u| for the source leg u = source -
    center, and a weight folding the reflectivity or efficiency, (m + 1) and
    cos^m(phi): zero where the source does not light it.

    Every mirror cell is steered to the half-vector orientation for the
    detector. The image, cell center and detector are then collinear, so the
    image-detector distance is exactly d1 + d2 and the footprint is met at
    the cell center; the front-side condition reduces to the legs not being
    exactly antipodal. The bank raises ValueError unless the source clears
    every mirror array: source . n - max over the array's cells of c . n >
    _GAP_MARGIN * the largest d1. For a detector on or in front of that plane
    (every pose sample_ue draws, for wall-mounted arrays) no cell's legs can
    then be antipodal (README, "Fixed cost of a run"), so the kernel does not
    test for them. A detector behind a mirror array's plane is outside the
    model: its near-antipodal cells are kept. A metasurface cell keeps its
    wall normal and needs the source and the detector in front of it.

    A bank is read-only once built, so any number of callers may share one.
    """

    def __init__(self, ap: "Luminaire", mirror_arrays: Sequence[ReflectorArray] = (),
                 metasurface_arrays: Sequence[ReflectorArray] = ()):
        arrays = (*mirror_arrays, *metasurface_arrays)
        k = len(mirror_arrays)  # the mirror arrays come first
        self.n_mirror = sum(len(arr) for arr in mirror_arrays)
        self._msa_normals = np.array([arr.normal for arr in metasurface_arrays]).reshape(-1, 3)
        self._source = ap.position
        # the kernel reads centers as contiguous axis vectors
        centers = np.concatenate([np.zeros((0, 3))] + [arr.centers for arr in arrays])
        self.cx, self.cy, self.cz = self._c = np.ascontiguousarray(centers.T)
        ux, uy, uz = u = (ap.position - centers).T
        self.d1 = np.sqrt(ux * ux + uy * uy + uz * uz)
        margin = _GAP_MARGIN * float(self.d1.max(initial=0.0))
        self.weight, self._cn = np.zeros(len(centers)), np.zeros(len(centers))
        # per metasurface array: its cells and the largest c.n among them
        self._msa_cells, fronts, start = [], [], 0
        m = ap.lambertian_order
        for i, arr in enumerate(arrays):
            cells = slice(start, start + len(arr))
            start = cells.stop
            cos_phi = -_dot(*u[:, cells], ap.normal) / self.d1[cells]
            lit = cos_phi > 0.0
            cn = self._cn[cells] = _dot(*self._c[:, cells], arr.normal)
            if i < k and (gap := float(ap.position @ arr.normal - cn.max())) <= margin:
                raise ValueError(f"source must lie more than {margin:.3g} m in front of "
                                 f"every mirror array; it lies {gap:.3g} m in front of one")
            if i >= k:  # a metasurface also needs the source in front
                lit &= _dot(*u[:, cells], arr.normal) > 0.0
                self._msa_cells.append(cells)
                fronts.append(cn.max())
            self.weight[cells] = np.where(
                lit, arr.scale * (m + 1.0) * np.maximum(cos_phi, 0.0) ** m, 0.0)
        self._msa_front = np.array(fronts)

    def __len__(self) -> int:
        return len(self.d1)

    @property
    def centers(self) -> np.ndarray:
        """(N, 3) cell centers, a view of the axis vectors."""
        return self._c.T

    def _kernel(self, ue: "PhotoDetector") -> np.ndarray:
        """Unblocked per-cell gains, a new array.

        The gains are weight * A cos(psi) / (2 pi (d1 + d2)^2), zero outside the
        detector's field of view and for a metasurface cell with the detector
        behind it. Each call makes its own five (N,) work arrays and one mask
        (about 0.4 MB for 10^4 cells) and writes every later step into them,
        with the arithmetic of one fresh array per step.
        """
        x, y, z = ue.position.tolist()
        nx, ny, nz = (-ue.normal).tolist()
        vx, vy, vz = x - self.cx, y - self.cy, z - self.cz
        d2, g = vx * vx, vy * vy
        d2 += g
        d2 += np.multiply(vz, vz, out=g)
        np.sqrt(d2, out=d2)
        cos_psi = np.multiply(vx, nx, out=g)
        cos_psi += np.multiply(vy, ny, out=vy)
        cos_psi += np.multiply(vz, nz, out=vz)
        cos_psi /= d2
        # a detector's fov is at most pi/2, so its cosine is > 0 and this test
        # also drops the cells behind the detector (cos_psi <= 0)
        ok = cos_psi >= math.cos(ue.fov)
        if self.n_mirror < len(ok):  # detector in front: ue . n > c . n, cell by cell
            ue_n = (self._msa_normals @ ue.position).tolist()
            for cells, s, front in zip(self._msa_cells, ue_n, self._msa_front.tolist()):
                if s <= front:  # else every cell of the array passes
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
        gains = self._kernel(ue) if len(self) else np.zeros(0)
        if blockers:
            idx = np.flatnonzero(gains > 0.0)
            if idx.size:
                pts = self.centers[idx]
                blocked = shadowed_mask(np.broadcast_to(self._source, pts.shape), pts,
                                        blockers)
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

