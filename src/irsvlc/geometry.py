"""3D primitives for the room geometry.

Conventions: right-handed frame, z up, floor at z = 0, one room corner at the
origin. Vectors are float64 numpy arrays of shape (3,).

Functions
---------
vec3                    -- checked constructor for a 3-vector
normalize               -- unit vector, rejects near-zero input
unit_normal_from_polar  -- unit vector from polar/azimuth angles
OrientedBoxes           -- the one box type: n equal upright boxes stored as
                           arrays, row slices, a conservative floor-plan cull
segments_intersect_box  -- open-segment vs. oriented-box interior test, over
                           many segments or many boxes
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

Vec3 = np.ndarray  # shape (3,), float64

_UNIT_TOL = 1e-9
# widens the floor-plan cull (OrientedBoxes.may_cut), per unit of coordinate scale;
# far above the rounding error of the slab test and of the cull itself
_CULL_MARGIN = 1e-9


def vec3(x: float, y: float, z: float) -> Vec3:
    v = np.array([x, y, z], dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"non-finite vector component in ({x}, {y}, {z})")
    return v


def norm(v: Vec3) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def normalize(v: Vec3) -> Vec3:
    n = norm(v)
    if n < 1e-12:
        raise ValueError("cannot normalize a (near-)zero vector")
    return v / n


def is_unit(v: Vec3, tol: float = _UNIT_TOL) -> bool:
    return abs(norm(v) - 1.0) <= tol


def unit_normal_from_polar(theta: float, omega: float) -> Vec3:
    """Unit vector at polar angle theta from +z and azimuth omega from +x.

    theta must lie in [0, pi/2] (upper hemisphere), omega in [0, 2*pi).
    """
    if not 0.0 <= theta <= math.pi / 2:
        raise ValueError(f"polar angle {theta} outside [0, pi/2]")
    if not 0.0 <= omega < 2 * math.pi:
        raise ValueError(f"azimuth {omega} outside [0, 2*pi)")
    st = math.sin(theta)
    return np.array([st * math.cos(omega), st * math.sin(omega), math.cos(theta)])


@dataclass(frozen=True)
class OrientedBoxes:
    """n upright boxes of equal half extents as arrays: (n, 3) centers and (n,) yaws.

    Each box is an axis-aligned box rotated by its yaw about the vertical
    axis through its center; half_extents are the half side lengths along the
    box-local x/y/z axes. The yaw cosines and sines come from `math`, element
    by element, so a box tests the same in every set that holds it, a
    one-row slice included. They are computed on first use, so boxes that
    `may_cut` rules out never pay for them.
    """

    center: np.ndarray
    half_extents: tuple[float, float, float]
    yaw: np.ndarray
    _half: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if any(h <= 0 for h in self.half_extents):
            raise ValueError(f"half extents must be positive, got {self.half_extents}")
        center = np.asarray(self.center, dtype=float)
        yaw = np.asarray(self.yaw, dtype=float)
        if yaw.ndim != 1 or center.shape != (len(yaw), 3):
            raise ValueError(f"center has shape {center.shape}, want ({yaw.size}, 3) for the yaws")
        ok = (yaw >= 0.0) & (yaw < math.pi)  # False for NaN
        if not ok.all():
            raise ValueError(f"yaw {yaw[~ok][0]} outside [0, pi)")
        self.__dict__.update(center=center, yaw=yaw,
                             _half=np.array(self.half_extents, dtype=float)[:, None])

    @cached_property
    def _cos_sin(self) -> tuple[np.ndarray, np.ndarray]:
        yaws = self.yaw.tolist()
        return (np.fromiter(map(math.cos, yaws), float, len(yaws)),
                np.fromiter(map(math.sin, yaws), float, len(yaws)))

    def __len__(self) -> int:
        return len(self.yaw)

    def __getitem__(self, rows) -> OrientedBoxes:
        """The boxes at rows (a slice or 1-D index array); rows of a checked set skip the checks."""
        kept = object.__new__(OrientedBoxes)
        kept.__dict__.update(center=self.center[rows], half_extents=self.half_extents,
                             yaw=self.yaw[rows], _half=self._half)
        if kept.yaw.ndim != 1:
            raise TypeError(f"box rows take a slice or a 1-D index array, not {rows!r}")
        return kept

    def contains_interior(self, p: Vec3) -> np.ndarray:
        """(n,) mask of the boxes whose interior holds the point p."""
        return (np.abs(_box_frame(self, p)) < self._half).all(axis=0)

    def may_cut(self, p: Vec3, q: Vec3) -> np.ndarray:
        """(n,) mask, False only for boxes that cannot cut the open segment p->q.

        A box's interior lies below its top and, seen from above, within its
        half-diagonal of its center. So a box can cut the segment only if its
        center lies within that radius of the floor trace of the part of the
        segment below the box top; the highest top of the set serves every
        box. The test keeps every center within half the trace length plus
        the radius of the trace midpoint, a superset of that capsule, with the
        top and the radius widened by _CULL_MARGIN per unit of coordinate scale.
        """
        (px, py, pz), (qx, qy, qz) = p.tolist(), q.tolist()
        hx, hy, hz = self.half_extents
        margin = _CULL_MARGIN * max(1.0, *map(abs, (px, py, pz, qx, qy, qz)))
        top = float(self.center[:, 2].max()) + hz + margin
        if pz >= top and qz >= top:
            return np.zeros(len(self), dtype=bool)
        # the part below the top runs over t in [t0, t1] of p + t (q - p)
        t0 = (top - pz) / (qz - pz) if pz > top else 0.0
        t1 = (top - pz) / (qz - pz) if qz > top else 1.0
        ax, ay = px + t0 * (qx - px), py + t0 * (qy - py)
        bx, by = px + t1 * (qx - px), py + t1 * (qy - py)
        reach = math.hypot(bx - ax, by - ay) / 2.0 + math.hypot(hx, hy) + margin
        return np.hypot(self.center[:, 0] - (ax + bx) / 2.0,
                        self.center[:, 1] - (ay + by) / 2.0) <= reach


def _box_frame(box: OrientedBoxes, points: np.ndarray) -> np.ndarray:
    """Box-local coordinates of points (..., 3), axis first: shape (3, ...).

    The rotation by -yaw about the center is written out per axis.
    """
    d = points - box.center
    dx, dy = d[..., 0], d[..., 1]
    c, s = box._cos_sin
    return np.array((c * dx + s * dy, -s * dx + c * dy, d[..., 2]))


def segments_intersect_box(starts: np.ndarray, ends: np.ndarray,
                           box: OrientedBoxes) -> np.ndarray:
    """True where the open segment start->end passes through the box interior.

    Slab test in the box-local frame, over (n, 3) start/end point arrays of
    equal shape, all three axes at once. Tangent contact (touching a face,
    edge or corner without entering) and endpoints lying exactly on the
    surface do not count as intersections. The box parameters broadcast
    against the segments, so (1, 3) endpoints and an OrientedBoxes of n boxes
    test one segment against every box; (m, 1, 3) endpoints test m segments
    against every box, giving (m, n). A zero-length segment (start == end)
    reports whether its point lies in the box interior, as contains_interior
    does: with no step, every slab gives an infinite interval strictly inside
    it and an empty or NaN one on or outside it.
    """
    local = _box_frame(box, np.array((starts, ends)))
    a, b = local[:, 0], local[:, 1]
    h = box._half.reshape((3,) + (1,) * (a.ndim - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        step = b - a
        t1 = (-h - a) / step
        t2 = (h - a) / step
    # a segment parallel to a slab gets (-inf, inf) strictly inside it, and
    # an empty or NaN interval (which compares false) on or outside it
    enter = np.minimum(t1, t2).max(axis=0)
    leave = np.maximum(t1, t2).min(axis=0)
    return np.maximum(enter, 0.0) < np.minimum(leave, 1.0)
