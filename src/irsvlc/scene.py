"""Room, devices and the random elements of a trial: receiver pose and blockers.

The receiver moves on a horizontal plane at a fixed height with a uniformly
random floor position. Its facing direction tilts away from vertical by a
truncated-Gaussian polar angle with a uniform azimuth. Blockers are a Poisson
population of upright boxes with uniformly random floor centers and yaw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import DEFAULT_WALL_REFLECTIVITY
from .geometry import OrientedBoxes, Vec3, is_unit, normalize, unit_normal_from_polar, vec3
from .irs import MIRROR_HEIGHT, MIRROR_WIDTH, ReflectorArray

DEFAULT_ROOM_DIMS = (5.0, 5.0, 3.0)
DEFAULT_LAMBERTIAN_ORDER = 1.0  # 60 degree semi-angle source
DEFAULT_PD_AREA = 1e-4  # m^2
DEFAULT_FOV_DEG = 85.0
DEFAULT_UE_HEIGHT = 1.0  # m above the floor
DEFAULT_THETA_MEAN_DEG = 41.0
DEFAULT_THETA_STD_DEG = 9.0
BLOCKER_DIMS = (0.75, 0.2, 1.75)  # m, footprint x footprint x height


@dataclass(frozen=True)
class Room:
    """Rectangular room with one corner at the origin and the ceiling at z=height."""

    length: float  # extent along x
    width: float  # extent along y
    height: float  # extent along z

    def __post_init__(self) -> None:
        dims = (self.length, self.width, self.height)
        if not all(0.0 < d < math.inf for d in dims):
            raise ValueError(f"room dimensions must be positive and finite, got {dims}")

    def contains(self, p: Vec3) -> bool:
        """True when the point p lies in the closed room box."""
        x, y, z = np.asarray(p, dtype=float).tolist()
        return 0.0 <= x <= self.length and 0.0 <= y <= self.width and 0.0 <= z <= self.height

    def walls(self):
        """The four vertical walls as (label, origin, u_dir, v_dir, u_len, v_len, inward_normal)."""
        ex, ey, ez = np.eye(3)
        return (
            ("x0", vec3(0, 0, 0), ey, ez, self.width, self.height, ex),
            ("xmax", vec3(self.length, 0, 0), ey, ez, self.width, self.height, -ex),
            ("y0", vec3(0, 0, 0), ex, ez, self.length, self.height, ey),
            ("ymax", vec3(0, self.width, 0), ex, ez, self.length, self.height, -ey),
        )


@dataclass(frozen=True)
class Luminaire:
    """Ceiling light source with a generalized-Lambertian beam."""

    position: Vec3
    normal: Vec3
    lambertian_order: float = DEFAULT_LAMBERTIAN_ORDER

    def __post_init__(self) -> None:
        if self.lambertian_order <= 0:
            raise ValueError(f"Lambertian order must be positive, got {self.lambertian_order}")
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "normal", normalize(np.asarray(self.normal, dtype=float)))


def _check_detector(area: float, fov: float) -> None:
    """The detector area and field-of-view checks of PhotoDetector and Scene."""
    if area <= 0:
        raise ValueError(f"detector area must be positive, got {area}")
    if not 0.0 < fov <= math.pi / 2:
        raise ValueError(f"field of view {fov} outside (0, pi/2]")


@dataclass(frozen=True)
class PhotoDetector:
    """Receiver aperture: position, facing direction, active area and FOV (radians)."""

    position: Vec3
    normal: Vec3
    area: float = DEFAULT_PD_AREA
    fov: float = math.radians(DEFAULT_FOV_DEG)

    def __post_init__(self) -> None:
        _check_detector(self.area, self.fov)
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        n = np.asarray(self.normal, dtype=float)
        if not is_unit(n, tol=1e-6):
            n = normalize(n)
        object.__setattr__(self, "normal", n)

    @classmethod
    def _unchecked(cls, position: Vec3, normal: Vec3, area: float,
                   fov: float) -> "PhotoDetector":
        """A detector from a float64 position, a unit normal and checked settings, as given."""
        ue = object.__new__(cls)
        ue.__dict__.update(position=position, normal=normal, area=area, fov=fov)
        return ue


@dataclass(frozen=True)
class OrientationModel:
    """Polar tilt ~ Gaussian(mean, std) truncated to [0, 90] degrees; uniform azimuth."""

    theta_mean_deg: float = DEFAULT_THETA_MEAN_DEG
    theta_std_deg: float = DEFAULT_THETA_STD_DEG

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta_mean_deg <= 90.0:
            raise ValueError(f"mean tilt {self.theta_mean_deg} outside [0, 90] degrees")
        if self.theta_std_deg <= 0:
            raise ValueError(f"tilt spread must be positive, got {self.theta_std_deg}")


@dataclass(frozen=True)
class BlockerModel:
    """Poisson field of upright box blockers standing on the floor."""

    density: float  # expected blockers per square meter of floor
    dims: tuple[float, float, float] = BLOCKER_DIMS

    def __post_init__(self) -> None:
        if self.density < 0:
            raise ValueError(f"blocker density must be non-negative, got {self.density}")
        if min(self.dims) <= 0:
            raise ValueError(f"blocker dimensions must be positive, got {self.dims}")


@dataclass(frozen=True)
class Scene:
    """Immutable experiment geometry; safe to share across worker processes."""

    room: Room
    aps: tuple[Luminaire, ...]
    mirror_arrays: tuple[ReflectorArray, ...]
    metasurface_arrays: tuple[ReflectorArray, ...]
    blocker_model: BlockerModel
    orientation_model: OrientationModel
    ue_height: float = DEFAULT_UE_HEIGHT
    wall_reflectivity: float = DEFAULT_WALL_REFLECTIVITY
    pd_area: float = DEFAULT_PD_AREA
    pd_fov: float = math.radians(DEFAULT_FOV_DEG)

    def __post_init__(self) -> None:
        if not self.aps:
            raise ValueError("scene needs at least one luminaire")
        for ap in self.aps:
            if not self.room.contains(ap.position):
                raise ValueError(f"luminaire at {tuple(ap.position.tolist())} outside the room")
        if not 0.0 < self.ue_height < self.room.height:
            raise ValueError(f"receiver height {self.ue_height} outside the room")
        if not 0.0 <= self.wall_reflectivity <= 1.0:
            raise ValueError(f"wall reflectivity {self.wall_reflectivity} outside [0, 1]")
        _check_detector(self.pd_area, self.pd_fov)


def _check_array_fit(room: Room, n_per_side: int) -> None:
    if n_per_side < 1:
        raise ValueError(f"array side count must be >= 1, got {n_per_side}")
    # exact fits (e.g. 50 * 0.06 == 3.0) must pass despite float round-off
    tol = 1e-9
    horiz = n_per_side * MIRROR_WIDTH
    vert = n_per_side * MIRROR_HEIGHT
    if vert > room.height + tol or horiz > min(room.length, room.width) + tol:
        raise ValueError(
            f"a {n_per_side}x{n_per_side} array of {MIRROR_WIDTH} x {MIRROR_HEIGHT} m cells "
            f"({horiz:.3f} x {vert:.3f} m) does not fit on a wall of this room")


def _grid_centers(origin: Vec3, u_dir: Vec3, v_dir: Vec3, u_len: float, v_len: float,
                  n: int, cell_w: float, cell_h: float) -> np.ndarray:
    """(n * n, 3) row-major centers of an n x n grid centered on the wall midpoint.

    Rows sweep the vertical axis bottom to top. Each center is evaluated as
    (origin + u_off * u_dir) + v_off * v_dir, one broadcast per term.
    """
    half = (n - 1) / 2.0
    steps = np.arange(n) - half
    u_off = u_len / 2.0 + steps * cell_w
    v_off = v_len / 2.0 + steps * cell_h
    along_u = origin + u_off[:, None] * u_dir
    return (along_u[None, :, :] + (v_off[:, None] * v_dir)[:, None, :]).reshape(n * n, 3)


def build_arrays(room: Room, n_per_side: int, scale: float) -> tuple[ReflectorArray, ...]:
    """One n x n array centered on each of the four walls; scale as in ReflectorArray."""
    _check_array_fit(room, n_per_side)
    return tuple(
        ReflectorArray(label, normal, n_per_side,
                       _grid_centers(origin, u_dir, v_dir, u_len, v_len,
                                     n_per_side, MIRROR_WIDTH, MIRROR_HEIGHT), scale)
        for label, origin, u_dir, v_dir, u_len, v_len, normal in room.walls())


_MAX_REJECTION_DRAWS = 10_000


def sample_tilt_deg(rng: np.random.Generator, model: OrientationModel) -> float:
    """One truncated-Gaussian polar angle in degrees, by rejection."""
    for _ in range(_MAX_REJECTION_DRAWS):
        theta = rng.normal(model.theta_mean_deg, model.theta_std_deg)
        if 0.0 <= theta <= 90.0:
            return float(theta)
    raise RuntimeError("tilt rejection sampler failed to land in [0, 90] degrees; "
                       "check the orientation model parameters")


def sample_ue(rng: np.random.Generator, scene: Scene) -> PhotoDetector:
    """Random receiver pose: uniform floor position, tilted facing direction.

    Draw order is fixed (x, y, tilt, azimuth) so a given substream always
    produces the same pose. The pose skips PhotoDetector's per-instance
    checks: its position is finite and its normal a unit vector by
    construction, and the Scene checked its detector area and field of view
    when it was built.
    """
    room = scene.room
    x = rng.uniform(0.0, room.length)
    y = rng.uniform(0.0, room.width)
    theta = math.radians(sample_tilt_deg(rng, scene.orientation_model))
    omega = rng.uniform(0.0, 2.0 * math.pi)
    return PhotoDetector._unchecked(np.array((x, y, scene.ue_height)),
                                    unit_normal_from_polar(theta, omega),
                                    scene.pd_area, scene.pd_fov)


def _mean_count(room: Room, model: BlockerModel) -> float:
    """Expected blocker count; a field with mean 0 draws nothing from the stream."""
    return model.density * room.length * room.width


def _blocker_draws(rng: np.random.Generator, room: Room,
                   model: BlockerModel) -> tuple[np.ndarray, ...]:
    """x, y and yaw of one Poisson field, drawn in the fixed order (count, x, y, yaw)."""
    lam = _mean_count(room, model)
    count = 0 if lam == 0.0 else int(rng.poisson(lam))
    if count == 0:
        return (np.empty(0),) * 3
    return (rng.uniform(0.0, room.length, count), rng.uniform(0.0, room.width, count),
            rng.uniform(0.0, math.pi, count))


def sample_blocker_field(rng: np.random.Generator, room: Room,
                         model: BlockerModel) -> OrientedBoxes | None:
    """Poisson-count upright blockers, centers uniform on the floor, yaw in [0, pi).

    Draw order is fixed (count, x, y, yaw); None when no blocker is drawn.
    """
    return sample_blocker_fields(rng, room, (model,))[0]


def sample_blocker_fields(rng: np.random.Generator, room: Room, models: Sequence[BlockerModel]
                          ) -> tuple[OrientedBoxes | None, list[int]]:
    """The fields of several models, each drawn from the stream's current state, as one box set.

    Each model gets exactly the boxes sample_blocker_field would draw from
    that state: the stream is reset to it before every model that draws after
    the first one that does (a density-0 model reads nothing from it).
    Model k's boxes are rows offsets[k]:offsets[k + 1]; the box set is None
    when no model draws a blocker. The models must share one blocker size.
    """
    if any(m.dims != models[0].dims for m in models):
        raise ValueError("the blocker models must share one set of dimensions")
    reads = [_mean_count(room, m) != 0.0 for m in models]
    start = rng.bit_generator.state if sum(reads) > 1 else None
    draws: list[tuple[np.ndarray, ...]] = []
    offsets = [0]
    drawn = False
    for model, read in zip(models, reads):
        if read:
            if drawn:
                rng.bit_generator.state = start
            drawn = True
        draws.append(_blocker_draws(rng, room, model))
        offsets.append(offsets[-1] + len(draws[-1][0]))
    if offsets[-1] == 0:
        return None, offsets
    xs, ys, yaws = (np.concatenate(axis) for axis in zip(*draws))
    dx, dy, dz = models[0].dims
    centers = np.empty((offsets[-1], 3))
    centers[:, 0], centers[:, 1], centers[:, 2] = xs, ys, dz / 2.0
    return OrientedBoxes(centers, (dx / 2.0, dy / 2.0, dz / 2.0), yaws), offsets
