"""Room, devices and the random elements of a trial: receiver pose and blockers.

The receiver moves on a horizontal plane at a fixed height with a uniformly
random floor position. Its facing direction tilts away from vertical by a
truncated-Gaussian polar angle with a uniform azimuth. Blockers are a Poisson
population of upright boxes with uniformly random floor centers and yaw.

A uniform variate on [0, L) is drawn as L * rng.random(), the bits of numpy's
uniform(0, L), which computes 0 + L * r from the same double r, for less overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import DEFAULT_NLOS_ORDER, DEFAULT_PATCH_SIZE, DEFAULT_WALL_REFLECTIVITY
from .geometry import OrientedBoxes, Vec3, norm, normalize, unit_normal_from_polar, vec3
from .irs import MIRROR_HEIGHT, MIRROR_WIDTH, ReflectorArray

DEFAULT_ROOM_DIMS = (5.0, 5.0, 3.0)
DEFAULT_LAMBERTIAN_ORDER = 1.0  # 60 degree semi-angle source
DEFAULT_PD_AREA = 1e-4  # m^2
MAX_PD_AREA = 1.0  # m^2; areas near 1e155 m^2 overflow the squared gains of the SER sums
DEFAULT_FOV_DEG = 85.0
DEFAULT_UE_HEIGHT = 1.0  # m above the floor
DEFAULT_THETA_MEAN_DEG = 41.0
DEFAULT_THETA_STD_DEG = 9.0
# any mean in [0, 90] keeps >= 3.6 % of draws in [0, 90], so a pose's 10^4 tries fail ~1e-159
MAX_THETA_STD_DEG = 1000.0
BLOCKER_DIMS = (0.75, 0.2, 1.75)  # m, footprint x footprint x height
MAX_MEAN_BLOCKERS = 1e5  # per field; a lit trial peaks at about 90 bytes per blocker


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
        """The four vertical walls, x = 0, x = length, y = 0 and y = width, as
        (origin, u_dir, v_dir, u_len, v_len, inward_normal)."""
        ex, ey, ez = np.eye(3)
        return (
            (vec3(0, 0, 0), ey, ez, self.width, self.height, ex),
            (vec3(self.length, 0, 0), ey, ez, self.width, self.height, -ex),
            (vec3(0, 0, 0), ex, ez, self.length, self.height, ey),
            (vec3(0, self.width, 0), ex, ez, self.length, self.height, -ey),
        )


@dataclass(frozen=True, eq=False)
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
    if area > MAX_PD_AREA:
        raise ValueError(f"detector area must not exceed {MAX_PD_AREA:g} m^2, got {area}")
    if not 0.0 < fov <= math.pi / 2:
        raise ValueError(f"field of view {fov} outside (0, pi/2]")


@dataclass(frozen=True, eq=False)
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
        if not abs(norm(n) - 1.0) <= 1e-6:  # a normal within 1e-6 of unit length is kept as given
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
        if not 0.0 < self.theta_std_deg <= MAX_THETA_STD_DEG:
            raise ValueError(f"tilt spread {self.theta_std_deg:g} degrees outside "
                             f"(0, {MAX_THETA_STD_DEG:g}]")


def _check_density(density: float) -> None:
    if not 0.0 <= density < math.inf:
        raise ValueError(f"blocker density must be non-negative and finite, got {density}")


@dataclass(frozen=True)
class BlockerModel:
    """Poisson field of upright box blockers standing on the floor."""

    density: float  # expected blockers per square meter of floor
    dims: tuple[float, float, float] = BLOCKER_DIMS

    def __post_init__(self) -> None:
        _check_density(self.density)
        if not all(0.0 < d / 2.0 < math.inf for d in self.dims):  # as box half extents
            raise ValueError(f"blocker dimensions must be positive and finite, got {self.dims}")


@dataclass(frozen=True, eq=False)
class Scene:
    """Immutable experiment geometry and wall model; safe to share across worker processes.

    With a run's blocker densities and array layouts, it is the whole input of a run;
    the layouts are the only way a run gets arrays.
    Scenes, luminaires and detectors compare by identity: their ndarray fields give
    no single truth value for a field-wise ==.
    """

    room: Room
    aps: tuple[Luminaire]  # the one source, as a one-tuple
    blocker_model: BlockerModel
    orientation_model: OrientationModel
    ue_height: float = DEFAULT_UE_HEIGHT
    wall_reflectivity: float = DEFAULT_WALL_REFLECTIVITY
    patch_size: float = DEFAULT_PATCH_SIZE  # m; target side length of the wall patches
    nlos_order: int = DEFAULT_NLOS_ORDER  # 1 or 2 wall bounces
    pd_area: float = DEFAULT_PD_AREA
    pd_fov: float = math.radians(DEFAULT_FOV_DEG)

    def __post_init__(self) -> None:
        if len(self.aps) != 1:
            raise ValueError(f"scene needs exactly one luminaire, got {len(self.aps)}")
        if not self.room.contains(p := self.aps[0].position):
            raise ValueError(f"luminaire at {tuple(p.tolist())} outside the room")
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
        ReflectorArray(normal, _grid_centers(origin, u_dir, v_dir, u_len, v_len,
                                             n_per_side, MIRROR_WIDTH, MIRROR_HEIGHT), scale)
        for origin, u_dir, v_dir, u_len, v_len, normal in room.walls())


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
    x = scene.room.length * rng.random()
    y = scene.room.width * rng.random()
    theta = math.radians(sample_tilt_deg(rng, scene.orientation_model))
    omega = math.tau * rng.random()  # tau * r < tau for every r < 1
    return PhotoDetector._unchecked(np.array((x, y, scene.ue_height)),
                                    unit_normal_from_polar(theta, omega),
                                    scene.pd_area, scene.pd_fov)


def blocker_means(room: Room, densities: Sequence[float]) -> tuple[float, ...]:
    """Expected blocker count on the floor per density, in order: the one check of a run's
    densities (BlockerModel's density check, then a mean of at most MAX_MEAN_BLOCKERS)."""
    means = []
    for density in map(float, densities):
        _check_density(density)
        mean = density * room.length * room.width
        if not mean <= MAX_MEAN_BLOCKERS:
            raise ValueError(f"blocker density {density:g} gives a mean of {mean:g} blockers on "
                             f"the floor, above the {MAX_MEAN_BLOCKERS:g} one field may hold")
        means.append(mean)
    return tuple(means)


def blocker_draws(rng: np.random.Generator, means: Sequence[float]) -> list[np.ndarray]:
    """The unit draws of one blocker field per mean, from the stream's current state:
    a (3, count) array of doubles in [0, 1) per field, for its boxes' x, y and yaw.

    The stream is reset to that state before every field that draws after
    the first one that does (a mean-0 field reads nothing from it and gets no
    boxes). A field's draw order is fixed (count, x, y, yaw): one
    random(3 * count) call reads, in order, the doubles that uniform(0, L,
    count) for x, y and yaw would.
    """
    drawing = [k for k, mean in enumerate(means) if mean != 0.0]
    start = rng.bit_generator.state if len(drawing) > 1 else None
    draws = [np.zeros((3, 0))] * len(means)
    for k in drawing:
        if k != drawing[0]:
            rng.bit_generator.state = start
        draws[k] = rng.random(3 * int(rng.poisson(means[k]))).reshape(3, -1)
    return draws


def floor_draws(draws: Sequence[np.ndarray], room: Room) -> np.ndarray:
    """The (3, n) x, y and yaw of the boxes of blocker_draws' arrays, in order: one
    multiply by (L, W, pi), in place on their concatenation (on the array itself
    when there is one)."""
    unit = draws[0] if len(draws) == 1 else np.concatenate(draws, axis=1)
    unit *= ((room.length,), (room.width,), (math.pi,))
    return unit


def blocker_boxes(xs: np.ndarray, ys: np.ndarray, yaws: np.ndarray,
                  dims: tuple[float, float, float]) -> OrientedBoxes:
    """Boxes of a blocker size standing on the floor at (xs, ys) with yaws.

    They skip OrientedBoxes' checks: yaws pi * r < pi for a double r < 1,
    dims a checked BlockerModel's, centers built here.
    """
    dx, dy, dz = dims
    centers = np.empty((len(xs), 3))
    centers[:, 0], centers[:, 1], centers[:, 2] = xs, ys, dz / 2.0
    return OrientedBoxes._unchecked(centers, (dx / 2.0, dy / 2.0, dz / 2.0), yaws)
