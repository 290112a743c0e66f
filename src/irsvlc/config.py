"""Run configuration: an INI file of sections with key=value pairs.

Every key has a default matching the reference experiment, so an empty (or
absent) file runs the full stock setup. Bad settings are reported with their
location in four stages, each of which reports everything it finds and runs
only when the stages before it found nothing: unknown sections or keys and
unparseable values; non-finite numbers; range and cross-key checks; the mirror
clearance on the built layout. The effective, fully merged configuration can
be echoed back out; feeding the echo into a new run reproduces the original
outputs.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace

from .channel import (DEFAULT_NLOS_ORDER, DEFAULT_PATCH_SIZE, DEFAULT_WALL_REFLECTIVITY,
                      wall_patch_grid)
from .geometry import vec3
from .irs import DEFAULT_MIRROR_REFLECTIVITY, DEFAULT_MSA_EFFICIENCY, ReflectorBank
from .scene import (BLOCKER_DIMS, DEFAULT_FOV_DEG, DEFAULT_LAMBERTIAN_ORDER,
                    DEFAULT_PD_AREA, DEFAULT_ROOM_DIMS, DEFAULT_THETA_MEAN_DEG,
                    DEFAULT_THETA_STD_DEG, DEFAULT_UE_HEIGHT, MAX_PD_AREA, BlockerModel,
                    Luminaire, OrientationModel, Room, Scene, _check_array_fit, blocker_means,
                    build_arrays)
from .simulator import DEFAULT_SNR_GRID_DB, MAX_SNR_DB, Layout, Scenario, SnrGrid


class ConfigError(Exception):
    """Invalid run configuration; carries one message per offending field."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def _key(section: str, key: str, default):
    """A RunConfig field that the INI file sets as `key` in `[section]`."""
    return field(default=default, metadata={"ini": (section, key)})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for a simulation run."""

    room_length: float = _key("room", "length", DEFAULT_ROOM_DIMS[0])
    room_width: float = _key("room", "width", DEFAULT_ROOM_DIMS[1])
    room_height: float = _key("room", "height", DEFAULT_ROOM_DIMS[2])
    ap_x: float | None = _key("ap", "x", None)  # None: centered on the ceiling
    ap_y: float | None = _key("ap", "y", None)
    ap_z: float | None = _key("ap", "z", None)  # None: at ceiling height
    lambertian_order: float = _key("ap", "lambertian_order", DEFAULT_LAMBERTIAN_ORDER)
    ue_height: float = _key("ue", "height", DEFAULT_UE_HEIGHT)
    pd_area: float = _key("ue", "area", DEFAULT_PD_AREA)
    fov_deg: float = _key("ue", "fov_deg", DEFAULT_FOV_DEG)
    theta_mean_deg: float = _key("orientation", "theta_mean_deg", DEFAULT_THETA_MEAN_DEG)
    theta_std_deg: float = _key("orientation", "theta_std_deg", DEFAULT_THETA_STD_DEG)
    densities: tuple[float, ...] = _key("blockers", "densities", (0.0, 1.0))
    blocker_length: float = _key("blockers", "length", BLOCKER_DIMS[0])
    blocker_width: float = _key("blockers", "width", BLOCKER_DIMS[1])
    blocker_height: float = _key("blockers", "height", BLOCKER_DIMS[2])
    irs_type: str = _key("irs", "type", "mirror")
    n_per_side: int = _key("irs", "n_per_side", 50)
    mirror_reflectivity: float = _key("irs", "mirror_reflectivity", DEFAULT_MIRROR_REFLECTIVITY)
    msa_efficiency: float = _key("irs", "metasurface_efficiency", DEFAULT_MSA_EFFICIENCY)
    wall_reflectivity: float = _key("walls", "reflectivity", DEFAULT_WALL_REFLECTIVITY)
    patch_size: float = _key("walls", "patch_size", DEFAULT_PATCH_SIZE)
    nlos_order: int = _key("walls", "reflection_order", DEFAULT_NLOS_ORDER)
    trials: int = _key("sim", "trials", 10_000)
    seed: int = _key("sim", "seed", 1)
    snr_start_db: float = _key("sim", "snr_start_db", DEFAULT_SNR_GRID_DB[0])
    snr_stop_db: float = _key("sim", "snr_stop_db", DEFAULT_SNR_GRID_DB[1])
    snr_step_db: float = _key("sim", "snr_step_db", DEFAULT_SNR_GRID_DB[2])
    scenarios: tuple[str, ...] = _key("sim", "scenarios", tuple(s.value for s in Scenario))
    out_dir: str = _key("output", "dir", "out")

    def ap_position(self):
        x = self.room_length / 2.0 if self.ap_x is None else self.ap_x
        y = self.room_width / 2.0 if self.ap_y is None else self.ap_y
        z = self.room_height if self.ap_z is None else self.ap_z
        return x, y, z

    def grid(self) -> SnrGrid:
        return SnrGrid(self.snr_start_db, self.snr_stop_db, self.snr_step_db)

    def scenario_list(self) -> list[Scenario]:
        return [Scenario(s) for s in self.scenarios]


# (section, key) -> (attribute, parser) in field order; each field's annotation picks its
# parser tag, and the tags determine validation
_FLOAT, _INT, _STR, _FLOATS, _STRS = "float", "int", "str", "float_list", "str_list"
_TAGS = {"float": _FLOAT, "float | None": _FLOAT, "int": _INT, "str": _STR,
         "tuple[float, ...]": _FLOATS, "tuple[str, ...]": _STRS}
_SCHEMA = {f.metadata["ini"]: (f.name, _TAGS[f.type]) for f in fields(RunConfig)}


def _parse_value(raw: str, kind: str):
    if kind == _FLOAT:
        return float(raw)
    if kind == _INT:
        return int(raw)
    if kind == _FLOATS:  # + 0.0 reads -0 as 0
        return tuple(float(v) + 0.0 for v in raw.split(",") if v.strip() != "")
    if kind == _STRS:
        return tuple(v.strip() for v in raw.split(",") if v.strip() != "")
    return raw.strip()


def load_config(path: str | None = None, **overrides) -> RunConfig:
    """Read an INI file (optional), apply keyword overrides, validate."""
    errors: list[str] = []
    values: dict = {}
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError([f"cannot read config file {path!r}: {exc}"]) from exc
        except configparser.Error as exc:
            raise ConfigError([f"config parse error: {exc}"]) from exc
        for section in parser.sections():
            for key, raw in parser.items(section):
                spec = _SCHEMA.get((section, key))
                if spec is None:
                    errors.append(f"[{section}] {key}: unknown setting")
                    continue
                attr, kind = spec
                try:
                    values[attr] = _parse_value(raw, kind)
                except ValueError:
                    errors.append(f"[{section}] {key}: cannot parse {raw!r} as {kind}")
    for attr, val in overrides.items():
        if val is not None:
            values[attr] = val
    if errors:
        raise ConfigError(errors)
    cfg = replace(RunConfig(), **values)
    validate(cfg)
    return cfg


def validate(cfg: RunConfig) -> None:
    """Raise ConfigError listing every bad setting found by the first stage that finds one.

    Three stages follow load_config's parse: the non-finite numbers; the range and
    cross-key checks, which thus see finite values only; the mirror clearance, which
    needs the built layout.
    """
    errors: list[str] = []
    for (section, key), (attr, kind) in _SCHEMA.items():
        if kind in (_FLOAT, _FLOATS):
            value = getattr(cfg, attr)
            values = value if kind == _FLOATS else () if value is None else (value,)
            if not all(map(math.isfinite, values)):
                errors.append(f"[{section}] {key}: must be finite")
    if errors:
        raise ConfigError(errors)

    def check(ok: bool, where: str, msg: str) -> None:
        if not ok:
            errors.append(f"{where}: {msg}")

    def check_call(where: str, fn, *args) -> None:  # fn's ValueError is the message
        try:
            fn(*args)
        except ValueError as exc:
            errors.append(f"{where}: {exc}")

    room = (cfg.room_length, cfg.room_width, cfg.room_height)
    room_ok = all(d > 0 for d in room)
    check(room_ok, "[room]", "dimensions must be positive")
    if room_ok:
        x, y, z = cfg.ap_position()
        check(all(0 <= p <= d for p, d in zip((x, y, z), room)), "[ap]",
              f"source position ({x:g}, {y:g}, {z:g}) must lie inside the room")
    check(cfg.lambertian_order > 0, "[ap] lambertian_order", "must be positive")
    if cfg.room_height > 0:
        check(0 < cfg.ue_height < cfg.room_height, "[ue] height",
              f"must lie strictly between 0 and the room height {cfg.room_height}")
    check(cfg.pd_area > 0, "[ue] area", "must be positive")
    check(cfg.pd_area <= MAX_PD_AREA, "[ue] area", f"must not exceed {MAX_PD_AREA:g} m^2")
    # in the radians build_scene passes: 5e-324 degrees is 0 radians
    check(0 < math.radians(cfg.fov_deg) <= math.pi / 2, "[ue] fov_deg", "must lie in (0, 90]")
    check(0 <= cfg.theta_mean_deg <= 90, "[orientation] theta_mean_deg",
          "must lie in [0, 90]")
    # the model's spread bound holds for every mean in [0, 90], which is checked above
    check_call("[orientation] theta_std_deg", OrientationModel, DEFAULT_THETA_MEAN_DEG,
               cfg.theta_std_deg)
    check(len(cfg.densities) > 0, "[blockers] densities", "needs at least one value")
    check(all(d >= 0 for d in cfg.densities), "[blockers] densities",
          "must be non-negative")
    if room_ok:
        for d in [d for d in cfg.densities if d >= 0]:
            check_call("[blockers] densities", blocker_means, Room(*room), (d,))
    check_call("[blockers]", BlockerModel, 0.0,
               (cfg.blocker_length, cfg.blocker_width, cfg.blocker_height))
    check(cfg.irs_type in ("mirror", "metasurface", "none"), "[irs] type",
          f"unknown type {cfg.irs_type!r}")
    check(cfg.n_per_side >= 1, "[irs] n_per_side", "must be >= 1")
    check(0 <= cfg.mirror_reflectivity <= 1, "[irs] mirror_reflectivity",
          "must lie in [0, 1]")
    check(0 <= cfg.msa_efficiency <= 1, "[irs] metasurface_efficiency",
          "must lie in [0, 1]")
    check(0 <= cfg.wall_reflectivity <= 1, "[walls] reflectivity", "must lie in [0, 1]")
    check(cfg.patch_size > 0, "[walls] patch_size", "must be positive")
    if room_ok and cfg.patch_size > 0:
        check_call("[walls] patch_size", wall_patch_grid, Room(*room), cfg.patch_size)
    check(cfg.nlos_order in (1, 2), "[walls] reflection_order", "must be 1 or 2")
    check(cfg.trials >= 1, "[sim] trials", "must be >= 1")
    check(cfg.seed >= 0, "[sim] seed", "must be non-negative")
    check(cfg.snr_step_db > 0, "[sim] snr_step_db", "must be positive")
    check(cfg.snr_stop_db >= cfg.snr_start_db, "[sim] snr_stop_db",
          "must not lie below snr_start_db")
    check(cfg.snr_stop_db <= MAX_SNR_DB, "[sim] snr_stop_db",
          f"must not lie above {MAX_SNR_DB:g} dB")
    if cfg.snr_step_db > 0 and cfg.snr_start_db <= cfg.snr_stop_db <= MAX_SNR_DB:
        check_call("[sim] snr_step_db", cfg.grid)
    check(len(cfg.scenarios) > 0, "[sim] scenarios", "needs at least one entry")
    for name in cfg.scenarios:
        check(name in [s.value for s in Scenario], "[sim] scenarios",
              f"unknown scenario {name!r}")
    if cfg.irs_type != "none" and cfg.n_per_side >= 1 and room_ok:
        check_call("[irs] n_per_side", _check_array_fit, Room(*room), cfg.n_per_side)
    # the source must clear every mirror array: a check on the built layout, so only
    # for a config that is otherwise valid
    if cfg.irs_type == "mirror" and not errors:
        check_call("[ap]", ReflectorBank, build_scene(cfg, 0.0).aps[0], build_layout(cfg)[0])
    if errors:
        raise ConfigError(errors)


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def effective_sections(cfg: RunConfig) -> dict[str, dict[str, str]]:
    """Canonical section/key/value view of the merged configuration.

    Computed defaults (the source position) are materialized so the echo is
    self-contained: writing it back to an INI file reproduces this run.
    """
    ap = dict(zip(("ap_x", "ap_y", "ap_z"), cfg.ap_position()))
    out: dict[str, dict[str, str]] = {}
    for (section, key), (attr, _) in _SCHEMA.items():
        out.setdefault(section, {})[key] = _fmt(ap.get(attr, getattr(cfg, attr)))
    return out


def build_scene(cfg: RunConfig, blocker_density: float) -> Scene:
    """Construct the immutable scene for one blocker density."""
    return Scene(
        room=Room(cfg.room_length, cfg.room_width, cfg.room_height),
        aps=(Luminaire(vec3(*cfg.ap_position()), vec3(0, 0, -1), cfg.lambertian_order),),
        blocker_model=BlockerModel(blocker_density,
                                   (cfg.blocker_length, cfg.blocker_width,
                                    cfg.blocker_height)),
        orientation_model=OrientationModel(cfg.theta_mean_deg, cfg.theta_std_deg),
        ue_height=cfg.ue_height,
        wall_reflectivity=cfg.wall_reflectivity,
        patch_size=cfg.patch_size,
        nlos_order=cfg.nlos_order,
        pd_area=cfg.pd_area,
        pd_fov=math.radians(cfg.fov_deg),
    )


def build_layout(cfg: RunConfig) -> Layout:
    """The configured array layout: one n x n array on each wall, of the [irs] type."""
    room = Room(cfg.room_length, cfg.room_width, cfg.room_height)
    if cfg.irs_type == "mirror":
        return build_arrays(room, cfg.n_per_side, cfg.mirror_reflectivity), ()
    if cfg.irs_type == "metasurface":
        return (), build_arrays(room, cfg.n_per_side, cfg.msa_efficiency)
    return (), ()
