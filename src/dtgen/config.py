"""Vehicle specifications and generation settings, loaded from a JSON config.

The config is strict: unknown keys anywhere in the document are rejected so
that a mistyped parameter name fails loudly instead of silently keeping a
default. All lengths are meters, all angles radians.
"""

import json
import math
import re
from dataclasses import dataclass, field, fields
from enum import Enum

from .errors import ConfigParseError, ConfigValidationError
from .geodesy import GeoOrigin, project
from .osm import BoundingBox
from .world_model import ExtractionDefaults


class VehicleKind(Enum):
    """How a vehicle model participates in the world.

    TWIN is a fully actuated model with steering joints, drive plugin, and
    GPS. SHADOW is a passive pose-follower that keeps its collision geometry.
    GHOST is a shadow whose collision geometry is omitted entirely, so it
    never collides with other models.
    """

    TWIN = "twin"
    SHADOW = "shadow"
    GHOST = "ghost"


def _require_finite(spawn) -> None:
    for f in fields(spawn):
        value = getattr(spawn, f.name)
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            raise ConfigValidationError(
                f"{type(spawn).__name__}.{f.name} must be a finite number, got {value!r}"
            )


@dataclass(frozen=True)
class GeoSpawn:
    lat: float
    lon: float
    yaw: float = 0.0

    def __post_init__(self):
        _require_finite(self)


@dataclass(frozen=True)
class LocalSpawn:
    x: float
    y: float
    yaw: float = 0.0

    def __post_init__(self):
        _require_finite(self)


Spawn = GeoSpawn | LocalSpawn

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")
# written verbatim into <sdf version="...">, so nothing but digits and dots
_SDF_VERSION_RE = re.compile(r"[0-9]+(\.[0-9]+)+")
_POSITIVE_LENGTH_FIELDS = (
    "wheelbase",
    "track",
    "wheel_radius",
    "chassis_length",
    "chassis_width",
    "chassis_height",
)


@dataclass(frozen=True)
class VehicleSpec:
    name: str
    kind: VehicleKind
    wheelbase: float = 2.7
    track: float = 1.5
    wheel_radius: float = 0.3
    max_steer_angle: float = 0.6
    chassis_length: float = 4.5
    chassis_width: float = 1.8
    chassis_height: float = 1.4
    gps: bool = True
    spawn: Spawn = LocalSpawn(0.0, 0.0, 0.0)

    def __post_init__(self):
        if not isinstance(self.name, str) or not _NAME_RE.match(self.name):
            raise ConfigValidationError(
                f"vehicle name {self.name!r} must be non-empty and match [A-Za-z0-9_]+"
            )
        for name in _POSITIVE_LENGTH_FIELDS:
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ConfigValidationError(
                    f"vehicle {self.name!r}: {name} must be strictly positive, got {value!r}"
                )
        if not (0.0 < self.max_steer_angle < math.pi / 2):
            raise ConfigValidationError(
                f"vehicle {self.name!r}: max_steer_angle must lie in (0, pi/2), "
                f"got {self.max_steer_angle!r}"
            )
        if not self.wheelbase < self.chassis_length:
            raise ConfigValidationError(
                f"vehicle {self.name!r}: wheelbase must be smaller than chassis_length"
            )


@dataclass(frozen=True)
class GenerationConfig:
    bbox: BoundingBox
    defaults: ExtractionDefaults = ExtractionDefaults()
    vehicles: tuple[VehicleSpec, ...] = ()
    sdf_version: str = "1.6"

    def __post_init__(self):
        if not (isinstance(self.sdf_version, str) and _SDF_VERSION_RE.fullmatch(self.sdf_version)):
            raise ConfigValidationError(
                f"sdf_version must be dotted decimal digits such as '1.6', "
                f"got {self.sdf_version!r}"
            )
        names = [v.name for v in self.vehicles]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ConfigValidationError(f"duplicate vehicle name {duplicates[0]!r}")


_TOP_KEYS = {"bbox", "defaults", "vehicles", "sdf_version"}
_BBOX_KEYS = {"min_lat", "min_lon", "max_lat", "max_lon"}
_DEFAULTS_KEYS = {f.name for f in fields(ExtractionDefaults)}
_VEHICLE_KEYS = {
    "name",
    "kind",
    "wheelbase",
    "track",
    "wheel_radius",
    "max_steer_angle",
    "chassis",
    "gps",
    "spawn",
}
_CHASSIS_KEYS = {"length", "width", "height"}


def load_config(text: str) -> GenerationConfig:
    """Parse and validate the JSON generation config."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"config is not valid JSON: {exc.msg} at line {exc.lineno}, column {exc.colno}",
            exc.lineno,
            exc.colno,
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigValidationError("config root must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")

    if "bbox" not in raw:
        raise ConfigValidationError("config requires a 'bbox' object")
    bbox = _load_bbox(raw["bbox"])
    defaults = _load_defaults(raw.get("defaults", {}))

    raw_vehicles = raw.get("vehicles", [])
    if not isinstance(raw_vehicles, list):
        raise ConfigValidationError("vehicles must be a list")
    vehicles = tuple(_load_vehicle(v, i) for i, v in enumerate(raw_vehicles))

    return GenerationConfig(
        bbox=bbox,
        defaults=defaults,
        vehicles=vehicles,
        sdf_version=raw.get("sdf_version", "1.6"),
    )


def serialize_config(config: GenerationConfig) -> str:
    """Serialize a config to JSON; ``load_config`` round-trips it exactly."""
    doc = {
        "bbox": {
            "min_lat": config.bbox.min_lat,
            "min_lon": config.bbox.min_lon,
            "max_lat": config.bbox.max_lat,
            "max_lon": config.bbox.max_lon,
        },
        "defaults": {
            "default_building_height": config.defaults.default_building_height,
            "meters_per_level": config.defaults.meters_per_level,
            "road_width": config.defaults.road_width,
            "road_thickness": config.defaults.road_thickness,
        },
        "sdf_version": config.sdf_version,
        "vehicles": [_vehicle_doc(v) for v in config.vehicles],
    }
    return json.dumps(doc, indent=2) + "\n"


def resolve_spawn(spawn: Spawn, origin: GeoOrigin) -> tuple[float, float, float]:
    """Spawn pose as local (x, y, yaw); geodetic spawns are projected."""
    if isinstance(spawn, GeoSpawn):
        point = project(origin, spawn.lat, spawn.lon)
        return point.x, point.y, spawn.yaw
    return spawn.x, spawn.y, spawn.yaw


def _vehicle_doc(spec: VehicleSpec) -> dict:
    if isinstance(spec.spawn, GeoSpawn):
        spawn = {"lat": spec.spawn.lat, "lon": spec.spawn.lon, "yaw": spec.spawn.yaw}
    else:
        spawn = {"x": spec.spawn.x, "y": spec.spawn.y, "yaw": spec.spawn.yaw}
    return {
        "name": spec.name,
        "kind": spec.kind.value,
        "wheelbase": spec.wheelbase,
        "track": spec.track,
        "wheel_radius": spec.wheel_radius,
        "max_steer_angle": spec.max_steer_angle,
        "chassis": {
            "length": spec.chassis_length,
            "width": spec.chassis_width,
            "height": spec.chassis_height,
        },
        "gps": spec.gps,
        "spawn": spawn,
    }


def _reject_unknown(raw: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigValidationError(f"unknown key {unknown[0]!r} in {context}")


def _number(raw, context: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigValidationError(f"{context} must be a number, got {raw!r}")
    if not math.isfinite(raw):
        raise ConfigValidationError(f"{context} must be finite, got {raw!r}")
    return float(raw)


def _load_bbox(raw) -> BoundingBox:
    if not isinstance(raw, dict):
        raise ConfigValidationError("bbox must be an object")
    _reject_unknown(raw, _BBOX_KEYS, "bbox")
    missing = sorted(_BBOX_KEYS - set(raw))
    if missing:
        raise ConfigValidationError(f"bbox is missing key {missing[0]!r}")
    try:
        return BoundingBox(
            min_lat=_number(raw["min_lat"], "bbox.min_lat"),
            min_lon=_number(raw["min_lon"], "bbox.min_lon"),
            max_lat=_number(raw["max_lat"], "bbox.max_lat"),
            max_lon=_number(raw["max_lon"], "bbox.max_lon"),
        )
    except ValueError as exc:
        raise ConfigValidationError(f"bbox: {exc}") from exc


def _load_defaults(raw) -> ExtractionDefaults:
    if not isinstance(raw, dict):
        raise ConfigValidationError("defaults must be an object")
    _reject_unknown(raw, _DEFAULTS_KEYS, "defaults")
    kwargs = {key: _number(raw[key], f"defaults.{key}") for key in raw}
    try:
        return ExtractionDefaults(**kwargs)
    except ValueError as exc:
        raise ConfigValidationError(f"defaults: {exc}") from exc


def _load_vehicle(raw, index: int) -> VehicleSpec:
    context = f"vehicles[{index}]"
    if not isinstance(raw, dict):
        raise ConfigValidationError(f"{context} must be an object")
    _reject_unknown(raw, _VEHICLE_KEYS, context)
    if "name" not in raw:
        raise ConfigValidationError(f"{context} requires a 'name'")
    if "kind" not in raw:
        raise ConfigValidationError(f"{context} requires a 'kind'")
    name = raw["name"]
    if not isinstance(name, str):
        raise ConfigValidationError(f"{context}.name must be a string")
    try:
        kind = VehicleKind(raw["kind"])
    except ValueError:
        raise ConfigValidationError(
            f"{context}.kind must be one of twin, shadow, ghost; got {raw['kind']!r}"
        ) from None

    kwargs = {"name": name, "kind": kind}
    for key in ("wheelbase", "track", "wheel_radius", "max_steer_angle"):
        if key in raw:
            kwargs[key] = _number(raw[key], f"{context}.{key}")
    if "chassis" in raw:
        chassis = raw["chassis"]
        if not isinstance(chassis, dict):
            raise ConfigValidationError(f"{context}.chassis must be an object")
        _reject_unknown(chassis, _CHASSIS_KEYS, f"{context}.chassis")
        for key in _CHASSIS_KEYS:
            if key in chassis:
                kwargs[f"chassis_{key}"] = _number(chassis[key], f"{context}.chassis.{key}")
    if "gps" in raw:
        if not isinstance(raw["gps"], bool):
            raise ConfigValidationError(f"{context}.gps must be true or false")
        kwargs["gps"] = raw["gps"]
    if "spawn" in raw:
        kwargs["spawn"] = _load_spawn(raw["spawn"], f"{context}.spawn")
    return VehicleSpec(**kwargs)


def _load_spawn(raw, context: str) -> Spawn:
    if not isinstance(raw, dict):
        raise ConfigValidationError(f"{context} must be an object")
    keys = set(raw)
    if keys <= {"lat", "lon", "yaw"} and {"lat", "lon"} <= keys:
        return GeoSpawn(
            lat=_number(raw["lat"], f"{context}.lat"),
            lon=_number(raw["lon"], f"{context}.lon"),
            yaw=_number(raw.get("yaw", 0.0), f"{context}.yaw"),
        )
    if keys <= {"x", "y", "yaw"} and {"x", "y"} <= keys:
        return LocalSpawn(
            x=_number(raw["x"], f"{context}.x"),
            y=_number(raw["y"], f"{context}.y"),
            yaw=_number(raw.get("yaw", 0.0), f"{context}.yaw"),
        )
    raise ConfigValidationError(
        f"{context} must contain either lat/lon or x/y, plus an optional yaw"
    )
