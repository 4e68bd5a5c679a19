"""Vehicle specifications and generation settings, loaded from a JSON config.

The config is strict: unknown keys anywhere in the document are rejected so
that a mistyped parameter name fails loudly instead of silently keeping a
default, and so is a key that an object repeats, so that neither value is
silently dropped. All lengths are meters, all angles radians.
"""

import json
import math
import re
import reprlib
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from functools import cache

from .errors import ConfigParseError, ConfigValidationError
from .geodesy import _FLOAT_MAX, BoundingBox, GeoOrigin, _is_number, lat_lon_in_range, project


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


def _short_repr(value) -> str:
    """``value`` as ``reprlib.repr`` shows it, cut to 40 characters. An int no
    float holds is cut by arithmetic to the same first 18 characters and last
    19 digits, as it may be too long to turn into text at all."""
    if not (isinstance(value, int) and abs(value) > _FLOAT_MAX):
        return reprlib.repr(value)
    sign, n = "-" * (value < 0), abs(value)
    digits = int((n.bit_length() - 1) * math.log10(2)) + 1  # or one less
    digits += n >= 10**digits
    head = n // 10 ** (digits - 18 + len(sign))
    return f"{sign}{head}...{n % 10**19:019d}"


def _require_finite(spawn) -> None:
    for f in fields(spawn):
        value = getattr(spawn, f.name)
        if not (_is_number(value) and abs(value) <= _FLOAT_MAX):
            raise ConfigValidationError(
                f"{type(spawn).__name__}.{f.name} must be a finite number, "
                f"got {_short_repr(value)}"
            )


@dataclass(frozen=True)
class GeoSpawn:
    lat: float
    lon: float
    yaw: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if not lat_lon_in_range(self.lat, self.lon):
            raise ConfigValidationError(
                f"GeoSpawn ({_short_repr(self.lat)}, {_short_repr(self.lon)}) "
                "lies outside [-90, 90] x [-180, 180]"
            )


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
            if not (_is_number(value) and 0 < value <= _FLOAT_MAX):
                raise ConfigValidationError(
                    f"vehicle {self.name!r}: {name} must be strictly positive, "
                    f"got {_short_repr(value)}"
                )
        if not (_is_number(self.max_steer_angle) and 0.0 < self.max_steer_angle < math.pi / 2):
            raise ConfigValidationError(
                f"vehicle {self.name!r}: max_steer_angle must lie in (0, pi/2), "
                f"got {_short_repr(self.max_steer_angle)}"
            )
        if not self.wheelbase < self.chassis_length:
            raise ConfigValidationError(
                f"vehicle {self.name!r}: wheelbase must be smaller than chassis_length"
            )


@dataclass(frozen=True)
class ExtractionDefaults:
    """The config's ``defaults`` section: what extraction assumes, in meters."""

    default_building_height: float = 10.0
    meters_per_level: float = 3.0
    road_width: float = 7.0
    road_thickness: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (_is_number(value) and 0 < value <= _FLOAT_MAX):
                raise ValueError(f"{f.name} must be strictly positive, got {_short_repr(value)}")


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


@cache
def _keys(cls) -> tuple[list[str], list[str]]:
    """The field names of the dataclass ``cls``, and those without a default."""
    return [f.name for f in fields(cls)], [f.name for f in fields(cls) if f.default is MISSING]


_VEHICLE_NUMBERS = [f.name for f in fields(VehicleSpec) if f.type is float]
# the config folds a vehicle's chassis_* fields into one "chassis" object
_CHASSIS_KEYS = [n.removeprefix("chassis_") for n in _VEHICLE_NUMBERS if n.startswith("chassis_")]
_VEHICLE_KEYS = {n for n in _keys(VehicleSpec)[0] if not n.startswith("chassis_")} | {"chassis"}


def load_config(text: str) -> GenerationConfig:
    """Parse and validate the JSON generation config."""
    try:
        raw = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"config is not valid JSON: {exc.msg} at line {exc.lineno}, column {exc.colno}",
            exc.lineno,
            exc.colno,
        ) from exc
    except (RecursionError, ValueError) as exc:
        # nested past the interpreter's recursion limit, or an integer past its digit limit
        raise ConfigParseError(f"config cannot be read: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigValidationError("config root must be a JSON object")
    _reject_unknown(raw, _keys(GenerationConfig)[0], "config")

    if "bbox" not in raw:
        raise ConfigValidationError("config requires a 'bbox' object")
    kwargs = {"bbox": _load_numbers(BoundingBox, raw["bbox"], "bbox")}
    if "defaults" in raw:
        kwargs["defaults"] = _load_numbers(ExtractionDefaults, raw["defaults"], "defaults")
    if "vehicles" in raw:
        if not isinstance(raw["vehicles"], list):
            raise ConfigValidationError("vehicles must be a list")
        kwargs["vehicles"] = tuple(_load_vehicle(v, i) for i, v in enumerate(raw["vehicles"]))
    if "sdf_version" in raw:
        kwargs["sdf_version"] = raw["sdf_version"]
    return GenerationConfig(**kwargs)


def resolve_spawn(spawn: Spawn, origin: GeoOrigin) -> tuple[float, float, float]:
    """Spawn pose as local (x, y, yaw); geodetic spawns are projected."""
    if isinstance(spawn, GeoSpawn):
        point = project(origin, spawn.lat, spawn.lon)
        return point.x, point.y, spawn.yaw
    return spawn.x, spawn.y, spawn.yaw


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object of the config as a dict; a key it repeats is refused."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigValidationError(f"duplicate key {key!r} in a config object")
        obj[key] = value
    return obj


def _reject_unknown(raw: dict, allowed, context: str) -> None:
    unknown = sorted(set(raw).difference(allowed))
    if unknown:
        raise ConfigValidationError(f"unknown key {unknown[0]!r} in {context}")


def _number(raw, context: str) -> float:
    if not _is_number(raw):
        raise ConfigValidationError(f"{context} must be a number, got {raw!r}")
    if not abs(raw) <= _FLOAT_MAX:  # NaN, inf, or an integer no float can hold
        raise ConfigValidationError(f"{context} must be finite, got {_short_repr(raw)}")
    return float(raw)


def _numbers(raw, names: list[str], required: list[str], context: str) -> dict[str, float]:
    """The numbers in the JSON object ``raw``, checked in the order of ``names``."""
    if not isinstance(raw, dict):
        raise ConfigValidationError(f"{context} must be an object")
    _reject_unknown(raw, names, context)
    missing = [key for key in required if key not in raw]
    if missing:
        raise ConfigValidationError(f"{context} is missing key {min(missing)!r}")
    return {name: _number(raw[name], f"{context}.{name}") for name in names if name in raw}


def _load_numbers(cls, raw, context: str):
    """The dataclass ``cls``, all of whose fields are numbers, read from ``raw``."""
    kwargs = _numbers(raw, *_keys(cls), context)
    try:
        return cls(**kwargs)
    except (ValueError, ConfigValidationError) as exc:
        raise ConfigValidationError(f"{context}: {exc}") from exc


def _load_vehicle(raw, index: int) -> VehicleSpec:
    context = f"vehicles[{index}]"
    if not isinstance(raw, dict):
        raise ConfigValidationError(f"{context} must be an object")
    _reject_unknown(raw, _VEHICLE_KEYS, context)
    for key in _keys(VehicleSpec)[1]:  # name and kind
        if key not in raw:
            raise ConfigValidationError(f"{context} requires a {key!r}")
    if not isinstance(raw["name"], str):
        raise ConfigValidationError(f"{context}.name must be a string")
    try:
        kind = VehicleKind(raw["kind"])
    except ValueError:
        raise ConfigValidationError(
            f"{context}.kind must be one of twin, shadow, ghost; got {raw['kind']!r}"
        ) from None

    kwargs = {"name": raw["name"], "kind": kind}
    for key in _VEHICLE_NUMBERS:  # a chassis_* name is never a key here
        if key in raw:
            kwargs[key] = _number(raw[key], f"{context}.{key}")
    if "chassis" in raw:
        chassis = _numbers(raw["chassis"], _CHASSIS_KEYS, [], f"{context}.chassis")
        kwargs.update({f"chassis_{key}": value for key, value in chassis.items()})
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
    for cls in (GeoSpawn, LocalSpawn):
        if set(_keys(cls)[1]) <= raw.keys() <= set(_keys(cls)[0]):
            return _load_numbers(cls, raw, context)
    raise ConfigValidationError(
        f"{context} must contain either lat/lon or x/y, plus an optional yaw"
    )
