import copy
import json
import math
import os
import re
import reprlib
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtgen.config import (
    ExtractionDefaults,
    GenerationConfig,
    GeoSpawn,
    LocalSpawn,
    VehicleKind,
    VehicleSpec,
    load_config,
    resolve_spawn,
)
from dtgen.errors import ConfigParseError, ConfigValidationError
from dtgen.geodesy import BoundingBox, GeoOrigin

MINIMAL = '{"bbox": {"min_lat": 48.0, "min_lon": 8.0, "max_lat": 48.1, "max_lon": 8.1}}'


class TestLoadConfig:
    def test_bbox_only_takes_all_defaults(self):
        config = load_config(MINIMAL)
        assert config.bbox == BoundingBox(48.0, 8.0, 48.1, 8.1)
        assert config.vehicles == ()
        assert config.sdf_version == "1.6"
        assert config.defaults.road_width == 7.0
        assert config.defaults.default_building_height == 10.0

    def test_syntax_error_reports_location(self):
        with pytest.raises(ConfigParseError) as excinfo:
            load_config('{"bbox": }')
        assert excinfo.value.line == 1

    @pytest.mark.parametrize(
        "path, context",
        [
            (["bbox", "max_lon"], "bbox.max_lon"),
            (["defaults", "road_width"], "defaults.road_width"),
            (["vehicles", 0, "wheelbase"], "vehicles[0].wheelbase"),
        ],
    )
    def test_integer_no_float_can_hold_is_not_finite(self, path, context):
        doc = {**json.loads(MINIMAL), "vehicles": [{"name": "ego", "kind": "twin"}]}
        text = json.dumps(_edited(doc, path, -(10**400)))  # a 401-digit literal
        with pytest.raises(ConfigValidationError, match=f"^{re.escape(context)} must be finite"):
            load_config(text)

    @pytest.mark.parametrize(
        "text, key",
        [
            (MINIMAL[:-1] + ', "bbox": {"min_lat": 47.0, "min_lon": 7.0, "max_lat": 47.1, '
             '"max_lon": 7.1}}', "bbox"),
            ('{"bbox": {"min_lat": 48.0, "min_lon": 8.0, "max_lat": 48.1, "max_lon": 8.1, '
             '"min_lat": 47.9}}', "min_lat"),
            (MINIMAL[:-1] + ', "vehicles": [{"name": "ego", "kind": "twin", '
             '"wheelbase": 2.7, "wheelbase": 4.0}]}', "wheelbase"),
            (MINIMAL[:-1] + ', "vehicles": [{"name": "ego", "kind": "twin", '
             '"chassis": {"height": 1.4, "length": 4.5, "height": 1.6}}]}', "height"),
        ],
        ids=["top-level", "bbox", "vehicle", "chassis"],
    )
    def test_a_repeated_key_is_refused_by_its_name(self, text, key):
        # either value alone makes a valid config: neither may be dropped silently
        with pytest.raises(ConfigValidationError) as exc:
            load_config(text)
        assert str(exc.value) == f"duplicate key {key!r} in a config object"

    def test_nesting_past_the_recursion_limit_is_a_parse_error(self):
        with pytest.raises(ConfigParseError, match="config cannot be read"):
            load_config("[" * 100_000 + "]" * 100_000)

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python has no limit on integer digits",
    )
    def test_integer_past_the_digit_limit_is_a_parse_error(self):
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ConfigParseError, match="config cannot be read"):
            load_config('{"bbox": {"min_lat": ' + digits + "}}")

    def test_missing_bbox_rejected(self):
        with pytest.raises(ConfigValidationError, match="bbox"):
            load_config("{}")

    def test_bbox_out_of_range_rejected(self):
        doc = {"bbox": {"min_lat": -95, "min_lon": 0, "max_lat": 95, "max_lon": 1}}
        with pytest.raises(ConfigValidationError) as exc:
            load_config(json.dumps(doc))
        assert str(exc.value) == (
            "bbox: bounding box latitudes must lie in [-90, 90] and longitudes in [-180, 180]"
        )

    def test_unknown_top_level_key_rejected(self):
        raw = json.loads(MINIMAL)
        raw["bounding_box"] = {}
        with pytest.raises(ConfigValidationError, match="unknown key"):
            load_config(json.dumps(raw))

    def test_unknown_vehicle_key_rejected(self):
        raw = json.loads(MINIMAL)
        raw["vehicles"] = [{"name": "ego", "kind": "twin", "wheel_base": 2.5}]
        with pytest.raises(ConfigValidationError, match="wheel_base"):
            load_config(json.dumps(raw))

    def test_duplicate_vehicle_names_rejected(self):
        raw = json.loads(MINIMAL)
        raw["vehicles"] = [
            {"name": "ego", "kind": "twin"},
            {"name": "ego", "kind": "shadow"},
        ]
        with pytest.raises(ConfigValidationError, match="duplicate vehicle name"):
            load_config(json.dumps(raw))

    def test_ghost_with_gps_omitted_keeps_gps_on(self):
        # a ghost is a non-colliding pose-follower, but it still listens to
        # the GPS stream, so the sensor defaults to on
        raw = json.loads(MINIMAL)
        raw["vehicles"] = [{"name": "g", "kind": "ghost"}]
        config = load_config(json.dumps(raw))
        assert config.vehicles[0].kind is VehicleKind.GHOST
        assert config.vehicles[0].gps is True

    def test_vehicle_defaults(self):
        raw = json.loads(MINIMAL)
        raw["vehicles"] = [{"name": "ego", "kind": "twin"}]
        spec = load_config(json.dumps(raw)).vehicles[0]
        assert spec.wheelbase == 2.7
        assert spec.track == 1.5
        assert spec.wheel_radius == 0.3
        assert spec.max_steer_angle == 0.6
        assert (spec.chassis_length, spec.chassis_width, spec.chassis_height) == (4.5, 1.8, 1.4)
        assert spec.spawn == LocalSpawn(0.0, 0.0, 0.0)

    def test_geodetic_spawn_preserved_unprojected(self):
        raw = json.loads(MINIMAL)
        raw["vehicles"] = [
            {"name": "ego", "kind": "twin", "spawn": {"lat": 48.05, "lon": 8.05, "yaw": 0.3}}
        ]
        spec = load_config(json.dumps(raw)).vehicles[0]
        assert spec.spawn == GeoSpawn(48.05, 8.05, 0.3)

    def test_mixed_spawn_keys_rejected(self):
        raw = json.loads(MINIMAL)
        raw["vehicles"] = [{"name": "ego", "kind": "twin", "spawn": {"lat": 48.0, "x": 1.0}}]
        with pytest.raises(ConfigValidationError, match="spawn"):
            load_config(json.dumps(raw))

    def test_bad_kind_rejected(self):
        raw = json.loads(MINIMAL)
        raw["vehicles"] = [{"name": "ego", "kind": "phantom"}]
        with pytest.raises(ConfigValidationError, match="kind"):
            load_config(json.dumps(raw))

    def test_bad_name_rejected(self):
        raw = json.loads(MINIMAL)
        raw["vehicles"] = [{"name": "e g o", "kind": "twin"}]
        with pytest.raises(ConfigValidationError, match="name"):
            load_config(json.dumps(raw))

    @pytest.mark.parametrize(
        ("vehicles", "message"),
        [
            ({"name": "ego"}, "vehicles must be a list"),
            (["ego"], "vehicles[0] must be an object"),
            ([{"kind": "twin"}], "vehicles[0] requires a 'name'"),
            ([{"name": 7, "kind": "twin"}], "vehicles[0].name must be a string"),
            ([{"name": "ego", "kind": "twin", "spawn": [0, 0]}], "vehicles[0].spawn must be an object"),
            ([{"name": "ego", "kind": "twin", "gps": 1}], "vehicles[0].gps must be true or false"),
        ],
        ids=["not-a-list", "not-an-object", "no-name", "name-not-a-string", "spawn-not-an-object",
             "gps-not-a-bool"],
    )
    def test_vehicle_of_the_wrong_shape_rejected_with_its_message(self, vehicles, message):
        raw = json.loads(MINIMAL)
        raw["vehicles"] = vehicles
        with pytest.raises(ConfigValidationError) as exc:
            load_config(json.dumps(raw))
        assert str(exc.value) == message

    def test_loading_twice_yields_identical_configs(self):
        assert load_config(MINIMAL) == load_config(MINIMAL)

    @pytest.mark.parametrize("version", ["1.6", "1.7", "1.10"])
    def test_dotted_decimal_sdf_version_accepted(self, version):
        raw = json.loads(MINIMAL)
        raw["sdf_version"] = version
        assert load_config(json.dumps(raw)).sdf_version == version

    @pytest.mark.parametrize(
        "version", ['1.6" x="1', "1.6&", "", "1", "1.", ".6", "1..6", "v1.6", " 1.6", "1.6\n", 1.6]
    )
    def test_other_sdf_version_rejected(self, version):
        # the version is written verbatim into an attribute, so anything but
        # digits and dots could inject markup or break the document
        raw = json.loads(MINIMAL)
        raw["sdf_version"] = version
        with pytest.raises(ConfigValidationError, match="sdf_version"):
            load_config(json.dumps(raw))
        with pytest.raises(ConfigValidationError, match="sdf_version"):
            GenerationConfig(bbox=BoundingBox(48.0, 8.0, 48.1, 8.1), sdf_version=version)


class TestVehicleSpecInvariants:
    def test_steer_angle_range(self):
        with pytest.raises(ConfigValidationError):
            VehicleSpec(name="a", kind=VehicleKind.TWIN, max_steer_angle=math.pi / 2)
        with pytest.raises(ConfigValidationError):
            VehicleSpec(name="a", kind=VehicleKind.TWIN, max_steer_angle=0.0)

    def test_wheelbase_must_fit_in_chassis(self):
        with pytest.raises(ConfigValidationError, match="wheelbase"):
            VehicleSpec(name="a", kind=VehicleKind.TWIN, wheelbase=5.0, chassis_length=4.5)

    def test_positive_lengths(self):
        with pytest.raises(ConfigValidationError):
            VehicleSpec(name="a", kind=VehicleKind.TWIN, track=-1.0)


_NON_FINITE = [math.inf, -math.inf, math.nan]
# how an error message shows 10**400: its first 18 and last 19 digits
_SHORT_10_400 = "1" + "0" * 17 + "..." + "0" * 19


@pytest.mark.parametrize(
    ("build", "error", "message"),
    [
        (lambda: ExtractionDefaults(road_width=10**400), ValueError,
         f"road_width must be strictly positive, got {_SHORT_10_400}"),
        (lambda: VehicleSpec("a", VehicleKind.TWIN, wheelbase=10**400), ConfigValidationError,
         f"vehicle 'a': wheelbase must be strictly positive, got {_SHORT_10_400}"),
        (lambda: LocalSpawn(10**400, 0), ConfigValidationError,
         f"LocalSpawn.x must be a finite number, got {_SHORT_10_400}"),
        (lambda: GeoSpawn(0, 0, 10**400), ConfigValidationError,
         f"GeoSpawn.yaw must be a finite number, got {_SHORT_10_400}"),
    ],
    ids=["ExtractionDefaults", "VehicleSpec", "LocalSpawn", "GeoSpawn"],
)
def test_constructor_refuses_a_number_no_float_holds_and_shows_it_short(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    ("build", "error", "message"),
    [
        (lambda: ExtractionDefaults(road_width=10**5000), ValueError,
         f"road_width must be strictly positive, got {_SHORT_10_400}"),
        (lambda: VehicleSpec("a", VehicleKind.TWIN, wheelbase=10**5000), ConfigValidationError,
         f"vehicle 'a': wheelbase must be strictly positive, got {_SHORT_10_400}"),
        (lambda: LocalSpawn(10**5000, 0), ConfigValidationError,
         f"LocalSpawn.x must be a finite number, got {_SHORT_10_400}"),
        (lambda: GeoSpawn(0, 0, -(10**5000) - 7), ConfigValidationError,
         "GeoSpawn.yaw must be a finite number, got -1" + "0" * 16 + "..." + "0" * 18 + "7"),
    ],
    ids=["ExtractionDefaults", "VehicleSpec", "LocalSpawn", "GeoSpawn"],
)
def test_an_int_too_long_for_text_is_still_shown_short(build, error, message):
    # past the interpreter's 4,300-digit limit no int can be turned into text
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("digits", [310, 401, 1000, 4300])
@pytest.mark.parametrize("sign", [1, -1])
def test_an_int_no_float_holds_is_shown_as_reprlib_shows_it(digits, sign):
    for value in (10 ** (digits - 1), 10**digits - 1, 10 ** (digits - 1) + 12345 * 10**200 + 678):
        with pytest.raises(ConfigValidationError) as exc:
            LocalSpawn(0, sign * value)
        shown = reprlib.repr(sign * value)
        assert str(exc.value) == f"LocalSpawn.y must be a finite number, got {shown}"


class TestSpawnInvariants:
    @pytest.mark.parametrize("value", _NON_FINITE)
    @pytest.mark.parametrize("field", ["x", "y", "yaw"])
    def test_local_spawn_rejects_non_finite(self, field, value):
        kwargs = {"x": 1.0, "y": 2.0, "yaw": 0.5, field: value}
        with pytest.raises(ConfigValidationError, match=f"LocalSpawn.{field} must be a finite"):
            LocalSpawn(**kwargs)

    @pytest.mark.parametrize("value", _NON_FINITE)
    @pytest.mark.parametrize("field", ["lat", "lon", "yaw"])
    def test_geo_spawn_rejects_non_finite(self, field, value):
        kwargs = {"lat": 48.0, "lon": 8.0, "yaw": 0.5, field: value}
        with pytest.raises(ConfigValidationError, match=f"GeoSpawn.{field} must be a finite"):
            GeoSpawn(**kwargs)

    @pytest.mark.parametrize("lat, lon", [(95.0, 400.0), (90.5, 8.0), (48.0, -180.5), (-91.0, 8.0)])
    def test_geo_spawn_rejects_coordinates_out_of_range(self, lat, lon):
        with pytest.raises(ConfigValidationError) as exc:
            GeoSpawn(lat, lon)
        assert str(exc.value) == f"GeoSpawn ({lat!r}, {lon!r}) lies outside [-90, 90] x [-180, 180]"

    @pytest.mark.parametrize("lat, lon", [(90.0, 180.0), (-90.0, -180.0), (90, -180), (-90, 180)])
    def test_geo_spawn_range_bounds_are_inclusive(self, lat, lon):
        assert GeoSpawn(lat, lon).lat == lat

    def test_load_config_locates_a_spawn_out_of_range(self):
        doc = json.loads(MINIMAL)
        doc["vehicles"] = [{"name": "a", "kind": "twin", "spawn": {"lat": 95, "lon": 400}}]
        with pytest.raises(ConfigValidationError) as exc:
            load_config(json.dumps(doc))
        assert str(exc.value) == (
            "vehicles[0].spawn: GeoSpawn (95.0, 400.0) lies outside [-90, 90] x [-180, 180]"
        )

    def test_load_config_keeps_its_own_message(self):
        doc = json.loads(MINIMAL)
        doc["vehicles"] = [{"name": "a", "kind": "twin", "spawn": {"x": 0.0, "y": math.inf}}]
        with pytest.raises(ConfigValidationError) as exc:
            load_config(json.dumps(doc))
        assert str(exc.value) == "vehicles[0].spawn.y must be finite, got inf"


class TestResolveSpawn:
    def test_local_passthrough(self):
        origin = GeoOrigin(48.0, 8.0)
        assert resolve_spawn(LocalSpawn(3.0, 4.0, 0.5), origin) == (3.0, 4.0, 0.5)

    def test_geodetic_projected(self):
        origin = GeoOrigin(48.0, 8.0)
        x, y, yaw = resolve_spawn(GeoSpawn(48.0, 8.0, 1.0), origin)
        assert (x, y) == (0.0, 0.0)
        assert yaw == 1.0


# ------------------------------------------------ load_config's outcomes
# Valid documents draw each optional key or leave it out; a faulty one is a
# valid document with one edit, and must fail with that edit's own message.
# The key lists below are written out on purpose: they state the config
# format independently of the dataclasses that the loader reads it into.

_NAMES = ("ego", "a", "car_2", "B9")
_POSITIVE = st.one_of(st.floats(0.01, 100.0), st.integers(1, 50))


@st.composite
def _shuffled(draw, items: dict) -> dict:
    """``items`` with its keys in a drawn order, as a JSON author may write them."""
    return dict(draw(st.permutations(list(items.items()))))


@st.composite
def _optional(draw, choices: dict) -> dict:
    """A drawn subset of ``choices``, each key kept with its drawn value."""
    return {key: draw(value) for key, value in choices.items() if draw(st.booleans())}


@st.composite
def _spawns(draw) -> tuple[dict, GeoSpawn | LocalSpawn]:
    geodetic = draw(st.booleans())
    if geodetic:
        doc = {"lat": draw(st.floats(-90.0, 90.0)), "lon": draw(st.floats(-180.0, 180.0))}
    else:
        doc = {"x": draw(st.floats(-1e6, 1e6)), "y": draw(st.floats(-1e6, 1e6))}
    doc.update(draw(_optional({"yaw": st.floats(-7.0, 7.0)})))
    return draw(_shuffled(doc)), (GeoSpawn if geodetic else LocalSpawn)(**doc)


@st.composite
def _vehicles(draw, name: str) -> tuple[dict, VehicleSpec]:
    kind = draw(st.sampled_from([k.value for k in VehicleKind]))
    numbers = draw(_optional({
        "wheelbase": st.floats(1.0, 3.0),  # under any chassis length drawn below
        "track": st.floats(0.5, 3.0),
        "wheel_radius": st.floats(0.1, 1.0),
        "max_steer_angle": st.floats(0.05, 1.5),
    }))
    doc = {"name": name, "kind": kind, **numbers}
    expected = {"name": name, "kind": VehicleKind(kind), **numbers}
    if draw(st.booleans()):
        chassis = draw(_optional({
            "length": st.floats(3.5, 6.0), "width": _POSITIVE, "height": _POSITIVE,
        }))
        doc["chassis"] = draw(_shuffled(chassis))
        expected.update({f"chassis_{key}": value for key, value in chassis.items()})
    if draw(st.booleans()):
        doc["gps"] = expected["gps"] = draw(st.booleans())
    if draw(st.booleans()):
        doc["spawn"], expected["spawn"] = draw(_spawns())
    return draw(_shuffled(doc)), VehicleSpec(**expected)


@st.composite
def _valid_configs(draw) -> tuple[dict, GenerationConfig]:
    """A valid config document and the config it must load to: the drawn
    values, and the dataclass defaults for every key left out."""
    min_lat, min_lon = draw(st.floats(-90.0, 89.0)), draw(st.floats(-180.0, 179.0))
    bbox = {
        "min_lat": min_lat,
        "min_lon": min_lon,
        "max_lat": min_lat + draw(st.floats(0.001, 1.0)),
        "max_lon": min_lon + draw(st.floats(0.001, 1.0)),
    }
    doc = {"bbox": draw(_shuffled(bbox))}
    expected = {"bbox": BoundingBox(**bbox)}
    if draw(st.booleans()):
        defaults = draw(_optional({
            "default_building_height": _POSITIVE,
            "meters_per_level": _POSITIVE,
            "road_width": _POSITIVE,
            "road_thickness": _POSITIVE,
        }))
        doc["defaults"] = draw(_shuffled(defaults))
        expected["defaults"] = ExtractionDefaults(**defaults)
    if draw(st.booleans()):
        names = draw(st.lists(st.sampled_from(_NAMES), max_size=3, unique=True))
        pairs = [draw(_vehicles(name)) for name in names]
        doc["vehicles"] = [vehicle for vehicle, _ in pairs]
        expected["vehicles"] = tuple(spec for _, spec in pairs)
    if draw(st.booleans()):
        doc["sdf_version"] = expected["sdf_version"] = draw(st.sampled_from(["1.6", "1.7", "1.10"]))
    return draw(_shuffled(doc)), GenerationConfig(**expected)


_DELETE = object()


def _number_faults(path: list, context: str):
    for value in ("x", None, [1.0], {"v": 1.0}, True, False):
        yield path, value, f"{context} must be a number, got {value!r}"
    for value in (math.inf, -math.inf, math.nan):
        yield path, value, f"{context} must be finite, got {value!r}"
    yield path, 10**400, f"{context} must be finite, got {_SHORT_10_400}"


def _faults(doc: dict):
    """Every one-edit fault of the valid document ``doc``, as (path, value,
    message): the value goes at the path, or the key there is deleted when it
    is ``_DELETE``; the message is the error the edited document must raise."""
    yield [], [], "config root must be a JSON object"
    yield ["extra"], 1, "unknown key 'extra' in config"
    yield ["bbox"], _DELETE, "config requires a 'bbox' object"
    yield ["bbox"], [], "bbox must be an object"
    yield ["bbox", "extra"], 1.0, "unknown key 'extra' in bbox"
    for key in ("min_lat", "min_lon", "max_lat", "max_lon"):
        yield ["bbox", key], _DELETE, f"bbox is missing key {key!r}"
        yield from _number_faults(["bbox", key], f"bbox.{key}")
    yield ["defaults"], "x", "defaults must be an object"
    yield ["defaults", "extra"], 1.0, "unknown key 'extra' in defaults"
    for key in ("default_building_height", "meters_per_level", "road_width", "road_thickness"):
        yield from _number_faults(["defaults", key], f"defaults.{key}")
    yield ["vehicles"], {"name": "ego"}, "vehicles must be a list"
    yield ["sdf_version"], 1.6, "sdf_version must be dotted decimal digits such as '1.6', got 1.6"
    for i, vehicle in enumerate(doc.get("vehicles", [])):
        path, context = ["vehicles", i], f"vehicles[{i}]"
        yield path, "ego", f"{context} must be an object"
        yield path + ["wheel_base"], 2.5, f"unknown key 'wheel_base' in {context}"
        yield path + ["name"], _DELETE, f"{context} requires a 'name'"
        yield path + ["kind"], _DELETE, f"{context} requires a 'kind'"
        yield path + ["name"], 7, f"{context}.name must be a string"
        for kind in ("phantom", "TWIN", 1):
            yield (path + ["kind"], kind,
                   f"{context}.kind must be one of twin, shadow, ghost; got {kind!r}")
        for key in ("wheelbase", "track", "wheel_radius", "max_steer_angle"):
            yield from _number_faults(path + [key], f"{context}.{key}")
        yield path + ["chassis"], [4.5], f"{context}.chassis must be an object"
        yield path + ["chassis", "depth"], 1.0, f"unknown key 'depth' in {context}.chassis"
        for key in ("length", "width", "height"):
            yield from _number_faults(path + ["chassis", key], f"{context}.chassis.{key}")
        yield path + ["gps"], 1, f"{context}.gps must be true or false"
        yield path + ["spawn"], "origin", f"{context}.spawn must be an object"
        if "spawn" not in vehicle:
            continue
        either = f"{context}.spawn must contain either lat/lon or x/y, plus an optional yaw"
        first, second = ("lat", "lon") if "lat" in vehicle["spawn"] else ("x", "y")
        yield path + ["spawn", first], _DELETE, either
        yield path + ["spawn", second], _DELETE, either
        yield path + ["spawn", "x" if first == "lat" else "lat"], 1.0, either  # mixed keys
        yield path + ["spawn", "z"], 1.0, either
        for key in (first, second, "yaw"):
            yield from _number_faults(path + ["spawn", key], f"{context}.spawn.{key}")


def _edited(doc: dict, path: list, value):
    """A deep copy of ``doc`` with ``value`` at ``path``; objects missing on
    the way are made, and ``_DELETE`` removes the key."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key] if isinstance(parent, list) else parent.setdefault(key, {})
    if value is _DELETE:
        parent.pop(path[-1], None)
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def _faulty_configs(draw) -> tuple[str, str]:
    doc, _ = draw(_valid_configs())
    path, value, message = draw(st.sampled_from(list(_faults(doc))))
    return json.dumps(_edited(doc, path, value)), message


@given(case=_valid_configs())
@settings(max_examples=200, deadline=None)
def test_valid_config_loads_to_given_values_or_defaults(case):
    doc, expected = case
    assert load_config(json.dumps(doc)) == expected


@given(case=_faulty_configs())
@settings(max_examples=300, deadline=None)
def test_config_with_one_fault_fails_with_its_message(case):
    text, message = case
    with pytest.raises(ConfigValidationError) as exc:
        load_config(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("seed", range(6))
def test_chassis_error_names_the_first_field_under_any_hash_seed(seed):
    # string hashing, and so the order of a set of key names, changes with
    # PYTHONHASHSEED; which bad chassis value the error names must not
    doc = json.loads(MINIMAL)
    doc["vehicles"] = [
        {"name": "ego", "kind": "twin", "chassis": {"length": "x", "width": "y", "height": "z"}}
    ]
    script = (
        "import sys\n"
        "from dtgen.config import load_config\n"
        "try:\n"
        "    load_config(sys.stdin.read())\n"
        "except Exception as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONHASHSEED": str(seed),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script], input=json.dumps(doc), env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "vehicles[0].chassis.length must be a number, got 'x'\n"
