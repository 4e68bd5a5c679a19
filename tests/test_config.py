import json
import math

import pytest

from dtgen.config import (
    GenerationConfig,
    GeoSpawn,
    LocalSpawn,
    VehicleKind,
    VehicleSpec,
    load_config,
    resolve_spawn,
)
from dtgen.errors import ConfigParseError, ConfigValidationError
from dtgen.geodesy import GeoOrigin
from dtgen.osm import BoundingBox

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

    def test_missing_bbox_rejected(self):
        with pytest.raises(ConfigValidationError, match="bbox"):
            load_config("{}")

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
