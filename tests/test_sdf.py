import functools
import hashlib
import io
import math
import re
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from decimal import Decimal
from pathlib import Path
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st
from oracles import tree_validate_sdf

from dtgen.config import (
    ExtractionDefaults,
    GenerationConfig,
    LocalSpawn,
    VehicleKind,
    VehicleSpec,
    load_config,
)
from dtgen.errors import EmitError
from dtgen.geodesy import BoundingBox, LocalPoint, origin_of, project
from dtgen.osm import _SLICE_CHARS
from dtgen.pipeline import generate_world
from dtgen.sdf import (
    GROUND_MARGIN_M,
    _RULES,
    ValidationIssue,
    _number_faults,
    _numbers,
    _polyline_faults,
    emit_world,
    fmt,
    validate_sdf,
    write_world,
)
from dtgen.world_model import Building, Road, estimate_height

DATA_DIR = Path(__file__).parent / "data"
BBOX = BoundingBox(48.0, 8.0, 48.1, 8.1)
ORIGIN = origin_of(BBOX)  # the origin the writer derives from BBOX
# the sha256 of _pinned_vehicle_world(); a writer refactor leaves it unchanged
_VEHICLE_WORLD_SHA256 = "ef71c4a2939bcff13c828a4356749210e5bf9b4b64bf3f3305e97a1fa2ccd48d"


def _config(vehicles=()):
    return GenerationConfig(bbox=BBOX, vehicles=tuple(vehicles))


def _square(way_id=7, height=10.0):
    pts = (LocalPoint(0, 0), LocalPoint(20, 0), LocalPoint(20, 30), LocalPoint(0, 30))
    return Building(id=way_id, footprint=pts, height=height)


def _emit(buildings=(), roads=(), vehicles=(), config=None):
    return emit_world(list(buildings), list(roads), config or _config(vehicles))


def _written(result):
    """The world's bytes, as ``GenerationResult.write`` gives them."""
    sink = io.StringIO()
    result.write(sink)
    return sink.getvalue()


def _world_xml(buildings=(), roads=(), vehicles=()):
    world = _emit(buildings, roads, vehicles)
    return world, ET.fromstring(world.text)


def _model(tree, name):
    model = tree.find(f"world/model[@name='{name}']")
    assert model is not None, f"model {name} not found"
    return model


class TestFmt:
    def test_integral_floats_render_bare(self):
        assert fmt(10.0) == "10"
        assert fmt(9.0) == "9"

    def test_fractions_keep_nine_significant_digits(self):
        assert fmt(0.05) == "0.05"
        assert fmt(math.pi / 2) == "1.57079633"

    def test_negative_zero_normalized(self):
        assert fmt(-0.0) == "0"


# what the writer may be handed: floats of every kind, ints from config
# JSON, and any other number that ``float`` accepts
_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(-(10**308), 10**308),
    st.decimals(allow_nan=False),  # float() refuses a signaling NaN
)


@given(value=_NUMBERS)
@example(value=5e-324)  # the smallest subnormal, printed as 4.94065646e-324
@example(value=-0.0)
@example(value=sys.float_info.max)  # rounds down at 9 digits, so stays finite
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=0)
@example(value=7)
@example(value=Decimal("1e400"))  # float() makes it inf
@settings(max_examples=300, deadline=None)
def test_fmt_keeps_each_rules_verdict(value):
    # the writer applies each rule to float(value) and writes fmt(value);
    # the validator applies it to the numbers it reads back from that text
    written = float(value)
    text = fmt(value)
    assert fmt(written) == text
    (read,) = _numbers(text)
    for (_, tag), rule in _RULES.items():
        others = [1.0] * (rule[0] - 1)
        assert _number_faults(tag, others + [written], *rule) == _number_faults(tag, others + [read], *rule)
    assert _polyline_faults(3, written) == _polyline_faults(3, read)


class TestEmitBuilding:
    def test_polyline_serialization(self):
        _, tree = _world_xml(buildings=[_square(height=10.0)])
        model = _model(tree, "building_7")
        polylines = model.findall(".//polyline")
        assert len(polylines) == 2  # collision + visual
        for polyline in polylines:
            assert len(polyline.findall("point")) == 4
            assert polyline.find("height").text == "10"
        assert model.find("static").text == "true"

    def test_model_names_unique_from_ids(self):
        _, tree = _world_xml(buildings=[_square(way_id=7), _square(way_id=9)])
        names = [m.get("name") for m in tree.findall("world/model")]
        assert names == ["ground_plane", "building_7", "building_9"]

    def test_levels_height_lands_in_xml(self):
        # height oracle: 3 levels x 3.0 m per level
        height = estimate_height({"building:levels": "3"}, ExtractionDefaults())
        assert height == 9.0
        _, tree = _world_xml(buildings=[_square(height=height)])
        polyline = _model(tree, "building_7").find(".//polyline")
        assert polyline.find("height").text == "9"


class TestEmitRoad:
    def test_axis_aligned_segment(self):
        road = Road(id=12, centerline=(LocalPoint(0, 0), LocalPoint(10, 0)), width=7.0)
        _, tree = _world_xml(roads=[road])
        links = _model(tree, "road_12").findall("link")
        assert [link.get("name") for link in links] == ["segment_0"]
        assert links[0].find("pose").text == "5 0 0.05 0 0 0"
        assert links[0].find("collision/geometry/box/size").text == "10 7 0.1"
        assert links[0].find("visual/geometry/box/size").text == "10 7 0.1"

    def test_northward_segment_yaw(self):
        road = Road(id=1, centerline=(LocalPoint(0, 0), LocalPoint(0, 10)), width=7.0)
        _, tree = _world_xml(roads=[road])
        pose = _model(tree, "road_1").find("link/pose").text
        assert pose == "0 5 0.05 0 0 1.57079633"

    def test_three_points_two_segments(self):
        road = Road(
            id=2,
            centerline=(LocalPoint(0, 0), LocalPoint(10, 0), LocalPoint(10, 10)),
            width=7.0,
        )
        _, tree = _world_xml(roads=[road])
        links = _model(tree, "road_2").findall("link")
        assert [link.get("name") for link in links] == ["segment_0", "segment_1"]
        assert [link.find("pose").text for link in links] == [
            "5 0 0.05 0 0 0",
            "10 5 0.05 0 0 1.57079633",
        ]

    def test_road_material_is_dark_gray(self):
        road = Road(id=3, centerline=(LocalPoint(0, 0), LocalPoint(10, 0)), width=7.0)
        _, tree = _world_xml(roads=[road])
        ambient = _model(tree, "road_3").find(".//visual/material/ambient")
        assert ambient.text.startswith("0.3 0.3 0.3")


def _spec(kind, name="car", **kwargs):
    return VehicleSpec(name=name, kind=kind, spawn=LocalSpawn(0.0, 0.0, 0.0), **kwargs)


def _overflowing(kind):
    """A vehicle whose chassis height, raised by its wheel radius, overflows."""
    return _spec(kind, wheel_radius=1.5e308, chassis_height=1e308)


class TestEmitVehicle:
    def test_ghost_has_zero_collisions(self):
        _, tree = _world_xml(vehicles=[_spec(VehicleKind.GHOST)])
        model = _model(tree, "car")
        assert model.findall(".//collision") == []
        # still a full pose-follower: GPS on, geometry visible
        assert model.find(".//sensor[@type='gps']") is not None
        assert len(model.findall(".//visual")) == 5

    def test_shadow_keeps_collisions_and_gps_but_no_plugin(self):
        _, tree = _world_xml(vehicles=[_spec(VehicleKind.SHADOW)])
        model = _model(tree, "car")
        assert len(model.findall(".//collision")) == 5  # chassis + 4 wheels
        assert model.find(".//sensor[@type='gps']") is not None
        assert model.findall(".//plugin") == []
        assert model.findall(".//joint") == []

    def test_twin_steer_joints_carry_limits(self):
        _, tree = _world_xml(vehicles=[_spec(VehicleKind.TWIN, max_steer_angle=0.6)])
        model = _model(tree, "car")
        steer_joints = [
            j for j in model.findall("joint") if "steer" in j.get("name", "")
        ]
        assert len(steer_joints) == 2
        for joint in steer_joints:
            assert joint.find("axis/limit/lower").text == "-0.6"
            assert joint.find("axis/limit/upper").text == "0.6"

    def test_twin_has_drive_plugin_with_parameters(self):
        spec = _spec(VehicleKind.TWIN, wheelbase=2.7, track=1.5, wheel_radius=0.3)
        _, tree = _world_xml(vehicles=[spec])
        plugin = _model(tree, "car").find("plugin")
        assert plugin is not None
        assert plugin.find("wheelbase").text == "2.7"
        assert plugin.find("track").text == "1.5"
        assert plugin.find("wheel_radius").text == "0.3"
        assert plugin.find("max_steer_angle").text == "0.6"

    def test_twin_without_gps_has_no_sensor(self):
        _, tree = _world_xml(vehicles=[_spec(VehicleKind.TWIN, gps=False)])
        assert _model(tree, "car").find(".//sensor") is None

    def test_wheels_placed_by_wheelbase_and_track(self):
        _, tree = _world_xml(vehicles=[_spec(VehicleKind.TWIN, wheelbase=2.0, track=1.0)])
        model = _model(tree, "car")
        assert model.find("plugin/wheelbase").text == "2"
        front_left = model.find("link[@name='front_left_wheel']/pose").text.split()
        assert float(front_left[0]) == 1.0
        assert float(front_left[1]) == 0.5

    def test_model_pose_from_spawn(self):
        spec = VehicleSpec(name="car", kind=VehicleKind.TWIN, spawn=LocalSpawn(3.0, -4.0, 0.5))
        _, tree = _world_xml(vehicles=[spec])
        assert _model(tree, "car").find("pose").text == "3 -4 0 0 0 0.5"

    def test_shadow_and_ghost_are_static(self):
        for kind in (VehicleKind.SHADOW, VehicleKind.GHOST):
            _, tree = _world_xml(vehicles=[_spec(kind)])
            assert _model(tree, "car").find("static").text == "true"
        _, tree = _world_xml(vehicles=[_spec(VehicleKind.TWIN)])
        assert _model(tree, "car").find("static") is None


def _pinned_vehicle_world():
    """One world with a twin, a shadow and a ghost, each with and without GPS,
    with parameters off the defaults and fractional spawn poses."""
    vehicles = [
        VehicleSpec(
            name=f"{kind.value}_{'gps' if gps else 'bare'}",
            kind=kind,
            wheelbase=2.5 + i / 10,
            track=1.4 + i / 100,
            wheel_radius=0.31 + i / 1000,
            max_steer_angle=0.5 + i / 20,
            chassis_length=4.2 + i / 7,
            chassis_width=1.75,
            chassis_height=1.3 + i / 3,
            gps=gps,
            spawn=LocalSpawn(10.0 * i - 25.0, 3.5 * i, math.pi / (i + 2)),
        )
        for i, (kind, gps) in enumerate(
            (kind, gps) for kind in (VehicleKind.TWIN, VehicleKind.SHADOW, VehicleKind.GHOST)
            for gps in (True, False)
        )
    ]
    return _emit(vehicles=vehicles).text


def test_vehicle_bytes_are_pinned():
    # every bundled config has gps: true, so no golden hash covers a vehicle
    # without its sensor; this pins all three kinds with and without it
    digest = hashlib.sha256(_pinned_vehicle_world().encode("utf-8")).hexdigest()
    assert digest == _VEHICLE_WORLD_SHA256


class TestEmitWorld:
    def test_empty_world_has_ground_and_sun_only(self):
        world, tree = _world_xml()
        assert validate_sdf(world.text).ok
        models = tree.findall("world/model")
        assert [m.get("name") for m in models] == ["ground_plane"]
        assert tree.find("world/light[@name='sun']") is not None

    def test_model_count_conservation(self):
        buildings = [_square(way_id=1), _square(way_id=2)]
        roads = [Road(id=3, centerline=(LocalPoint(0, 0), LocalPoint(1, 0)), width=7.0)]
        vehicles = [_spec(VehicleKind.TWIN)]
        _, tree = _world_xml(buildings, roads, vehicles)
        models = tree.findall("world/model")
        assert len(models) == 1 + 2 + 1 + 1  # ground plane is the only boilerplate

    def test_spherical_coordinates_match_origin(self):
        world, tree = _world_xml()
        sc = tree.find("world/spherical_coordinates")
        assert sc.find("surface_model").text == "EARTH_WGS84"
        assert abs(float(sc.find("latitude_deg").text) - ORIGIN.lat0) < 1e-9
        assert abs(float(sc.find("longitude_deg").text) - ORIGIN.lon0) < 1e-9
        assert sc.find("elevation").text == "0"
        assert sc.find("heading_deg").text == "0"

    def test_spherical_coordinates_survive_awkward_origins(self):
        # an origin with a long decimal tail must still land within 1e-9 deg
        lat0, lon0 = 48.01234567891234, -121.98765432101
        bbox = BoundingBox(lat0 - 0.01, lon0 - 0.01, lat0 + 0.01, lon0 + 0.01)
        origin = origin_of(bbox)
        world = _emit(config=GenerationConfig(bbox=bbox))
        sc = ET.fromstring(world.text).find("world/spherical_coordinates")
        assert abs(float(sc.find("latitude_deg").text) - origin.lat0) < 1e-9
        assert abs(float(sc.find("longitude_deg").text) - origin.lon0) < 1e-9

    def test_children_order(self):
        buildings = [_square(way_id=1)]
        roads = [Road(id=2, centerline=(LocalPoint(0, 0), LocalPoint(1, 0)), width=7.0)]
        _, tree = _world_xml(buildings, roads, [_spec(VehicleKind.TWIN)])
        names = [m.get("name") for m in tree.findall("world/model")]
        assert names == ["ground_plane", "building_1", "road_2", "car"]

    def test_byte_deterministic(self):
        buildings = [_square(way_id=1, height=math.pi)]
        first = _emit(buildings, vehicles=[_spec(VehicleKind.TWIN)])
        second = _emit(buildings, vehicles=[_spec(VehicleKind.TWIN)])
        assert first.text == second.text
        assert first.text.encode("utf-8") == second.text.encode("utf-8")

    def test_duplicate_model_name_raises(self):
        with pytest.raises(EmitError, match="duplicate model name"):
            _emit(vehicles=[_spec(VehicleKind.TWIN, name="ground_plane")])

    def test_version_from_config(self):
        config = GenerationConfig(bbox=BBOX, sdf_version="1.7")
        world = _emit(config=config)
        assert ET.fromstring(world.text).get("version") == "1.7"

    def test_ground_plane_covers_the_projected_bbox(self):
        # 0.05 deg at 48 N is about 5.6 km north-south and 3.7 km east-west,
        # more than a fixed 5 km plane covers in one direction
        bbox = BoundingBox(48.0, 8.0, 48.05, 8.05)
        origin = origin_of(bbox)
        world = _emit(config=GenerationConfig(bbox=bbox))
        ground = _model(ET.fromstring(world.text), "ground_plane")
        assert ground.find("pose") is None  # centered on the origin
        low = project(origin, bbox.min_lat, bbox.min_lon)
        high = project(origin, bbox.max_lat, bbox.max_lon)
        sizes = [s.text for s in ground.findall("link/*/geometry/plane/size")]
        assert len(sizes) == 2  # collision + visual
        for size in sizes:
            width, depth = (float(v) for v in size.split())
            assert width / 2 >= max(-low.x, high.x) + GROUND_MARGIN_M - 1e-3
            assert depth / 2 >= max(-low.y, high.y) + GROUND_MARGIN_M - 1e-3
            assert depth > 5000.0

    def test_ground_plane_covers_a_road_that_runs_past_the_bbox(self):
        # the bbox filter keeps a way whole once one node lies inside, so
        # this road ends about 300 m north of the bbox
        bbox = BoundingBox(48.0, 8.0, 48.02, 8.03)
        north = 48.02 + 300.0 / 111_319.5
        osm = (
            "<osm version='0.6'>"
            "<node id='1' lat='48.01' lon='8.015'/>"
            f"<node id='2' lat='{north}' lon='8.015'/>"
            "<way id='5'><nd ref='1'/><nd ref='2'/><tag k='highway' v='residential'/></way>"
            "</osm>"
        )
        result = generate_world(GenerationConfig(bbox=bbox), io.BytesIO(osm.encode()))
        end = result.roads[0].centerline[-1]
        origin = origin_of(bbox)
        high = project(origin, bbox.max_lat, bbox.max_lon)
        assert end.y - high.y == pytest.approx(300.0, abs=0.1)
        ground = _model(ET.fromstring(_written(result)), "ground_plane")
        for size in ground.findall("link/*/geometry/plane/size"):
            assert size.text == (
                f"{fmt(2.0 * (high.x + GROUND_MARGIN_M))} {fmt(2.0 * (end.y + GROUND_MARGIN_M))}"
            )


_START_TAG = re.compile(r"<([A-Za-z_][\w.-]*)")
_END_TAG = re.compile(r"</([A-Za-z_][\w.-]*)>")


@pytest.mark.parametrize("osm_name", ["track.osm", "mixed.osm"])
def test_fixture_world_is_flat_with_one_element_per_line(osm_name):
    config = load_config((DATA_DIR / "config_kinds.json").read_text(encoding="utf-8"))
    text = _written(generate_world(config, io.BytesIO((DATA_DIR / osm_name).read_bytes())))
    lines = text.splitlines()
    assert lines[0].startswith("<?xml")
    for line in lines:
        assert line.startswith("<"), repr(line)
        starts = _START_TAG.findall(line)
        ends = _END_TAG.findall(line)
        assert len(starts) <= 1 and len(ends) <= 1, repr(line)
        if starts and ends:  # a leaf: its own closing tag ends the line
            assert ends == starts and line.endswith(f"</{starts[0]}>"), repr(line)
    # every element starts on a line of its own
    elements = sum(1 for _ in ET.fromstring(text).iter())
    assert sum(len(_START_TAG.findall(line)) for line in lines) == elements


class TestValidateSdf:
    def test_emitted_world_is_clean(self):
        world, _ = _world_xml(buildings=[_square()], vehicles=[_spec(VehicleKind.TWIN)])
        assert validate_sdf(world.text).violations == ()

    def test_malformed_xml(self):
        report = validate_sdf("<sdf><world>")
        assert not report.ok
        assert "malformed XML" in report.violations[0].message

    def test_lone_surrogate_is_malformed_xml(self):
        report = validate_sdf('<sdf version="1.9"><world name="w">\ud800</world></sdf>')
        assert report.violations == (
            ValidationIssue("/", "malformed XML: lone surrogate U+D800 is not encodable as UTF-8"),
        )

    def test_wrong_root(self):
        report = validate_sdf("<robot/>")
        assert any("expected <sdf>" in v.message for v in report.violations)

    def test_missing_version(self):
        report = validate_sdf("<sdf><world name='w'><spherical_coordinates/></world></sdf>")
        assert any("version" in v.message for v in report.violations)

    def test_two_worlds(self):
        text = "<sdf version='1.6'><world name='a'/><world name='b'/></sdf>"
        report = validate_sdf(text)
        assert any("exactly one <world>" in v.message for v in report.violations)

    def test_missing_spherical_coordinates(self):
        text = "<sdf version='1.6'><world name='w'/></sdf>"
        report = validate_sdf(text)
        assert any("spherical_coordinates" in v.message for v in report.violations)

    def test_duplicate_model_names(self):
        text = (
            "<sdf version='1.6'><world name='w'><spherical_coordinates/>"
            "<model name='a'/><model name='a'/></world></sdf>"
        )
        report = validate_sdf(text)
        assert any("duplicate model name a" in v.message for v in report.violations)

    def test_negative_polyline_height(self):
        text = (
            "<sdf version='1.6'><world name='w'><spherical_coordinates/>"
            "<model name='b'><link name='l'><visual name='v'><geometry><polyline>"
            "<point>0 0</point><point>1 0</point><point>1 1</point>"
            "<height>-1</height></polyline></geometry></visual></link></model>"
            "</world></sdf>"
        )
        report = validate_sdf(text)
        assert any("non-positive polyline height" in v.message for v in report.violations)

    def test_short_polyline(self):
        text = (
            "<sdf version='1.6'><world name='w'><spherical_coordinates/>"
            "<model name='b'><link name='l'><visual name='v'><geometry><polyline>"
            "<point>0 0</point><point>1 0</point><height>2</height>"
            "</polyline></geometry></visual></link></model></world></sdf>"
        )
        report = validate_sdf(text)
        assert any("points" in v.message for v in report.violations)

    def test_bad_pose(self):
        text = (
            "<sdf version='1.6'><world name='w'><spherical_coordinates/>"
            "<model name='m'><pose>1 2 3</pose></model></world></sdf>"
        )
        report = validate_sdf(text)
        assert any("6 finite numbers" in v.message for v in report.violations)

    def test_non_finite_pose(self):
        text = (
            "<sdf version='1.6'><world name='w'><spherical_coordinates/>"
            "<model name='m'><pose>1 2 3 nan 0 0</pose></model></world></sdf>"
        )
        report = validate_sdf(text)
        assert any("6 finite numbers" in v.message for v in report.violations)

    @pytest.mark.parametrize("size", ["0 1", "1 -2 3", "inf 7 0.1", "1 nan", "1 x", ""])
    def test_bad_size(self, size):
        text = (
            "<sdf version='1.6'><world name='w'><spherical_coordinates/>"
            "<model name='m'><link name='l'><visual name='v'><geometry><box>"
            f"<size>{size}</size></box></geometry></visual></link></model></world></sdf>"
        )
        located = [(v.location, v.message) for v in validate_sdf(text).violations]
        assert located == [(
            "/sdf/world[@name='w']/model[@name='m']/link[@name='l']/visual[@name='v']/geometry/box/size",
            "size must contain finite positive numbers",
        )]

    def test_good_sizes(self):
        text = (
            "<sdf version='1.6'><world name='w'><spherical_coordinates/>"
            "<model name='m'><link name='l'><visual name='v'><geometry><plane>"
            "<size>5e-324 1e308</size></plane></geometry></visual></link></model></world></sdf>"
        )
        assert validate_sdf(text).violations == ()

    def test_only_box_and_plane_sizes_must_be_positive(self):
        # SDFormat lets a particle emitter's size be zero
        text = (
            "<sdf version='1.6'><world name='w'><spherical_coordinates/>"
            "<model name='m'><link name='l'><particle_emitter name='e'>"
            "<size>0 0 0</size></particle_emitter></link></model></world></sdf>"
        )
        assert validate_sdf(text).violations == ()

    def test_violations_carry_locations(self):
        text = (
            "<sdf version='1.6'><world name='w'><spherical_coordinates/>"
            "<model name='m'><pose>bad</pose></model></world></sdf>"
        )
        report = validate_sdf(text)
        assert any("model[@name='m']" in v.location for v in report.violations)

    def test_violation_locations_and_order_are_pinned(self):
        text = (
            "<sdf version='1.6'><world name='w'><spherical_coordinates/>"
            "<model name='a'><pose>1 2</pose><link><visual name='v'><geometry><polyline>"
            "<point>0 0</point><height>0</height></polyline></geometry></visual>"
            "<pose>inf 0 0 0 0 0</pose></link></model>"
            "<model><pose>x</pose></model></world></sdf>"
        )
        located = [(v.location, v.message) for v in validate_sdf(text).violations]
        polyline = "/sdf/world[@name='w']/model[@name='a']/link/visual[@name='v']/geometry/polyline"
        assert located == [
            ("/sdf/world[@name='w']", "model without a name attribute"),
            ("/sdf/world[@name='w']/model[@name='a']/pose", "pose must contain 6 finite numbers"),
            (polyline, "polyline has 1 points, needs >= 3"),
            (polyline, "non-positive polyline height"),
            ("/sdf/world[@name='w']/model[@name='a']/link/pose", "pose must contain 6 finite numbers"),
            ("/sdf/world[@name='w']/model/pose", "pose must contain 6 finite numbers"),
        ]


# tag values for the height rules: numbers from tiny to huge, with and
# without the meter suffix, plus arbitrary text
_number_text = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1e308", "1.7976931348623157e308", "5e-324", "1e-320", "0", "-0", "inf"]),
)
_tag_value = st.one_of(
    _number_text,
    _number_text.map(lambda v: v + " m"),
    st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=8),
)
_positive = st.floats(min_value=5e-324, max_value=1e308, allow_infinity=False)


@given(
    height=st.none() | _tag_value,
    levels=st.none() | _tag_value,
    meters_per_level=_positive,
    default_height=_positive,
)
@settings(max_examples=200, deadline=None)
def test_generated_world_always_validates(height, levels, meters_per_level, default_height):
    tags = {"building": "yes", "height": height, "building:levels": levels}
    tag_xml = "".join(
        f"<tag k={quoteattr(k)} v={quoteattr(v)}/>" for k, v in tags.items() if v is not None
    )
    osm = (
        "<osm version='0.6'>"
        "<node id='1' lat='48.0050' lon='8.0050'/><node id='2' lat='48.0050' lon='8.0054'/>"
        "<node id='3' lat='48.0053' lon='8.0054'/><node id='4' lat='48.0053' lon='8.0050'/>"
        "<way id='101'><nd ref='1'/><nd ref='2'/><nd ref='3'/><nd ref='4'/><nd ref='1'/>"
        f"{tag_xml}</way>"
        "<way id='102'><nd ref='1'/><nd ref='3'/><tag k='highway' v='residential'/></way>"
        "</osm>"
    )
    defaults = ExtractionDefaults(
        default_building_height=default_height, meters_per_level=meters_per_level
    )
    config = GenerationConfig(bbox=BoundingBox(48.0, 8.0, 48.02, 8.03), defaults=defaults)
    result = generate_world(config, io.BytesIO(osm.encode()))
    assert len(result.buildings) == 1
    assert validate_sdf(_written(result)).violations == ()


class TestWriterVerdict:
    def test_faulty_world_carries_the_validators_locations(self):
        car = "/sdf/world[@name='generated']/model[@name='car']"
        world = emit_world([_square(height=0.0)], [], _config([_overflowing(VehicleKind.GHOST)]))
        polyline = "/sdf/world[@name='generated']/model[@name='building_7']/link[@name='footprint']"
        assert world.violations == (
            ValidationIssue(f"{polyline}/collision[@name='collision']/geometry/polyline",
                            "non-positive polyline height"),
            ValidationIssue(f"{polyline}/visual[@name='visual']/geometry/polyline",
                            "non-positive polyline height"),
            ValidationIssue(f"{car}/link[@name='chassis']/pose", "pose must contain 6 finite numbers"),
        )
        assert world.violations == validate_sdf(world.text).violations

    def test_road_spanning_the_float_range_has_located_size_faults(self):
        # the segment length and the ground plane both overflow to inf;
        # every coordinate and the segment's pose stay finite
        road = Road(id=3, centerline=(LocalPoint(-1e308, 0.0), LocalPoint(1e308, 0.0)), width=7.0)
        world = _emit(roads=[road])
        ground = "/sdf/world[@name='generated']/model[@name='ground_plane']/link[@name='link']"
        segment = "/sdf/world[@name='generated']/model[@name='road_3']/link[@name='segment_0']"
        fault = "size must contain finite positive numbers"
        assert world.violations == (
            ValidationIssue(f"{ground}/collision[@name='collision']/geometry/plane/size", fault),
            ValidationIssue(f"{ground}/visual[@name='visual']/geometry/plane/size", fault),
            ValidationIssue(f"{segment}/collision[@name='collision']/geometry/box/size", fault),
            ValidationIssue(f"{segment}/visual[@name='visual']/geometry/box/size", fault),
        )
        assert "<size>inf 7 0.1</size>" in world.text
        assert world.violations == validate_sdf(world.text).violations

    def test_zero_length_segment_is_a_size_fault(self):
        # extraction collapses repeated points; a hand-built road need not
        road = Road(id=3, centerline=(LocalPoint(1.0, 2.0), LocalPoint(1.0, 2.0)), width=7.0)
        messages = {v.message for v in _emit(roads=[road]).violations}
        assert messages == {"size must contain finite positive numbers"}


class _CountingSink:
    """A text sink that keeps nothing but the number of characters."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def _write_peak(blocks):
    buildings = [
        Building(id=i, footprint=(LocalPoint(i, 0), LocalPoint(i + 1, 0), LocalPoint(i + 1, 1)), height=10.0)
        for i in range(blocks)
    ]
    return _traced_write(buildings, [])


def _write_road_peak(roads, segments=10):
    roads = [
        Road(id=i, centerline=tuple(LocalPoint(i + 0.5 * j, j) for j in range(segments + 1)), width=7.0)
        for i in range(roads)
    ]
    return _traced_write([], roads)


def _traced_write(buildings, roads):
    """The traced allocation peak of writing a world, and its length."""
    sink = _CountingSink()
    tracemalloc.start()
    try:
        write_world(sink, buildings, roads, _config())
        return tracemalloc.get_traced_memory()[1], sink.chars
    finally:
        tracemalloc.stop()


def test_write_world_holds_none_of_the_text_it_has_written():
    peak, chars = _write_peak(1000)
    peak_4x, chars_4x = _write_peak(4000)
    # the only state that grows with the world is the set of model names
    # checked for duplicates, under 128 bytes a model (about 95 measured);
    # the text of each model is over 500 characters
    assert (chars_4x - chars) / 3000 > 500
    assert peak_4x - peak < 128 * 3000


def test_write_world_holds_none_of_the_text_of_its_road_segments():
    # each segment's link is one block of text, about 375 characters; a
    # writer that batched blocks by count would hold thousands of them
    peak, chars = _write_road_peak(250)
    peak_4x, chars_4x = _write_road_peak(1000)
    assert (chars_4x - chars) / 750 > 3500  # ten links a road
    assert peak_4x - peak < 128 * 750  # the model names, about 90 measured


# hand-built world-model values that extraction and config loading never
# produce: empty and short footprints, heights that format to a fault or
# only just avoid one, coordinates whose midpoints overflow, chassis poses
# that overflow (the wheel radius plus half the chassis height)
_HEIGHTS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-300, 1e308, 10.0]
_coordinate = st.floats(-1e308, 1e308)
_points = st.lists(st.builds(LocalPoint, _coordinate, _coordinate), max_size=5).map(tuple)
_length = st.floats(0.0, 1e308, exclude_min=True)
_buildings = st.lists(
    st.builds(Building, id=st.integers(), footprint=_points, height=st.sampled_from(_HEIGHTS)),
    max_size=3,
    unique_by=lambda b: b.id,
)
_roads = st.lists(
    st.builds(Road, id=st.integers(), centerline=_points, width=_length),
    max_size=3,
    unique_by=lambda r: r.id,
)
_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([1e308, -1e308, 0.0])
_spawn = st.builds(LocalSpawn, _finite, _finite, _finite)


@st.composite
def _vehicle(draw, name):
    wheelbase, chassis_length = sorted(draw(st.lists(_length, min_size=2, max_size=2, unique=True)))
    return VehicleSpec(
        name=name,
        kind=draw(st.sampled_from(VehicleKind)),
        wheelbase=wheelbase,
        chassis_length=chassis_length,
        track=draw(_length),
        wheel_radius=draw(_length | st.just(1.5e308)),
        chassis_width=draw(_length),
        chassis_height=draw(_length),
        max_steer_angle=draw(st.floats(0.01, 1.5)),
        gps=draw(st.booleans()),
        spawn=draw(_spawn),
    )


@st.composite
def _world_inputs(draw):
    vehicles = [draw(_vehicle(f"car_{i}")) for i in range(draw(st.integers(0, 2)))]
    config = GenerationConfig(
        bbox=BBOX,
        defaults=ExtractionDefaults(road_thickness=draw(_length)),
        vehicles=tuple(vehicles),
    )
    return draw(_buildings), draw(_roads), config


def _emit_inputs(inputs):
    return emit_world(*inputs)


_CLEAN = (
    [_square()], [], _config([VehicleSpec("car", VehicleKind.TWIN, spawn=LocalSpawn(1.0, 2.0, 0.5))])
)
_FAULTY = ([_square(height=5e-324)], [], _config([_overflowing(VehicleKind.TWIN)]))


@given(inputs=_world_inputs())
@example(inputs=_CLEAN)
@example(inputs=_FAULTY)
@settings(max_examples=200, deadline=None)
def test_writer_verdict_matches_the_validator(inputs):
    world = _emit_inputs(inputs)
    assert world.violations == validate_sdf(world.text).violations


def test_writer_verdict_property_reaches_both_outcomes():
    assert _emit_inputs(_CLEAN).violations == ()
    assert _emit_inputs(_FAULTY).violations != ()
    # the strategy itself draws clean and faulty worlds, not only the examples
    find(_world_inputs(), lambda inputs: not _emit_inputs(inputs).violations)
    find(_world_inputs(), lambda inputs: bool(_emit_inputs(inputs).violations))


# the streaming validator against the tree walk it replaced: the same
# (location, message) list, in the same order, for every document
def _verdict(text):
    return [(v.location, v.message) for v in validate_sdf(text).violations]


def _tree_verdict(text):
    return [(v.location, v.message) for v in tree_validate_sdf(text).violations]


_DOC = "<sdf version='1.9'><world name='w'><spherical_coordinates/>{}</world></sdf>"


def _in_model(body, name="m"):
    return _DOC.format(f"<model name='{name}'>{body}</model>")


def _box_sizes(*sizes):
    return _in_model("".join(
        f"<link name='l{i}'><collision name='c'><geometry><box><size>{size}</size></box></geometry>"
        "</collision></link>"
        for i, size in enumerate(sizes)
    ))


def _across_a_slice(tag):
    """A document whose ``tag`` start tag is cut by the first slice boundary."""
    head = _in_model("")[: -len("</model></world></sdf>")]
    padding = "<!--" + "x" * (_SLICE_CHARS - len(head) - len("<!---->") - 3) + "-->"
    text = _in_model(padding + tag)
    start = text.index(tag)
    assert start < _SLICE_CHARS < start + len(tag)
    return text


_XML_FEATURE_CASES = {
    "prefixed root": "<s:sdf xmlns:s='urn:s' version='1.9'><world name='w'/></s:sdf>",
    "default xmlns": "<sdf xmlns='urn:s' version='1.9'><world name='w'/></sdf>",
    "namespaced ancestor": _DOC.format("<m:model xmlns:m='urn:m' name='a'><pose>1</pose></m:model>"),
    "unbound prefix": _DOC.format("<m:model name='a'/>"),
    "undefined entity": _in_model("<pose>&foo;</pose>"),
    "undefined entity, external DOCTYPE": "<!DOCTYPE sdf SYSTEM 'sdf.dtd'>" + _in_model("<pose>&foo;</pose>"),
    "declared external entity": "<!DOCTYPE sdf [<!ENTITY ext SYSTEM 'ext.xml'>]>" + _in_model("<pose>&ext;</pose>"),
    "skipped parameter entity": (
        "<!DOCTYPE sdf SYSTEM 'sdf.dtd' [<!ENTITY % pe SYSTEM 'pe.dtd'> %pe;]>" + _in_model("<pose>1</pose>")
    ),
    "parameter entities in the internal subset": (
        "<!DOCTYPE sdf [<!ENTITY % pe SYSTEM 'pe.dtd'> %pe; %undeclared;]>" + _in_model("<pose>1</pose>")
    ),
    "internal entity in pose": (
        "<!DOCTYPE sdf [<!ENTITY p '1 2 3'>]>" + _in_model("<pose>&p; 4 5 6</pose><pose>&p;</pose>")
    ),
    "internal entity with markup": "<!DOCTYPE sdf [<!ENTITY p '1 2<a/>3'>]>" + _in_model("<pose>&p; 4 5 6</pose>"),
    "character references": _in_model("<pose>1&#32;2 3 4 5 &#x36;</pose><pose>1&#10;2</pose>"),
    "CDATA in size": _box_sizes("<![CDATA[1 2 3]]>", "<![CDATA[0]]> 1", "1<![CDATA[ x]]>"),
    "child inside pose": _in_model(
        "<pose>1 2 3<a/>4 5 6</pose><pose><a/>1 2 3 4 5 6</pose><pose>1 2 3 <a>4 5 6</a></pose>"
    ),
    "comment and PI inside pose": _in_model("<pose>1 2 3<!-- c -->4 5 6</pose><pose>1 2 3 <?p x?> 4 5 6</pose>"),
    "byte order mark": "\ufeff<?xml version='1.0'?>" + _in_model("<pose>1</pose>"),
    "latin-1 declaration": "<?xml version='1.0' encoding='latin-1'?>" + _in_model("<pose>1</pose>", name="café"),
    "empty text": "",
    "whitespace only": "  \n",
    "empty root": "<sdf/>",
    "empty poses": _in_model("<pose/><pose></pose>"),
    "empty box size": _box_sizes(""),
    "nested polylines": _in_model(
        "<polyline><point>0 0</point><polyline><point>0 0</point><height>2</height></polyline>"
        "<height>-1</height><height>5</height></polyline>"
    ),
    "polyline heights": _in_model(
        "<polyline><point/><point/><point/><height>1<a/></height></polyline>"
        "<polyline><point/><point/><point/><height>1 2</height></polyline>"
        "<polyline><point/><point/><point/><height> 3 </height><height>-1</height></polyline>"
        "<polyline><point/><point/><point/><height/></polyline>"
    ),
    "two worlds": (
        "<sdf version='1.9'><world name='a'><model name='x'/><model name='x'/><model/></world>"
        "<world><spherical_coordinates/><model name=''/><pose>x</pose></world></sdf>"
    ),
    "no world": "<sdf version=''><pose>1</pose><size>0</size><box><size>0</size></box></sdf>",
    "nested world and coordinates": _DOC.replace("<spherical_coordinates/>", "").format(
        "<model name='m'><spherical_coordinates/><world name='inner'><model name='m'/></world></model>"
    ),
    "wrong root with faults inside it": "<robot><world><pose>x</pose><model/><model/></world></robot>",
    "polyline root": "<polyline><point/><height>1</height><pose>x</pose></polyline>",
    "pose root": "<pose><a/>x</pose>",
    "box root": "<box><size>0</size></box>",
    "world root": "<world><spherical_coordinates/><model/><model/></world>",
    "tag across a slice boundary": _across_a_slice("<pose>1 2 3</pose>"),
    "fault across a slice boundary": _across_a_slice("<size>0</size>").replace("<size>0</size>", "<box><size>0</size></box>"),
    "lone surrogate": _in_model("<pose>\ud800</pose>"),
    "lone surrogate after malformed XML": "<sdf><world></sdf>" + "x" * (2 * _SLICE_CHARS) + "\udfff",
    "junk after the root": _in_model("") + "<x/>",
    "line ends": _in_model("<pose>1\r\n2 3\r4 5 6</pose><pose>1\r\n2</pose>"),
    "names on any element": _in_model("<link name=''><pose name='p'>x</pose></link><link name='ü'><pose>x</pose></link>"),
    "namespaced name attribute": _in_model("<link xmlns:x='urn:x' x:name='n'><pose>x</pose></link>"),
}


@pytest.mark.parametrize("text", _XML_FEATURE_CASES.values(), ids=_XML_FEATURE_CASES.keys())
def test_validator_matches_the_tree_walk_on_xml_features(text):
    assert _verdict(text) == _tree_verdict(text)


def test_xml_feature_cases_reach_each_kind_of_verdict():
    verdicts = {name: _verdict(text) for name, text in _XML_FEATURE_CASES.items()}
    assert verdicts["empty poses"] == [
        ("/sdf/world[@name='w']/model[@name='m']/pose", "pose must contain 6 finite numbers")
    ] * 2
    assert verdicts["undefined entity, external DOCTYPE"][0][1].startswith("malformed XML: undefined entity &foo;")
    assert verdicts["declared external entity"][0][1].startswith("malformed XML: undefined entity &ext;")
    assert verdicts["prefixed root"] == [("/", "root element is <{urn:s}sdf>, expected <sdf>")]
    assert verdicts["lone surrogate after malformed XML"] == [
        ("/", "malformed XML: lone surrogate U+DFFF is not encodable as UTF-8")
    ]
    assert verdicts["tag across a slice boundary"] != []
    assert verdicts["skipped parameter entity"] != [] and verdicts["skipped parameter entity"][0][0] != "/"
    assert verdicts["parameter entities in the internal subset"] == verdicts["skipped parameter entity"]


_GEOMETRY = "<model name='m'><link name='l'><visual name='v'><geometry>{}</geometry></visual></link></model>"
_AT = "/sdf/world[@name='w']/model[@name='m']/link[@name='l']/visual[@name='v']/geometry"
_SHAPE_AND_POINT_CASES = {
    "box size of 1": ("<box><size>1</size></box>", [("box/size", "size must contain 3 numbers, got 1")]),
    "box size of 4": ("<box><size>1 2 3 4</size></box>", [("box/size", "size must contain 3 numbers, got 4")]),
    "plane size of 4": ("<plane><size>1 2 3 4</size></plane>", [("plane/size", "size must contain 2 numbers, got 4")]),
    "plane size of 3": ("<plane><size>1 2 3</size></plane>", [("plane/size", "size must contain 2 numbers, got 3")]),
    "short and not positive": ("<box><size>0 1</size></box>", [("box/size", "size must contain finite positive numbers")]),
    "good sizes": ("<box><size>1 2 3</size></box><plane><size>1 2</size></plane>", []),
    "bad points": (
        "<polyline><point>nan 0</point><point>1 inf</point><point>x</point><point>1</point>"
        "<point>1 2 3</point><point/><point>-1e308 5e-324</point><height>2</height></polyline>",
        [("polyline/point", "point must contain 2 finite numbers")] * 6,
    ),
    "polyline faults before its points'": (
        "<polyline><point>nan 0</point><height>0</height></polyline><pose>x</pose>",
        [
            ("polyline", "polyline has 1 points, needs >= 3"),
            ("polyline", "non-positive polyline height"),
            ("polyline/point", "point must contain 2 finite numbers"),
            ("pose", "pose must contain 6 finite numbers"),
        ],
    ),
}


@pytest.mark.parametrize("geometry, expected", _SHAPE_AND_POINT_CASES.values(), ids=_SHAPE_AND_POINT_CASES.keys())
def test_box_and_plane_sizes_have_their_arity_and_points_two_finite_numbers(geometry, expected):
    text = _DOC.format(_GEOMETRY.format(geometry))
    assert _verdict(text) == [(f"{_AT}/{where}", message) for where, message in expected]
    assert _tree_verdict(text) == _verdict(text)


_CYLINDER_AND_SPHERE_CASES = {
    "nan radius and negative length": (
        "<cylinder><radius>nan</radius><length>-1</length></cylinder>",
        [
            ("cylinder/radius", "radius must contain finite positive numbers"),
            ("cylinder/length", "length must contain finite positive numbers"),
        ],
    ),
    "cylinder radius of 2": (
        "<cylinder><radius>1 2</radius><length>0.2</length></cylinder>",
        [("cylinder/radius", "radius must contain 1 number, got 2")],
    ),
    "empty length": ("<cylinder><radius>1</radius><length/></cylinder>", [("cylinder/length", "length must contain finite positive numbers")]),
    "zero sphere radius": ("<sphere><radius>0</radius></sphere>", [("sphere/radius", "radius must contain finite positive numbers")]),
    "sphere radius of 2": ("<sphere><radius>2 3</radius></sphere>", [("sphere/radius", "radius must contain 1 number, got 2")]),
    "good dimensions, and a length a sphere has none of": (
        "<cylinder><radius>0.3</radius><length>0.2</length></cylinder><sphere><radius>1e-300</radius><length>x</length></sphere>",
        [],
    ),
}


@pytest.mark.parametrize("geometry, expected", _CYLINDER_AND_SPHERE_CASES.values(), ids=_CYLINDER_AND_SPHERE_CASES.keys())
def test_cylinder_and_sphere_dimensions_are_one_finite_positive_number(geometry, expected):
    text = _DOC.format(_GEOMETRY.format(geometry))
    assert _verdict(text) == [(f"{_AT}/{where}", message) for where, message in expected]
    assert _tree_verdict(text) == _verdict(text)


def test_a_wheel_radius_the_validator_rejects_is_located_at_each_wheel():
    spec = _spec(VehicleKind.GHOST)
    object.__setattr__(spec, "wheel_radius", -0.3)  # a radius the config refuses, past its check
    world = _emit(vehicles=[spec])
    wheels = ("front_left_wheel", "front_right_wheel", "rear_left_wheel", "rear_right_wheel")
    at = "/sdf/world[@name='generated']/model[@name='car']/link[@name='{}']/visual[@name='visual']/geometry/cylinder/radius"
    assert [(v.location, v.message) for v in world.violations] == [
        (at.format(wheel), "radius must contain finite positive numbers") for wheel in wheels
    ]
    assert world.violations == validate_sdf(world.text).violations


_JOINT = "<joint name='j'><axis><limit>{}</limit></axis></joint>"
_PLUGIN = "<plugin name='p' filename='libp.so'>{}</plugin>"
_DRIVE_CASES = {
    "nan lower and an upper of 2": (
        _JOINT.format("<lower>nan</lower><upper>1 2</upper>"),
        [
            ("joint[@name='j']/axis/limit/lower", "lower must contain 1 finite number"),
            ("joint[@name='j']/axis/limit/upper", "upper must contain 1 finite number"),
        ],
    ),
    "empty lower and an infinite upper": (
        _JOINT.format("<lower/><upper>-inf</upper>"),
        [
            ("joint[@name='j']/axis/limit/lower", "lower must contain 1 finite number"),
            ("joint[@name='j']/axis/limit/upper", "upper must contain 1 finite number"),
        ],
    ),
    "zero wheelbase, nan track, negative wheel radius, two steering limits": (
        _PLUGIN.format(
            "<wheelbase>0</wheelbase><track>nan</track><wheel_radius>-0.3</wheel_radius>"
            "<max_steer_angle>0.6 0.7</max_steer_angle>"
        ),
        [
            ("plugin[@name='p']/wheelbase", "wheelbase must contain finite positive numbers"),
            ("plugin[@name='p']/track", "track must contain finite positive numbers"),
            ("plugin[@name='p']/wheel_radius", "wheel_radius must contain finite positive numbers"),
            ("plugin[@name='p']/max_steer_angle", "max_steer_angle must contain 1 number, got 2"),
        ],
    ),
    "a good drive, and bounds and a track outside a limit and a plugin": (
        _JOINT.format("<lower>-1e16</lower><upper>0</upper>")
        + _PLUGIN.format("<wheelbase>2.7</wheelbase><track>1.5</track><wheel_radius>0.3</wheel_radius>"
                         "<max_steer_angle>0.6</max_steer_angle>")
        + "<lower>x</lower><upper/><track>0</track>",
        [],
    ),
}


@pytest.mark.parametrize("body, expected", _DRIVE_CASES.values(), ids=_DRIVE_CASES.keys())
def test_joint_limits_are_one_finite_number_and_drive_dimensions_one_positive_one(body, expected):
    text = _in_model(body)
    at = "/sdf/world[@name='w']/model[@name='m']"
    assert _verdict(text) == [(f"{at}/{where}", message) for where, message in expected]
    assert _tree_verdict(text) == _verdict(text)


def test_a_steering_limit_the_validator_rejects_is_located_at_each_steer_joint_and_the_plugin():
    spec = _spec(VehicleKind.TWIN)
    object.__setattr__(spec, "max_steer_angle", math.nan)  # an angle the config refuses, past its check
    world = _emit(vehicles=[spec])
    model = "/sdf/world[@name='generated']/model[@name='car']"
    want = [
        (f"{model}/joint[@name='{joint}']/axis/limit/{bound}", f"{bound} must contain 1 finite number")
        for joint in ("front_left_steer_joint", "front_right_steer_joint")
        for bound in ("lower", "upper")
    ]
    want.append(
        (f"{model}/plugin[@name='ackermann_drive']/max_steer_angle", "max_steer_angle must contain finite positive numbers")
    )
    assert [(v.location, v.message) for v in world.violations] == want
    assert world.violations == validate_sdf(world.text).violations


def test_points_outside_a_polyline_and_sizes_outside_a_shape_are_not_checked():
    text = _DOC.format(_GEOMETRY.format("<point>x</point><cylinder><size>1</size></cylinder><box><point>x</point></box>"))
    assert _verdict(text) == _tree_verdict(text) == []


# the elements of a generated world that hold numbers and that no rule
# checks: fixed text of the writer's templates, the sun's, the colours',
# a joint axis's and a sensor's, and the spherical coordinates, whose
# degrees come from a bbox the config has checked
_FREE_NUMBER_TAGS = {
    "update_rate",
    "xyz",
    "normal",
    "ambient",
    "diffuse",
    "specular",
    "direction",
    "latitude_deg",
    "longitude_deg",
    "elevation",
    "heading_deg",
}


def test_every_number_a_generated_world_writes_has_a_rule_or_is_named_free():
    # the track world with a twin, a shadow and a ghost, all with GPS and
    # all without: each element whose text is numbers is a _RULES row, the
    # polyline height or one named free, and each name on the free list is
    # written, so that neither a new unruled number nor a stale name passes
    track = load_config((DATA_DIR / "config_track.json").read_text(encoding="utf-8"))
    ruled, free = set(), set()
    for gps in (True, False):
        vehicles = tuple(
            VehicleSpec(kind.value, kind, gps=gps, spawn=LocalSpawn(10.0 * k, 0.0))
            for k, kind in enumerate(VehicleKind)
        )
        config = GenerationConfig(track.bbox, track.defaults, vehicles)
        with open(DATA_DIR / "track.osm", "rb") as osm:
            root = ET.fromstring(_written(generate_world(config, osm)))
        assert {m.get("name") for m in root.iter("model")} >= {"twin", "shadow", "ghost"}
        for parent in root.iter():
            for element in parent:
                if len(element) or not _numbers(element.text or ""):
                    continue
                key = (parent.tag, element.tag)
                if key in _RULES or (None, element.tag) in _RULES or key == ("polyline", "height"):
                    ruled.add(key)
                else:
                    assert element.tag in _FREE_NUMBER_TAGS, f"<{element.tag}> in <{parent.tag}> has no rule"
                    free.add(element.tag)
    assert free == _FREE_NUMBER_TAGS
    assert ("polyline", "height") in ruled and ("plugin", "wheelbase") in ruled and ("limit", "lower") in ruled


@functools.cache
def _track_world_lines():
    config = load_config((DATA_DIR / "config_track.json").read_text(encoding="utf-8"))
    with open(DATA_DIR / "track.osm", "rb") as osm:
        return tuple(_written(generate_world(config, osm)).splitlines())


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")
_NOT_A_NUMBER = ["nan", "inf", "-inf", "1e999", "0", "-1", "x", "1,5", "0x1", ""]
# the lines whose numbers the validator checks: the table's elements and <height>
_CHECKED = (*(f"<{tag}>" for _, tag in _RULES), "<height>")


class _MutatedWorld(str):
    """A mutated world's text, shown by its edits: the text is too long to print."""

    edits: list[str]

    def __repr__(self):
        return f"<track world, {'; '.join(self.edits)}>"


@st.composite
def _mutated_track_world(draw):
    """The track world with a few lines deleted, duplicated or truncated, a
    number made non-finite or non-numeric, or a stray ``&x;`` or ``<a/>``."""
    lines = list(_track_world_lines())
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        # most of the other kinds make the XML malformed, so numbers come up most
        kind = draw(st.sampled_from(["delete", "duplicate", "truncate", "entity", "element"] + ["number"] * 8))
        if kind == "number":
            numbered = [j for j, line in enumerate(lines) if line.startswith(_CHECKED) and _NUMBER.search(line)]
            i = draw(st.sampled_from(numbered))
            number = draw(st.sampled_from(list(_NUMBER.finditer(lines[i]))))
            replacement = draw(st.sampled_from(_NOT_A_NUMBER))
            lines[i] = lines[i][: number.start()] + replacement + lines[i][number.end() :]
        else:
            i = draw(st.integers(0, len(lines) - 1))
            if kind == "delete":
                del lines[i]
            elif kind == "duplicate":
                lines.insert(i, lines[i])
            elif kind == "truncate":
                lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
            else:
                at = draw(st.integers(0, len(lines[i])))
                lines[i] = lines[i][:at] + ("&x;" if kind == "entity" else "<a/>") + lines[i][at:]
        edits.append(f"{kind} line {i + 1}" + ("" if kind == "delete" else f", now {lines[i]!r}"))
    world = _MutatedWorld("\n".join(lines) + "\n")
    world.edits = edits
    return world


@given(text=_mutated_track_world())
@settings(max_examples=300, deadline=None)
def test_validator_matches_the_tree_walk_on_mutated_worlds(text):
    assert _verdict(text) == _tree_verdict(text)


def test_mutated_worlds_reach_located_violations_and_malformed_xml():
    assert _verdict("\n".join(_track_world_lines())) == []
    find(_mutated_track_world(), lambda text: any(loc != "/" for loc, _ in _verdict(text)))
    find(_mutated_track_world(), lambda text: any(loc == "/" for loc, _ in _verdict(text)))
    find(_mutated_track_world(), lambda text: len({loc for loc, _ in _verdict(text)}) >= 2)


_TREE_TAGS = [
    "sdf", "world", "model", "spherical_coordinates", "polyline", "point", "height", "pose", "size", "box", "plane", "a",
    "cylinder", "sphere", "radius", "length",
]
_TREE_TEXTS = ["", "1", "0", "-1", "x", "1 2 3 4 5 6"]


@st.composite
def _tree(draw, depth=4):
    """An element of the validator's tags at any place, the root included,
    with a name or not, text before its first child and after it."""
    tag = draw(st.sampled_from(_TREE_TAGS))
    attrs = draw(st.sampled_from(["", " name='a'", " name='b'", " name=''", " version='1.9'"]))
    children = draw(st.lists(_tree(depth - 1), max_size=3)) if depth else []
    texts = (draw(st.sampled_from(_TREE_TEXTS)) for _ in range(2))
    return f"<{tag}{attrs}>{next(texts)}{''.join(children)}{next(texts) if children else ''}</{tag}>"


@given(text=_tree())
@example(text="<polyline><point/><height>1</height></polyline>")
@settings(max_examples=300, deadline=None)
def test_validator_matches_the_tree_walk_on_trees_of_its_tags(text):
    assert _verdict(text) == _tree_verdict(text)


def test_trees_of_its_tags_reach_located_violations_and_any_root():
    find(_tree(), lambda text: any(loc != "/" for loc, _ in _verdict(text)))
    find(_tree(), lambda text: text.startswith("<polyline") and "<point" in text and "<height" in text)


def _city_block_world(blocks):
    """A generated world of ``blocks`` square buildings on a grid, as text."""
    nodes, ways = [], []
    for b in range(blocks):
        lat, lon = 48.001 + (b // 100) * 0.0002, 8.001 + (b % 100) * 0.0002
        corners = [(lat, lon), (lat, lon + 0.0001), (lat + 0.0001, lon + 0.0001), (lat + 0.0001, lon)]
        ids = [4 * b + k + 1 for k in range(4)]
        nodes += [f"<node id='{i}' lat='{la:.7f}' lon='{lo:.7f}'/>" for i, (la, lo) in zip(ids, corners)]
        refs = "".join(f"<nd ref='{i}'/>" for i in ids + ids[:1])
        ways.append(f"<way id='{b + 1}'>{refs}<tag k='building' v='yes'/></way>")
    osm = f"<osm version='0.6'>{''.join(nodes)}{''.join(ways)}</osm>"
    config = GenerationConfig(bbox=BoundingBox(48.0, 8.0, 48.1, 8.1))
    return _written(generate_world(config, io.BytesIO(osm.encode())))


def test_validate_sdf_holds_no_tree_of_the_text():
    text = _city_block_world(3000)
    assert len(text) >= 2_000_000
    tracemalloc.start()
    try:
        report = validate_sdf(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    # a tree of the text takes several times its length; the path, the
    # model names and the slice being parsed take a small part of it
    assert peak < len(text) / 4
