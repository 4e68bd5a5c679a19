import io
import math
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import count_distinct

from dtgen import world_model
from dtgen.config import ExtractionDefaults
from dtgen.geodesy import BoundingBox, GeoOrigin, LocalPoint, origin_of
from dtgen.osm import filter_bbox, parse_osm
from dtgen.world_model import (
    DRIVABLE_HIGHWAY_VALUES,
    Building,
    Road,
    _has_three_distinct,
    estimate_height,
    extract_buildings,
    extract_roads,
)

BBOX = BoundingBox(48.0, 8.0, 48.02, 8.03)
DEFAULTS = ExtractionDefaults()


def _parse(text):
    return parse_osm(io.BytesIO(text.encode("utf-8")))


def _load(data_dir, name):
    doc = filter_bbox(parse_osm(io.BytesIO((data_dir / name).read_bytes())), BBOX)
    return doc, origin_of(BBOX)


class TestEstimateHeight:
    def test_height_tag_wins(self):
        assert estimate_height({"height": "12.5"}, DEFAULTS) == 12.5

    def test_height_with_meter_suffix(self):
        assert estimate_height({"height": "8 m"}, DEFAULTS) == 8.0

    def test_levels_times_meters_per_level(self):
        assert estimate_height({"building:levels": "3"}, DEFAULTS) == 9.0

    def test_unparseable_height_falls_through_to_levels(self):
        assert estimate_height({"height": "tall", "building:levels": "2"}, DEFAULTS) == 6.0

    def test_unparseable_everything_falls_back_to_default(self):
        assert estimate_height({"height": "tall"}, DEFAULTS) == 10.0

    def test_no_tags_gives_default(self):
        assert estimate_height({}, DEFAULTS) == 10.0

    def test_negative_height_falls_through(self):
        assert estimate_height({"height": "-4"}, DEFAULTS) == 10.0

    def test_custom_meters_per_level(self):
        defaults = ExtractionDefaults(meters_per_level=2.5)
        assert estimate_height({"building:levels": "4"}, defaults) == 10.0

    @pytest.mark.parametrize("tags", [{"height": "1_2"}, {"height": "\uff12 m"}, {"building:levels": "٣"}])
    def test_a_number_not_in_ascii_decimal_falls_back_to_default(self, tags):
        assert estimate_height(tags, DEFAULTS) == 10.0

    def test_levels_height_that_overflows_falls_back_to_default(self):
        # 1e308 levels x 3 m is inf, which no polyline height may be
        assert estimate_height({"building:levels": "1e308"}, DEFAULTS) == 10.0

    def test_levels_height_that_underflows_falls_back_to_default(self):
        defaults = ExtractionDefaults(meters_per_level=0.1)
        assert estimate_height({"building:levels": "5e-324"}, defaults) == 10.0

    def test_huge_levels_that_stay_finite_are_kept(self):
        assert estimate_height({"building:levels": "1e307"}, DEFAULTS) == 3e307


class TestExtractionDefaults:
    def test_documented_defaults(self):
        assert DEFAULTS.default_building_height == 10.0
        assert DEFAULTS.meters_per_level == 3.0
        assert DEFAULTS.road_width == 7.0
        assert DEFAULTS.road_thickness == 0.1

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ExtractionDefaults(road_width=0.0)
        with pytest.raises(ValueError):
            ExtractionDefaults(default_building_height=-1.0)


class TestExtractBuildings:
    def test_fixture_counts_and_warnings(self, data_dir):
        # hand count for buildings_only.osm: ways 101..103 qualify; 104 is
        # not closed and 105 references a missing node
        doc, origin = _load(data_dir, "buildings_only.osm")
        buildings, warnings = extract_buildings(doc, origin, DEFAULTS)
        assert [b.id for b in buildings] == [101, 102, 103]
        assert len(warnings) == 2

    def test_heights_follow_tag_rules(self, data_dir):
        doc, origin = _load(data_dir, "buildings_only.osm")
        buildings, _ = extract_buildings(doc, origin, DEFAULTS)
        by_id = {b.id: b for b in buildings}
        assert by_id[101].height == 12.5
        assert by_id[102].height == 9.0
        assert by_id[103].height == 10.0

    def test_footprint_drops_closing_vertex(self, data_dir):
        doc, origin = _load(data_dir, "buildings_only.osm")
        buildings, _ = extract_buildings(doc, origin, DEFAULTS)
        square = next(b for b in buildings if b.id == 101)
        assert len(square.footprint) == 4
        first, last = square.footprint[0], square.footprint[-1]
        assert math.hypot(first.x - last.x, first.y - last.y) > 1e-6

    def test_name_label_carried(self, data_dir):
        doc, origin = _load(data_dir, "buildings_only.osm")
        buildings, _ = extract_buildings(doc, origin, DEFAULTS)
        assert next(b for b in buildings if b.id == 101).name == "Depot"

    def test_building_no_is_excluded(self, data_dir):
        doc, origin = _load(data_dir, "buildings_only.osm")
        buildings, _ = extract_buildings(doc, origin, DEFAULTS)
        assert 106 not in [b.id for b in buildings]

    def test_degenerate_ring_skipped(self):
        xml = """<osm>
          <node id="1" lat="48.0" lon="8.0"/>
          <node id="2" lat="48.0" lon="8.0"/>
          <node id="3" lat="48.0" lon="8.0"/>
          <way id="9"><nd ref="1"/><nd ref="2"/><nd ref="3"/><nd ref="1"/>
            <tag k="building" v="yes"/></way>
        </osm>"""
        doc = _parse(xml)
        buildings, warnings = extract_buildings(doc, GeoOrigin(48.0, 8.0), DEFAULTS)
        assert buildings == []
        assert any("distinct" in w for w in warnings)

    def test_long_ring_makes_linear_separation_checks(self, monkeypatch):
        n = 20_000
        nodes = "".join(
            f'<node id="{i + 1}" lat="{48.0 + 9e-4 * math.sin(2 * math.pi * i / n):.9f}"'
            f' lon="{8.0 + 1.3e-3 * math.cos(2 * math.pi * i / n):.9f}"/>'
            for i in range(n)
        )
        refs = "".join(f'<nd ref="{i + 1}"/>' for i in [*range(n), 0])
        doc = _parse(f'<osm>{nodes}<way id="9">{refs}<tag k="building" v="yes"/></way></osm>')
        calls = 0
        separated = world_model._separated

        def counted(*coordinates):
            nonlocal calls
            calls += 1
            return separated(*coordinates)

        monkeypatch.setattr(world_model, "_separated", counted)
        buildings, warnings = extract_buildings(doc, GeoOrigin(48.0, 8.0), DEFAULTS)
        assert [len(b.footprint) for b in buildings] == [n]
        assert warnings == []
        assert calls <= 3 * n

    def test_output_sorted_by_way_id(self, data_dir):
        doc, origin = _load(data_dir, "mixed.osm")
        buildings, _ = extract_buildings(doc, origin, DEFAULTS)
        ids = [b.id for b in buildings]
        assert ids == sorted(ids)


_coords = st.floats(-50.0, 50.0)
_jitter = st.floats(-2e-6, 2e-6)  # straddles the 1e-6 m vertex separation


@st.composite
def _collinear_rings(draw):
    x0, y0, dx, dy = (draw(_coords) for _ in range(4))
    steps = draw(st.lists(st.floats(-2.0, 2.0), max_size=12))
    return [LocalPoint(x0 + t * dx, y0 + t * dy) for t in steps]


@st.composite
def _near_duplicate_rings(draw):
    bases = draw(st.lists(st.tuples(_coords, _coords), min_size=1, max_size=3))
    picks = draw(st.lists(st.sampled_from(bases), max_size=12))
    return [LocalPoint(x + draw(_jitter), y + draw(_jitter)) for x, y in picks]


@given(
    st.one_of(
        st.lists(st.builds(LocalPoint, _coords, _coords), max_size=12),
        _collinear_rings(),
        _near_duplicate_rings(),
    )
)
def test_three_distinct_predicate_matches_the_full_count(ring):
    xs, ys = [p.x for p in ring], [p.y for p in ring]
    assert _has_three_distinct(xs, ys) == (count_distinct(ring) >= 3)


class TestExtractRoads:
    def test_fixture_counts(self, data_dir):
        # hand count for roads_only.osm: 201, 202, 204, 206 are drivable and
        # resolvable; 203 is a footway; 205 references a missing node
        doc, origin = _load(data_dir, "roads_only.osm")
        roads, warnings = extract_roads(doc, origin, DEFAULTS)
        assert [r.id for r in roads] == [201, 202, 204, 206]
        assert len(warnings) == 1

    def test_three_node_residential(self, data_dir):
        doc, origin = _load(data_dir, "roads_only.osm")
        roads, _ = extract_roads(doc, origin, DEFAULTS)
        service = next(r for r in roads if r.id == 202)
        assert len(service.centerline) == 3
        assert service.width == 7.0

    def test_every_road_has_the_fixed_width(self, data_dir):
        defaults = ExtractionDefaults(road_width=5.5)
        doc, origin = _load(data_dir, "roads_only.osm")
        roads, _ = extract_roads(doc, origin, defaults)
        assert roads
        assert all(r.width == 5.5 for r in roads)

    def test_consecutive_duplicate_refs_collapse(self, data_dir):
        doc, origin = _load(data_dir, "roads_only.osm")
        roads, _ = extract_roads(doc, origin, DEFAULTS)
        collapsed = next(r for r in roads if r.id == 204)
        assert len(collapsed.centerline) == 2

    def test_footway_not_drivable(self):
        assert "footway" not in DRIVABLE_HIGHWAY_VALUES
        assert "residential" in DRIVABLE_HIGHWAY_VALUES
        assert "motorway_link" in DRIVABLE_HIGHWAY_VALUES

    def test_single_point_way_skipped(self):
        xml = """<osm>
          <node id="1" lat="48.0" lon="8.0"/>
          <node id="2" lat="48.0" lon="8.0"/>
          <way id="9"><nd ref="1"/><nd ref="2"/><tag k="highway" v="residential"/></way>
        </osm>"""
        doc = _parse(xml)
        roads, warnings = extract_roads(doc, GeoOrigin(48.0, 8.0), DEFAULTS)
        assert roads == []
        assert any("shorter than 2" in w for w in warnings)

    def test_road_grid_projects_each_node_once(self, monkeypatch):
        # three east-west and three north-south roads meet at nine junctions
        n = 3
        grid = [[1000 + 10 * r + c for c in range(n)] for r in range(n)]
        nodes = "".join(
            f'<node id="{grid[r][c]}" lat="{48.0 + 1e-3 * r}" lon="{8.0 + 1e-3 * c}"/>'
            for r in range(n) for c in range(n)
        )
        lines = grid + [list(column) for column in zip(*grid)]
        ways = "".join(
            f'<way id="{w + 1}">' + "".join(f'<nd ref="{ref}"/>' for ref in refs)
            + '<tag k="highway" v="residential"/></way>'
            for w, refs in enumerate(lines)
        )
        doc = _parse(f"<osm>{nodes}{ways}</osm>")
        calls = []
        project = world_model.project

        def counted(origin, lat, lon):
            calls.append((lat, lon))
            return project(origin, lat, lon)

        monkeypatch.setattr(world_model, "project", counted)
        roads, warnings = extract_roads(doc, GeoOrigin(48.001, 8.001), DEFAULTS)
        assert warnings == []
        assert len(roads) == 2 * n
        assert len(calls) == len(set(calls)) == n * n
        centerlines = {road.id: road.centerline for road in roads}
        for r in range(n):
            for c in range(n):
                assert centerlines[r + 1][c] == centerlines[n + c + 1][r]

    def test_extraction_deterministic(self, data_dir):
        doc, origin = _load(data_dir, "mixed.osm")
        first = extract_roads(doc, origin, DEFAULTS)
        second = extract_roads(doc, origin, DEFAULTS)
        assert first == second


def test_all_geometry_within_projected_bbox_bound(data_dir):
    # whole-way retention can overreach the bbox, but fixture content is
    # fully inside, so everything must project within the bbox rectangle
    from dtgen.geodesy import project

    doc, origin = _load(data_dir, "track.osm")
    low = project(origin, BBOX.min_lat, BBOX.min_lon)
    high = project(origin, BBOX.max_lat, BBOX.max_lon)
    buildings, _ = extract_buildings(doc, origin, DEFAULTS)
    roads, _ = extract_roads(doc, origin, DEFAULTS)
    points = [p for b in buildings for p in b.footprint]
    points += [p for r in roads for p in r.centerline]
    assert points
    for p in points:
        assert low.x <= p.x <= high.x
        assert low.y <= p.y <= high.y


@pytest.mark.parametrize("make, field", [(Building, "footprint"), (Road, "centerline")])
def test_given_points_are_read_once_into_columns(make, field):
    points = (LocalPoint(0.0, 0.0), LocalPoint(20.0, 0.5), LocalPoint(-0.0, 30.0))
    model = make(7, points, 10.0)
    held = getattr(model, field)
    assert held.columns == (array("d", [0, 20, -0.0]), array("d", [0, 0.5, 30]))
    assert held == points and points == held and held[1] == LocalPoint(20, 0.5)
    assert (len(held), hash(held), repr(held)) == (len(points), hash(points), repr(points))
    assert getattr(make(7, held, 10.0), field) is held
    assert make(7, list(points), 10.0) == model
    ints = (LocalPoint(0, 0), LocalPoint(20, 0.5), LocalPoint(0, 30))
    assert make(7, ints, 10.0) == model  # read as floats
    with pytest.raises(TypeError):
        held[0] = LocalPoint(1, 1)


@pytest.mark.parametrize("make", [Building, Road])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "10**400"])
def test_given_points_that_are_not_finite_are_refused(make, bad):
    # a point with other x and y than a LocalPoint's, which refuses these itself
    class Point:
        def __init__(self, x, y):
            self.x, self.y = x, y

    points = [Point(0.0, 0.0), Point(20.0, bad), Point(0.0, 30.0)]
    with pytest.raises(ValueError, match="^local coordinates must be finite$"):
        make(7, points, 10.0)


def test_extracted_points_are_columns_of_the_projected_numbers(data_dir):
    doc, origin = _load(data_dir, "mixed.osm")
    buildings, _ = extract_buildings(doc, origin, DEFAULTS)
    roads, _ = extract_roads(doc, origin, DEFAULTS)
    for points in [b.footprint for b in buildings] + [r.centerline for r in roads]:
        xs, ys = points.columns
        assert list(points) == [LocalPoint(x, y) for x, y in zip(xs, ys)]
        assert (xs.typecode, ys.typecode) == ("d", "d")
