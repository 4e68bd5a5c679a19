import math
import random

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from dtgen.geodesy import (
    EARTH_RADIUS_M,
    BoundingBox,
    GeoOrigin,
    LocalPoint,
    _projected_bounds,
    is_ascii_number,
    origin_of,
    project,
    unproject,
)
from oracles import one_turn_project


def degrees_apart(lon_a, lon_b):
    """Angle between two meridians, in [0, 180] degrees: -180 and 180 are
    one meridian."""
    d = abs(lon_a - lon_b) % 360.0
    return min(d, 360.0 - d)


def haversine_m(lat1, lon1, lat2, lon2, radius=EARTH_RADIUS_M):
    """Great-circle distance oracle on the same reference sphere."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * radius * math.asin(math.sqrt(a))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "10**400"])
@pytest.mark.parametrize(
    ("build", "message"),
    [
        (lambda v: BoundingBox(v, 0, 1, 1), "bounding box coordinates must be finite numbers"),
        (lambda v: BoundingBox(0, 0, 1, v), "bounding box coordinates must be finite numbers"),
        (lambda v: GeoOrigin(v, 0), "origin coordinates must be finite"),
        (lambda v: GeoOrigin(0, v), "origin coordinates must be finite"),
        (lambda v: LocalPoint(v, 0), "local coordinates must be finite"),
        (lambda v: LocalPoint(0, v), "local coordinates must be finite"),
    ],
    ids=["BoundingBox-min_lat", "BoundingBox-max_lon", "GeoOrigin-lat0", "GeoOrigin-lon0",
         "LocalPoint-x", "LocalPoint-y"],
)
def test_constructor_refuses_a_number_that_is_not_finite(build, message, value):
    # 10**400 is an int no float holds: refused by comparison, never converted
    with pytest.raises(ValueError) as exc:
        build(value)
    assert str(exc.value) == message


class TestOriginOf:
    def test_center_of_simple_box(self):
        origin = origin_of(BoundingBox(0.0, 0.0, 2.0, 4.0))
        assert origin == GeoOrigin(1.0, 2.0)

    def test_center_of_map_box(self):
        origin = origin_of(BoundingBox(48.0, 8.0, 48.1, 8.2))
        assert origin.lat0 == pytest.approx(48.05, abs=1e-12)
        assert origin.lon0 == pytest.approx(8.1, abs=1e-12)

    def test_rejects_near_pole(self):
        with pytest.raises(ValueError):
            origin_of(BoundingBox(89.0, 0.0, 89.9, 1.0))


class TestProject:
    def test_origin_maps_to_zero(self):
        origin = GeoOrigin(48.05, 8.1)
        assert project(origin, 48.05, 8.1) == LocalPoint(0.0, 0.0)

    def test_one_millidegree_north_at_equator(self):
        origin = GeoOrigin(0.0, 0.0)
        p = project(origin, 0.001, 0.0)
        assert p.x == 0.0
        assert p.y == pytest.approx(111.3194, abs=1e-3)
        # cross-check against the great-circle oracle
        assert p.y == pytest.approx(haversine_m(0.0, 0.0, 0.001, 0.0), rel=1e-9)

    def test_one_millidegree_east_at_60_north(self):
        origin = GeoOrigin(60.0, 0.0)
        p = project(origin, 60.0, 0.001)
        assert p.y == 0.0
        assert p.x == pytest.approx(55.6597, abs=1e-3)
        assert p.x == pytest.approx(haversine_m(60.0, 0.0, 60.0, 0.001), rel=1e-5)

    def test_rejects_non_finite(self):
        origin = GeoOrigin(0.0, 0.0)
        with pytest.raises(ValueError):
            project(origin, math.nan, 0.0)
        with pytest.raises(ValueError):
            project(origin, 0.0, math.inf)

    @pytest.mark.parametrize(("lat", "lon"), [(10**400, 0), (0, -(10**400))])
    def test_rejects_an_int_no_float_holds_with_its_own_error(self, lat, lon):
        # compared, never converted: no OverflowError
        with pytest.raises(ValueError, match="^latitude and longitude must be finite$"):
            project(GeoOrigin(48, 8), lat, lon)


class TestUnproject:
    def test_zero_maps_to_origin(self):
        origin = GeoOrigin(48.05, 8.1)
        assert unproject(origin, LocalPoint(0.0, 0.0)) == (48.05, 8.1)

    def test_inverts_the_northward_example(self):
        origin = GeoOrigin(0.0, 0.0)
        lat, lon = unproject(origin, LocalPoint(0.0, 111.3194))
        assert lat == pytest.approx(0.001, abs=1e-8)
        assert lon == 0.0

    def test_round_trip_within_tenth_degree(self):
        origin = GeoOrigin(48.0, 8.0)
        rng = random.Random(7)
        for _ in range(200):
            lat = 48.0 + rng.uniform(-0.1, 0.1)
            lon = 8.0 + rng.uniform(-0.1, 0.1)
            p = project(origin, lat, lon)
            lat2, lon2 = unproject(origin, p)
            assert abs(lat2 - lat) < 1e-9
            assert abs(lon2 - lon) < 1e-9


_finite = {"allow_nan": False, "allow_infinity": False}


@given(
    lat0=st.floats(-89.0, 89.0, exclude_min=True, exclude_max=True, **_finite),
    lon0=st.floats(-180.0, 180.0, **_finite),
    lat=st.floats(-90.0, 90.0, **_finite),
    lon=st.floats(-180.0, 180.0, **_finite),
)
def test_unproject_inverts_project_everywhere(lat0, lon0, lat, lon):
    origin = GeoOrigin(lat0, lon0)
    lat2, lon2 = unproject(origin, project(origin, lat, lon))
    assert abs(lat2 - lat) < 1e-9
    assert -180 <= lon2 <= 180
    assert degrees_apart(lon2, lon) < 1e-9


_near_seam = st.floats(175.0, 180.0, **_finite)


@given(
    lat0=st.floats(-60.0, 60.0, **_finite),
    lon0=_near_seam,
    lon=_near_seam,
    lat=st.floats(-60.0, 60.0, **_finite),
    east=st.booleans(),
    across=st.booleans(),
)
def test_round_trip_across_the_antimeridian(lat0, lon0, lat, lon, east, across):
    # origin and point within 5 degrees of the antimeridian, on the same
    # side of it or on opposite sides
    lon0 = lon0 if east else -lon0
    lon = math.copysign(lon, -lon0 if across else lon0)
    origin = GeoOrigin(lat0, lon0)
    point = project(origin, lat, lon)
    short = (lon - lon0 + 180.0) % 360.0 - 180.0  # the difference the short way round
    expected_x = EARTH_RADIUS_M * math.radians(short) * math.cos(math.radians(lat0))
    assert point.x == pytest.approx(expected_x, rel=1e-9, abs=1e-6)
    lat2, lon2 = unproject(origin, point)
    assert abs(lat2 - lat) < 1e-9
    assert -180 <= lon2 <= 180
    assert degrees_apart(lon2, lon) < 1e-9


@given(
    lat0=st.floats(-88.0, 88.0, **_finite),
    lon0=st.floats(-180.0, 180.0, **_finite),
    dlon=st.floats(-180.0, 180.0, **_finite),
)
def test_a_short_longitude_difference_keeps_its_bits(lat0, lon0, dlon):
    # the wrap leaves every difference of at most 180 degrees as it was,
    # so worlds away from the antimeridian keep their bytes
    lon = lon0 + dlon
    assume(abs(lon - lon0) <= 180.0)
    x = EARTH_RADIUS_M * math.radians(lon - lon0) * math.cos(math.radians(lat0))
    assert project(GeoOrigin(lat0, lon0), lat0, lon).x == x


@given(
    lat0=st.floats(-89.0, 89.0, exclude_min=True, exclude_max=True, **_finite),
    lon0=st.floats(-180.0, 180.0, exclude_min=True, exclude_max=True, **_finite),
    lat=st.floats(-90.0, 90.0, **_finite),
    lon=st.floats(-180.0, 180.0, **_finite),
)
@example(lat0=0.0, lon0=179.5, lat=0.0, lon=-180.0)
@example(lat0=0.0, lon0=-179.5, lat=0.0, lon=180.0)
@example(lat0=0.0, lon0=math.nextafter(180.0, 0.0), lat=0.0, lon=-180.0)
@example(lat0=0.0, lon0=0.0, lat=0.0, lon=180.0)
@example(lat0=0.0, lon0=0.0, lat=-0.0, lon=-0.0)
def test_remainder_wrap_keeps_the_one_turn_wrap_bits(lat0, lon0, lat, lon):
    # from an origin inside (-180, 180) every longitude difference rounds
    # into [-360, 360], where math.remainder is exact and agrees with one
    # conditional turn bit for bit, down to the sign of a zero
    origin = GeoOrigin(lat0, lon0)
    got, expected = project(origin, lat, lon), one_turn_project(origin, lat, lon)
    if lon - lon0 == -360.0:
        # the origin's own meridian named across the seam, reachable only from
        # an origin within half an ulp of 180: -0.0 against the turn's 0.0,
        # which compare equal and which dtgen.sdf.fmt writes alike
        assert (got.x, repr(got.y)) == (expected.x, repr(expected.y)) == (0.0, repr(got.y))
    else:
        assert (repr(got.x), repr(got.y)) == (repr(expected.x), repr(expected.y))


@given(
    lon0=st.floats(-180.0, 180.0, **_finite),
    lon=st.floats(-180.0, 180.0, **_finite),
    turns=st.integers(-6, 6),
)
@example(lon0=0.0, lon=180.0, turns=2)  # 900 degrees east of (0, 0)
def test_unproject_wraps_a_point_several_turns_away(lon0, lon, turns):
    origin = GeoOrigin(0.0, lon0)
    east = lon - lon0 + 360.0 * turns
    point = LocalPoint(EARTH_RADIUS_M * math.radians(east), 0.0)
    lat2, lon2 = unproject(origin, point)
    assert -180.0 <= lon2 <= 180.0
    assert degrees_apart(lon2, lon) < 1e-9


def test_point_just_across_the_antimeridian_lands_next_to_the_origin():
    # 0.51 degrees east of the origin, the short way; it used to land
    # 359.49 degrees west, 40,018 km away
    origin = GeoOrigin(0.0, 179.5)
    assert project(origin, 0.0, -179.99).x == pytest.approx(56_772.9, abs=0.1)
    assert unproject(origin, LocalPoint(56_772.9, 0.0))[1] == pytest.approx(-179.99, abs=1e-5)


@given(
    lats=st.lists(st.floats(-88.9, 88.9), min_size=2, max_size=2, unique=True),
    lons=st.lists(st.floats(-180, 180), min_size=2, max_size=2, unique=True),
)
def test_projected_bounds_are_the_least_and_greatest_of_the_four_corners(lats, lons):
    # what the spawn check and the ground plane take of the bbox: a bound
    # that the projection of a corner lies past would misplace either
    bbox = BoundingBox(min(lats), min(lons), max(lats), max(lons))
    origin = origin_of(bbox)
    corners = [project(origin, lat, lon) for lat in lats for lon in lons]
    low, high = _projected_bounds(origin, bbox)
    assert (low.x, low.y) == (min(p.x for p in corners), min(p.y for p in corners))
    assert (high.x, high.y) == (max(p.x for p in corners), max(p.y for p in corners))


def test_projection_is_affine_in_lat_lon():
    origin = GeoOrigin(48.0, 8.0)
    rng = random.Random(11)
    for _ in range(100):
        lat_a, lat_b = (48.0 + rng.uniform(-0.1, 0.1) for _ in range(2))
        lon_a, lon_b = (8.0 + rng.uniform(-0.1, 0.1) for _ in range(2))
        mid = project(origin, (lat_a + lat_b) / 2, (lon_a + lon_b) / 2)
        pa = project(origin, lat_a, lon_a)
        pb = project(origin, lat_b, lon_b)
        assert mid.x == pytest.approx((pa.x + pb.x) / 2, abs=1e-9)
        assert mid.y == pytest.approx((pa.y + pb.y) / 2, abs=1e-9)


def test_planar_distance_matches_haversine_within_half_percent():
    rng = random.Random(42)
    for _ in range(300):
        lat0 = rng.uniform(-70.0, 70.0)
        lon0 = rng.uniform(-180.0, 180.0)
        origin = GeoOrigin(lat0, lon0)
        # two points within ~2.5 km of the origin -> pair under 5 km apart
        scale_lat = 0.0225
        scale_lon = 0.0225 / math.cos(math.radians(lat0))
        lat1, lat2 = (lat0 + rng.uniform(-scale_lat, scale_lat) for _ in range(2))
        lon1, lon2 = (lon0 + rng.uniform(-scale_lon, scale_lon) for _ in range(2))
        truth = haversine_m(lat1, lon1, lat2, lon2)
        if truth < 1.0:
            continue
        p1 = project(origin, lat1, lon1)
        p2 = project(origin, lat2, lon2)
        planar = math.hypot(p2.x - p1.x, p2.y - p1.y)
        assert abs(planar - truth) / truth < 0.005


@pytest.mark.parametrize("text, ascii_number", [
    ("123", True),
    (" -48.25e1 ", True),
    ("nan", True),  # a number to float; the range checks refuse it
    ("", True),  # and int and float refuse this
    ("1_000", False),
    ("4_8.0", False),
    ("\uff12", False),  # fullwidth 2
    ("\u0663", False),  # Arabic-Indic 3
    ("\u00a07", False),  # no-break space
])
def test_a_number_is_ascii_without_underscores(text, ascii_number):
    assert is_ascii_number(text) is ascii_number
