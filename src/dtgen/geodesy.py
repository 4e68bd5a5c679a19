"""Conversion between WGS84 geodetic coordinates and a local metric frame.

Equirectangular tangent-plane projection anchored at the world origin:
x grows east, y grows north, both in meters. Good to well under 0.5% over
a few kilometers at moderate latitudes, and exactly invertible, which is
all a flat low-fidelity world needs. The same origin is written into the
emitted world's spherical-coordinates element so GPS replay stays
consistent with the generated geometry. The coordinate range, the
bounding box, the rule for a number's text and the column-backed sequence
that the map, the world model and the replay share live here too.
"""

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field

EARTH_RADIUS_M = 6378137.0  # WGS84 equatorial radius
MAX_ORIGIN_LAT_DEG = 89.0
# a number is finite when abs(v) <= _FLOAT_MAX: unlike math.isfinite, the
# comparison never converts an int, so one no float holds is refused, not
# an OverflowError, and it costs what math.isfinite does
_FLOAT_MAX = sys.float_info.max


def is_ascii_number(text: str) -> bool:
    """Whether ``text``, the text of a map or CSV number, is ASCII with no
    ``_``. ``int`` and ``float`` also read ``_`` between digits and any
    Unicode digit, as in ``"1_000"`` or a fullwidth ``"\uff12"``; a number
    must pass this before either reads it. Surrounding ASCII whitespace is
    left to them, which skip it."""
    return text.isascii() and "_" not in text


def _is_number(value) -> bool:
    """Whether ``value`` is an ``int`` or a ``float`` and not a ``bool``,
    which ``isinstance`` takes for an ``int``: every numeric field refuses
    ``True`` as the config refuses ``true``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def lat_lon_in_range(lat: float, lon: float) -> bool:
    """Whether ``lat`` lies in [-90, 90] and ``lon`` in [-180, 180] degrees,
    bounds included; NaN lies in neither."""
    return -90 <= lat <= 90 and -180 <= lon <= 180


@dataclass(frozen=True)
class BoundingBox:
    """Geographic selection rectangle in WGS84 degrees."""

    min_lat: float
    min_lon: float
    max_lat: float
    max_lon: float

    def __post_init__(self):
        values = (self.min_lat, self.min_lon, self.max_lat, self.max_lon)
        if not all(_is_number(v) and abs(v) <= _FLOAT_MAX for v in values):
            raise ValueError("bounding box coordinates must be finite numbers")
        if not (
            lat_lon_in_range(self.min_lat, self.min_lon)
            and lat_lon_in_range(self.max_lat, self.max_lon)
        ):
            raise ValueError(
                "bounding box latitudes must lie in [-90, 90] and longitudes in [-180, 180]"
            )
        if not self.min_lat < self.max_lat:
            raise ValueError("bounding box requires min_lat < max_lat")
        if not self.min_lon < self.max_lon:
            raise ValueError(
                "bounding box requires min_lon < max_lon "
                "(boxes crossing the antimeridian are not supported)"
            )

    def contains(self, lat: float, lon: float) -> bool:
        """Boundary-inclusive membership test."""
        return self.min_lat <= lat <= self.max_lat and self.min_lon <= lon <= self.max_lon


@dataclass(frozen=True)
class GeoOrigin:
    lat0: float
    lon0: float
    # cos(radians(lat0)), the east-west scale that every projection uses
    cos_lat0: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (abs(self.lat0) <= _FLOAT_MAX and abs(self.lon0) <= _FLOAT_MAX):
            raise ValueError("origin coordinates must be finite")
        if abs(self.lat0) >= MAX_ORIGIN_LAT_DEG:
            raise ValueError(
                f"origin latitude {self.lat0} is too close to a pole; "
                f"|lat| must stay below {MAX_ORIGIN_LAT_DEG} degrees"
            )
        object.__setattr__(self, "cos_lat0", math.cos(math.radians(self.lat0)))


@dataclass(frozen=True, slots=True)
class LocalPoint:
    x: float
    y: float

    def __post_init__(self):
        if not (abs(self.x) <= _FLOAT_MAX and abs(self.y) <= _FLOAT_MAX):
            raise ValueError("local coordinates must be finite")


class _Rows(Sequence):
    """A read-only sequence whose items ``row`` builds on demand, one number
    from each of its equal-length ``columns``, ``array('d')`` each. Its
    ``len``, ``==``, ``hash`` and ``repr`` are those of the tuple of its
    items, the container it stands in for."""

    __slots__ = ("columns", "_row")

    def __init__(self, row, columns: tuple[Sequence[float], ...]):
        self.columns, self._row = columns, row

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._row, *(c[index] for c in self.columns)))
        return self._row(*(c[index] for c in self.columns))

    def __iter__(self):
        return map(self._row, *self.columns)

    def __eq__(self, other):
        if isinstance(other, (tuple, _Rows)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def origin_of(bbox: BoundingBox) -> GeoOrigin:
    """Origin at the bbox center; rejected near the poles."""
    return GeoOrigin(
        lat0=(bbox.min_lat + bbox.max_lat) / 2.0,
        lon0=(bbox.min_lon + bbox.max_lon) / 2.0,
    )


def project(origin: GeoOrigin, lat: float, lon: float) -> LocalPoint:
    """Project geodetic degrees to local east/north meters.

    The longitude difference is taken the short way round, so a point just
    across the antimeridian from the origin lands next to it: it is wrapped
    into [-180, 180] by ``math.remainder(..., 360.0)``, which is exact, so a
    difference already inside keeps its bits.
    """
    if not (abs(lat) <= _FLOAT_MAX and abs(lon) <= _FLOAT_MAX):
        raise ValueError("latitude and longitude must be finite")
    dlon = math.remainder(lon - origin.lon0, 360.0)
    x = EARTH_RADIUS_M * math.radians(dlon) * origin.cos_lat0
    y = EARTH_RADIUS_M * math.radians(lat - origin.lat0)
    return LocalPoint(x, y)


def _projected_bounds(origin: GeoOrigin, bbox: BoundingBox) -> tuple[LocalPoint, LocalPoint]:
    """The least and the greatest local x and y of ``bbox`` projected about
    ``origin``: its south-west and north-east corners, for the projection
    keeps east and north apart."""
    return project(origin, bbox.min_lat, bbox.min_lon), project(origin, bbox.max_lat, bbox.max_lon)


def unproject(origin: GeoOrigin, point: LocalPoint) -> tuple[float, float]:
    """Inverse of :func:`project`; returns (lat, lon) degrees, the longitude
    wrapped into [-180, 180] by ``math.remainder(..., 360.0)`` for any
    point. Exact up to rounding, and up to a whole turn at the antimeridian,
    where -180 and 180 name one meridian."""
    lat = origin.lat0 + math.degrees(point.y / EARTH_RADIUS_M)
    lon = origin.lon0 + math.degrees(point.x / (EARTH_RADIUS_M * origin.cos_lat0))
    return lat, math.remainder(lon, 360.0)
