"""Buildings and roads extracted from map ways.

Buildings come from closed ways tagged ``building`` (anything but "no"),
with height read from the ``height`` tag, estimated from
``building:levels``, or defaulted. Roads come from ways whose ``highway``
value is in a drivable whitelist; every road gets the configured fixed
width. All geometry is projected into local metric coordinates, and a
footprint or centerline holds its points as two ``array('d')`` columns,
``x`` and ``y``: 16 bytes a point.

Each kind has one per-way rule, :func:`_building` and :func:`_road`, which
makes a model of one way or the warning that skips it. Both passes that
call them are here and gather in a :class:`_Made`, in way id order:
generation's, :func:`_way_taker`, on each way the map reader hands it with
its rows, and the library's, :func:`extract_buildings` and
:func:`extract_roads`, on a document's ways, rows by its ``NodeColumns``.
"""

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter, itemgetter

from .config import ExtractionDefaults
from .geodesy import _FLOAT_MAX, BoundingBox, GeoOrigin, LocalPoint, _Rows, is_ascii_number, project
from .osm import NodeColumns, OsmDocument

MIN_VERTEX_SEPARATION_M = 1e-6

_DRIVABLE_BASE = (
    "motorway",
    "trunk",
    "primary",
    "secondary",
    "tertiary",
    "unclassified",
    "residential",
    "service",
    "living_street",
)
DRIVABLE_HIGHWAY_VALUES = frozenset(_DRIVABLE_BASE) | frozenset(
    f"{value}_link" for value in _DRIVABLE_BASE
)


def _local_points(xs: Sequence[float], ys: Sequence[float]) -> Sequence[LocalPoint]:
    """The points of coordinates ``xs`` and ``ys`` as a read-only sequence
    of :class:`LocalPoint`, held in ``array('d')`` columns ``x`` and ``y``
    of their exact size, that compares and prints as the tuple of them."""
    return _Rows(LocalPoint, (array("d", xs), array("d", ys)))


def _points(points: Sequence[LocalPoint]) -> Sequence[LocalPoint]:
    """``points``, a sequence of :class:`LocalPoint`, read once into the
    columns that :func:`_local_points` holds. A coordinate that is not
    finite is refused, as ``LocalPoint`` refuses it: the SDF writer counts
    no fault in a footprint's points."""
    xs, ys = [p.x for p in points], [p.y for p in points]
    if not all(abs(v) <= _FLOAT_MAX for v in xs + ys):
        raise ValueError("local coordinates must be finite")
    return _local_points(xs, ys)


@dataclass(frozen=True, slots=True)
class Building:
    id: int
    footprint: Sequence[LocalPoint]  # ring without the duplicate closing vertex
    height: float
    name: str | None = None

    def __post_init__(self):
        if type(self.footprint) is not _Rows:
            object.__setattr__(self, "footprint", _points(self.footprint))


@dataclass(frozen=True, slots=True)
class Road:
    id: int
    centerline: Sequence[LocalPoint]
    width: float
    name: str | None = None

    def __post_init__(self):
        if type(self.centerline) is not _Rows:
            object.__setattr__(self, "centerline", _points(self.centerline))


def estimate_height(tags: dict[str, str], defaults: ExtractionDefaults) -> float:
    """Building height from tags: ``height``, then ``building:levels``, then default.

    Unparseable, non-finite or non-positive values fall through to the next
    rule, and so does a levels height that overflows or underflows.
    """
    height = _parse_positive(tags.get("height"), allow_meter_suffix=True)
    if height is not None:
        return height
    levels = _parse_positive(tags.get("building:levels"))
    if levels is not None and 0 < levels * defaults.meters_per_level < math.inf:
        return levels * defaults.meters_per_level
    return defaults.default_building_height


def _parse_positive(raw: str | None, allow_meter_suffix: bool = False) -> float | None:
    if raw is None:
        return None
    text = raw.strip()
    if allow_meter_suffix and text.endswith("m"):
        text = text[:-1].strip()
    if not is_ascii_number(text):
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    if not math.isfinite(value) or value <= 0:
        return None
    return value


def extract_buildings(
    doc: OsmDocument, origin: GeoOrigin, defaults: ExtractionDefaults
) -> tuple[list[Building], list[str]]:
    """One Building per qualifying way, sorted by way id; defects become warnings.

    A way qualifies when it carries a ``building`` tag other than "no", is
    closed (first ref equals last ref), resolves every node reference, and
    keeps at least 3 distinct vertices after projection.
    """
    return _extract(doc, origin, defaults, _building_tagged, _building)


def extract_roads(
    doc: OsmDocument, origin: GeoOrigin, defaults: ExtractionDefaults
) -> tuple[list[Road], list[str]]:
    """One fixed-width Road per drivable way, sorted by way id.

    Consecutive duplicate points are collapsed; ways with unresolved node
    references or fewer than 2 remaining points are skipped with a warning.
    """
    return _extract(doc, origin, defaults, _road_tagged, _road)


def _extract(doc, origin, defaults, wanted, rule) -> tuple[list, list[str]]:
    """What ``rule`` makes of each way of ``doc`` whose tags ``wanted``
    accepts, in way id order: the models, and the warnings of the ways it
    skipped."""
    made, nodes = _Made(), doc.nodes
    points = _Projection(origin, nodes)
    for way_id, way in doc.ways.items():
        if wanted(way.tags):
            refs = way.node_refs
            made.add(way_id, rule(way_id, refs, nodes._rows(refs), way.tags, points, defaults))
    return made.in_id_order()


def _way_taker(bbox: BoundingBox, origin: GeoOrigin, defaults: ExtractionDefaults, buildings, roads):
    """Generation's pass, the ``way_taker`` of ``dtgen.osm._read_osm``:
    what :func:`_building` or :func:`_road` makes of each way tagged as
    theirs, with a node inside ``bbox``, is added to ``buildings`` or
    ``roads``, each a :class:`_Made`."""

    def way_taker(nodes: NodeColumns):
        points, lat, lon = _Projection(origin, nodes), nodes.lat, nodes.lon

        def take(way_id, refs, rows, tags):
            building, road = _building_tagged(tags), _road_tagged(tags)
            if not (building or road):
                return
            for row in rows:
                if row is not None and bbox.contains(lat[row], lon[row]):
                    break
            else:
                return  # no node in the bbox
            if building:
                buildings.add(way_id, _building(way_id, refs, rows, tags, points, defaults))
            if road:
                roads.add(way_id, _road(way_id, refs, rows, tags, points, defaults))

        return take

    return way_taker


class _Made:
    """The models of one kind and the warnings of the ways it skipped, each
    warning with its way's id, gathered in any order of the ways."""

    __slots__ = ("models", "warned")

    def __init__(self):
        self.models, self.warned = [], []  # the models; (way id, warning) pairs

    def add(self, way_id: int, made) -> None:
        """Add what a per-way rule made of way ``way_id``: a model, or the warning that skips it."""
        if type(made) is str:
            self.warned.append((way_id, made))
        else:
            self.models.append(made)

    def in_id_order(self) -> tuple[list, list[str]]:
        """The models and the warnings, each in way id order."""
        self.models.sort(key=attrgetter("id"))
        self.warned.sort(key=itemgetter(0))
        return self.models, [text for _, text in self.warned]


def _building_tagged(tags: dict[str, str]) -> bool:
    """Whether a way's tags make it a building: a ``building`` tag other than "no"."""
    return tags.get("building", "no") != "no"


def _road_tagged(tags: dict[str, str]) -> bool:
    """Whether a way's tags make it a road: a drivable ``highway`` value."""
    return tags.get("highway") in DRIVABLE_HIGHWAY_VALUES


def _building(way_id, refs, rows, tags, points, defaults) -> Building | str:
    """The building of way ``way_id``, by the rule that
    :func:`extract_buildings` states, or the warning that skips it.

    ``refs`` are the way's node refs and ``rows`` their rows in ``points``,
    ``None`` for a ref to no node of the map.
    """
    if len(refs) < 2 or refs[0] != refs[-1]:
        return f"building way {way_id} skipped: not closed"
    if None in rows:
        return f"building way {way_id} skipped: unresolved node ref {refs[rows.index(None)]}"
    xs, ys = points.line(rows[:-1])
    # the ring closes on its first point: drop the last ones that repeat it
    while len(xs) > 1 and not _separated(xs[0], ys[0], xs[-1], ys[-1]):
        xs.pop()
        ys.pop()
    if not _has_three_distinct(xs, ys):
        return f"building way {way_id} skipped: fewer than 3 distinct vertices"
    return Building(
        id=way_id,
        footprint=_local_points(xs, ys),
        height=estimate_height(tags, defaults),
        name=tags.get("name"),
    )


def _road(way_id, refs, rows, tags, points, defaults) -> Road | str:
    """The road of way ``way_id``, by the rule that :func:`extract_roads`
    states, or the warning that skips it; ``refs``, ``rows`` and ``points``
    as :func:`_building` takes them."""
    if None in rows:
        return f"road way {way_id} skipped: unresolved node ref {refs[rows.index(None)]}"
    xs, ys = points.line(rows)
    if len(xs) < 2:
        return f"road way {way_id} skipped: centerline shorter than 2 points"
    return Road(
        id=way_id, centerline=_local_points(xs, ys), width=defaults.road_width, name=tags.get("name")
    )


class _Projection:
    """The local points of the rows of ``nodes``, each row projected once
    and remembered, so ways that share a node share its numbers. The
    remembered x and y are a number per row, NaN until the row is projected
    (``project`` never returns NaN), and they grow with the store: a node
    read after the last call is projected too."""

    __slots__ = ("origin", "lat", "lon", "xs", "ys")

    def __init__(self, origin: GeoOrigin, nodes: NodeColumns):
        self.origin, self.lat, self.lon = origin, nodes.lat, nodes.lon
        self.xs, self.ys = array("d"), array("d")

    def line(self, rows) -> tuple[array, array]:
        """The x and the y of the rows' points, without each point that
        lies within the vertex separation of the last one kept."""
        xs, ys, lat, lon, origin = self.xs, self.ys, self.lat, self.lon, self.origin
        if len(xs) < len(lat):
            more = array("d", [math.nan]) * (len(lat) - len(xs))
            xs.extend(more)
            ys.extend(more)
        hypot, near = math.hypot, MIN_VERTEX_SEPARATION_M
        px, py = array("d"), array("d")
        last_x = last_y = math.inf  # so the first point is kept: project returns finite ones
        for row in rows:
            x = xs[row]
            if x != x:  # NaN: not projected yet
                point = project(origin, lat[row], lon[row])
                x = xs[row] = point.x
                ys[row] = point.y
            y = ys[row]
            if hypot(x - last_x, y - last_y) > near:
                px.append(x)
                py.append(y)
                last_x, last_y = x, y
        return px, py


def _separated(ax: float, ay: float, bx: float, by: float) -> bool:
    return math.hypot(ax - bx, ay - by) > MIN_VERTEX_SEPARATION_M


def _has_three_distinct(xs: Sequence[float], ys: Sequence[float]) -> bool:
    """Whether a greedy pass in order keeps 3 pairwise separated points:
    the first point, the first one separated from it, and a later one
    separated from both."""
    points = zip(xs, ys)
    ax, ay = next(points, (math.nan, math.nan))  # none: the loop finds no second
    for bx, by in points:
        if _separated(bx, by, ax, ay):
            break
    else:
        return False
    # the same iterator: the points after the second
    return any(_separated(x, y, ax, ay) and _separated(x, y, bx, by) for x, y in points)
