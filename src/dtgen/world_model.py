"""Buildings and roads extracted from a filtered map document.

Buildings come from closed ways tagged ``building`` (anything but "no"),
with height read from the ``height`` tag, estimated from
``building:levels``, or defaulted. Roads come from ways whose ``highway``
value is in a drivable whitelist; every road gets the configured fixed
width. All geometry is projected into local metric coordinates, and a
footprint or centerline holds its points as two ``array('d')`` columns,
``x`` and ``y``: 16 bytes a point.
"""

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

from .config import ExtractionDefaults
from .geodesy import GeoOrigin, LocalPoint, _Rows, is_ascii_number, project
from .osm import OsmDocument

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
    columns that :func:`_local_points` holds."""
    return _local_points([p.x for p in points], [p.y for p in points])


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
    buildings: list[Building] = []
    warnings: list[str] = []
    projected = _unprojected(doc)
    for way_id in sorted(doc.ways):
        way = doc.ways[way_id]
        value = way.tags.get("building")
        if value is None or value == "no":
            continue
        if len(way.node_refs) < 2 or way.node_refs[0] != way.node_refs[-1]:
            warnings.append(f"building way {way_id} skipped: not closed")
            continue
        ring = _project_refs(
            way.node_refs[:-1], doc.nodes, origin, projected, warnings, f"building way {way_id}"
        )
        if ring is None:
            continue
        xs, ys = ring
        # the ring closes on its first point: drop the last ones that repeat it
        while len(xs) > 1 and not _separated(xs[0], ys[0], xs[-1], ys[-1]):
            xs.pop()
            ys.pop()
        if not _has_three_distinct(xs, ys):
            warnings.append(f"building way {way_id} skipped: fewer than 3 distinct vertices")
            continue
        buildings.append(
            Building(
                id=way_id,
                footprint=_local_points(xs, ys),
                height=estimate_height(way.tags, defaults),
                name=way.tags.get("name"),
            )
        )
    return buildings, warnings


def extract_roads(
    doc: OsmDocument, origin: GeoOrigin, defaults: ExtractionDefaults
) -> tuple[list[Road], list[str]]:
    """One fixed-width Road per drivable way, sorted by way id.

    Consecutive duplicate points are collapsed; ways with unresolved node
    references or fewer than 2 remaining points are skipped with a warning.
    """
    roads: list[Road] = []
    warnings: list[str] = []
    projected = _unprojected(doc)
    for way_id in sorted(doc.ways):
        way = doc.ways[way_id]
        if way.tags.get("highway") not in DRIVABLE_HIGHWAY_VALUES:
            continue
        line = _project_refs(
            way.node_refs, doc.nodes, origin, projected, warnings, f"road way {way_id}"
        )
        if line is None:
            continue
        if len(line[0]) < 2:
            warnings.append(f"road way {way_id} skipped: centerline shorter than 2 points")
            continue
        roads.append(
            Road(
                id=way_id,
                centerline=_local_points(*line),
                width=defaults.road_width,
                name=way.tags.get("name"),
            )
        )
    return roads, warnings


def _unprojected(doc: OsmDocument) -> tuple[array, array]:
    """The x and y columns that :func:`_project_refs` fills, a number per
    node row of ``doc``, each NaN until its node is projected: ``project``
    never returns NaN."""
    xs = array("d", [math.nan]) * len(doc.nodes.kept)
    return xs, array("d", xs)


def _project_refs(refs, nodes, origin, projected, warnings, context) -> tuple[array, array] | None:
    """The x and the y of the refs' points, without each point that lies
    within the vertex separation of the last one kept, or ``None``, with a
    warning, when a ref is not one of ``nodes``. Each node is projected
    once per extraction, into the ``projected`` columns by its row, so ways
    that share a node share its numbers."""
    xs, ys = projected
    kept, row_of, missing = nodes.kept, nodes.index.get, len(nodes.ids)
    hypot, near = math.hypot, MIN_VERTEX_SEPARATION_M
    px, py = array("d"), array("d")
    last_x = last_y = math.inf  # so the first point is kept: project returns finite ones
    for ref in refs:
        row = row_of(ref, missing)
        if not kept[row]:
            warnings.append(f"{context} skipped: unresolved node ref {ref}")
            return None
        x = xs[row]
        if x != x:  # NaN: not projected yet
            point = project(origin, nodes.lat[row], nodes.lon[row])
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
    """Whether a greedy pass in order keeps 3 pairwise separated points;
    it stops at the third, so it makes at most 2 comparisons per point."""
    distinct: list[tuple[float, float]] = []
    for x, y in zip(xs, ys):
        if all(_separated(x, y, qx, qy) for qx, qy in distinct):
            distinct.append((x, y))
            if len(distinct) == 3:
                return True
    return False
