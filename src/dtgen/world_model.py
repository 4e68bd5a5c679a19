"""Buildings and roads extracted from a filtered map document.

Buildings come from closed ways tagged ``building`` (anything but "no"),
with height read from the ``height`` tag, estimated from
``building:levels``, or defaulted. Roads come from ways whose ``highway``
value is in a drivable whitelist; every road gets the configured fixed
width. All geometry is projected into local metric coordinates.
"""

import math
from dataclasses import dataclass

from .config import ExtractionDefaults
from .geodesy import GeoOrigin, LocalPoint, project
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


@dataclass(frozen=True, slots=True)
class Building:
    id: int
    footprint: tuple[LocalPoint, ...]  # ring without the duplicate closing vertex
    height: float
    name: str | None = None


@dataclass(frozen=True, slots=True)
class Road:
    id: int
    centerline: tuple[LocalPoint, ...]
    width: float
    name: str | None = None


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
    projected: dict[int, LocalPoint] = {}
    for way_id in sorted(doc.ways):
        way = doc.ways[way_id]
        value = way.tags.get("building")
        if value is None or value == "no":
            continue
        if len(way.node_refs) < 2 or way.node_refs[0] != way.node_refs[-1]:
            warnings.append(f"building way {way_id} skipped: not closed")
            continue
        points = _project_refs(
            way.node_refs[:-1], doc, origin, projected, warnings, f"building way {way_id}"
        )
        if points is None:
            continue
        ring = _collapse_ring(points)
        if not _has_three_distinct(ring):
            warnings.append(f"building way {way_id} skipped: fewer than 3 distinct vertices")
            continue
        buildings.append(
            Building(
                id=way_id,
                footprint=tuple(ring),
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
    projected: dict[int, LocalPoint] = {}
    for way_id in sorted(doc.ways):
        way = doc.ways[way_id]
        if way.tags.get("highway") not in DRIVABLE_HIGHWAY_VALUES:
            continue
        points = _project_refs(
            way.node_refs, doc, origin, projected, warnings, f"road way {way_id}"
        )
        if points is None:
            continue
        line = _collapse_polyline(points)
        if len(line) < 2:
            warnings.append(f"road way {way_id} skipped: centerline shorter than 2 points")
            continue
        roads.append(
            Road(
                id=way_id,
                centerline=tuple(line),
                width=defaults.road_width,
                name=way.tags.get("name"),
            )
        )
    return roads, warnings


def _project_refs(refs, doc, origin, projected, warnings, context) -> list[LocalPoint] | None:
    """The refs' points, each node projected once per extraction: ``projected``
    memoizes ref -> point, so ways that share a node share its point."""
    points = []
    for ref in refs:
        point = projected.get(ref)
        if point is None:
            node = doc.nodes.get(ref)
            if node is None:
                warnings.append(f"{context} skipped: unresolved node ref {ref}")
                return None
            point = projected[ref] = project(origin, node.lat, node.lon)
        points.append(point)
    return points


def _separated(a: LocalPoint, b: LocalPoint) -> bool:
    return math.hypot(a.x - b.x, a.y - b.y) > MIN_VERTEX_SEPARATION_M


def _collapse_polyline(points: list[LocalPoint]) -> list[LocalPoint]:
    out = [points[0]]
    for p in points[1:]:
        if _separated(out[-1], p):
            out.append(p)
    return out


def _collapse_ring(points: list[LocalPoint]) -> list[LocalPoint]:
    out = _collapse_polyline(points)
    while len(out) > 1 and not _separated(out[0], out[-1]):
        out.pop()
    return out


def _has_three_distinct(points: list[LocalPoint]) -> bool:
    """Whether a greedy pass in order keeps 3 pairwise separated points;
    it stops at the third, so it makes at most 2 comparisons per point."""
    distinct: list[LocalPoint] = []
    for p in points:
        if all(_separated(p, q) for q in distinct):
            distinct.append(p)
            if len(distinct) == 3:
                return True
    return False
