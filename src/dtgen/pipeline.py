"""End-to-end world generation: map XML plus config in, assembled world out."""

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import BinaryIO, TextIO

from .config import GenerationConfig, resolve_spawn
from .geodesy import origin_of, project
from .osm import _read_osm as parse_osm  # benchmarks/dtbench/tracing.py times pipeline.parse_osm
from .osm import filter_bbox  # noqa: F401 - benchmarks/dtbench/tracing.py wraps pipeline.filter_bbox
from .sdf import (
    emit_world,  # noqa: F401 - benchmarks/dtbench/tracing.py wraps pipeline.emit_world
    write_world,
)
from .world_model import (
    Building,
    Road,
    _building,
    _building_tagged,
    _Projection,
    _road,
    _road_tagged,
    extract_buildings,  # noqa: F401 - benchmarks/dtbench/tracing.py wraps pipeline.extract_buildings
    extract_roads,  # noqa: F401 - benchmarks/dtbench/tracing.py wraps pipeline.extract_roads
)


@dataclass(frozen=True)
class GenerationResult:
    """The extracted world model, ready to be written.

    :meth:`write` is the one way to the world's bytes: pass an open file,
    or an ``io.StringIO`` to keep the text in memory. It raises
    :class:`EmitError` on duplicate model names.
    """

    buildings: tuple[Building, ...]
    roads: tuple[Road, ...]
    warnings: tuple[str, ...]
    config: GenerationConfig

    def write(self, out: TextIO) -> int:
        """Write the world to ``out``; returns the writer's fault count,
        zero exactly when ``validate_sdf`` would find no violation."""
        return write_world(out, self.buildings, self.roads, self.config)


def generate_world(config: GenerationConfig, osm: BinaryIO) -> GenerationResult:
    """Read the map and extract the world model from it in one pass; the
    result writes the world.

    ``osm`` is the map as a file open in binary mode, which is read in
    slices and never held whole (see :func:`dtgen.parse_osm`); the caller
    closes it. Each way is handled at its end tag: a building or a drivable
    road with a node inside the bounding box is extracted there, and the
    way itself is dropped. Only a way that names a node not read yet, a
    dangling ref or a node listed after it, is held until the map ends,
    and then goes through the same rule; a ref to no node of the map
    makes the way's "unresolved node ref" warning. Models and warnings
    come in way id order, so the world does not depend on the order of
    the map's elements.

    All defects along the way (bad map elements, skipped ways, spawns
    outside the bounding box) are collected as warnings, never printed.
    """
    bbox, defaults = config.bbox, config.defaults
    origin = origin_of(bbox)
    buildings, roads = _Made(), _Made()

    def way_taker(lat, lon):
        points = _Projection(origin, lat, lon)
        inside = bbox.contains

        def take(way_id, refs, rows, tags):
            building, road = _building_tagged(tags), _road_tagged(tags)
            if not (building or road):
                return
            for row in rows:
                if row is not None and inside(lat[row], lon[row]):
                    break
            else:
                return  # no node in the bbox
            if building:
                buildings.add(way_id, _building(way_id, refs, rows, tags, points, defaults))
            if road:
                roads.add(way_id, _road(way_id, refs, rows, tags, points, defaults))

        return take

    doc = parse_osm(osm, way_taker)
    building_models, building_warnings = buildings.in_id_order()
    road_models, road_warnings = roads.in_id_order()

    warnings = doc.warnings + building_warnings + road_warnings
    low = project(origin, bbox.min_lat, bbox.min_lon)
    high = project(origin, bbox.max_lat, bbox.max_lon)
    for spec in config.vehicles:
        x, y, _ = resolve_spawn(spec.spawn, origin)
        if not (low.x <= x <= high.x and low.y <= y <= high.y):
            warnings.append(
                f"vehicle {spec.name!r} spawns outside the configured bounding box"
            )

    return GenerationResult(
        buildings=building_models,
        roads=road_models,
        warnings=tuple(warnings),
        config=config,
    )


class _Made:
    """The models of one kind and the warnings of the ways it skipped, each
    warning with its way's id, gathered in any order of the ways."""

    __slots__ = ("models", "warned")

    def __init__(self):
        self.models: list = []
        self.warned: list[tuple[int, str]] = []

    def add(self, way_id: int, made) -> None:
        """Add what a per-way rule made of way ``way_id``: a model, or the warning that skips it."""
        if type(made) is str:
            self.warned.append((way_id, made))
        else:
            self.models.append(made)

    def in_id_order(self) -> tuple[tuple, list[str]]:
        """The models and the warnings, each in way id order."""
        self.models.sort(key=attrgetter("id"))
        self.warned.sort(key=itemgetter(0))
        return tuple(self.models), [text for _, text in self.warned]
