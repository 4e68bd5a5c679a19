"""End-to-end world generation: map XML plus config in, assembled world out."""

from dataclasses import dataclass
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
    _Made,
    _way_taker,
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
    closes it. Each way is handed at its end tag to the per-way pass of
    :mod:`dtgen.world_model`, which extracts a building or a drivable road
    with a node inside the bounding box, and the way itself is dropped.
    Only a way that names a node not read yet, a dangling ref or a node
    listed after it, is held until the map ends, and then goes through the
    same pass; a ref to no node of the map makes the way's "unresolved
    node ref" warning. Models and warnings come in way id order, so the
    world does not depend on the order of the map's elements.

    All defects along the way (bad map elements, skipped ways, spawns
    outside the bounding box) are collected as warnings, never printed.
    """
    bbox, defaults = config.bbox, config.defaults
    origin = origin_of(bbox)
    buildings, roads = _Made(), _Made()

    doc = parse_osm(osm, _way_taker(bbox, origin, defaults, buildings, roads))
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
        buildings=tuple(building_models),
        roads=tuple(road_models),
        warnings=tuple(warnings),
        config=config,
    )

