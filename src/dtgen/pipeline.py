"""End-to-end world generation: map XML plus config in, assembled world out."""

from dataclasses import dataclass
from typing import BinaryIO, TextIO

from .config import GenerationConfig, resolve_spawn
from .geodesy import GeoOrigin, origin_of, project
from .osm import filter_bbox, parse_osm
from .sdf import (
    emit_world,  # noqa: F401 - benchmarks/dtbench/tracing.py wraps pipeline.emit_world
    write_world,
)
from .world_model import Building, Road, extract_buildings, extract_roads


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
    spawns: tuple[tuple[float, float, float], ...]
    origin: GeoOrigin
    config: GenerationConfig

    def write(self, out: TextIO) -> int:
        """Write the world to ``out``; returns the writer's fault count,
        zero exactly when ``validate_sdf`` would find no violation."""
        return write_world(out, self.buildings, self.roads, self.spawns, self.origin, self.config)


def generate_world(config: GenerationConfig, osm: BinaryIO) -> GenerationResult:
    """Parse, filter and extract in one pass; the result writes the world.

    ``osm`` is the map as a file open in binary mode, which is read in
    slices and never held whole (see :func:`parse_osm`); the caller closes
    it. All defects along the way (bad map elements, skipped ways, spawns
    outside the bounding box) are collected as warnings, never printed.
    """
    doc = filter_bbox(parse_osm(osm), config.bbox)
    origin = origin_of(config.bbox)
    buildings, building_warnings = extract_buildings(doc, origin, config.defaults)
    roads, road_warnings = extract_roads(doc, origin, config.defaults)

    warnings = list(doc.warnings) + building_warnings + road_warnings
    low = project(origin, config.bbox.min_lat, config.bbox.min_lon)
    high = project(origin, config.bbox.max_lat, config.bbox.max_lon)
    spawns = tuple(resolve_spawn(spec.spawn, origin) for spec in config.vehicles)
    for spec, (x, y, _) in zip(config.vehicles, spawns):
        if not (low.x <= x <= high.x and low.y <= y <= high.y):
            warnings.append(
                f"vehicle {spec.name!r} spawns outside the configured bounding box"
            )

    return GenerationResult(
        buildings=tuple(buildings),
        roads=tuple(roads),
        warnings=tuple(warnings),
        spawns=spawns,
        origin=origin,
        config=config,
    )
