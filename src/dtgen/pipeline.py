"""End-to-end world generation: map XML plus config in, assembled world out."""

from dataclasses import dataclass

from .config import GenerationConfig, resolve_spawn
from .geodesy import origin_of, project
from .osm import filter_bbox, parse_osm
from .sdf import SdfWorld, emit_world
from .world_model import Building, Road, extract_buildings, extract_roads


@dataclass(frozen=True)
class GenerationResult:
    world: SdfWorld
    buildings: tuple[Building, ...]
    roads: tuple[Road, ...]
    warnings: tuple[str, ...]


def generate_world(config: GenerationConfig, osm_xml: str) -> GenerationResult:
    """Parse, filter, extract, and emit in one pass.

    All defects along the way (bad map elements, skipped ways, spawns outside
    the bounding box) are collected as warnings, never printed.
    """
    doc = filter_bbox(parse_osm(osm_xml), config.bbox)
    origin = origin_of(config.bbox)
    buildings, building_warnings = extract_buildings(doc, origin, config.defaults)
    roads, road_warnings = extract_roads(doc, origin, config.defaults)

    warnings = list(doc.warnings) + building_warnings + road_warnings
    low = project(origin, config.bbox.min_lat, config.bbox.min_lon)
    high = project(origin, config.bbox.max_lat, config.bbox.max_lon)
    spawns = [resolve_spawn(spec.spawn, origin) for spec in config.vehicles]
    for spec, (x, y, _) in zip(config.vehicles, spawns):
        if not (low.x <= x <= high.x and low.y <= y <= high.y):
            warnings.append(
                f"vehicle {spec.name!r} spawns outside the configured bounding box"
            )

    world = emit_world(buildings, roads, spawns, origin, config)
    return GenerationResult(
        world=world,
        buildings=tuple(buildings),
        roads=tuple(roads),
        warnings=tuple(warnings),
    )
