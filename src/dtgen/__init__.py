"""Low-fidelity digital-twin world generation and reality-gap analysis.

The package turns OpenStreetMap extracts and a vehicle config into SDFormat
world files loadable by Gazebo-family simulators, and replays recorded
vehicle traces against an internal kinematic Ackermann model to quantify how
far simulation and reality have drifted apart.

Typical flow::

    from dtgen import load_config, generate_world, validate_sdf

    config = load_config(config_json)
    result = generate_world(config, osm_xml)
    assert not result.world.violations  # the writer's verdict, no re-parse

    with open("world.sdf", "w", encoding="utf-8") as out:
        faults = result.write(out)  # the same bytes, streamed
"""

from .config import (
    GenerationConfig,
    GeoSpawn,
    LocalSpawn,
    VehicleKind,
    VehicleSpec,
    load_config,
    resolve_spawn,
    serialize_config,
)
from .errors import (
    ConfigError,
    ConfigParseError,
    ConfigValidationError,
    DtGenError,
    EmitError,
    FetchError,
    OsmParseError,
    RemoteError,
    ResponseFormatError,
    TransportError,
)
from .geodesy import EARTH_RADIUS_M, GeoOrigin, LocalPoint, origin_of, project, unproject
from .osm import (
    BoundingBox,
    OsmDocument,
    OsmNode,
    OsmWay,
    fetch_overpass,
    filter_bbox,
    overpass_query,
    parse_osm,
)
from .pipeline import GenerationResult, generate_world
from .replay import (
    ControlSample,
    GapReport,
    Trajectory,
    TrajectorySample,
    VehicleState,
    compute_gap,
    derive_headings,
    normalize_angle,
    parse_controls_csv,
    parse_trajectory_csv,
    shadow_follow,
    simulate_controls,
    step_kinematic,
)
from .sdf import (
    SdfWorld,
    ValidationIssue,
    ValidationReport,
    emit_world,
    validate_sdf,
)
from .world_model import (
    DRIVABLE_HIGHWAY_VALUES,
    Building,
    ExtractionDefaults,
    Road,
    estimate_height,
    extract_buildings,
    extract_roads,
)

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "Building",
    "ConfigError",
    "ConfigParseError",
    "ConfigValidationError",
    "ControlSample",
    "DRIVABLE_HIGHWAY_VALUES",
    "DtGenError",
    "EARTH_RADIUS_M",
    "EmitError",
    "ExtractionDefaults",
    "FetchError",
    "GapReport",
    "GenerationConfig",
    "GenerationResult",
    "GeoOrigin",
    "GeoSpawn",
    "LocalPoint",
    "LocalSpawn",
    "OsmDocument",
    "OsmNode",
    "OsmParseError",
    "OsmWay",
    "RemoteError",
    "ResponseFormatError",
    "Road",
    "SdfWorld",
    "Trajectory",
    "TrajectorySample",
    "TransportError",
    "ValidationIssue",
    "ValidationReport",
    "VehicleKind",
    "VehicleSpec",
    "VehicleState",
    "compute_gap",
    "derive_headings",
    "emit_world",
    "estimate_height",
    "extract_buildings",
    "extract_roads",
    "fetch_overpass",
    "filter_bbox",
    "generate_world",
    "load_config",
    "normalize_angle",
    "origin_of",
    "overpass_query",
    "parse_controls_csv",
    "parse_osm",
    "parse_trajectory_csv",
    "project",
    "resolve_spawn",
    "serialize_config",
    "shadow_follow",
    "simulate_controls",
    "step_kinematic",
    "unproject",
    "validate_sdf",
]
