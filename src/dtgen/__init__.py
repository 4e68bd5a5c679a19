"""Low-fidelity digital-twin world generation and reality-gap analysis.

The package turns OpenStreetMap extracts and a vehicle config into SDFormat
world files loadable by Gazebo-family simulators, and replays recorded
vehicle traces against an internal kinematic Ackermann model to quantify how
far simulation and reality have drifted apart.

Typical flow::

    from dtgen import load_config, generate_world, validate_sdf

    config = load_config(config_json)
    with open("map.osm", "rb") as osm:  # read in slices, never held whole
        result = generate_world(config, osm)
    with open("world.sdf", "w", encoding="utf-8") as out:
        faults = result.write(out)  # 0 exactly when validate_sdf finds nothing
    if faults:
        with open("world.sdf", encoding="utf-8") as written:
            violations = validate_sdf(written.read()).violations

The top level holds what the CLI, the demos and the README use, by task:
generate, validate, gap, fetch, and the exception classes. Everything else
lives in its submodule (``dtgen.osm``, ``dtgen.world_model``, ...).
"""

from .config import VehicleKind, VehicleSpec, load_config
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
from .geodesy import EARTH_RADIUS_M, BoundingBox, GeoOrigin, origin_of, project, unproject
from .osm import fetch_overpass, filter_bbox, overpass_query, parse_osm
from .pipeline import GenerationResult, generate_world
from .replay import (
    ControlSample,
    VehicleState,
    compute_gap,
    parse_controls_csv,
    parse_trajectory_csv,
    shadow_follow,
    simulate_controls,
)
from .sdf import validate_sdf

__version__ = "0.7.0"  # pyproject.toml reads it from here

__all__ = [
    # generate
    "BoundingBox", "EARTH_RADIUS_M", "GenerationResult", "GeoOrigin", "VehicleKind",
    "VehicleSpec", "filter_bbox", "generate_world", "load_config", "origin_of",
    "parse_osm", "project", "unproject",
    # validate
    "validate_sdf",
    # gap
    "ControlSample", "VehicleState", "compute_gap", "parse_controls_csv",
    "parse_trajectory_csv", "shadow_follow", "simulate_controls",
    # fetch
    "fetch_overpass", "overpass_query",
    # errors
    "ConfigError", "ConfigParseError", "ConfigValidationError", "DtGenError", "EmitError",
    "FetchError", "OsmParseError", "RemoteError", "ResponseFormatError", "TransportError",
]
