"""SDFormat world emission and structural validation.

``write_world`` writes the world document straight from the world-model
objects (``Building``, ``Road``) and the config, whose bounding box fixes
the origin and whose vehicles carry their spawns, to a text sink, one
model at a time, and the sink's own buffer batches the writes, so a
city-sized world is never held in memory whole; ``emit_world`` collects
the same bytes into a string. The output is flat: one element per line, no
indentation, so diffs stay readable without whitespace that no SDFormat
reader uses. Each model, and the header, sun and spherical coordinates
before them, is formatted as one multi-line template string, each
``<geometry>`` once for both its collision and its visual. Every number
goes through fixed-precision formatting, so identical inputs always
produce byte-identical files.

The writer checks what it writes: each number of a pose, a shape's size,
radius or length, or a polyline height is made a float once, checked by the
rule ``validate_sdf`` applies to what it reads back, all but the polyline's
from one table, ``_RULES``, and formatted. ``fmt`` keeps a finite number
finite and a positive one positive, so the writer's fault count is its
verdict and a world needs no re-parse. Footprint and centerline points, read
from their ``x`` and ``y`` columns, are finite by construction.
``validate_sdf`` reads foreign files, and emitted ones whose writer counted
a fault, on the callbacks of the map's XML reader, holding the path to the
element being read and no tree, and reports each violation at its location.
"""

from __future__ import annotations

import io
import math
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import TextIO
from xml.parsers import expat

from .config import GenerationConfig, VehicleKind, VehicleSpec, resolve_spawn
from .errors import EmitError
from .geodesy import GeoOrigin, origin_of, project
from .osm import _SLICE_CHARS, _read_xml
from .world_model import Building, Road

WORLD_NAME = "generated"
GROUND_PLANE_NAME = "ground_plane"
GROUND_MARGIN_M = 100.0  # ground plane overhang past each bbox edge
GROUND_COLOR = "0.8 0.8 0.8 1"
ROAD_COLOR = "0.3 0.3 0.3 1"
BUILDING_COLOR = "0.7 0.7 0.7 1"
WHEEL_WIDTH_M = 0.2
SPIN_LIMIT = 1e16
_HALF_PI = math.pi / 2


def fmt(value: float) -> str:
    """9-significant-digit form; keeps emitted files byte-stable."""
    return f"{float(value) + 0.0:.9g}"  # adding 0.0 turns -0.0 into 0.0


def fmt_deg(value: float) -> str:
    # 12 significant digits: geodetic degrees need ~1e-9 deg resolution,
    # which 9 digits cannot carry for two/three-digit latitudes.
    return f"{float(value) + 0.0:.12g}"


@dataclass(frozen=True)
class ValidationIssue:
    location: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class SdfWorld:
    text: str
    violations: tuple[ValidationIssue, ...] = ()


class _Writer:
    """Writes each block of text straight to the sink ``out``; the sink's
    own buffer batches the writes, so the writer holds one model's text at
    most, never the document. Model names are tracked as models are
    written, so a duplicate is caught in the order the models appear in the
    document.
    """

    def __init__(self, out: TextIO):
        self.write = out.write
        self._model_names: set[str] = set()
        self.faults = 0  # faults by the validator's rules, of _RULES rows and polylines

    def model(self, name: str, body: str) -> None:
        """A ``<model>`` named ``name`` holding the lines ``body``, each
        ended by a newline."""
        if name in self._model_names:
            raise EmitError(f"duplicate model name {name!r}")
        self._model_names.add(name)
        self.write(f'<model name="{name}">\n{body}</model>\n')


def emit_world(
    buildings: Sequence[Building], roads: Sequence[Road], config: GenerationConfig
) -> SdfWorld:
    """The world document in memory: :func:`write_world` into a string.

    ``violations`` is what ``validate_sdf`` reports for ``text``. The writer
    applies the validator's per-element rules as it writes, and only when
    one fails is the text parsed, to locate each violation.
    """
    sink = io.StringIO()
    faults = write_world(sink, buildings, roads, config)
    text = sink.getvalue()
    if not faults:
        return SdfWorld(text)
    return SdfWorld(text, validate_sdf(text).violations)


def write_world(
    out: TextIO, buildings: Sequence[Building], roads: Sequence[Road], config: GenerationConfig
) -> int:
    """Write the complete world document to the text sink ``out``, a model
    at a time, and return the number of faults the writer found.

    The origin is the centre of ``config.bbox``, the one ``origin_of`` gives
    extraction and replay. World children in order: ground plane, sun light,
    spherical coordinates, then building, road, and vehicle models, each
    vehicle at its config spawn resolved against that origin. Raises
    :class:`EmitError` on duplicate model names, possibly after part of the
    document has been written.

    The numbers of every pose, shape dimension and polyline height the
    writer formats go through the rule that ``validate_sdf`` applies to the
    numbers it reads back, so the result is zero exactly when
    ``validate_sdf`` finds no violation in what was written. The
    whole-document rules hold by construction:

    - one ``<sdf>``, whose version the config has matched against its
      dotted-decimal pattern;
    - one ``<world>``, with ``<spherical_coordinates>``;
    - model names built from int way ids, or vehicle names that match
      ``[A-Za-z0-9_]+``, so never empty; a duplicate raises ``EmitError``.
    """
    thickness = config.defaults.road_thickness
    origin = origin_of(config.bbox)
    w = _Writer(out)
    w.write(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<sdf version="{config.sdf_version}">\n<world name="{WORLD_NAME}">\n'
    )
    _write_ground_plane(w, origin, config, buildings, roads)
    w.write(
        '<light name="sun" type="directional">\n<cast_shadows>true</cast_shadows>\n'
        "<pose>0 0 100 0 0 0</pose>\n"
        "<diffuse>0.9 0.9 0.9 1</diffuse>\n<specular>0.2 0.2 0.2 1</specular>\n"
        "<direction>-0.5 0.1 -0.9</direction>\n</light>\n"
        "<spherical_coordinates>\n<surface_model>EARTH_WGS84</surface_model>\n"
        f"<latitude_deg>{fmt_deg(origin.lat0)}</latitude_deg>\n"
        f"<longitude_deg>{fmt_deg(origin.lon0)}</longitude_deg>\n"
        "<elevation>0</elevation>\n<heading_deg>0</heading_deg>\n</spherical_coordinates>\n"
    )
    for building in buildings:
        _write_building(w, building)
    for road in roads:
        _write_road(w, road, thickness)
    for spec in config.vehicles:
        _write_vehicle(w, spec, resolve_spawn(spec.spawn, origin))
    w.write("</world>\n</sdf>\n")
    return w.faults


def _material(color: str) -> str:
    return f"<material>\n<ambient>{color}</ambient>\n<diffuse>{color}</diffuse>\n</material>\n"


_GROUND_MATERIAL = _material(GROUND_COLOR)
_ROAD_MATERIAL = _material(ROAD_COLOR)
_BUILDING_MATERIAL = _material(BUILDING_COLOR)


def _surfaces(shape: str, body: str, material: str = "", collide: bool = True) -> str:
    """The lines of a collision (unless ``collide`` is false) and a visual
    with ``material``, of one ``<shape>`` holding the lines ``body``. The
    geometry is formatted once and used in both."""
    geometry = f"<geometry>\n<{shape}>\n{body}\n</{shape}>\n</geometry>\n"
    visual = f'<visual name="visual">\n{geometry}{material}</visual>\n'
    if not collide:
        return visual
    return f'<collision name="collision">\n{geometry}</collision>\n{visual}'


def _write_ground_plane(
    w: _Writer,
    origin: GeoOrigin,
    config: GenerationConfig,
    buildings: Sequence[Building],
    roads: Sequence[Road],
) -> None:
    """A plane centered on the origin that covers the projected bbox, and
    every building and road point, plus ``GROUND_MARGIN_M`` on every side.
    The bbox filter keeps ways whole, so their points can lie past the bbox."""
    low = project(origin, config.bbox.min_lat, config.bbox.min_lon)
    high = project(origin, config.bbox.max_lat, config.bbox.max_lon)
    # one pass over each axis's columns, every footprint's and then every
    # centerline's, in the order of a list of all the points, so even a NaN
    # coordinate gives the same plane
    xs, ys = (map(abs, _model_column(buildings, roads, axis)) for axis in (0, 1))
    width = 2.0 * (max(chain((-low.x, high.x), xs)) + GROUND_MARGIN_M)
    depth = 2.0 * (max(chain((-low.y, high.y), ys)) + GROUND_MARGIN_M)
    plane = f"<normal>0 0 1</normal>\n{_checked(w, 'plane', 'size', width, depth)}"
    surfaces = _surfaces("plane", plane, _GROUND_MATERIAL)
    w.model(GROUND_PLANE_NAME, f'<static>true</static>\n<link name="link">\n{surfaces}</link>\n')


def _model_column(buildings: Sequence[Building], roads: Sequence[Road], axis: int) -> Iterator[float]:
    """The ``axis`` (0 for x, 1 for y) of every footprint point, then of
    every centerline point, read from their columns without a list."""
    return chain(
        chain.from_iterable(b.footprint.columns[axis] for b in buildings),
        chain.from_iterable(r.centerline.columns[axis] for r in roads),
    )


def _checked(w: _Writer, parent: str | None, tag: str, *values: float) -> str:
    """A ``<tag>`` of ``values`` under ``parent``: each made a float once,
    checked by the ``_RULES`` row ``validate_sdf`` applies to it, formatted."""
    numbers = [float(v) for v in values]
    w.faults += len(_number_faults(tag, numbers, *_RULES[parent, tag]))
    return f"<{tag}>{' '.join(map(fmt, numbers))}</{tag}>"


def _write_building(w: _Writer, building: Building) -> None:
    """One extruded-footprint model, named after the source way id."""
    height = float(building.height)
    w.faults += len(_polyline_faults(len(building.footprint), height))
    xs, ys = building.footprint.columns
    points = "".join(f"<point>{fmt(x)} {fmt(y)}</point>\n" for x, y in zip(xs, ys))
    polyline = _surfaces("polyline", f"{points}<height>{fmt(height)}</height>", _BUILDING_MATERIAL)
    body = f'<static>true</static>\n<link name="footprint">\n{polyline}</link>\n'
    w.model(f"building_{building.id}", body)


def _write_road(w: _Writer, road: Road, thickness: float) -> None:
    """One model per road: a thin box link per centerline segment, raised so
    it sits on the ground plane."""
    z = thickness / 2.0
    links = []
    xs, ys = road.centerline.columns
    for i, (ax, ay, bx, by) in enumerate(zip(xs, ys, xs[1:], ys[1:])):
        dx = bx - ax
        dy = by - ay
        size = _checked(w, "box", "size", math.hypot(dx, dy), road.width, thickness)
        pose = _checked(w, None, "pose", (ax + bx) / 2, (ay + by) / 2, z, 0, 0, math.atan2(dy, dx))
        box = _surfaces("box", size, _ROAD_MATERIAL)
        links.append(f'<link name="segment_{i}">\n{pose}\n{box}</link>\n')
    w.model(f"road_{road.id}", "<static>true</static>\n" + "".join(links))


_GPS = (
    '<sensor name="gps" type="gps">\n'
    "<always_on>true</always_on>\n<update_rate>10</update_rate>\n</sensor>\n"
)


def _joint(name: str, child: str, axis: str, lower: float, upper: float) -> str:
    return (
        f'<joint name="{name}" type="revolute">\n<parent>chassis</parent>\n<child>{child}</child>\n'
        f"<axis>\n<xyz>{axis}</xyz>\n"
        f"<limit>\n<lower>{fmt(lower)}</lower>\n<upper>{fmt(upper)}</upper>\n</limit>\n"
        "</axis>\n</joint>\n"
    )


def _drive(v: VehicleSpec) -> str:
    """The steer and spin joints and the Ackermann plugin of a twin."""
    limit = v.max_steer_angle
    return (
        _joint("front_left_steer_joint", "front_left_wheel", "0 0 1", -limit, limit)
        + _joint("front_right_steer_joint", "front_right_wheel", "0 0 1", -limit, limit)
        + _joint("rear_left_spin_joint", "rear_left_wheel", "0 1 0", -SPIN_LIMIT, SPIN_LIMIT)
        + _joint("rear_right_spin_joint", "rear_right_wheel", "0 1 0", -SPIN_LIMIT, SPIN_LIMIT)
        + '<plugin name="ackermann_drive" filename="libackermann_drive.so">\n'
        f"<wheelbase>{fmt(v.wheelbase)}</wheelbase>\n<track>{fmt(v.track)}</track>\n"
        f"<wheel_radius>{fmt(v.wheel_radius)}</wheel_radius>\n"
        f"<max_steer_angle>{fmt(v.max_steer_angle)}</max_steer_angle>\n</plugin>\n"
    )


def _write_vehicle(w: _Writer, v: VehicleSpec, pose: tuple[float, float, float]) -> None:
    """One vehicle model at its resolved local ``(x, y, yaw)`` spawn pose."""
    collide = v.kind is not VehicleKind.GHOST
    actuated = v.kind is VehicleKind.TWIN
    x, y, yaw = pose
    head = _checked(w, None, "pose", x, y, 0, 0, 0, yaw) + "\n"
    if not actuated:
        # shadows and ghosts are pose-driven, never simulated bodies
        head += "<static>true</static>\n"

    chassis_z = v.wheel_radius + v.chassis_height / 2.0
    chassis_size = _checked(w, "box", "size", v.chassis_length, v.chassis_width, v.chassis_height)
    chassis = (
        f'<link name="chassis">\n{_checked(w, None, "pose", 0, 0, chassis_z, 0, 0, 0)}\n'
        f'{_surfaces("box", chassis_size, collide=collide)}'
        f"{_GPS if v.gps else ''}</link>\n"
    )

    half_wb = v.wheelbase / 2.0
    half_track = v.track / 2.0
    wheels = (
        ("front_left_wheel", half_wb, half_track),
        ("front_right_wheel", half_wb, -half_track),
        ("rear_left_wheel", -half_wb, half_track),
        ("rear_right_wheel", -half_wb, -half_track),
    )
    radius = _checked(w, "cylinder", "radius", v.wheel_radius)
    wheel = _surfaces("cylinder", f'{radius}\n{_checked(w, "cylinder", "length", WHEEL_WIDTH_M)}', collide=collide)
    links = "".join(
        f'<link name="{name}">\n'
        f'{_checked(w, None, "pose", wx, wy, v.wheel_radius, _HALF_PI, 0, 0)}\n{wheel}</link>\n'
        for name, wx, wy in wheels
    )
    w.model(v.name, head + chassis + links + (_drive(v) if actuated else ""))


def validate_sdf(text: str) -> ValidationReport:
    """Structural checks on an SDF document; violations are data, not errors.

    Checks: well-formed XML, ``<sdf>`` root with a version, exactly one
    ``<world>`` containing a ``<spherical_coordinates>`` element, unique model
    names, polylines with at least 3 points and a positive height, and the
    numbers of each element ``_RULES`` names: 6 finite ones in a pose, 2 in a
    polyline point, finite positive ones in a box size (3), a plane size (2),
    and a cylinder's radius and length and a sphere's radius (1 each).
    """
    stack: list = []  # (tag, name) of each open element, [tag, name, slot, text, points or rule] if checked
    root: list[str | None] = []  # the root's tag and version
    worlds: list[list] = []  # location, <spherical_coordinates> seen, issues and model names
    faults: list[ValidationIssue] = []  # of the table's elements and polylines, in start-tag order
    gathered: list[str] | None = None  # text of the open table element or height, to its first child

    def start(tag: str, attrs: dict[str, str]) -> None:
        nonlocal gathered
        gathered = None
        entry: tuple | list = (tag, attrs.get("name"))
        if tag in _READ and stack:  # of any other element only the path is kept
            parent = stack[-1]
            polyline = parent[0] == "polyline" and len(parent) > 2  # checked: not the root
            if polyline and tag == "point":
                parent[4] += 1
            rule = _RULES.get((parent[0], tag)) or _RULES.get((None, tag))
            if polyline and tag == "height" and parent[3] is None:
                parent[3] = gathered = []  # only the first height counts
            elif rule or tag == "polyline":
                gathered = None if rule is None else []
                # its faults go in at the slot; a polyline counts its points
                entry = [tag, entry[1], len(faults), gathered, rule or 0]
            elif tag == "world" and len(stack) == 1:
                worlds.append([_location([*stack, entry]), False, [], set()])
            elif parent[0] == "world" and len(stack) == 2 and tag == "spherical_coordinates":
                worlds[-1][1] = True
            elif parent[0] == "world" and len(stack) == 2 and tag == "model":
                location, _, issues, seen = worlds[-1]
                if not entry[1]:
                    issues.append(ValidationIssue(location, "model without a name attribute"))
                elif entry[1] in seen:
                    issues.append(ValidationIssue(location, f"duplicate model name {entry[1]}"))
                seen.add(entry[1])
        elif not stack:
            root[:] = tag, attrs.get("version")
        stack.append(entry)

    def end(tag: str) -> None:
        nonlocal gathered
        gathered = None
        entry = stack.pop()
        if len(entry) > 2:
            numbers = _numbers("".join(entry[3] or ()))
            if tag == "polyline":
                messages = _polyline_faults(entry[4], numbers[0] if len(numbers) == 1 else math.nan)
            else:
                messages = _number_faults(tag, numbers, *entry[4])
            faults[entry[2] : entry[2]] = (ValidationIssue(_location([*stack, entry]), m) for m in messages)

    def gather(data: str) -> None:
        if gathered is not None:
            gathered.append(data)

    surrogate = None if text.isascii() else re.search(r"[\ud800-\udfff]", text)
    try:
        if surrogate:  # refused before any parse, as ElementTree refuses it
            raise expat.ExpatError(f"lone surrogate U+{ord(surrogate[0]):04X} is not encodable as UTF-8")
        _read_xml((text[i : i + _SLICE_CHARS] for i in range(0, len(text), _SLICE_CHARS)), start, end, gather)
    except expat.ExpatError as exc:
        return ValidationReport((ValidationIssue("/", f"malformed XML: {exc}"),))

    if root[0] != "sdf":
        return ValidationReport((ValidationIssue("/", f"root element is <{_qualified(root[0])}>, expected <sdf>"),))
    issues = [] if root[1] else [ValidationIssue("/sdf", "missing version attribute")]
    if len(worlds) != 1:
        issues.append(ValidationIssue("/sdf", f"expected exactly one <world>, found {len(worlds)}"))
    for location, spherical, model_issues, _ in worlds:
        if not spherical:
            issues.append(ValidationIssue(location, "missing <spherical_coordinates> element"))
        issues += model_issues
    return ValidationReport((*issues, *faults))


def _qualified(tag: str) -> str:
    return "{" + tag if "}" in tag else tag  # expat's uri}local as ElementTree writes it


def _location(path: Sequence[Sequence]) -> str:
    """XPath-like location of the last element of ``path``, from the root, by tag and name."""
    steps = ((_qualified(entry[0]), entry[1]) for entry in path[1:])
    return "/sdf" + "".join(f"/{tag}[@name='{name}']" if name else f"/{tag}" for tag, name in steps)


def _polyline_faults(points: int, height: float) -> list[str]:
    """The rules for a polyline of ``points`` points and ``height``; the
    writer and the validator both apply them."""
    faults = []
    if points < 3:
        faults.append(f"polyline has {points} points, needs >= 3")
    if not 0 < height < math.inf:  # NaN fails both
        faults.append("non-positive polyline height")
    return faults


def _number_faults(tag: str, values: Sequence[float], count: int, positive: bool) -> list[str]:
    """A ``<tag>``'s numbers by its ``_RULES`` row: ``count`` of them, finite
    and, when ``positive``, positive. The writer and the validator apply it."""
    if not positive:
        if len(values) != count or not all(map(math.isfinite, values)):
            return [f"{tag} must contain {count} finite numbers"]
    elif not values or not all(0 < v < math.inf for v in values):  # NaN fails both
        return [f"{tag} must contain finite positive numbers"]
    elif len(values) != count:
        return [f"{tag} must contain {count} number{'s' if count > 1 else ''}, got {len(values)}"]
    return []


def _numbers(text: str) -> list[float]:
    """The numbers in ``text``: none if any part of it is not a number."""
    try:
        return [float(p) for p in text.split()]
    except ValueError:
        return []


# (parent tag, tag) of each element that holds numbers, None for any parent: (how many,
# whether each must be positive); a <size> elsewhere, such as a particle emitter's, is free
_RULES = {
    (None, "pose"): (6, False),
    ("polyline", "point"): (2, False),
    ("box", "size"): (3, True),
    ("plane", "size"): (2, True),
    ("cylinder", "radius"): (1, True),
    ("cylinder", "length"): (1, True),
    ("sphere", "radius"): (1, True),
}
_READ = {tag for _, tag in _RULES} | {"polyline", "height", "world", "model", "spherical_coordinates"}
