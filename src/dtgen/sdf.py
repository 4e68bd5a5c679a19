"""SDFormat world emission and structural validation.

``write_world`` writes the world document straight from the world-model
objects (``Building``, ``Road``, ``VehicleSpec`` with its resolved spawn
pose) to a text sink, a bounded batch of lines at a time, so a city-sized
world is never held in memory whole; ``emit_world`` collects the same bytes
into a string. The output is flat: one element per line, no indentation, so
diffs stay readable without whitespace that no SDFormat reader uses. Every
number goes through fixed-precision formatting, so identical inputs always
produce byte-identical files.

The writer checks what it writes: every pose, polyline and size it formats
goes through the same per-element rules that ``validate_sdf`` applies, so
the writer's fault count is its verdict and a world needs no re-parse.
``validate_sdf`` parses foreign files, and emitted ones whose writer counted
a fault, and reports each violation at its location instead of raising.
"""

import io
import math
import xml.etree.ElementTree as ET
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import TextIO

from .config import GenerationConfig, VehicleKind, VehicleSpec
from .errors import EmitError
from .geodesy import GeoOrigin, LocalPoint, project
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
_BATCH_LINES = 4096  # lines the writer holds before it writes them out


def fmt(value: float) -> str:
    """9-significant-digit form; keeps emitted files byte-stable."""
    v = float(value)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return f"{v:.9g}"


def fmt_deg(value: float) -> str:
    # 12 significant digits: geodetic degrees need ~1e-9 deg resolution,
    # which 9 digits cannot carry for two/three-digit latitudes.
    v = float(value)
    if v == 0.0:
        v = 0.0
    return f"{v:.12g}"


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


class _XmlWriter:
    """Flat line emitter, one element per line; tiny enough to beat
    templating for nested SDF.

    Lines go to the text sink ``out`` in batches: once ``_BATCH_LINES``
    are held, they are written before the next model opens. So the writer
    holds at most that many lines plus one model's, never the document.
    Model names are tracked as models are opened, so a duplicate is caught
    in the order the models appear in the document.
    """

    def __init__(self, out: TextIO):
        self._out = out
        self._lines: list[str] = []
        self._model_names: set[str] = set()
        self.faults = 0  # pose, polyline and size faults, by the validator's rules

    def line(self, text: str) -> None:
        self._lines.append(text)

    def element(self, tag: str, text: str) -> None:
        self.line(f"<{tag}>{text}</{tag}>")

    def open(self, opening: str) -> None:
        self.line(opening)

    def close(self, tag: str) -> None:
        self.line(f"</{tag}>")

    def open_model(self, name: str) -> None:
        # checked per model, not per line, as this costs less
        if len(self._lines) >= _BATCH_LINES:
            self.flush()
        if name in self._model_names:
            raise EmitError(f"duplicate model name {name!r}")
        self._model_names.add(name)
        self.open(f'<model name="{name}">')

    def flush(self) -> None:
        """Write the batched lines, each ended by a newline."""
        self._lines.append("")
        self._out.write("\n".join(self._lines))
        self._lines = []


def emit_world(
    buildings: Sequence[Building],
    roads: Sequence[Road],
    spawns: Sequence[tuple[float, float, float]],
    origin: GeoOrigin,
    config: GenerationConfig,
) -> SdfWorld:
    """The world document in memory: :func:`write_world` into a string.

    ``violations`` is what ``validate_sdf`` reports for ``text``. The writer
    applies the validator's per-element rules as it writes, and only when
    one fails is the text parsed, to locate each violation.
    """
    sink = io.StringIO()
    faults = write_world(sink, buildings, roads, spawns, origin, config)
    text = sink.getvalue()
    if not faults:
        return SdfWorld(text)
    return SdfWorld(text, validate_sdf(text).violations)


def write_world(
    out: TextIO,
    buildings: Sequence[Building],
    roads: Sequence[Road],
    spawns: Sequence[tuple[float, float, float]],
    origin: GeoOrigin,
    config: GenerationConfig,
) -> int:
    """Write the complete world document to the text sink ``out``, a batch
    of lines at a time, and return the number of faults the writer found.

    ``spawns`` holds the resolved local ``(x, y, yaw)`` of each vehicle in
    ``config.vehicles``, in the same order. World children in order: ground
    plane, sun light, spherical coordinates, then building, road, and vehicle
    models. Raises :class:`EmitError` on duplicate model names, possibly
    after part of the document has been written.

    Every pose, polyline and ``<size>`` the writer formats goes through the
    rule ``validate_sdf`` applies to it, so the result is zero exactly when
    ``validate_sdf`` finds no violation in what was written. The
    whole-document rules hold by construction:

    - one ``<sdf>``, whose version the config has matched against its
      dotted-decimal pattern;
    - one ``<world>``, with ``<spherical_coordinates>``;
    - model names built from int way ids, or vehicle names that match
      ``[A-Za-z0-9_]+``, so never empty; a duplicate raises ``EmitError``.
    """
    thickness = config.defaults.road_thickness
    w = _XmlWriter(out)
    w.line('<?xml version="1.0" encoding="UTF-8"?>')
    w.open(f'<sdf version="{config.sdf_version}">')
    w.open(f'<world name="{WORLD_NAME}">')
    _write_ground_plane(w, origin, config, buildings, roads)
    _write_sun(w)
    _write_spherical_coordinates(w, origin)
    for building in buildings:
        _write_building(w, building)
    for road in roads:
        _write_road(w, road, thickness)
    for spec, pose in zip(config.vehicles, spawns, strict=True):
        _write_vehicle(w, spec, pose)
    w.close("world")
    w.close("sdf")
    w.flush()
    return w.faults


def _write_geometry(w: _XmlWriter, shape: str, elements: list[tuple[str, str]]) -> None:
    w.open("<geometry>")
    w.open(f"<{shape}>")
    for tag, text in elements:
        w.element(tag, text)
    w.close(shape)
    w.close("geometry")


def _write_surfaces(
    w: _XmlWriter,
    shape: str,
    elements: list[tuple[str, str]],
    collide: bool = True,
    color: str | None = None,
) -> None:
    """Collision (unless ``collide`` is false) and visual of one geometry."""
    if collide:
        w.open('<collision name="collision">')
        _write_geometry(w, shape, elements)
        w.close("collision")
    w.open('<visual name="visual">')
    _write_geometry(w, shape, elements)
    if color is not None:
        w.open("<material>")
        w.element("ambient", color)
        w.element("diffuse", color)
        w.close("material")
    w.close("visual")


def _write_ground_plane(
    w: _XmlWriter,
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
    # one pass over each axis, in the same order as a list of all the
    # values would give, so even a NaN coordinate gives the same plane
    xs = (abs(p.x) for p in _model_points(buildings, roads))
    ys = (abs(p.y) for p in _model_points(buildings, roads))
    width = 2.0 * (max(chain((-low.x, high.x), xs)) + GROUND_MARGIN_M)
    depth = 2.0 * (max(chain((-low.y, high.y), ys)) + GROUND_MARGIN_M)
    w.open_model(GROUND_PLANE_NAME)
    w.element("static", "true")
    w.open('<link name="link">')
    plane = [("normal", "0 0 1"), ("size", _checked_size(w, width, depth))]
    _write_surfaces(w, "plane", plane, color=GROUND_COLOR)
    w.close("link")
    w.close("model")


def _model_points(buildings: Sequence[Building], roads: Sequence[Road]) -> Iterator[LocalPoint]:
    """Every footprint point, then every centerline point, without a list."""
    return chain(
        chain.from_iterable(b.footprint for b in buildings),
        chain.from_iterable(r.centerline for r in roads),
    )


def _write_sun(w: _XmlWriter) -> None:
    w.open('<light name="sun" type="directional">')
    w.element("cast_shadows", "true")
    _write_pose(w, 0, 0, 100, 0, 0, 0)
    w.element("diffuse", "0.9 0.9 0.9 1")
    w.element("specular", "0.2 0.2 0.2 1")
    w.element("direction", "-0.5 0.1 -0.9")
    w.close("light")


def _write_spherical_coordinates(w: _XmlWriter, origin: GeoOrigin) -> None:
    w.open("<spherical_coordinates>")
    w.element("surface_model", "EARTH_WGS84")
    w.element("latitude_deg", fmt_deg(origin.lat0))
    w.element("longitude_deg", fmt_deg(origin.lon0))
    w.element("elevation", "0")
    w.element("heading_deg", "0")
    w.close("spherical_coordinates")


def _write_pose(w: _XmlWriter, *values: float) -> None:
    """A ``<pose>`` of six numbers, checked as ``validate_sdf`` checks it."""
    text = " ".join(map(fmt, values))
    w.faults += len(_pose_faults(text))
    w.element("pose", text)


def _checked_size(w: _XmlWriter, *values: float) -> str:
    """The text of a ``<size>``, checked as ``validate_sdf`` checks it."""
    text = " ".join(map(fmt, values))
    w.faults += len(_size_faults(text))
    return text


def _write_building(w: _XmlWriter, building: Building) -> None:
    """One extruded-footprint model, named after the source way id."""
    height = fmt(building.height)
    w.faults += len(_polyline_faults(len(building.footprint), height))
    polyline = [("point", f"{fmt(p.x)} {fmt(p.y)}") for p in building.footprint]
    polyline.append(("height", height))
    w.open_model(f"building_{building.id}")
    w.element("static", "true")
    w.open('<link name="footprint">')
    _write_surfaces(w, "polyline", polyline, color=BUILDING_COLOR)
    w.close("link")
    w.close("model")


def _write_road(w: _XmlWriter, road: Road, thickness: float) -> None:
    """One model per road: a thin box link per centerline segment, raised so
    it sits on the ground plane."""
    z = thickness / 2.0
    w.open_model(f"road_{road.id}")
    w.element("static", "true")
    for i, (a, b) in enumerate(zip(road.centerline, road.centerline[1:])):
        dx = b.x - a.x
        dy = b.y - a.y
        size = _checked_size(w, math.hypot(dx, dy), road.width, thickness)
        w.open(f'<link name="segment_{i}">')
        _write_pose(w, (a.x + b.x) / 2.0, (a.y + b.y) / 2.0, z, 0, 0, math.atan2(dy, dx))
        _write_surfaces(w, "box", [("size", size)], color=ROAD_COLOR)
        w.close("link")
    w.close("model")


def _write_joint(
    w: _XmlWriter, name: str, child: str, axis: str, lower: float, upper: float
) -> None:
    w.open(f'<joint name="{name}" type="revolute">')
    w.element("parent", "chassis")
    w.element("child", child)
    w.open("<axis>")
    w.element("xyz", axis)
    w.open("<limit>")
    w.element("lower", fmt(lower))
    w.element("upper", fmt(upper))
    w.close("limit")
    w.close("axis")
    w.close("joint")


def _write_vehicle(
    w: _XmlWriter, v: VehicleSpec, pose: tuple[float, float, float]
) -> None:
    """One vehicle model at its resolved local ``(x, y, yaw)`` spawn pose."""
    collide = v.kind is not VehicleKind.GHOST
    actuated = v.kind is VehicleKind.TWIN
    x, y, yaw = pose

    w.open_model(v.name)
    _write_pose(w, x, y, 0, 0, 0, yaw)
    if not actuated:
        # shadows and ghosts are pose-driven, never simulated bodies
        w.element("static", "true")

    chassis_z = v.wheel_radius + v.chassis_height / 2.0
    chassis_size = _checked_size(w, v.chassis_length, v.chassis_width, v.chassis_height)
    w.open('<link name="chassis">')
    _write_pose(w, 0, 0, chassis_z, 0, 0, 0)
    _write_surfaces(w, "box", [("size", chassis_size)], collide=collide)
    if v.gps:
        w.open('<sensor name="gps" type="gps">')
        w.element("always_on", "true")
        w.element("update_rate", "10")
        w.close("sensor")
    w.close("link")

    half_wb = v.wheelbase / 2.0
    half_track = v.track / 2.0
    wheels = (
        ("front_left_wheel", half_wb, half_track),
        ("front_right_wheel", half_wb, -half_track),
        ("rear_left_wheel", -half_wb, half_track),
        ("rear_right_wheel", -half_wb, -half_track),
    )
    cylinder = [("radius", fmt(v.wheel_radius)), ("length", fmt(WHEEL_WIDTH_M))]
    for name, wx, wy in wheels:
        w.open(f'<link name="{name}">')
        _write_pose(w, wx, wy, v.wheel_radius, _HALF_PI, 0, 0)
        _write_surfaces(w, "cylinder", cylinder, collide=collide)
        w.close("link")

    if actuated:
        limit = v.max_steer_angle
        _write_joint(w, "front_left_steer_joint", "front_left_wheel", "0 0 1", -limit, limit)
        _write_joint(w, "front_right_steer_joint", "front_right_wheel", "0 0 1", -limit, limit)
        _write_joint(w, "rear_left_spin_joint", "rear_left_wheel", "0 1 0", -SPIN_LIMIT, SPIN_LIMIT)
        _write_joint(w, "rear_right_spin_joint", "rear_right_wheel", "0 1 0", -SPIN_LIMIT, SPIN_LIMIT)
        w.open('<plugin name="ackermann_drive" filename="libackermann_drive.so">')
        w.element("wheelbase", fmt(v.wheelbase))
        w.element("track", fmt(v.track))
        w.element("wheel_radius", fmt(v.wheel_radius))
        w.element("max_steer_angle", fmt(v.max_steer_angle))
        w.close("plugin")

    w.close("model")


def validate_sdf(text: str) -> ValidationReport:
    """Structural checks on an SDF document; violations are data, not errors.

    Checks: well-formed XML, ``<sdf>`` root with a version, exactly one
    ``<world>`` containing a ``<spherical_coordinates>`` element, unique model
    names, polylines with at least 3 points and positive height, poses of 6
    finite numbers, and box and plane sizes of finite positive numbers.
    """
    issues: list[ValidationIssue] = []
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return ValidationReport((ValidationIssue("/", f"malformed XML: {exc}"),))

    if root.tag != "sdf":
        return ValidationReport(
            (ValidationIssue("/", f"root element is <{root.tag}>, expected <sdf>"),)
        )
    if not root.get("version"):
        issues.append(ValidationIssue("/sdf", "missing version attribute"))

    worlds = root.findall("world")
    if len(worlds) != 1:
        issues.append(
            ValidationIssue("/sdf", f"expected exactly one <world>, found {len(worlds)}")
        )
    for world in worlds:
        world_loc = _located(world, {world: root})
        if world.find("spherical_coordinates") is None:
            issues.append(
                ValidationIssue(world_loc, "missing <spherical_coordinates> element")
            )
        seen: set[str] = set()
        for model in world.findall("model"):
            name = model.get("name")
            if not name:
                issues.append(ValidationIssue(world_loc, "model without a name attribute"))
                continue
            if name in seen:
                issues.append(ValidationIssue(world_loc, f"duplicate model name {name}"))
            seen.add(name)

    # every pose, polyline and box or plane size in document order; the
    # parent map that a location needs is built only once a check has failed
    parents = None
    for element in root.iter():
        check = _CHECKS.get(element.tag)
        for message in check(element) if check else ():
            if parents is None:
                parents = {child: parent for parent in root.iter() for child in parent}
            if element.tag == "size" and parents[element].tag not in _SHAPES:
                break  # other sizes, such as a particle emitter's, may be zero
            issues.append(ValidationIssue(_located(element, parents), message))
    return ValidationReport(tuple(issues))


def _located(element: ET.Element, parents: dict[ET.Element, ET.Element]) -> str:
    """XPath-like location of ``element``: its ancestors below <sdf>, named
    by tag and, where they have one, by name."""
    steps = []
    while element in parents:
        name = element.get("name")
        steps.append(f"/{element.tag}[@name='{name}']" if name else f"/{element.tag}")
        element = parents[element]
    return "/sdf" + "".join(reversed(steps))


def _polyline_faults(points: int, height: str | None) -> list[str]:
    """The rules for a polyline of ``points`` points and ``height`` text;
    the writer and the validator both apply them."""
    faults = []
    if points < 3:
        faults.append(f"polyline has {points} points, needs >= 3")
    value = _parse_float(height)
    if value is None or value <= 0:
        faults.append("non-positive polyline height")
    return faults


def _pose_faults(text: str | None) -> list[str]:
    """The rule for a pose's text; the writer and the validator both apply it.
    One list and one ``all`` keep it cheap, as the writer runs it on every pose."""
    try:
        values = [float(p) for p in (text or "").split()]
    except ValueError:
        values = []
    if len(values) != 6 or not all(map(math.isfinite, values)):
        return ["pose must contain 6 finite numbers"]
    return []


def _size_faults(text: str | None) -> list[str]:
    """The rule for a ``<size>``'s text, of a plane or a box; the writer and
    the validator both apply it."""
    try:
        values = [float(p) for p in (text or "").split()]
    except ValueError:
        values = []
    if not values or not all(0 < v < math.inf for v in values):  # NaN fails both
        return ["size must contain finite positive numbers"]
    return []


def _parse_float(raw: str | None) -> float | None:
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _check_polyline(element: ET.Element) -> list[str]:
    height = element.find("height")
    return _polyline_faults(
        len(element.findall("point")), height.text if height is not None else None
    )


def _check_pose(element: ET.Element) -> list[str]:
    return _pose_faults(element.text)


def _check_size(element: ET.Element) -> list[str]:
    return _size_faults(element.text)


_CHECKS = {"polyline": _check_polyline, "pose": _check_pose, "size": _check_size}
_SHAPES = ("box", "plane")  # the parents whose <size> _check_size applies to
