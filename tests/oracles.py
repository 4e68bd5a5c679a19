"""Independent reference implementations used to check library results.

These deliberately avoid numpy and any dtgen internals: plain loops and
math, written straight from the documented rules, whole-document parses
where the library streams, and, where a faster path replaced a slower one,
the slower one built from dtgen's public functions. The one exception is
the SDF validator's per-element rules, which the tree walk takes from
``dtgen.sdf``, the table ``_RULES`` of elements that hold numbers and the
polyline rule, so that a difference can only come from reading the XML.
:func:`trajectory_of` builds the tests' trajectories sample by sample.
"""

import bisect
import json
import math
import xml.etree.ElementTree as ET
from array import array

from dtgen.config import resolve_spawn
from dtgen.errors import OsmParseError
from dtgen.geodesy import EARTH_RADIUS_M, LocalPoint, origin_of, project
from dtgen.osm import OsmDocument, OsmNode, OsmWay, filter_bbox, parse_osm
from dtgen.pipeline import GenerationResult
from dtgen.replay import (
    ControlSample,
    GapReport,
    Trajectory,
    TrajectorySample,
    derive_headings,
    normalize_angle,
    step_kinematic,
)
from dtgen.sdf import _RULES, ValidationIssue, ValidationReport, _number_faults, _polyline_faults
from dtgen.world_model import extract_buildings, extract_roads

HEADING_GATE_M = 0.05
MIN_VERTEX_SEPARATION_M = 1e-6


def trajectory_of(samples):
    """The ``Trajectory`` of an iterable of ``TrajectorySample``, its
    ``array('d')`` columns read from the samples once; it has yaw when the
    first sample has one."""
    samples = list(samples)
    columns = [array("d", [getattr(s, name) for s in samples]) for name in ("t", "x", "y")]
    if samples and samples[0].yaw is not None:
        columns.append(array("d", [s.yaw for s in samples]))
    return Trajectory(*columns)


def brute_force_headings(real_pts, gate=HEADING_GATE_M):
    """Gated motion heading per point, carried over where motion is unknown."""
    n = len(real_pts)
    headings = []
    for i in range(n):
        heading = None
        for j in range(i + 1, n):
            dx = real_pts[j][0] - real_pts[i][0]
            dy = real_pts[j][1] - real_pts[i][1]
            if math.sqrt(dx * dx + dy * dy) >= gate:
                heading = math.atan2(dy, dx)
                break
        headings.append(heading)
    last = next((h for h in headings if h is not None), 0.0)
    carried = []
    for h in headings:
        if h is None:
            carried.append(last)
        else:
            carried.append(h)
            last = h
    return carried


def brute_force_gap_metrics(real_pts, sim_pts, gate=HEADING_GATE_M):
    """Direct-summation deviation metrics for two aligned point sequences."""
    n = len(real_pts)
    devs = []
    for (rx, ry), (sx, sy) in zip(real_pts, sim_pts):
        devs.append(math.sqrt((sx - rx) ** 2 + (sy - ry) ** 2))
    rmse = math.sqrt(sum(d * d for d in devs) / n)

    carried = brute_force_headings(real_pts, gate)
    lat_sq = lon_sq = 0.0
    for (rx, ry), (sx, sy), heading in zip(real_pts, sim_pts, carried):
        dx, dy = sx - rx, sy - ry
        lat_sq += (-math.sin(heading) * dx + math.cos(heading) * dy) ** 2
        lon_sq += (math.cos(heading) * dx + math.sin(heading) * dy) ** 2

    return {
        "rmse": rmse,
        "max_dev": max(devs),
        "mean_dev": sum(devs) / n,
        "final_drift": devs[-1],
        "lateral_rmse": math.sqrt(lat_sq / n),
        "longitudinal_rmse": math.sqrt(lon_sq / n),
    }


def count_distinct(points, separation=MIN_VERTEX_SEPARATION_M):
    """Greedy count, in order, of points farther than ``separation`` from
    every point counted before them."""
    distinct = []
    for p in points:
        if all(math.hypot(p.x - q.x, p.y - q.y) > separation for q in distinct):
            distinct.append(p)
    return len(distinct)


def tree_parse_osm(xml_text):
    """``parse_osm`` as one ``ET.fromstring`` of the whole text, then a walk
    over the root's children: the reader the streaming parser replaced.
    Ids, refs and coordinates are read only from ASCII text without ``_``."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        line, column = exc.position if exc.position else (None, None)
        raise OsmParseError(
            f"malformed OSM XML at line {line}, column {column}: {exc.msg}", line, column
        ) from exc
    nodes, ways, warnings = {}, {}, []
    for child in root:
        if child.tag == "node":
            node = _tree_node(child, warnings)
            if node is None:
                continue
            if node.id in nodes:
                warnings.append(f"duplicate node id {node.id}: keeping first occurrence")
            else:
                nodes[node.id] = node
        elif child.tag == "way":
            way = _tree_way(child, warnings)
            if way is None:
                continue
            if way.id in ways:
                warnings.append(f"duplicate way id {way.id}: keeping first occurrence")
            else:
                ways[way.id] = way
    return OsmDocument(nodes=nodes, ways=ways, warnings=warnings)


def _tree_node(element, warnings):
    raw_id, raw_lat, raw_lon = (element.get(k) for k in ("id", "lat", "lon"))
    if raw_id is None or raw_lat is None or raw_lon is None:
        warnings.append(f"node id={raw_id!r} skipped: missing id/lat/lon attribute")
        return None
    try:
        node_id, lat, lon = _ascii_int(raw_id), _ascii_float(raw_lat), _ascii_float(raw_lon)
    except ValueError:
        warnings.append(f"node id={raw_id!r} skipped: unparseable id/lat/lon")
        return None
    if not (math.isfinite(lat) and math.isfinite(lon) and -90 <= lat <= 90 and -180 <= lon <= 180):
        warnings.append(f"node {node_id} skipped: coordinates ({raw_lat}, {raw_lon}) out of range")
        return None
    return OsmNode(id=node_id, lat=lat, lon=lon)


def _ascii_text(text):
    """``text`` when every character is ASCII and none is ``_``, which
    ``int`` and ``float`` would read as a digit separator."""
    if any(ord(c) > 127 or c == "_" for c in text):
        raise ValueError(f"not ASCII decimal: {text!r}")
    return text


def _ascii_int(text):
    return int(_ascii_text(text))


def _ascii_float(text):
    return float(_ascii_text(text))


def _tree_way(element, warnings):
    raw_id = element.get("id")
    try:
        way_id = _ascii_int(raw_id) if raw_id is not None else None
    except ValueError:
        way_id = None
    if way_id is None:
        warnings.append(f"way id={raw_id!r} skipped: missing or unparseable id")
        return None
    refs, tags = [], {}
    for member in element:
        if member.tag == "nd":
            raw_ref = member.get("ref")
            try:
                refs.append(_ascii_int(raw_ref))
            except (TypeError, ValueError):
                warnings.append(f"way {way_id}: ignoring <nd> with bad ref {raw_ref!r}")
        elif member.tag == "tag":
            key, value = member.get("k"), member.get("v")
            if key is not None and value is not None:
                tags[key] = value
    if not refs:
        warnings.append(f"way {way_id} skipped: no node references")
        return None
    return OsmWay(id=way_id, node_refs=tuple(refs), tags=tags)


def tree_validate_sdf(text):
    """``validate_sdf`` as one ``ET.fromstring`` of the whole text, then
    ``find``, ``findall`` and ``iter`` over the tree, with a parent map for
    locations and for the parent tag each ``_RULES`` row is keyed by: the
    validator the streaming one replaced. It applies the same per-element
    rules, from ``dtgen.sdf``."""
    issues = []
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return ValidationReport((ValidationIssue("/", f"malformed XML: {exc}"),))
    except UnicodeEncodeError as exc:
        surrogate = f"U+{ord(exc.object[exc.start]):04X}"
        message = f"malformed XML: lone surrogate {surrogate} is not encodable as UTF-8"
        return ValidationReport((ValidationIssue("/", message),))

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
        world_loc = _tree_located(world, {world: root})
        if world.find("spherical_coordinates") is None:
            issues.append(
                ValidationIssue(world_loc, "missing <spherical_coordinates> element")
            )
        seen = set()
        for model in world.findall("model"):
            name = model.get("name")
            if not name:
                issues.append(ValidationIssue(world_loc, "model without a name attribute"))
                continue
            if name in seen:
                issues.append(ValidationIssue(world_loc, f"duplicate model name {name}"))
            seen.add(name)

    # every polyline and every element a _RULES row names, by its parent's tag
    # or by any parent, in document order; other sizes, such as a particle
    # emitter's, may be zero
    parents = {child: parent for parent in root.iter() for child in parent}
    for element in root.iter():
        tag, parent_tag = element.tag, parents[element].tag if element in parents else None
        rule = _RULES.get((parent_tag, tag)) or _RULES.get((None, tag))
        if tag == "polyline":
            messages = _tree_check_polyline(element)
        else:
            messages = _number_faults(tag, _tree_numbers(element), *rule) if rule else []
        issues += (ValidationIssue(_tree_located(element, parents), m) for m in messages)
    return ValidationReport(tuple(issues))


def _tree_located(element, parents):
    """XPath-like location of ``element``: its ancestors below <sdf>, named
    by tag and, where they have one, by name."""
    steps = []
    while element in parents:
        name = element.get("name")
        steps.append(f"/{element.tag}[@name='{name}']" if name else f"/{element.tag}")
        element = parents[element]
    return "/sdf" + "".join(reversed(steps))


def _tree_numbers(element):
    """The numbers in the text of ``element``: none if it is missing, or if
    any part of its text is not a number."""
    if element is None:
        return []
    try:
        return [float(p) for p in (element.text or "").split()]
    except ValueError:
        return []


def _tree_check_polyline(element):
    height = _tree_numbers(element.find("height"))
    points = len(element.findall("point"))
    return _polyline_faults(points, height[0] if len(height) == 1 else math.nan)


def three_set_filter_bbox(doc, bbox):
    """``filter_bbox`` as three id sets and a second pass over the nodes:
    the nodes inside, the ways with a node inside, and every node those
    ways reference."""
    inside = {nid for nid, n in doc.nodes.items() if bbox.contains(n.lat, n.lon)}
    kept_ways = {
        wid: way for wid, way in doc.ways.items() if any(ref in inside for ref in way.node_refs)
    }
    keep_nodes = set(inside)
    for way in kept_ways.values():
        keep_nodes.update(ref for ref in way.node_refs if ref in doc.nodes)
    nodes = {nid: n for nid, n in doc.nodes.items() if nid in keep_nodes}
    return OsmDocument(nodes=nodes, ways=kept_ways, warnings=list(doc.warnings))


def four_pass_generate(config, osm):
    """``generate_world`` as four passes over a held document: the whole
    map parsed, then filtered to the bounding box, then every way read
    for buildings, then again for roads. The warnings come in that order,
    the parse's first, and then those of vehicles spawned outside the
    bounding box."""
    doc = filter_bbox(parse_osm(osm), config.bbox)
    origin = origin_of(config.bbox)
    buildings, building_warnings = extract_buildings(doc, origin, config.defaults)
    roads, road_warnings = extract_roads(doc, origin, config.defaults)
    warnings = doc.warnings + building_warnings + road_warnings
    low = project(origin, config.bbox.min_lat, config.bbox.min_lon)
    high = project(origin, config.bbox.max_lat, config.bbox.max_lon)
    for spec in config.vehicles:
        x, y, _ = resolve_spawn(spec.spawn, origin)
        if not (low.x <= x <= high.x and low.y <= y <= high.y):
            warnings.append(f"vehicle {spec.name!r} spawns outside the configured bounding box")
    return GenerationResult(tuple(buildings), tuple(roads), tuple(warnings), config)


def indent_encoder_gap_json(report):
    """``GapReport.to_json`` as the whole report through ``json.dumps`` with
    an indent, which runs the pure-Python encoder: the serializer the direct
    ``per_sample`` formatter replaced."""
    fields = {**vars(report), "per_sample": [[t, d] for t, d in report.per_sample]}
    return json.dumps(fields, indent=2, allow_nan=False) + "\n"


def bisect_shadow_follow(recorded, query_times):
    """``shadow_follow`` as one ``bisect`` per query time over a list of the
    recorded times: the lookup the shared forward walk replaced."""
    times = [s.t for s in recorded.samples]
    yaws = [s.yaw for s in recorded.samples] if recorded.has_yaw else derive_headings(recorded)
    out = []
    for t in query_times:
        if not times[0] <= t <= times[-1]:
            raise ValueError(
                f"query time {t} outside recorded range [{times[0]}, {times[-1]}]"
            )
        i = bisect.bisect_left(times, t)
        hi = recorded.samples[i]
        if hi.t == t:
            out.append(TrajectorySample(t, hi.x, hi.y, yaws[i]))
            continue
        lo = recorded.samples[i - 1]
        frac = (t - lo.t) / (hi.t - lo.t)
        x = lo.x + frac * (hi.x - lo.x)
        y = lo.y + frac * (hi.y - lo.y)
        yaw = normalize_angle(yaws[i - 1] + frac * normalize_angle(yaws[i] - yaws[i - 1]))
        out.append(TrajectorySample(t, x, y, yaw))
    return trajectory_of(out)


def shadow_follow_compute_gap(real, sim):
    """``compute_gap`` as the recorded samples in the overlap selected into a
    list, the simulated trajectory resampled onto their times by
    :func:`bisect_shadow_follow` (yaw and all), then three lists of
    per-sample values: the comparison the one-pass walk replaced."""
    t_lo = max(real.t_first, sim.t_first)
    t_hi = min(real.t_last, sim.t_last)
    selected = [i for i, s in enumerate(real.samples) if t_lo <= s.t <= t_hi]
    if len(selected) < 2:
        raise ValueError(
            "trajectories overlap on fewer than 2 samples: "
            f"recorded t=[{real.t_first}, {real.t_last}], simulated t=[{sim.t_first}, {sim.t_last}]"
        )
    times = [real.samples[i].t for i in selected]
    resampled = bisect_shadow_follow(sim, times)

    headings = derive_headings(real)
    devs, lateral_sq, longitudinal_sq = [], [], []
    for i, s in zip(selected, resampled.samples):
        dx = s.x - real.samples[i].x
        dy = s.y - real.samples[i].y
        cos_h, sin_h = math.cos(headings[i]), math.sin(headings[i])
        lateral = -sin_h * dx + cos_h * dy
        longitudinal = cos_h * dx + sin_h * dy
        devs.append(math.hypot(dx, dy))
        lateral_sq.append(lateral * lateral)
        longitudinal_sq.append(longitudinal * longitudinal)

    def mean(values):
        try:
            return math.fsum(values) / len(values)
        except OverflowError:
            return math.inf

    return GapReport(
        n=len(selected),
        rmse=math.sqrt(mean([d * d for d in devs])),
        max_dev=max(devs),
        mean_dev=mean(devs),
        final_drift=devs[-1],
        lateral_rmse=math.sqrt(mean(lateral_sq)),
        longitudinal_rmse=math.sqrt(mean(longitudinal_sq)),
        per_sample=tuple((float(t), d) for t, d in zip(times, devs)),
    )


def column_simulate_controls(initial, controls, spec, t_end=None):
    """``simulate_controls`` as three ``array('d')`` columns read from the
    controls, then a pass each for the order check, the clamp warnings and
    the times, and only then the steps: the replay the one-pass loop
    replaced. A step back in time is refused before a non-finite ``t_end``,
    and both before any hold is stepped."""
    if not controls:
        raise ValueError("at least one control sample is required")
    t, speed, steer = (array("d", [getattr(c, n) for c in controls]) for n in ("t", "speed", "steer"))
    for i in range(1, len(t)):
        if not t[i] > t[i - 1]:
            raise ValueError(
                "control timestamps must be strictly increasing: "
                f"control {i} at t={t[i]} follows t={t[i - 1]}"
            )
    if t_end is not None and not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    limit = spec.max_steer_angle
    warnings = [
        f"control at t={c_t}: steer {c_steer} exceeds limit {limit}, clamped"
        for c_t, c_steer in zip(t, steer)
        if abs(c_steer) > limit
    ]
    times = array("d", t)
    if t_end is not None and t_end > t[-1]:
        times.append(t_end)
    state = initial
    x, y, yaw = array("d", [state.x]), array("d", [state.y]), array("d", [state.yaw])
    for control, t1 in zip(map(ControlSample, t, speed, steer), times[1:]):
        state = step_kinematic(state, control, t1 - control.t, spec)
        x.append(state.x)
        y.append(state.y)
        yaw.append(state.yaw)
    return Trajectory(times, x, y, yaw, warnings)


def _wrapped(degrees: float) -> float:
    """``degrees`` moved by one turn into [-180, 180] when it lies outside,
    which is enough for a difference of two longitudes in [-180, 180]; an
    angle already inside keeps its bits."""
    if degrees > 180.0:
        return degrees - 360.0
    if degrees < -180.0:
        return degrees + 360.0
    return degrees


def one_turn_project(origin, lat, lon):
    """``dtgen.geodesy.project`` with the longitude difference wrapped by one
    conditional turn, :func:`_wrapped`: the wrap ``math.remainder``
    replaced."""
    if not (math.isfinite(lat) and math.isfinite(lon)):
        raise ValueError("latitude and longitude must be finite")
    dlon = _wrapped(lon - origin.lon0)
    x = EARTH_RADIUS_M * math.radians(dlon) * origin.cos_lat0
    y = EARTH_RADIUS_M * math.radians(lat - origin.lat0)
    return LocalPoint(x, y)
