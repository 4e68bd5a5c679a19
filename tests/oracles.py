"""Independent reference implementations used to check library results.

These deliberately avoid numpy and any dtgen internals: plain loops and
math, written straight from the documented rules, and whole-document
parses where the library streams.
"""

import math
import xml.etree.ElementTree as ET

from dtgen.errors import OsmParseError
from dtgen.osm import OsmDocument, OsmNode, OsmWay

HEADING_GATE_M = 0.05
MIN_VERTEX_SEPARATION_M = 1e-6


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
    over the root's children: the reader the streaming parser replaced."""
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
        node_id, lat, lon = int(raw_id), float(raw_lat), float(raw_lon)
    except ValueError:
        warnings.append(f"node id={raw_id!r} skipped: unparseable id/lat/lon")
        return None
    if not (math.isfinite(lat) and math.isfinite(lon) and -90 <= lat <= 90 and -180 <= lon <= 180):
        warnings.append(f"node {node_id} skipped: coordinates ({raw_lat}, {raw_lon}) out of range")
        return None
    return OsmNode(id=node_id, lat=lat, lon=lon)


def _tree_way(element, warnings):
    raw_id = element.get("id")
    try:
        way_id = int(raw_id) if raw_id is not None else None
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
                refs.append(int(raw_ref))
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
