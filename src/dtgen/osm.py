"""OpenStreetMap XML parsing, bounding-box filtering, and Overpass download.

Only the elements needed for low-fidelity world generation are read:
``<node>`` and ``<way>`` (with ``<nd>``/``<tag>`` children) that are direct
children of the root. Relations and anything else are skipped. Parsing never
aborts on unknown content; defective nodes and ways are dropped and recorded
on the document's warning list. The text is parsed as a stream: each node
and way is read once it is complete and then dropped from the XML tree, so
the parse holds the returned document and about one slice of XML, never
the whole tree of a city-sized map.
"""

import http.client
import itertools
import math
import urllib.error
import urllib.request
import xml.etree.ElementTree as ET
from collections.abc import Iterator
from dataclasses import dataclass, field

from .errors import OsmParseError, RemoteError, ResponseFormatError, TransportError

_SLICE_CHARS = 1 << 16  # characters fed to the XML parser at a time


@dataclass(frozen=True)
class OsmNode:
    id: int
    lat: float
    lon: float


@dataclass(frozen=True)
class OsmWay:
    id: int
    node_refs: tuple[int, ...]
    tags: dict[str, str]


@dataclass(frozen=True)
class BoundingBox:
    """Geographic selection rectangle in WGS84 degrees."""

    min_lat: float
    min_lon: float
    max_lat: float
    max_lon: float

    def __post_init__(self):
        values = (self.min_lat, self.min_lon, self.max_lat, self.max_lon)
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            raise ValueError("bounding box coordinates must be finite numbers")
        if not self.min_lat < self.max_lat:
            raise ValueError("bounding box requires min_lat < max_lat")
        if not self.min_lon < self.max_lon:
            raise ValueError(
                "bounding box requires min_lon < max_lon "
                "(boxes crossing the antimeridian are not supported)"
            )

    def contains(self, lat: float, lon: float) -> bool:
        """Boundary-inclusive membership test."""
        return self.min_lat <= lat <= self.max_lat and self.min_lon <= lon <= self.max_lon


@dataclass(frozen=True)
class OsmDocument:
    """Parsed map content, indexed by element id.

    Ways may reference node ids that are absent from ``nodes``; such dangling
    references are tolerated here and reported when geometry is extracted.
    """

    nodes: dict[int, OsmNode] = field(default_factory=dict)
    ways: dict[int, OsmWay] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list, compare=False)


def parse_osm(xml_text: str) -> OsmDocument:
    """Parse OSM XML into an :class:`OsmDocument`.

    Nodes missing id/lat/lon or with out-of-range coordinates are skipped with
    a warning; a duplicate id keeps the first occurrence. Relations and
    unrecognized elements are ignored silently, and so is any ``node`` or
    ``way`` that is not a direct child of the root.
    """
    nodes: dict[int, OsmNode] = {}
    ways: dict[int, OsmWay] = {}
    warnings: list[str] = []

    for child in _root_children(xml_text):
        if child.tag == "node":
            node = _read_node(child, warnings)
            if node is None:
                continue
            if node.id in nodes:
                warnings.append(f"duplicate node id {node.id}: keeping first occurrence")
                continue
            nodes[node.id] = node
        elif child.tag == "way":
            way = _read_way(child, warnings)
            if way is None:
                continue
            if way.id in ways:
                warnings.append(f"duplicate way id {way.id}: keeping first occurrence")
                continue
            ways[way.id] = way
        # relations and anything else: skipped silently

    return OsmDocument(nodes=nodes, ways=ways, warnings=warnings)


def _root_children(xml_text: str) -> Iterator[ET.Element]:
    """Yield the root's children in document order, each once it is complete.

    The text goes to the parser ``_SLICE_CHARS`` characters at a time. After
    each slice, every child but the last has seen its end tag, so those are
    yielded and dropped from the root: the tree never holds more than about
    one slice of elements. Slices are plain string slices; wrapping the text
    in a file object would copy it into a buffer four times its size.
    """
    parser = ET.XMLPullParser(("start",))
    root = None
    slices = (xml_text[i:i + _SLICE_CHARS] for i in range(0, len(xml_text), _SLICE_CHARS))
    try:
        # the last step closes the parser, which drains what it still holds
        for text in itertools.chain(slices, [None]):
            if text is None:
                parser.close()
            else:
                parser.feed(text)
            # every element's start is an event; the first is the root's,
            # and a parse error is raised from feed or close
            for _, element in parser.read_events():
                if root is None:
                    root = element
            if root is not None and text is not None:
                done = root[:-1]
                del root[:-1]
                yield from done
    except ET.ParseError as exc:
        line, column = exc.position if exc.position else (None, None)
        raise OsmParseError(
            f"malformed OSM XML at line {line}, column {column}: {exc.msg}",
            line,
            column,
        ) from exc
    yield from root


def _read_node(element: ET.Element, warnings: list[str]) -> OsmNode | None:
    raw_id = element.get("id")
    raw_lat = element.get("lat")
    raw_lon = element.get("lon")
    if raw_id is None or raw_lat is None or raw_lon is None:
        warnings.append(f"node id={raw_id!r} skipped: missing id/lat/lon attribute")
        return None
    try:
        node_id = int(raw_id)
        lat = float(raw_lat)
        lon = float(raw_lon)
    except ValueError:
        warnings.append(f"node id={raw_id!r} skipped: unparseable id/lat/lon")
        return None
    if not (math.isfinite(lat) and math.isfinite(lon) and -90 <= lat <= 90 and -180 <= lon <= 180):
        warnings.append(f"node {node_id} skipped: coordinates ({raw_lat}, {raw_lon}) out of range")
        return None
    return OsmNode(id=node_id, lat=lat, lon=lon)


def _read_way(element: ET.Element, warnings: list[str]) -> OsmWay | None:
    raw_id = element.get("id")
    try:
        way_id = int(raw_id) if raw_id is not None else None
    except ValueError:
        way_id = None
    if way_id is None:
        warnings.append(f"way id={raw_id!r} skipped: missing or unparseable id")
        return None

    refs: list[int] = []
    tags: dict[str, str] = {}
    for member in element:
        if member.tag == "nd":
            raw_ref = member.get("ref")
            try:
                refs.append(int(raw_ref))
            except (TypeError, ValueError):
                warnings.append(f"way {way_id}: ignoring <nd> with bad ref {raw_ref!r}")
        elif member.tag == "tag":
            key = member.get("k")
            value = member.get("v")
            if key is not None and value is not None:
                tags[key] = value

    if not refs:
        warnings.append(f"way {way_id} skipped: no node references")
        return None
    return OsmWay(id=way_id, node_refs=tuple(refs), tags=tags)


def filter_bbox(doc: OsmDocument, bbox: BoundingBox) -> OsmDocument:
    """Restrict a document to a bounding box.

    Keeps every node inside the box (boundary inclusive), every way with at
    least one node inside, and all nodes referenced by a kept way. Ways are
    kept whole, never clipped.
    """
    inside = {nid for nid, n in doc.nodes.items() if bbox.contains(n.lat, n.lon)}
    kept_ways = {
        wid: way
        for wid, way in doc.ways.items()
        if any(ref in inside for ref in way.node_refs)
    }
    keep_nodes = set(inside)
    for way in kept_ways.values():
        keep_nodes.update(ref for ref in way.node_refs if ref in doc.nodes)
    nodes = {nid: n for nid, n in doc.nodes.items() if nid in keep_nodes}
    return OsmDocument(nodes=nodes, ways=kept_ways, warnings=list(doc.warnings))


def overpass_query(bbox: BoundingBox, timeout: float = 25.0) -> str:
    """Build the Overpass QL query for all nodes and ways in ``bbox``.

    The bbox appears in Overpass order: south,west,north,east. The trailing
    recursion pulls in nodes referenced by the selected ways.
    """
    box = f"{bbox.min_lat},{bbox.min_lon},{bbox.max_lat},{bbox.max_lon}"
    ql_timeout = max(1, math.ceil(timeout))
    return (
        f"[out:xml][timeout:{ql_timeout}];\n"
        f"(node({box});way({box}););\n"
        "(._;>;);\n"
        "out body;\n"
    )


def fetch_overpass(bbox: BoundingBox, endpoint: str, timeout: float = 25.0) -> str:
    """POST an Overpass query and return the OSM XML response verbatim.

    The body is decoded with the charset named in the response's
    Content-Type, UTF-8 when none is named.
    """
    query = overpass_query(bbox, timeout)
    try:
        request = urllib.request.Request(
            endpoint,
            data=query.encode("utf-8"),
            headers={"Content-Type": "text/plain; charset=utf-8"},
            method="POST",
        )
        try:
            response = urllib.request.urlopen(request, timeout=timeout)
        except urllib.error.HTTPError as exc:
            response = exc  # an HTTP error status still carries a body
        with response:
            status = response.status
            charset = response.headers.get_content_charset() or "utf-8"
            body = response.read()
    except (OSError, ValueError, http.client.HTTPException) as exc:
        # OSError covers URLError, refused connections and socket timeouts;
        # ValueError an endpoint that is not an http(s) URL
        raise TransportError(f"request to {endpoint} failed: {exc}") from exc
    if status >= 400:
        raise RemoteError(status, body.decode(charset, errors="replace")[:200])
    try:
        text = body.decode(charset)
    except (LookupError, UnicodeDecodeError) as exc:
        raise ResponseFormatError(f"response body does not decode as {charset}: {exc}") from exc
    head = text.lstrip()
    if not (head.startswith("<?xml") or head.startswith("<osm")):
        raise ResponseFormatError(
            f"response does not look like OSM XML (starts with {head[:40]!r})"
        )
    return text
