"""OpenStreetMap XML parsing, bounding-box filtering, and Overpass download.

Only the elements needed for low-fidelity world generation are read:
``<node>`` and ``<way>`` (with ``<nd>``/``<tag>`` children) that are direct
children of the root. Relations and anything else are skipped. Parsing never
aborts on unknown content; defective nodes and ways are dropped and recorded
on the document's warning list. The map, a file open in binary mode, is
parsed as a stream, on expat's element callbacks: a node is read at its start
tag and a way at its end tag, and no element tree is built, so the parse
holds the returned document and little else, never a tree of a city-sized
map.
"""

import codecs
import http.client
import math
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import BinaryIO
from xml.parsers import expat

from .errors import OsmParseError, RemoteError, ResponseFormatError, TransportError

_SLICE_CHARS = 1 << 14  # bytes of the map read and fed to expat at a time
OVERPASS_TIMEOUT_S = 25.0  # default network timeout of an Overpass download


def lat_lon_in_range(lat: float, lon: float) -> bool:
    """Whether ``lat`` lies in [-90, 90] and ``lon`` in [-180, 180] degrees,
    bounds included; NaN lies in neither."""
    return -90 <= lat <= 90 and -180 <= lon <= 180


@dataclass(frozen=True, slots=True)
class OsmNode:
    id: int
    lat: float
    lon: float


@dataclass(frozen=True, slots=True)
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
        if not (
            lat_lon_in_range(self.min_lat, self.min_lon)
            and lat_lon_in_range(self.max_lat, self.max_lon)
        ):
            raise ValueError(
                "bounding box latitudes must lie in [-90, 90] and longitudes in [-180, 180]"
            )
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


def parse_osm(source: BinaryIO) -> OsmDocument:
    """Parse OSM XML from ``source``, a file open in binary mode, into an
    :class:`OsmDocument`.

    Nodes missing id/lat/lon or with out-of-range coordinates are skipped with
    a warning; a duplicate id keeps the first occurrence. Relations and
    unrecognized elements are ignored silently, and so is any ``node`` or
    ``way`` that is not a direct child of the root.

    The file is read ``_SLICE_CHARS`` bytes at a time and each slice goes
    straight to expat, so the whole document is never held. The bytes are
    taken as UTF-8: they are not decoded in Python, the declared encoding
    is not followed, and bytes that are not UTF-8 are an error at their
    line and column. The file is read, not closed. The handlers keep the
    depth of the element they are given, the root at depth 1, so only the
    root's children and a way's own members are read. Names are split on
    namespaces as ElementTree splits them, so a prefixed or namespaced
    element is never a plain ``node``, and an unbound prefix is an error.

    The document is held compactly. A ref to a node read before its way
    is the very int that keys the node in ``nodes``, and equal tag keys
    and values are one ``str``, so a city's worth of refs and tags costs
    pointers, not objects.
    """
    nodes: dict[int, OsmNode] = {}
    ways: dict[int, OsmWay] = {}
    warnings: list[str] = []
    depth = 0
    way_id: int | None = None  # of the root-level way being read, if its id is good
    refs: list[int] = []
    tags: dict[str, str] = {}
    texts: dict[str, str] = {}  # one object per distinct tag key or value

    def start(tag: str, attrs: dict[str, str]) -> None:
        nonlocal depth, way_id, refs, tags
        depth += 1
        if depth == 3:
            if way_id is None:
                return
            if tag == "nd":
                raw_ref = attrs.get("ref")
                try:
                    ref = int(raw_ref)
                except (TypeError, ValueError):
                    warnings.append(f"way {way_id}: ignoring <nd> with bad ref {raw_ref!r}")
                    return
                node = nodes.get(ref)
                refs.append(ref if node is None else node.id)
            elif tag == "tag":
                key = attrs.get("k")
                value = attrs.get("v")
                if key is not None and value is not None:
                    tags[texts.setdefault(key, key)] = texts.setdefault(value, value)
        elif depth == 2:
            if tag == "node":
                node = _read_node(attrs, warnings)
                if node is None:
                    return
                if node.id in nodes:
                    warnings.append(f"duplicate node id {node.id}: keeping first occurrence")
                else:
                    nodes[node.id] = node
            elif tag == "way":
                raw_id = attrs.get("id")
                try:
                    way_id = int(raw_id)
                except (TypeError, ValueError):
                    warnings.append(f"way id={raw_id!r} skipped: missing or unparseable id")
                    return
                refs = []
                tags = {}
            # relations and anything else: skipped silently

    def end(tag: str) -> None:
        nonlocal depth, way_id
        depth -= 1
        if depth == 1 and way_id is not None:
            if not refs:
                warnings.append(f"way {way_id} skipped: no node references")
            elif way_id in ways:
                warnings.append(f"duplicate way id {way_id}: keeping first occurrence")
            else:
                ways[way_id] = OsmWay(id=way_id, node_refs=tuple(refs), tags=tags)
            way_id = None

    def refuse_entity(name: str) -> None:
        # refused as ElementTree refuses it, the reference cut to 100 characters
        line, column = parser.CurrentLineNumber, parser.CurrentColumnNumber
        message = f"undefined entity {f'&{name};'[:100]}: line {line}, column {column}"
        raise OsmParseError(_malformed(line, column, message), line, column)

    def skipped_entity(name: str, is_parameter: int) -> None:
        # a reference in text to an entity that an external DTD may declare;
        # a parameter entity skipped in the DTD is ignored, by both
        if not is_parameter:
            refuse_entity(name)

    external: set[str] = set()  # general entities declared with a system id

    def entity_declared(
        name: str, is_parameter: int, value: str | None, base: str | None, system_id: str | None, *_: str | None
    ) -> None:
        if system_id is not None and not is_parameter:
            external.add(name)

    def external_entity(context: str, *_: str | None) -> None:
        # a reference to a declared external entity, which is never loaded;
        # the context names it among the entities being expanded, in no
        # set order, and it is the only external one
        refuse_entity(next(name for name in context.split("\f") if name in external))

    # the bytes are taken as UTF-8, whatever encoding the document declares
    parser = expat.ParserCreate(encoding="utf-8", namespace_separator="}")
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.SkippedEntityHandler = skipped_entity
    parser.EntityDeclHandler = entity_declared
    parser.ExternalEntityRefHandler = external_entity
    try:
        while data := source.read(_SLICE_CHARS):
            parser.Parse(data, False)
        parser.Parse(b"", True)
    except expat.ExpatError as exc:
        raise OsmParseError(_malformed(exc.lineno, exc.offset, str(exc)), exc.lineno, exc.offset) from exc
    finally:
        del parser  # refuse_entity closes over it: a cycle through the handlers
    return OsmDocument(nodes=nodes, ways=ways, warnings=warnings)


def _malformed(line: int, column: int, message: str) -> str:
    return f"malformed OSM XML at line {line}, column {column}: {message}"


def _read_node(attrs: dict[str, str], warnings: list[str]) -> OsmNode | None:
    raw_id = attrs.get("id")
    raw_lat = attrs.get("lat")
    raw_lon = attrs.get("lon")
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
    if not lat_lon_in_range(lat, lon):
        warnings.append(f"node {node_id} skipped: coordinates ({raw_lat}, {raw_lon}) out of range")
        return None
    return OsmNode(id=node_id, lat=lat, lon=lon)


def filter_bbox(doc: OsmDocument, bbox: BoundingBox) -> OsmDocument:
    """Restrict a document to a bounding box.

    Keeps every node inside the box (boundary inclusive), every way with at
    least one node inside, and all nodes referenced by a kept way. Ways are
    kept whole, never clipped. The nodes inside come first, in document
    order, then the kept ways' nodes outside the box, in way order.
    """
    nodes = {nid: n for nid, n in doc.nodes.items() if bbox.contains(n.lat, n.lon)}
    kept_ways = {
        wid: way
        for wid, way in doc.ways.items()
        if any(ref in nodes for ref in way.node_refs)
    }
    for way in kept_ways.values():
        for ref in way.node_refs:
            if ref not in nodes and (node := doc.nodes.get(ref)) is not None:
                nodes[node.id] = node
    return OsmDocument(nodes=nodes, ways=kept_ways, warnings=list(doc.warnings))


def overpass_query(bbox: BoundingBox, timeout: float = OVERPASS_TIMEOUT_S) -> str:
    """Build the Overpass QL query for all nodes and ways in ``bbox``.

    The bbox appears in Overpass order: south,west,north,east. The trailing
    recursion pulls in nodes referenced by the selected ways. ``timeout``
    must be a finite positive number of seconds; anything else raises
    ``ValueError``.
    """
    if not 0 < timeout < math.inf:  # NaN fails both
        raise ValueError(f"timeout must be a finite positive number of seconds, got {timeout!r}")
    box = f"{bbox.min_lat},{bbox.min_lon},{bbox.max_lat},{bbox.max_lon}"
    return (
        f"[out:xml][timeout:{math.ceil(timeout)}];\n"
        f"(node({box});way({box}););\n"
        "(._;>;);\n"
        "out body;\n"
    )


def fetch_overpass(bbox: BoundingBox, endpoint: str, timeout: float = OVERPASS_TIMEOUT_S) -> bytes:
    """POST an Overpass query and return the OSM XML response as UTF-8 bytes.

    The body is decoded with the charset named in the response's
    Content-Type, UTF-8 when none is named, to check that it is text and
    starts as OSM XML does, after one optional byte order mark. A UTF-8
    body is returned verbatim, mark included; any other is returned
    encoded as UTF-8, ready for :func:`parse_osm` through ``io.BytesIO``.
    A ``timeout`` that is not a finite positive number raises
    ``ValueError`` before any request.
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
        if codecs.lookup(charset).name != "utf-8":
            body = text.encode("utf-8")  # fails on a lone surrogate, which utf-7 can carry
    except (LookupError, UnicodeError) as exc:
        raise ResponseFormatError(f"response body does not decode as {charset}: {exc}") from exc
    head = text.removeprefix("\ufeff").lstrip()
    if not (head.startswith("<?xml") or head.startswith("<osm")):
        raise ResponseFormatError(
            f"response does not look like OSM XML (starts with {head[:40]!r})"
        )
    return body
