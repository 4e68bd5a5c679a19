"""OpenStreetMap XML parsing, bounding-box filtering, and Overpass download.

Only the elements needed for low-fidelity world generation are read:
``<node>`` and ``<way>`` (with ``<nd>``/``<tag>`` children) that are direct
children of the root. Relations and anything else are skipped. Parsing never
aborts on unknown content; defective nodes and ways are dropped and recorded
on the document's warning list. The map, a file open in binary mode, is
parsed as a stream, on the callbacks of the package's one XML reader: a node
is read at its start tag and a way at its end tag, and no element tree is
built, so the parse holds the returned document and little else. The nodes
are held as columns, not objects: an id index and ``array('d')`` latitude
and longitude columns, which a bounding-box filter shares with the document
it filters.

What is held of the ways depends on the caller. :func:`parse_osm` holds
every way in the document it returns. World generation reads the same map
through the same reader, but hands each way at its end tag to its per-way
pass in :mod:`dtgen.world_model` and holds none, apart from a way that
names a node not read yet: a dangling ref, or a node listed after the way.
Such a way is held until the document ends and is then handed to the same
pass. OSM XML lists nodes before ways, so a well-formed extract holds
none, and a map that lists ways first holds them all until its end.

Only :func:`fetch_overpass` needs the network stack (``urllib.request``,
``http.client`` and, through them, ``ssl``, ``socket`` and ``email``), so
it imports it when it is called: importing this module, or ``dtgen``,
loads none of it. It checks a UTF-8 download in slices and returns the
body it received, so the map is held once.
"""

import codecs
import io
import math
from array import array
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress
from operator import and_, is_not
from threading import TIMEOUT_MAX
from typing import BinaryIO
from xml.parsers import expat

from .errors import OsmParseError, RemoteError, ResponseFormatError, TransportError
from .geodesy import BoundingBox, is_ascii_number, lat_lon_in_range

_SLICE_CHARS = 1 << 14  # per slice: map bytes or SDF characters parsed, download bytes checked
OVERPASS_TIMEOUT_S = 25.0  # default network timeout of an Overpass download
_HEAD_CHARS = 40  # of a response's text, after its leading whitespace, that a refusal shows
_EXCERPT_CHARS = 200  # of an error response's text that a RemoteError shows


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


class NodeColumns(Mapping):
    """A document's nodes: a read-only mapping of id to :class:`OsmNode`
    that holds numbers, not node objects.

    ``index`` maps an id to its row, ``ids`` holds the id objects in row
    order, and ``lat`` and ``lon`` are ``array('d')`` columns. ``kept`` has
    one byte per row, 1 for a row that is one of these nodes and 0 for one
    that is not; :meth:`row` reads the two together. A filtered document
    shares its parent's index and columns and has its own ``kept``. A node
    is built when it is read; ``len``, ``in``, ``get``, iteration and ``==``
    are those of the dict of them in row order.
    """

    __slots__ = ("index", "ids", "lat", "lon", "kept", "_len")

    def __init__(self, index: dict[int, int], ids: list[int], lat: array, lon: array, kept: bytearray):
        self.index, self.ids, self.lat, self.lon, self.kept = index, ids, lat, lon, kept
        self._len = kept.count(1)

    @classmethod
    def of(cls, nodes: Mapping[int, OsmNode]) -> "NodeColumns":
        """``nodes`` itself when it is a ``NodeColumns``, else its nodes read
        into columns once, in its order, each under its key."""
        if isinstance(nodes, NodeColumns):
            return nodes
        ids = list(nodes)
        values = nodes.values()
        lat, lon = array("d", [n.lat for n in values]), array("d", [n.lon for n in values])
        return cls({nid: row for row, nid in enumerate(ids)}, ids, lat, lon, bytearray(b"\1") * len(ids))

    def row(self, node_id: int) -> int | None:
        """The row of the node ``node_id``, or ``None`` when it is not one of these."""
        row = self.index.get(node_id)
        return None if row is None or not self.kept[row] else row

    def __getitem__(self, node_id: int) -> OsmNode:
        row = self.row(node_id)
        if row is None:
            raise KeyError(node_id)
        return OsmNode(self.ids[row], self.lat[row], self.lon[row])

    def __contains__(self, node_id) -> bool:
        return self.row(node_id) is not None

    def __iter__(self):
        return compress(self.ids, self.kept)

    def __len__(self) -> int:
        return self._len

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass(frozen=True)
class OsmDocument:
    """Parsed map content, indexed by element id.

    ``nodes`` is a :class:`NodeColumns`; a dict of :class:`OsmNode` given
    here is read into one. Ways may reference node ids that are absent from
    ``nodes``; such dangling references are tolerated here and reported
    when geometry is extracted.
    """

    nodes: Mapping[int, OsmNode] = field(default_factory=dict)
    ways: dict[int, OsmWay] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", NodeColumns.of(self.nodes))


def parse_osm(source: BinaryIO) -> OsmDocument:
    """Parse OSM XML from ``source``, a file open in binary mode, into an
    :class:`OsmDocument`.

    Nodes missing id/lat/lon or with out-of-range coordinates are skipped with
    a warning; a duplicate id keeps the first occurrence. Relations and
    unrecognized elements are ignored silently, and so is any ``node`` or
    ``way`` that is not a direct child of the root.

    The file is read ``_SLICE_CHARS`` bytes at a time, each slice straight
    to :func:`_read_xml`, and not closed. The handlers keep the depth of the
    element they are given, the root at depth 1, so only the root's
    children and a way's own members are read.

    The document is held compactly. Each node is a row of the document's
    :class:`NodeColumns`, two 8-byte numbers and its id, and no
    :class:`OsmNode` is built. A ref to a node read before its way is the
    very int that keys the node in ``nodes``, and equal tag keys and values
    are one ``str``, so a city's worth of refs and tags costs pointers, not
    objects. An id, ref, latitude or longitude is read only from ASCII text
    without ``_`` (see :func:`dtgen.geodesy.is_ascii_number`).

    A ``str``, a ``bytes`` or a file open in text mode raises ``TypeError``.
    """
    return _read_osm(source)


def _read_osm(source: BinaryIO, way_taker: Callable | None = None) -> OsmDocument:
    """The map in ``source`` read as :func:`parse_osm` reads it, every way
    held in the returned document's ``ways`` when ``way_taker`` is ``None``.

    Otherwise ``way_taker(lat, lon)`` is called once, with the latitude and
    longitude columns that the nodes are read into, and returns ``take``.
    Each way whose refs all name nodes read before its end tag is handed to
    ``take(way_id, refs, rows, tags)`` there, with its refs and their rows
    in those columns, and is not held: only its id is kept, for the
    duplicate-way rule. A way that names a node not read yet, a dangling
    ref or a node listed after it, is held until the document ends and
    then handed to ``take`` in the order it was read, with ``None`` for
    the row of a ref to no node of the map. The returned document then
    holds no way.
    """
    if isinstance(source, (str, bytes, bytearray, memoryview, io.TextIOBase)):
        raise TypeError(
            f"parse_osm takes the map as a file open in binary mode, not {type(source).__name__}: "
            'open it with open(path, "rb"), or wrap bytes in io.BytesIO'
        )
    index: dict[int, int] = {}  # node id -> row
    ids: list[int] = []
    lat, lon = array("d"), array("d")
    ways: dict[int, OsmWay] = {}  # the held ways
    taken: set[int] = set()  # the ids of the ways handed to take
    take = None if way_taker is None else way_taker(lat, lon)
    warnings: list[str] = []
    depth = 0
    way_id: int | None = None  # of the root-level way being read, if its id is good
    ref_texts: list[str | None] = []  # the ref text of each of its <nd>, read at its end
    tags: dict[str, str] = {}
    texts: dict[str, str] = {}  # one object per distinct tag key or value

    def start(tag: str, attrs: dict[str, str]) -> None:
        nonlocal depth, way_id, ref_texts, tags
        depth += 1
        if depth == 3:
            if way_id is None:
                return
            if tag == "nd":
                ref_texts.append(attrs.get("ref"))
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
                node_id, node_lat, node_lon = node
                if node_id in index:
                    warnings.append(f"duplicate node id {node_id}: keeping first occurrence")
                else:
                    index[node_id] = len(ids)
                    ids.append(node_id)
                    lat.append(node_lat)
                    lon.append(node_lon)
            elif tag == "way":
                raw_id = attrs.get("id")
                try:
                    way_id = _read_int(raw_id)
                except ValueError:
                    warnings.append(f"way id={raw_id!r} skipped: missing or unparseable id")
                    return
                ref_texts = []
                tags = {}
            # relations and anything else: skipped silently

    def end(tag: str) -> None:
        nonlocal depth, way_id
        depth -= 1
        if depth == 1 and way_id is not None:
            refs = _read_refs(way_id, ref_texts, warnings)
            if not refs:
                warnings.append(f"way {way_id} skipped: no node references")
            elif way_id in ways or way_id in taken:
                warnings.append(f"duplicate way id {way_id}: keeping first occurrence")
            else:
                rows = list(map(index.get, refs))
                if take is None or None in rows:
                    node_refs = tuple(ref if row is None else ids[row] for ref, row in zip(refs, rows))
                    ways[way_id] = OsmWay(id=way_id, node_refs=node_refs, tags=tags)
                else:
                    taken.add(way_id)
                    take(way_id, refs, rows, tags)
            way_id = None

    try:
        _read_xml(iter(lambda: source.read(_SLICE_CHARS), b""), start, end)
    except expat.ExpatError as exc:
        line, column = exc.lineno, exc.offset
        raise OsmParseError(f"malformed OSM XML at line {line}, column {column}: {exc}", line, column) from exc
    if take is not None:
        for held in ways.values():
            take(held.id, held.node_refs, list(map(index.get, held.node_refs)), held.tags)
        ways = {}
    nodes = NodeColumns(index, ids, lat, lon, bytearray(b"\1") * len(ids))
    return OsmDocument(nodes=nodes, ways=ways, warnings=warnings)


def _read_refs(way_id: int, texts: list[str | None], warnings: list[str]) -> list[int]:
    """The node refs of way ``way_id`` read from ``texts``, the ``ref`` of
    each of its ``<nd>`` in order, ``None`` where it has none. A text that
    :func:`_read_int` refuses is skipped with a warning. All the texts are
    checked at once, and only a way that fails is read again a ref at a
    time."""
    try:
        if None in texts or not is_ascii_number("".join(texts)):
            raise ValueError
        return list(map(int, texts))
    except ValueError:
        numbers = []
        for text in texts:
            try:
                numbers.append(_read_int(text))
            except ValueError:
                warnings.append(f"way {way_id}: ignoring <nd> with bad ref {text!r}")
        return numbers


def _read_int(text: str | None) -> int:
    """``int(text)`` for the text of an id or a ref, which must be ASCII
    without ``_``; a missing or other text raises ``ValueError``."""
    if text is None or not is_ascii_number(text):
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def _read_xml(chunks: Iterable, start: Callable, end: Callable, text: Callable | None = None) -> None:
    """Feed ``chunks``, the slices of one XML document, to expat, which calls
    ``start(tag, attrs)``, ``end(tag)`` and ``text(data)``. The bytes, or a
    ``str`` slice's UTF-8 bytes, are taken as UTF-8 whatever the declared
    encoding; names are split on namespaces into ``uri}local``, as ElementTree
    splits them. Any fault, an undefined or external entity included, raises
    ``expat.ExpatError`` with ElementTree's message, ``lineno`` and ``offset``.
    """
    external: set[str] = set()  # general entities declared with a system id

    def refuse_entity(name: str, *_: int) -> None:
        # an undefined entity, or one only an external DTD may declare: refused as
        # ElementTree refuses it, cut to 100 characters. Parameter-entity parsing is
        # off, so each skipped entity that expat reports here is a general one
        line, column = parser.CurrentLineNumber, parser.CurrentColumnNumber
        error = expat.ExpatError(f"undefined entity {f'&{name};'[:100]}: line {line}, column {column}")
        error.lineno, error.offset = line, column
        raise error

    def entity_declared(name: str, is_parameter: int, _value, _base, system_id: str | None, *_) -> None:
        if system_id is not None and not is_parameter:
            external.add(name)

    def external_entity(context: str, *_: str | None) -> None:
        # a declared external entity, never loaded: the one external name in the context
        refuse_entity(next(name for name in context.split("\f") if name in external))

    parser = expat.ParserCreate(encoding="utf-8", namespace_separator="}")
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = text
    parser.SkippedEntityHandler = refuse_entity
    parser.EntityDeclHandler = entity_declared
    parser.ExternalEntityRefHandler = external_entity
    try:
        for chunk in chunks:
            parser.Parse(chunk, False)
        parser.Parse(b"", True)
    finally:
        del parser  # refuse_entity closes over it: a cycle through the handlers


def _read_node(attrs: dict[str, str], warnings: list[str]) -> tuple[int, float, float] | None:
    """A node's id, latitude and longitude, or ``None`` with a warning."""
    raw_id = attrs.get("id")
    raw_lat = attrs.get("lat")
    raw_lon = attrs.get("lon")
    if raw_id is None or raw_lat is None or raw_lon is None:
        warnings.append(f"node id={raw_id!r} skipped: missing id/lat/lon attribute")
        return None
    try:
        if not is_ascii_number(raw_id + raw_lat + raw_lon):
            raise ValueError
        node_id = int(raw_id)
        lat = float(raw_lat)
        lon = float(raw_lon)
    except ValueError:
        warnings.append(f"node id={raw_id!r} skipped: unparseable id/lat/lon")
        return None
    if not lat_lon_in_range(lat, lon):
        warnings.append(f"node {node_id} skipped: coordinates ({raw_lat}, {raw_lon}) out of range")
        return None
    return node_id, lat, lon


def filter_bbox(doc: OsmDocument, bbox: BoundingBox) -> OsmDocument:
    """Restrict a document to a bounding box.

    Keeps every node inside the box (boundary inclusive), every way with at
    least one node inside, and all nodes referenced by a kept way. Ways are
    kept whole, never clipped. The kept nodes come in document order. The
    result's nodes share ``doc``'s columns and index: only a byte per node,
    marking the kept ones, is new.
    """
    nodes = doc.nodes
    parent = nodes.kept
    # a byte per row, 1 for a node of doc inside the box
    kept = bytearray(map(and_, parent, map(bbox.contains, nodes.lat, nodes.lon)))
    is_kept, row_of, indexed = kept.__getitem__, nodes.index.get, partial(is_not, None)
    kept_ways = {
        wid: way
        for wid, way in doc.ways.items()
        if any(map(is_kept, filter(indexed, map(row_of, way.node_refs))))
    }
    refs = chain.from_iterable(way.node_refs for way in kept_ways.values())
    for row in filter(indexed, map(row_of, refs)):
        kept[row] = parent[row]  # 1 for a node of doc; kept holds no other
    kept_nodes = NodeColumns(nodes.index, nodes.ids, nodes.lat, nodes.lon, kept)
    return OsmDocument(nodes=kept_nodes, ways=kept_ways, warnings=list(doc.warnings))


def overpass_query(bbox: BoundingBox, timeout: float = OVERPASS_TIMEOUT_S) -> str:
    """Build the Overpass QL query for all nodes and ways in ``bbox``.

    The bbox appears in Overpass order: south,west,north,east. The trailing
    recursion pulls in nodes referenced by the selected ways. ``timeout``
    must be a finite positive number of seconds up to
    ``threading.TIMEOUT_MAX``, the most a socket timeout holds; anything
    else raises ``ValueError``.
    """
    if not 0 < timeout <= TIMEOUT_MAX:  # NaN fails both
        raise ValueError(
            f"timeout must be a finite positive number of seconds up to {TIMEOUT_MAX:.0f}, "
            f"got {timeout!r}"
        )
    box = f"{bbox.min_lat},{bbox.min_lon},{bbox.max_lat},{bbox.max_lon}"
    return (
        f"[out:xml][timeout:{math.ceil(timeout)}];\n"
        f"(node({box});way({box}););\n"
        "(._;>;);\n"
        "out body;\n"
    )


def fetch_overpass(bbox: BoundingBox, endpoint: str, timeout: float = OVERPASS_TIMEOUT_S) -> bytes:
    """POST an Overpass query and return the OSM XML response as UTF-8 bytes.

    The body is checked to decode with the charset named in the response's
    Content-Type, UTF-8 when none is named, and to start as OSM XML does,
    after one optional byte order mark. A UTF-8 body is checked in slices,
    never decoded whole, and returned verbatim, mark included; any other is
    returned encoded as UTF-8, ready for :func:`parse_osm` through
    ``io.BytesIO``. A ``timeout`` that :func:`overpass_query` refuses
    raises ``ValueError`` before any request. The network stack is
    imported on the first call.
    """
    import http.client
    import urllib.error
    import urllib.request

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
        raise RemoteError(status, _error_excerpt(body, charset))
    try:
        if codecs.lookup(charset).name == "utf-8":
            head = _utf8_head(body)
        else:
            text = body.decode(charset)
            body = text.encode("utf-8")  # fails on a lone surrogate, which utf-7 can carry
            head = text.removeprefix("\ufeff").lstrip()
    except (LookupError, UnicodeError) as exc:
        raise ResponseFormatError(f"response body does not decode as {charset}: {exc}") from exc
    if not (head.startswith("<?xml") or head.startswith("<osm")):
        raise ResponseFormatError(
            f"response does not look like OSM XML (starts with {head[:_HEAD_CHARS]!r})"
        )
    return body


def _error_excerpt(body: bytes, charset: str) -> str:
    """The first ``_EXCERPT_CHARS`` characters of an error response's
    ``body`` in ``charset``, bytes that do not decode replaced, or in UTF-8
    when Python has no text codec for ``charset`` or its codec fails even
    so. Only the head of the body is decoded: no codec takes more than 8
    bytes for a character."""
    head = body[: 8 * _EXCERPT_CHARS]
    try:
        return head.decode(charset, errors="replace")[:_EXCERPT_CHARS]
    except (LookupError, UnicodeError):
        return head.decode("utf-8", errors="replace")[:_EXCERPT_CHARS]


def _utf8_head(body: bytes) -> str:
    """The first ``_HEAD_CHARS`` characters of the UTF-8 ``body`` after one
    optional byte order mark and any leading whitespace.

    The whole body is decoded to check it, ``_SLICE_CHARS`` bytes at a time,
    and only the head is kept. A byte that is not UTF-8 raises
    ``UnicodeDecodeError`` as ``body.decode("utf-8")`` raises it.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    view = memoryview(body)
    head = ""
    first = len(codecs.BOM_UTF8) if body.startswith(codecs.BOM_UTF8) else 0
    try:
        for start in range(first, len(body), _SLICE_CHARS):
            text = decoder.decode(view[start : start + _SLICE_CHARS])
            if len(head) < _HEAD_CHARS:
                head = (head + text).lstrip()[:_HEAD_CHARS]
        decoder.decode(b"", True)  # a character cut at the end
    except UnicodeDecodeError:
        body.decode("utf-8")  # raises with the position in the whole body
        raise
    return head
