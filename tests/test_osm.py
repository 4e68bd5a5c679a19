import codecs
import gc
import io
import math
import threading
import tracemalloc
from unittest import mock
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import three_set_filter_bbox, tree_parse_osm

from dtgen import cli, osm
from dtgen.errors import OsmParseError, RemoteError, ResponseFormatError, TransportError
from dtgen.config import ExtractionDefaults, GenerationConfig
from dtgen.geodesy import BoundingBox, GeoOrigin, lat_lon_in_range
from dtgen.osm import (
    OsmDocument,
    OsmNode,
    OsmWay,
    fetch_overpass,
    filter_bbox,
    overpass_query,
    parse_osm,
)
from dtgen.pipeline import generate_world
from dtgen.world_model import DRIVABLE_HIGHWAY_VALUES, extract_buildings, extract_roads


def _parse(text):
    return parse_osm(io.BytesIO(text.encode("utf-8")))


MINIMAL = """<?xml version="1.0"?>
<osm version="0.6">
  <node id="1" lat="48.0" lon="8.0"/>
</osm>
"""

CLOSED_WAY = """<?xml version="1.0"?>
<osm version="0.6">
  <node id="1" lat="48.0" lon="8.0"/>
  <node id="2" lat="48.0" lon="8.001"/>
  <node id="3" lat="48.001" lon="8.001"/>
  <node id="4" lat="48.001" lon="8.0"/>
  <way id="10">
    <nd ref="1"/>
    <nd ref="2"/>
    <nd ref="3"/>
    <nd ref="4"/>
    <nd ref="1"/>
    <tag k="building" v="yes"/>
  </way>
</osm>
"""


class TestParseOsm:
    def test_single_node(self):
        doc = _parse(MINIMAL)
        assert len(doc.nodes) == 1
        assert len(doc.ways) == 0
        assert doc.nodes[1] == OsmNode(id=1, lat=48.0, lon=8.0)

    def test_closed_way_with_tags(self):
        doc = _parse(CLOSED_WAY)
        assert len(doc.ways) == 1
        way = doc.ways[10]
        assert len(way.node_refs) == 5
        assert way.tags == {"building": "yes"}

    def test_relation_only_is_skipped(self):
        doc = _parse(
            "<osm><relation id='5'><member type='way' ref='1'/></relation></osm>"
        )
        assert len(doc.nodes) == 0
        assert len(doc.ways) == 0

    def test_malformed_xml_reports_position(self):
        with pytest.raises(OsmParseError) as excinfo:
            _parse("<osm><node id='1'</osm>")
        assert excinfo.value.line is not None
        assert excinfo.value.column is not None

    def test_node_missing_coordinates_is_skipped_with_warning(self):
        doc = _parse("<osm><node id='1' lat='48.0'/><node id='2' lat='48.0' lon='8.0'/></osm>")
        assert set(doc.nodes) == {2}
        assert len(doc.warnings) == 1

    def test_duplicate_node_id_keeps_first(self):
        doc = _parse(
            "<osm><node id='1' lat='48.0' lon='8.0'/><node id='1' lat='49.0' lon='9.0'/></osm>"
        )
        assert doc.nodes[1].lat == 48.0
        assert any("duplicate" in w for w in doc.warnings)

    def test_out_of_range_coordinates_skipped(self):
        doc = _parse("<osm><node id='1' lat='91.0' lon='8.0'/></osm>")
        assert len(doc.nodes) == 0
        assert len(doc.warnings) == 1

    def test_unknown_elements_never_abort(self):
        doc = _parse(
            "<osm><bounds minlat='0' maxlat='1'/><node id='1' lat='0.5' lon='0.5'>"
            "<tag k='amenity' v='bench'/></node><changeset id='9'/></osm>"
        )
        assert set(doc.nodes) == {1}

    def test_counts_match_independent_text_scan(self, data_dir):
        text = (data_dir / "track.osm").read_text()
        doc = _parse(text)
        assert len(doc.nodes) == text.count("<node ")
        assert len(doc.ways) == text.count("<way ")

    # ids, refs and coordinates are ASCII decimal: int() and float() read
    # "_" between digits and any Unicode digit
    def test_a_node_id_with_an_underscore_is_refused_and_the_real_node_kept(self):
        doc = _parse('<osm><node id="1_000" lat="48" lon="8"/><node id="1000" lat="49" lon="9"/></osm>')
        assert list(doc.nodes.items()) == [(1000, OsmNode(1000, 49.0, 9.0))]
        assert doc.warnings == ["node id='1_000' skipped: unparseable id/lat/lon"]

    @pytest.mark.parametrize("attrs", [
        'id="\uff12" lat="48" lon="8"',
        'id="2" lat="4_8.0" lon="8"',
        'id="2" lat="48" lon="\u0668"',
    ])
    def test_a_node_number_not_in_ascii_decimal_is_refused(self, attrs):
        doc = _parse(f"<osm><node {attrs}/></osm>")
        assert len(doc.nodes) == 0
        assert doc.warnings[0].endswith("skipped: unparseable id/lat/lon")

    def test_a_ref_not_in_ascii_decimal_is_skipped_in_order(self):
        nodes = "".join(f'<node id="{i}" lat="48" lon="8.{i}"/>' for i in (1, 2, 3))
        refs = "".join(f'<nd ref="{r}"/>' for r in ("1", "\u0663", "2", "1_0", " 3 "))
        doc = _parse(f'<osm>{nodes}<way id="5">{refs}</way><way id="1_0"><nd ref="1"/></way></osm>')
        assert doc.ways == {5: OsmWay(5, (1, 2, 3), {})}
        assert doc.warnings == [
            "way 5: ignoring <nd> with bad ref '\u0663'",
            "way 5: ignoring <nd> with bad ref '1_0'",
            "way id='1_0' skipped: missing or unparseable id",
        ]

    def test_ascii_whitespace_around_a_number_is_accepted(self):
        doc = _parse('<osm><node id=" 7 " lat="48.5 " lon=" 8"/><way id=" 9"><nd ref="7 "/></way></osm>')
        assert list(doc.nodes.items()) == [(7, OsmNode(7, 48.5, 8.0))]
        assert doc.ways == {9: OsmWay(9, (7,), {})}
        assert doc.warnings == []

    # the map is a file open in binary mode, and nothing else
    def test_a_str_is_refused_with_the_fix(self):
        with pytest.raises(TypeError, match=r'not str: .*open\(path, "rb"\).*io\.BytesIO'):
            parse_osm(MINIMAL)

    def test_bytes_are_refused_with_the_fix(self):
        with pytest.raises(TypeError, match=r"not bytes: .*io\.BytesIO"):
            parse_osm(MINIMAL.encode("utf-8"))

    def test_a_file_open_in_text_mode_is_refused_with_the_fix(self, data_dir):
        with open(data_dir / "track.osm", encoding="utf-8") as text_file:
            with pytest.raises(TypeError, match=r'not TextIOWrapper: .*open\(path, "rb"\)'):
                parse_osm(text_file)
            assert text_file.tell() == 0  # refused before any read
        with pytest.raises(TypeError, match="not StringIO"):
            parse_osm(io.StringIO(MINIMAL))


class TestBoundingBox:
    def test_rejects_inverted_lat(self):
        with pytest.raises(ValueError):
            BoundingBox(48.1, 8.0, 48.0, 8.1)

    def test_rejects_antimeridian_crossing(self):
        with pytest.raises(ValueError):
            BoundingBox(0.0, 179.0, 1.0, -179.0)

    @pytest.mark.parametrize("corners", [
        (-95.0, 0.0, 95.0, 1.0),
        (0.0, 0.0, 90.5, 1.0),
        (0.0, -180.5, 1.0, 1.0),
        (0.0, 0.0, 1.0, 400.0),
    ])
    def test_rejects_coordinates_out_of_range(self, corners):
        with pytest.raises(ValueError, match=r"latitudes must lie in \[-90, 90\] and longitudes"):
            BoundingBox(*corners)

    def test_range_bounds_are_inclusive(self):
        assert BoundingBox(-90, -180, 90, 180).contains(90.0, -180.0)


@pytest.mark.parametrize("lat, lon, inside", [
    (0.0, 0.0, True),
    (90.0, 180.0, True),
    (-90.0, -180.0, True),
    (90.0000001, 0.0, False),
    (-90.0000001, 0.0, False),
    (0.0, 180.0000001, False),
    (0.0, -180.0000001, False),
    (91.0, 8.0, False),
    (95.0, 400.0, False),
    (1e308, 0.0, False),
    (math.nan, 0.0, False),
    (0.0, math.nan, False),
    (math.inf, 0.0, False),
    (0.0, -math.inf, False),
])
def test_lat_lon_range(lat, lon, inside):
    assert lat_lon_in_range(lat, lon) is inside


def _doc(nodes, ways):
    return OsmDocument(
        nodes={n.id: n for n in nodes},
        ways={w.id: w for w in ways},
    )


class TestFilterBbox:
    BOX = BoundingBox(0.0, 0.0, 1.0, 1.0)

    def test_all_inside_is_identity(self):
        doc = _parse(CLOSED_WAY)
        box = BoundingBox(47.0, 7.0, 49.0, 9.0)
        assert filter_bbox(doc, box) == doc

    def test_nothing_inside_is_empty(self):
        doc = _parse(CLOSED_WAY)
        box = BoundingBox(0.0, 0.0, 1.0, 1.0)
        filtered = filter_bbox(doc, box)
        assert len(filtered.nodes) == 0
        assert len(filtered.ways) == 0

    def test_way_partially_inside_is_kept_whole(self):
        # brute-force check: only node 1 is inside, so way 7 must be kept
        # with all four of its nodes retained
        nodes = [
            OsmNode(1, 0.5, 0.5),
            OsmNode(2, 2.0, 2.0),
            OsmNode(3, 3.0, 3.0),
            OsmNode(4, 4.0, 4.0),
        ]
        inside = [n for n in nodes if self.BOX.contains(n.lat, n.lon)]
        assert [n.id for n in inside] == [1]
        doc = _doc(nodes, [OsmWay(7, (1, 2, 3, 4), {})])
        filtered = filter_bbox(doc, self.BOX)
        assert set(filtered.ways) == {7}
        assert set(filtered.nodes) == {1, 2, 3, 4}

    def test_boundary_is_inclusive(self):
        doc = _doc([OsmNode(1, 1.0, 1.0)], [])
        assert set(filter_bbox(doc, self.BOX).nodes) == {1}

    def test_unreferenced_outside_nodes_dropped(self):
        doc = _doc([OsmNode(1, 0.5, 0.5), OsmNode(2, 5.0, 5.0)], [])
        assert set(filter_bbox(doc, self.BOX).nodes) == {1}


# strategy: small documents on a [-2, 2] degree patch
_coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
_nodes_strategy = st.lists(
    st.builds(OsmNode, id=st.integers(1, 30), lat=_coords, lon=_coords),
    max_size=12,
    unique_by=lambda n: n.id,
)


@st.composite
def _documents(draw):
    nodes = draw(_nodes_strategy)
    n_ways = draw(st.integers(0, 4))
    ways = []
    for i in range(n_ways):
        refs = draw(st.lists(st.integers(1, 35), min_size=1, max_size=6))
        ways.append(OsmWay(id=100 + i, node_refs=tuple(refs), tags={}))
    return _doc(nodes, ways)


@given(doc=_documents())
@settings(max_examples=60)
def test_filter_bbox_idempotent(doc):
    box = BoundingBox(-1.0, -1.0, 1.0, 1.0)
    once = filter_bbox(doc, box)
    assert filter_bbox(once, box) == once


@given(doc=_documents(), grow=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60)
def test_filter_bbox_monotone(doc, grow):
    small = BoundingBox(-0.5, -0.5, 0.5, 0.5)
    large = BoundingBox(-0.5 - grow, -0.5 - grow, 0.5 + grow, 0.5 + grow)
    a = filter_bbox(doc, small)
    b = filter_bbox(doc, large)
    assert set(a.nodes) <= set(b.nodes)
    assert set(a.ways) <= set(b.ways)


@st.composite
def _boxes(draw):
    lats = sorted(draw(st.lists(_coords, min_size=2, max_size=2, unique=True)))
    lons = sorted(draw(st.lists(_coords, min_size=2, max_size=2, unique=True)))
    return BoundingBox(lats[0], lons[0], lats[1], lons[1])


@given(doc=_documents(), box=_boxes())
@settings(max_examples=200)
def test_filter_bbox_matches_the_three_set_filter(doc, box):
    # the documents hold dangling refs, nodes outside the box and ways that
    # cross its edge
    got, want = filter_bbox(doc, box), three_set_filter_bbox(doc, box)
    assert list(got.nodes.items()) == list(want.nodes.items())  # document order
    assert list(got.ways.items()) == list(want.ways.items())
    assert got.warnings == want.warnings


# ids that repeat, come out of order, are negative, do not fit 32 bits, or
# are at or past the ends of 64 bits; in about half the draws they rise,
# but for a repeat of an earlier id
_node_ids = st.integers(-3, 6) | st.sampled_from(
    [10**12, -(10**12), 10**12 + 1, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1]
)
_node_rows = st.lists(
    st.tuples(_node_ids, st.floats(-90, 90), st.floats(-180, 180)), max_size=12
) | st.tuples(
    st.lists(st.tuples(_node_ids, st.floats(-90, 90), st.floats(-180, 180)), max_size=12),
    st.randoms(use_true_random=False),
).map(lambda drawn: _rising_but_repeats(*drawn))


def _rising_but_repeats(rows, random):
    """``rows`` in rising order of their ids, each repeat of an id moved to
    a place after the first row of that id that ``random`` draws."""
    rising, seen = [], set()
    for row in sorted(rows, key=lambda row: row[0]):
        if row[0] in seen:
            first = next(k for k, other in enumerate(rising) if other[0] == row[0])
            rising.insert(random.randint(first + 1, len(rising)), row)
        else:
            seen.add(row[0])
            rising.append(row)
    return rising


@given(rows=_node_rows, absent=_node_ids)
@settings(max_examples=150)
def test_node_columns_read_as_the_dict_they_replace(rows, absent):
    want = {}
    for node_id, lat, lon in rows:
        want.setdefault(node_id, OsmNode(node_id, lat, lon))  # a duplicate keeps the first
    xml = "".join(f'<node id="{i}" lat="{lat!r}" lon="{lon!r}"/>' for i, lat, lon in rows)
    parsed = _parse(f"<osm>{xml}</osm>").nodes
    filtered = filter_bbox(_parse(f"<osm>{xml}</osm>"), BoundingBox(-90, -180, 90, 180)).nodes
    for nodes in (parsed, OsmDocument(nodes=want).nodes, filtered):
        assert list(nodes.items()) == list(want.items())
        assert list(nodes) == list(want)
        assert nodes == want and want == nodes and not nodes != want
        assert len(nodes) == len(want)
        assert all(node_id in nodes for node_id in want)
        assert (absent in nodes) == (absent in want)
        assert nodes.get(absent) == want.get(absent)
        assert nodes.get(absent, "none") == want.get(absent, "none")
        assert repr(nodes) == repr(want)
    if want:
        # latitude 91 is drawn for no node, so the edited dict always differs
        assert parsed != {**want, next(iter(want)): OsmNode(0, 91.0, 0.5)}
        assert parsed != dict(list(want.items())[1:])


@given(rows=_node_rows, refs=st.lists(_node_ids, max_size=6), box=_boxes(), inner=_boxes(), absent=_node_ids)
@settings(max_examples=150)
def test_a_row_is_found_exactly_for_a_node_held(rows, refs, box, inner, absent):
    # a filtered document shares its parent's ids, so they hold ids whose
    # nodes the filter dropped: no lookup may find a row for them
    xml = "".join(f'<node id="{i}" lat="{lat!r}" lon="{lon!r}"/>' for i, lat, lon in rows)
    xml += '<way id="1">' + "".join(f'<nd ref="{ref}"/>' for ref in refs) + "</way>"
    parsed = _parse(f"<osm>{xml}</osm>")
    first = {}
    for node_id, lat, lon in rows:
        first.setdefault(node_id, OsmNode(node_id, lat, lon))
    first_rows = {node_id: row for row, node_id in enumerate(first)}
    once = filter_bbox(parsed, box)
    stores = {
        "parsed": parsed.nodes,
        "dict-built": OsmDocument(nodes=first, ways=parsed.ways).nodes,
        "filtered": once.nodes,
        "twice filtered": filter_bbox(once, inner).nodes,
    }
    for name, nodes in stores.items():
        assert nodes.kept is None or len(nodes.kept) == len(nodes.ids)
        held = set(nodes)  # read by iteration, not by row
        for way in (refs, refs + refs[:1], refs[::-1]):  # as read, closed, and reversed
            want = [first_rows[ref] if ref in held else None for ref in way]
            assert nodes._rows(way) == [nodes.row(ref) for ref in way] == want, name
        for node_id in set(first) | set(refs) | {absent}:
            row = nodes.row(node_id)
            assert (row is None) == (node_id not in nodes) == (node_id not in held)
            assert row is None or nodes.ids[row] == node_id
    for parent, child in (("parsed", "filtered"), ("filtered", "twice filtered")):
        dropped = set(stores[parent]).difference(stores[child])
        assert stores[child]._rows(list(dropped)) == [None] * len(dropped)


# node ids in map order, and whether they make the store build an id
# index; JOSM numbers the nodes it creates -1, -2, ..., and 2**63 and
# -2**63 - 1 do not fit in 64 bits
_ID_RUNS = {
    "negative, as JOSM numbers new nodes": ([-1, -2, -3, -4], True),
    "negative, rising": ([-9, -4, -1, 0, 3], False),
    "a repeat on rising ids": ([1, 2, 5, 2, 7, 5, 1], False),
    "rising, then not, halfway": ([1, 2, 3, 10, 11, 4, 5, 2], True),
    "the ends of 64 bits": ([-(2**63), 0, 2**63 - 1], False),
    "2**63": ([1, 2**63, 3], True),
    "-2**63 - 1 first": ([-(2**63) - 1, 1, 2], True),
    "-2**63 - 1 after a rise": ([1, 2, -(2**63) - 1], True),
}


@pytest.mark.parametrize("ids, indexed", _ID_RUNS.values(), ids=_ID_RUNS.keys())
def test_node_ids_are_found_whether_they_rise_or_not(ids, indexed):
    want, warnings = {}, []
    for k, node_id in enumerate(ids):
        if node_id in want:
            warnings.append(f"duplicate node id {node_id}: keeping first occurrence")
        else:
            want[node_id] = OsmNode(node_id, 48.0 + k / 1000, 8.0)
    assert 6 not in want
    ways = {1: [*ids[::-1], 6, ids[-1]], 2: [ids[0], *ids[1:], ids[0]], 3: [6, *ids, 6]}
    xml = "".join(f'<node id="{i}" lat="{48.0 + k / 1000!r}" lon="8.0"/>' for k, i in enumerate(ids))
    xml += "".join(
        f'<way id="{w}">' + "".join(f'<nd ref="{ref}"/>' for ref in refs) + "</way>" for w, refs in ways.items()
    )
    doc = _parse(f"<osm>{xml}</osm>")
    assert list(doc.nodes.items()) == list(want.items())
    assert doc.warnings == warnings
    assert (doc.nodes.index is not None) == indexed
    row = {node_id: k for k, node_id in enumerate(want)}
    for way_id, refs in ways.items():
        assert doc.ways[way_id].node_refs == tuple(refs)
        assert doc.nodes._rows(refs) == [row.get(ref) for ref in refs]
    assert [doc.nodes.row(node_id) for node_id in [*want, 6]] == [*row.values(), None]
    # node k lies at latitude 48 + k / 1000: the filters keep the first half
    # of the nodes, and then the first quarter; they hold no way
    once = filter_bbox(OsmDocument(nodes=doc.nodes), BoundingBox(47.0, 7.0, 48.0 + len(ids) / 2000, 9.0))
    twice = filter_bbox(once, BoundingBox(47.0, 7.0, 48.0 + len(ids) / 4000, 9.0))
    stores = [doc.nodes, OsmDocument(nodes=want).nodes, once.nodes, twice.nodes]
    assert len(stores[0]) == len(stores[1]) > len(stores[2]) > len(stores[3]) > 0
    for nodes in stores:
        held = {node_id: row[node_id] for node_id in nodes}
        for refs in ways.values():
            for way in (refs, refs + refs[:1], refs[::-1]):  # as read, closed, and reversed
                assert nodes._rows(way) == [nodes.row(ref) for ref in way] == [held.get(ref) for ref in way]


def test_extraction_finds_only_the_filtered_nodes(data_dir):
    # the filtered nodes, given with every way of the map: a ref whose node
    # the filter dropped is unresolved, though the shared ids hold it
    with open(data_dir / "track.osm", "rb") as f:
        doc = parse_osm(f)
    nodes = filter_bbox(doc, BoundingBox(48.003, 8.004, 48.011, 8.0148)).nodes
    _, warnings = extract_roads(
        OsmDocument(nodes=nodes, ways=doc.ways), GeoOrigin(48.01, 8.015), ExtractionDefaults()
    )
    want = []
    for way_id in sorted(doc.ways):
        refs = doc.ways[way_id].node_refs
        missing = [ref for ref in refs if ref not in nodes]
        if doc.ways[way_id].tags.get("highway") in DRIVABLE_HIGHWAY_VALUES and missing:
            want.append(f"road way {way_id} skipped: unresolved node ref {missing[0]}")
    assert [w for w in warnings if "unresolved node ref" in w] == want
    assert len(want) == 6 and all(int(w.split()[-1]) in doc.nodes for w in want)


def test_filtered_nodes_are_the_parents_columns_and_a_byte_a_node():
    doc = _parse(CLOSED_WAY)
    nodes = filter_bbox(doc, BoundingBox(48.0005, 8.0005, 48.002, 8.002)).nodes
    for name in ("ids", "lat", "lon"):
        assert getattr(nodes, name) is getattr(doc.nodes, name)
    assert list(nodes) == [1, 2, 3, 4]  # node 3 inside; its way keeps the rest
    assert 5 not in nodes and nodes.get(5) is None
    with pytest.raises(KeyError):
        nodes[5]


def test_parsed_refs_are_read_in_order_and_equal_tags_one_object():
    ids = [10**12 + i for i in range(4)]
    nodes = "".join(f'<node id="{i}" lat="48.0" lon="8.{n}"/>' for n, i in enumerate(ids))
    tags = '<tag k="building" v="yes"/><tag k="name" v="Hall A"/>'
    ways = "".join(
        f'<way id="{w}">' + "".join(f'<nd ref="{i}"/>' for i in refs) + tags + "</way>"
        for w, refs in [(1, [*ids, ids[0]]), (2, ids[1:3])]
    )
    doc = _parse(f"<osm>{nodes}{ways}</osm>")
    assert [way.node_refs for way in doc.ways.values()] == [(*ids, ids[0]), tuple(ids[1:3])]
    first, second = (list(way.tags.items()) for way in doc.ways.values())
    assert first == second
    for (k1, v1), (k2, v2) in zip(first, second):
        assert k1 is k2 and v1 is v2


# attribute text that XML 1.0 can carry: no controls, surrogates or noncharacters
_attr_text = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Cn")), max_size=12)
_numberish = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["", " 7 ", "1_0", "0x1f", "1e999", "-inf", "nan", "\u0663\u0662", "9" * 5000]),
)
_attr = st.one_of(st.none(), _attr_text, _numberish)


def _element(tag, attrs, body=""):
    text = "".join(f" {k}={quoteattr(v)}" for k, v in attrs.items() if v is not None)
    return f"<{tag}{text}>{body}</{tag}>"


@st.composite
def _osm_documents(draw):
    """Well-formed ``<osm>`` documents whose id/lat/lon/ref strings are arbitrary."""
    parts = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            parts.append(_element("node", {"id": draw(_attr), "lat": draw(_attr), "lon": draw(_attr)}))
        else:
            members = [_element("nd", {"ref": draw(_attr)}) for _ in range(draw(st.integers(0, 3)))]
            members.append(_element("tag", {"k": draw(_attr), "v": draw(_attr)}))
            parts.append(_element("way", {"id": draw(_attr)}, "".join(members)))
    return '<?xml version="1.0"?><osm version="0.6">' + "".join(parts) + "</osm>"


@given(st.binary())
@settings(max_examples=300)
def test_parse_osm_raises_only_osm_parse_error_on_any_text(data):
    try:
        parse_osm(io.BytesIO(data))
    except OsmParseError:
        pass


@given(_osm_documents())
@settings(max_examples=300)
def test_parse_osm_reads_any_well_formed_document(xml_text):
    doc = _parse(xml_text)
    for node in doc.nodes.values():
        assert -90 <= node.lat <= 90 and -180 <= node.lon <= 180
    assert all(way.node_refs for way in doc.ways.values())


def _outcome(parse, xml_text):
    """What a parser makes of the text, in a form that compares order too."""
    try:
        doc = parse(xml_text)
    except OsmParseError as exc:
        return ("error", exc.line, exc.column, str(exc))
    return (list(doc.nodes.items()), list(doc.ways.items()), doc.warnings)


# small pools, so ids repeat; one value in three is missing or defective
# "\uff12" and "0_7" are texts that int() reads as ids of the pool, 2 and 7
_pool_id = st.sampled_from(["1", "2", "7", "1", "2", "7", None, "x", "1.5", "\uff12", "0_7"])
_pool_coord = st.sampled_from(["48.5", "8", "-1.25", "48.5", "8", "-1.25", None, "91", "nan", "4_8.5"])
_pool_text = st.sampled_from(["highway", "building", "yes", "highway", "building", "yes", None])
_POOLS = {"id": _pool_id, "ref": _pool_id, "lat": _pool_coord, "lon": _pool_coord, "k": _pool_text, "v": _pool_text}


_way_members = st.one_of(
    st.builds(lambda ref: _element("nd", {"ref": ref}), _pool_id),
    st.builds(lambda k, v: _element("tag", {"k": k, "v": v}), _pool_text, _pool_text),
)


@st.composite
def _member(draw, children):
    tag = draw(st.sampled_from(["node", "node", "way", "way", "nd", "tag", "relation", "bounds"]))
    names = {"node": ("id", "lat", "lon"), "way": ("id",), "nd": ("ref",), "tag": ("k", "v")}
    attrs = {name: draw(_POOLS[name]) for name in names.get(tag, ("id",))}
    inner = st.one_of(_way_members, children) if tag == "way" else children
    return _element(tag, attrs, "".join(draw(st.lists(inner, max_size=4))))


# nodes and ways nested under unknown elements and inside ways, children
# inside nodes, members at the top level: every element may hold any other
_members = st.recursive(_member(st.just("")), _member, max_leaves=12)


# tag texts of one, two and three UTF-8 bytes a character
_pool_intl_text = st.sampled_from(["name", "Zürich", "€", "highway", None])


@st.composite
def _encoded_osm_documents(draw):
    """``<osm>`` documents of ``_members``, which nest every element in any
    other, plus ways with tags that are not all ASCII; CRLF, CR or LF, with
    or without indentation, between elements; an optional UTF-8 byte order
    mark; an optional declared encoding, latin-1 among them, though the
    bytes are always UTF-8; and an optional truncated tail."""
    spacer = draw(st.sampled_from(["", "\n", "\n  ", "\r\n", "\r", "\r\n  "]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    encoding = draw(st.sampled_from(["", ' encoding="utf-8"', ' encoding="latin-1"']))
    named = st.builds(lambda k, v: _element("tag", {"k": k, "v": v}), _pool_intl_text, _pool_intl_text)
    ways = st.builds(
        lambda way_id, members: _element("way", {"id": way_id}, spacer.join(members)),
        _pool_id, st.lists(_way_members | named, max_size=4),
    )
    parts = draw(st.lists(_members | ways, max_size=8))
    head = f'{bom}<?xml version="1.0"{encoding}?>{spacer}<osm version="0.6">{spacer}'
    text = head + spacer.join(parts) + f"</osm>{spacer}"
    cut = draw(st.none() | st.integers(0, len(text)))  # a truncated tail
    return text if cut is None else text[:cut]


@given(xml_text=_encoded_osm_documents(), slice_chars=st.sampled_from([1, 2, 3, 16, 1 << 16]))
@settings(max_examples=300, deadline=None)
def test_parse_of_the_encoded_bytes_matches_the_whole_tree_reader(xml_text, slice_chars):
    # byte slices split elements, multi-byte characters and CRLF pairs; the
    # outcome is the tree reader's on the text
    with mock.patch.object(osm, "_SLICE_CHARS", slice_chars):
        assert _outcome(_parse, xml_text) == _outcome(tree_parse_osm, xml_text)


_NODE = '<node id="1" lat="48.5" lon="8"/>'


# XML the hypothesis pools never draw: namespaces, entities, DOCTYPEs,
# markup that is not an element, and a declared encoding; each with what
# the parse gives, "error" or the number of nodes and of ways
@pytest.mark.parametrize(
    ("xml_text", "expected"),
    [
        pytest.param('<osm><x:node id="1" lat="48.5" lon="8"/></osm>', "error", id="unbound-prefix"),
        pytest.param(f'<osm xmlns="urn:osm">{_NODE}</osm>', (0, 0), id="default-xmlns"),
        pytest.param(
            f'<osm xmlns:x="urn:osm"><x:node id="2" lat="48.5" lon="8"/>{_NODE}</osm>', (1, 0),
            id="declared-xmlns",
        ),
        pytest.param(
            '<osm xmlns="urn:osm"><node xmlns="" id="1" lat="48.5" lon="8"/></osm>', (1, 0),
            id="undeclared-default-xmlns",
        ),
        pytest.param(
            '<osm xmlns:x="urn:osm"><node x:id="1" lat="48.5" lon="8"/></osm>', (0, 0),
            id="namespaced-attribute",
        ),
        pytest.param('<osm><node id="1" lat="48.5" lon="8&nbsp;"/></osm>', "error", id="nbsp-in-attribute"),
        pytest.param(
            '<!DOCTYPE osm SYSTEM "osm.dtd"><osm><node id="1" lat="48.5" lon="8&nbsp;"/></osm>', (1, 0),
            id="nbsp-in-attribute-external-doctype",
        ),
        pytest.param(
            f'<!DOCTYPE osm SYSTEM "osm.dtd">\n<osm>\n  &nbsp;{_NODE}</osm>', "error",
            id="nbsp-in-text-external-doctype",
        ),
        pytest.param(
            f'<!DOCTYPE osm SYSTEM "osm.dtd">\n<osm>&{"n" * 120};</osm>', "error",
            id="long-entity-in-text-external-doctype",
        ),
        pytest.param(
            '<!DOCTYPE osm [<!ENTITY lat "48.5">]><osm><node id="1" lat="&lat;" lon="8"/></osm>', (1, 0),
            id="internal-entity",
        ),
        pytest.param(
            f'<!DOCTYPE osm [<!ENTITY ext SYSTEM "ext.xml">]><osm>{_NODE}&ext;</osm>', "error",
            id="external-entity-in-text",
        ),
        pytest.param(
            '<!DOCTYPE osm [<!ENTITY ext SYSTEM "ext.xml"><!ENTITY in "a&ext;b">]><osm>&in;</osm>', "error",
            id="external-entity-inside-an-internal-one",
        ),
        pytest.param(
            '<!DOCTYPE osm [<!ENTITY ext SYSTEM "ext.xml">]><osm><node id="1" lat="&ext;" lon="8"/></osm>',
            "error",
            id="external-entity-in-attribute",
        ),
        pytest.param(
            f'<!DOCTYPE osm [<!ENTITY % pe SYSTEM "pe.dtd"> %pe;]><osm>{_NODE}</osm>', (1, 0),
            id="parameter-entity-in-internal-subset",
        ),
        pytest.param(
            f'<!DOCTYPE osm [%undeclared;]><osm>{_NODE}</osm>', (1, 0),
            id="undeclared-parameter-entity-in-internal-subset",
        ),
        pytest.param(f'<!DOCTYPE osm SYSTEM "osm.dtd"><osm>{_NODE}</osm>', (1, 0), id="external-doctype"),
        pytest.param(
            f"<osm><!-- a --><?pi x?>text{_NODE}<![CDATA[{_NODE}]]>\n"
            "<way id='5'>a<!-- b --><nd ref='1'/><?pi y?><![CDATA[c]]><nd ref='2'/>d</way>e</osm>",
            (1, 1),
            id="comments-pis-cdata-text",
        ),
        pytest.param(
            "<?xml version='1.0' encoding='latin-1'?><osm><way id='3'><nd ref='1'/>"
            "<tag k='name' v='Zürich'/></way></osm>",
            (0, 1),
            id="latin-1-declaration",
        ),
    ],
)
def test_parse_matches_the_whole_tree_reader_on_xml_features(xml_text, expected):
    outcome = _outcome(_parse, xml_text)
    assert outcome == _outcome(tree_parse_osm, xml_text)
    assert (outcome[0] if expected == "error" else (len(outcome[0]), len(outcome[1]))) == expected


class TestParseAcrossSlices:
    def test_tag_split_across_a_slice_boundary(self):
        way = "<way id='9'><nd ref='1'/><nd ref='2'/><tag k='highway' v='residential'/></way>"
        # spaces push the way along until the first slice ends inside the
        # tag's key
        pad = osm._SLICE_CHARS - len("<osm>") - (way.index("<tag") + 8)
        text = "<osm>" + " " * pad + way + "</osm>"
        assert text[osm._SLICE_CHARS - 8:osm._SLICE_CHARS] == "<tag k='"
        doc = _parse(text)
        assert doc.ways[9] == OsmWay(9, (1, 2), {"highway": "residential"})
        assert _outcome(_parse, text) == _outcome(tree_parse_osm, text)

    def test_syntax_error_past_the_first_slice_is_located_absolutely(self):
        nodes = "".join(f"<node id='{i}' lat='48.0' lon='8.0'/>\n" for i in range(4000))
        text = f"<osm>\n{nodes}<node id='x' lat='1'</osm>"
        assert len(text) > 2 * osm._SLICE_CHARS
        with pytest.raises(OsmParseError) as excinfo:
            _parse(text)
        assert (excinfo.value.line, excinfo.value.column) == (4002, 20)
        assert _outcome(_parse, text) == _outcome(tree_parse_osm, text)

    def test_every_element_of_a_many_slice_map_is_read(self):
        text = _city_map(2000)
        doc = _parse(text)
        assert len(text) > 4 * osm._SLICE_CHARS
        assert len(doc.nodes) == text.count("<node ")
        assert len(doc.ways) == text.count("<way ")
        assert _outcome(_parse, text) == _outcome(tree_parse_osm, text)


def _city_map(blocks):
    """A map of ``blocks`` square buildings, four nodes and one way each."""
    parts = ["<?xml version='1.0'?>\n<osm version='0.6'>"]
    for b in range(blocks):
        lat, lon = 48.0 + (b // 100) * 1e-3, 8.0 + (b % 100) * 1e-3
        for i, (dlat, dlon) in enumerate([(0, 0), (0, 5e-4), (5e-4, 5e-4), (5e-4, 0)]):
            parts.append(f" <node id='{4 * b + i + 1}' lat='{lat + dlat:.7f}' lon='{lon + dlon:.7f}'/>")
        refs = "".join(f"<nd ref='{4 * b + i + 1}'/>" for i in (0, 1, 2, 3, 0))
        parts.append(f" <way id='{b + 1}'>{refs}<tag k='building' v='yes'/></way>")
    parts.append("</osm>\n")
    return "\n".join(parts)


def test_parse_of_a_binary_stream_peaks_near_the_document_it_returns():
    # the whole-tree reader peaks at about four times the document (19 MB
    # over it here); the stream builds no tree, and its bytes are read a
    # slice at a time and never decoded in Python, so the stream's own
    # buffer is the only copy of the map: 48 kB over the document measured
    # here, with 16 kB slices
    data = _city_map(4000).encode("utf-8")
    assert len(data) > 10 * osm._SLICE_CHARS
    tracemalloc.start()
    try:
        doc = parse_osm(io.BytesIO(data))
        document, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(doc.ways) == 4000
    assert peak - document < 100_000


def _traced(call):
    """``call()``, and what it left allocated and its allocation peak, in
    bytes, as tracemalloc traces them from the call on."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, size, peak


# the three pins below hold at 2.49 MB, 1.63 MB and 0.24 MB measured; a
# node dict, a LocalPoint for each point of the model and a second node
# dict from the filter gave 4.21 MB, 2.11 MB and 0.89 MB, and an id index
# beside the node columns 3.43 MB for the first
def test_a_parsed_map_holds_its_nodes_in_columns():
    data = _city_map(4000).encode("utf-8")
    doc, size, _ = _traced(lambda: parse_osm(io.BytesIO(data)))
    assert len(doc.nodes) == 16_000
    assert size < 2_600_000


def test_the_node_store_of_rising_ids_takes_at_most_26_bytes_a_node():
    # an id and two coordinates, 8 bytes each, and what the arrays grow by:
    # 25.2 bytes a node measured here, against 118 for an id index and a
    # list of the id objects beside the coordinate columns
    data = _city_map(4000).encode("utf-8")
    doc, size, _ = _traced(lambda: osm._read_osm(io.BytesIO(data), lambda nodes: lambda *way: None))
    assert len(doc.nodes) == 16_000 and not doc.ways
    assert doc.nodes.index is None
    assert size <= 26 * 16_000


def test_the_building_model_holds_its_points_in_columns():
    doc = parse_osm(io.BytesIO(_city_map(4000).encode("utf-8")))
    (buildings, warnings), size, _ = _traced(
        lambda: extract_buildings(doc, GeoOrigin(48.02, 8.05), ExtractionDefaults())
    )
    assert len(buildings) == 4000 and warnings == []
    assert size < 1_800_000


def test_a_filter_keeping_every_node_builds_no_second_node_store():
    doc = parse_osm(io.BytesIO(_city_map(4000).encode("utf-8")))
    filtered, _, peak = _traced(lambda: filter_bbox(doc, BoundingBox(47.0, 7.0, 49.0, 9.0)))
    assert len(filtered.nodes) == 16_000 and len(filtered.ways) == 4000
    assert peak < 300_000


def test_generation_holds_no_way_past_its_end_tag():
    # each way is extracted at its end tag and dropped, so generation peaks
    # at the node columns and projections over the model it returns: 2.32 MB
    # over it measured here, against 3.43 MB when every way, its refs tuple
    # and its tags dict were held until a filter and two extractions ran
    data = _city_map(4000).encode("utf-8")
    config = GenerationConfig(BoundingBox(47.9, 7.9, 48.1, 8.2))
    result, size, peak = _traced(lambda: generate_world(config, io.BytesIO(data)))
    assert len(result.buildings) == 4000 and result.warnings == ()
    assert peak - size < 2_800_000


def test_generation_tests_only_the_nodes_of_its_ways_against_the_bbox():
    # 2,000 nodes in the box and three ways, one held by a ref to a node the
    # map lacks: a way's own nodes are tested, at most once per <nd>, and
    # the held way no more than the others, not every node of the map
    nodes = [f" <node id='{k}' lat='{48.0 + k * 1e-5:.5f}' lon='8.01'/>" for k in range(1, 2001)]
    ways = [
        " <way id='1'><nd ref='1'/><nd ref='2'/><nd ref='1000'/><nd ref='1'/>"
        "<tag k='building' v='yes'/></way>",
        " <way id='2'><nd ref='3'/><nd ref='500'/><nd ref='2000'/><tag k='highway' v='service'/></way>",
        " <way id='3'><nd ref='4'/><nd ref='9999'/><tag k='highway' v='service'/></way>",
    ]
    data = "\n".join(["<osm version='0.6'>", *nodes, *ways, "</osm>"]).encode("utf-8")
    config = GenerationConfig(BoundingBox(47.9, 7.9, 48.1, 8.2))
    counted = mock.patch.object(BoundingBox, "contains", autospec=True, side_effect=BoundingBox.contains)
    with counted as contains:
        result = generate_world(config, io.BytesIO(data))
    assert [b.id for b in result.buildings] == [1] and [r.id for r in result.roads] == [2]
    assert result.warnings == ("road way 3 skipped: unresolved node ref 9999",)
    assert contains.call_count <= data.count(b"<nd ")


def test_parse_leaves_nothing_for_the_cycle_collector(data_dir):
    # the parser and its handlers go with the call, not at a later
    # collection, so a parse leaves only the document it returns
    data = io.BytesIO((data_dir / "track.osm").read_bytes())
    gc.collect()
    gc.disable()
    try:
        doc = parse_osm(data)
        assert doc.ways
        del doc
        assert gc.collect() == 0
    finally:
        gc.enable()


# bodies built from pieces that a slice can cut: multi-byte characters,
# their lone lead bytes, bytes that are never UTF-8, marks and whitespace
_BODY_PIECES = st.sampled_from(
    [b"<osm", b"a", b" ", b"\n", "é".encode(), "€".encode(), "𝄞".encode(), b"\xe2\x82", b"\xff",
     b"\x80", codecs.BOM_UTF8]
)


@given(body=st.lists(_BODY_PIECES, max_size=30).map(b"".join), slice_bytes=st.integers(1, 7))
@settings(deadline=None)
def test_sliced_utf8_check_agrees_with_decoding_the_whole_body(body, slice_bytes):
    with mock.patch.object(osm, "_SLICE_CHARS", slice_bytes):
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError:
            with pytest.raises(UnicodeDecodeError):
                osm._utf8_head(body)
        else:
            assert osm._utf8_head(body) == text.removeprefix("\ufeff").lstrip()[:40]


class TestOverpass:
    BOX = BoundingBox(48.0, 8.0, 48.1, 8.1)

    def test_query_bbox_order_south_west_north_east(self):
        assert "48.0,8.0,48.1,8.1" in overpass_query(self.BOX)

    def test_query_selects_nodes_and_ways_with_recursion(self):
        query = overpass_query(self.BOX)
        assert "node(" in query
        assert "way(" in query
        assert ">;" in query

    def test_fetch_returns_body_verbatim(self, stub_server):
        stub_server.state.body = MINIMAL.encode()
        result = fetch_overpass(self.BOX, stub_server.url, timeout=5)
        assert result == MINIMAL.encode()
        assert b"48.0,8.0,48.1,8.1" in stub_server.state.requests[0]

    def test_a_utf8_body_with_a_byte_order_mark_is_kept_whole(self, stub_server, data_dir, tmp_path):
        # the mark is skipped for the head check only, as the parser skips it
        body = "\ufeff<?xml version='1.0'?>\r\n<osm version='0.6'>Zürich</osm>".encode()
        stub_server.state.body = body
        assert fetch_overpass(self.BOX, stub_server.url, timeout=5) == body
        out = tmp_path / "extract.osm"
        config = str(data_dir / "config_minimal.json")
        assert cli.main(["fetch", "--config", config, "--endpoint", stub_server.url, "--out", str(out)]) == 0
        assert out.read_bytes() == body

    def test_fetch_decodes_body_by_response_charset(self, stub_server):
        # and returns it as UTF-8, the parser's one encoding
        text = "<?xml version='1.0'?><osm version='0.6'><!-- Zürich, Genève --></osm>"
        stub_server.state.body = text.encode("iso-8859-1")
        stub_server.state.content_type = "application/osm3s+xml; charset=iso-8859-1"
        assert fetch_overpass(self.BOX, stub_server.url, timeout=5) == text.encode("utf-8")

    def test_undecodable_body_raises_format_error(self, stub_server):
        stub_server.state.body = "<?xml version='1.0'?><osm>Zürich</osm>".encode("iso-8859-1")
        with pytest.raises(ResponseFormatError, match="utf-8"):
            fetch_overpass(self.BOX, stub_server.url, timeout=5)

    def test_body_without_a_utf8_form_raises_format_error(self, stub_server):
        # utf-7 decodes "+2AA-" to a lone surrogate, which UTF-8 cannot encode
        stub_server.state.body = b"<?xml version='1.0'?><osm>+2AA-</osm>"
        stub_server.state.content_type = "application/osm3s+xml; charset=utf-7"
        with pytest.raises(ResponseFormatError, match="surrogates not allowed"):
            fetch_overpass(self.BOX, stub_server.url, timeout=5)

    def test_http_429_raises_remote_error(self, stub_server):
        stub_server.state.status = 429
        stub_server.state.body = b"rate limited"
        with pytest.raises(RemoteError) as excinfo:
            fetch_overpass(self.BOX, stub_server.url, timeout=5)
        assert excinfo.value.status == 429

    def test_http_error_with_an_unknown_charset_raises_remote_error(self, stub_server):
        # the excerpt falls back to UTF-8, a byte that is not UTF-8 replaced
        stub_server.state.status = 503
        stub_server.state.content_type = "text/plain; charset=bogus"
        stub_server.state.body = b"overloaded \xff" + b"x" * 1000
        with pytest.raises(RemoteError) as excinfo:
            fetch_overpass(self.BOX, stub_server.url, timeout=5)
        assert excinfo.value.status == 503
        assert excinfo.value.body_excerpt == ("overloaded \ufffd" + "x" * 1000)[:200]

    def test_non_xml_response_raises_format_error(self, stub_server):
        stub_server.state.body = b'{"elements": []}'
        with pytest.raises(ResponseFormatError):
            fetch_overpass(self.BOX, stub_server.url, timeout=5)

    def test_connection_refused_raises_transport_error(self):
        with pytest.raises(TransportError):
            fetch_overpass(self.BOX, "http://127.0.0.1:9/", timeout=0.5)

    @pytest.mark.parametrize("timeout", [math.inf, math.nan, 0, -1, 1e10])
    def test_bad_timeout_is_refused_before_any_request(self, stub_server, timeout):
        with pytest.raises(ValueError, match="finite positive number of seconds"):
            overpass_query(self.BOX, timeout)
        with pytest.raises(ValueError, match="finite positive number of seconds"):
            fetch_overpass(self.BOX, stub_server.url, timeout=timeout)
        assert stub_server.state.requests == []

    def test_largest_socket_timeout_is_accepted(self):
        # the most socket.settimeout holds
        query = overpass_query(self.BOX, threading.TIMEOUT_MAX)
        assert f"[timeout:{math.ceil(threading.TIMEOUT_MAX)}]" in query

    def test_timeout_raises_transport_error(self, stub_server):
        stub_server.state.delay = 2.0
        with pytest.raises(TransportError):
            fetch_overpass(self.BOX, stub_server.url, timeout=0.3)


_EXCERPT_TEXT = "Überlastet: " + "wait and retry, " * 20  # over 200 characters


@pytest.mark.parametrize(
    "body, charset",
    [
        (_EXCERPT_TEXT.encode("utf-8"), "utf-8"),
        (_EXCERPT_TEXT.encode("utf-16"), "utf-16"),
        (_EXCERPT_TEXT.encode("iso-8859-1"), "iso-8859-1"),
        (_EXCERPT_TEXT.encode("utf-7"), "utf-7"),
        pytest.param("\U0001f6a7".encode("utf-7") * 300, "utf-7", id="utf-7, 8 bytes a character"),
        ("é".encode("utf-8") * 10 + b"\xc3", "utf-8"),  # cut inside its last character
        (b"ok \xff\xfe", "utf-8"),
        (b"", "utf-8"),
    ],
)
def test_error_excerpt_is_the_head_of_the_whole_decoded_body(body, charset):
    assert osm._error_excerpt(body, charset) == body.decode(charset, errors="replace")[:200]


@pytest.mark.parametrize("charset", ["bogus", "hex", "rot13", "idna"])
def test_error_excerpt_without_a_text_codec_for_the_charset_is_utf8(charset):
    # unknown, a bytes-to-bytes codec, a str-to-str one, one with no "replace"
    body = _EXCERPT_TEXT.encode("utf-8") + b"\xff"
    assert osm._error_excerpt(body, charset) == body.decode("utf-8", errors="replace")[:200]


def test_error_excerpt_decodes_only_the_head_of_a_large_body():
    body = b"x" * 1_000_000
    tracemalloc.start()
    try:
        excerpt = osm._error_excerpt(body, "utf-8")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert excerpt == "x" * 200
    assert peak < 64_000  # the whole body decoded would take 1 MB
