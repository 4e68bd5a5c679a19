from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtgen.errors import OsmParseError, RemoteError, ResponseFormatError, TransportError
from dtgen.osm import (
    BoundingBox,
    OsmDocument,
    OsmNode,
    OsmWay,
    fetch_overpass,
    filter_bbox,
    overpass_query,
    parse_osm,
)

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
        doc = parse_osm(MINIMAL)
        assert len(doc.nodes) == 1
        assert len(doc.ways) == 0
        assert doc.nodes[1] == OsmNode(id=1, lat=48.0, lon=8.0)

    def test_closed_way_with_tags(self):
        doc = parse_osm(CLOSED_WAY)
        assert len(doc.ways) == 1
        way = doc.ways[10]
        assert len(way.node_refs) == 5
        assert way.tags == {"building": "yes"}

    def test_relation_only_is_skipped(self):
        doc = parse_osm(
            "<osm><relation id='5'><member type='way' ref='1'/></relation></osm>"
        )
        assert len(doc.nodes) == 0
        assert len(doc.ways) == 0

    def test_malformed_xml_reports_position(self):
        with pytest.raises(OsmParseError) as excinfo:
            parse_osm("<osm><node id='1'</osm>")
        assert excinfo.value.line is not None
        assert excinfo.value.column is not None

    def test_node_missing_coordinates_is_skipped_with_warning(self):
        doc = parse_osm("<osm><node id='1' lat='48.0'/><node id='2' lat='48.0' lon='8.0'/></osm>")
        assert set(doc.nodes) == {2}
        assert len(doc.warnings) == 1

    def test_duplicate_node_id_keeps_first(self):
        doc = parse_osm(
            "<osm><node id='1' lat='48.0' lon='8.0'/><node id='1' lat='49.0' lon='9.0'/></osm>"
        )
        assert doc.nodes[1].lat == 48.0
        assert any("duplicate" in w for w in doc.warnings)

    def test_out_of_range_coordinates_skipped(self):
        doc = parse_osm("<osm><node id='1' lat='91.0' lon='8.0'/></osm>")
        assert len(doc.nodes) == 0
        assert len(doc.warnings) == 1

    def test_unknown_elements_never_abort(self):
        doc = parse_osm(
            "<osm><bounds minlat='0' maxlat='1'/><node id='1' lat='0.5' lon='0.5'>"
            "<tag k='amenity' v='bench'/></node><changeset id='9'/></osm>"
        )
        assert set(doc.nodes) == {1}

    def test_counts_match_independent_text_scan(self, data_dir):
        text = (data_dir / "track.osm").read_text()
        doc = parse_osm(text)
        assert len(doc.nodes) == text.count("<node ")
        assert len(doc.ways) == text.count("<way ")


class TestBoundingBox:
    def test_rejects_inverted_lat(self):
        with pytest.raises(ValueError):
            BoundingBox(48.1, 8.0, 48.0, 8.1)

    def test_rejects_antimeridian_crossing(self):
        with pytest.raises(ValueError):
            BoundingBox(0.0, 179.0, 1.0, -179.0)


def _doc(nodes, ways):
    return OsmDocument(
        nodes={n.id: n for n in nodes},
        ways={w.id: w for w in ways},
    )


class TestFilterBbox:
    BOX = BoundingBox(0.0, 0.0, 1.0, 1.0)

    def test_all_inside_is_identity(self):
        doc = parse_osm(CLOSED_WAY)
        box = BoundingBox(47.0, 7.0, 49.0, 9.0)
        assert filter_bbox(doc, box) == doc

    def test_nothing_inside_is_empty(self):
        doc = parse_osm(CLOSED_WAY)
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


@given(st.text())
@settings(max_examples=300)
def test_parse_osm_raises_only_osm_parse_error_on_any_text(text):
    try:
        parse_osm(text)
    except OsmParseError:
        pass


@given(_osm_documents())
@settings(max_examples=300)
def test_parse_osm_reads_any_well_formed_document(xml_text):
    doc = parse_osm(xml_text)
    for node in doc.nodes.values():
        assert -90 <= node.lat <= 90 and -180 <= node.lon <= 180
    assert all(way.node_refs for way in doc.ways.values())


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
        assert result == MINIMAL
        assert b"48.0,8.0,48.1,8.1" in stub_server.state.requests[0]

    def test_fetch_decodes_body_by_response_charset(self, stub_server):
        text = "<?xml version='1.0'?><osm version='0.6'><!-- Zürich, Genève --></osm>"
        stub_server.state.body = text.encode("iso-8859-1")
        stub_server.state.content_type = "application/osm3s+xml; charset=iso-8859-1"
        assert fetch_overpass(self.BOX, stub_server.url, timeout=5) == text

    def test_undecodable_body_raises_format_error(self, stub_server):
        stub_server.state.body = "<?xml version='1.0'?><osm>Zürich</osm>".encode("iso-8859-1")
        with pytest.raises(ResponseFormatError, match="utf-8"):
            fetch_overpass(self.BOX, stub_server.url, timeout=5)

    def test_http_429_raises_remote_error(self, stub_server):
        stub_server.state.status = 429
        stub_server.state.body = b"rate limited"
        with pytest.raises(RemoteError) as excinfo:
            fetch_overpass(self.BOX, stub_server.url, timeout=5)
        assert excinfo.value.status == 429

    def test_non_xml_response_raises_format_error(self, stub_server):
        stub_server.state.body = b'{"elements": []}'
        with pytest.raises(ResponseFormatError):
            fetch_overpass(self.BOX, stub_server.url, timeout=5)

    def test_connection_refused_raises_transport_error(self):
        with pytest.raises(TransportError):
            fetch_overpass(self.BOX, "http://127.0.0.1:9/", timeout=0.5)

    def test_timeout_raises_transport_error(self, stub_server):
        stub_server.state.delay = 2.0
        with pytest.raises(TransportError):
            fetch_overpass(self.BOX, stub_server.url, timeout=0.3)
