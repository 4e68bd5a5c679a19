"""Golden hashes: the sha256 of the world generated from every bundled map
fixture with every bundled config.

A refactor of extraction or emission must leave these unchanged. A change
that alters the output on purpose regenerates ``data/golden_world_sha256.json``
and says why. The same change regenerates the committed demo world
(``python3 demos/01_world_from_map.py``), which is pinned here too.
"""

import hashlib
import io
import json
import re
import runpy
from pathlib import Path

import pytest

from dtgen.config import load_config
from dtgen.osm import parse_osm
from dtgen.pipeline import generate_world

DATA_DIR = Path(__file__).parent / "data"
DEMOS_DIR = Path(__file__).parent.parent / "demos"
GOLDEN = json.loads((DATA_DIR / "golden_world_sha256.json").read_text(encoding="utf-8"))


def _ways_first(osm: bytes) -> bytes:
    """The map ``osm`` with its ``<way>`` elements moved, in order, to the
    head of its root, ahead of every node, so that a reader holds each way
    until the map ends."""
    way = re.compile(rb"<way\b.*?</way>\s*", re.DOTALL)
    rest = way.sub(b"", osm)
    root_end = re.search(rb"<osm\b[^>]*>\s*", rest).end()
    return rest[:root_end] + b"".join(way.findall(osm)) + rest[root_end:]


_NODE = re.compile(rb"<node\b[^>]*/>")


def _nodes_placed(osm: bytes, nodes: list[bytes]) -> bytes:
    """The map ``osm`` with its ``<node>`` elements, all empty ones, replaced
    in order by ``nodes``."""
    placed = iter(nodes)
    return _NODE.sub(lambda _: next(placed), osm)


def _nodes_reversed(osm: bytes) -> bytes:
    """The map ``osm`` with its nodes in reverse order, so that their ids fall."""
    return _nodes_placed(osm, _NODE.findall(osm)[::-1])


def _nodes_turned(osm: bytes) -> bytes:
    """The map ``osm`` with the later half of its nodes ahead of the earlier
    half, so that their ids stop rising halfway through the nodes."""
    nodes = _NODE.findall(osm)
    half = len(nodes) // 2
    return _nodes_placed(osm, nodes[half:] + nodes[:half])


def _first_node_repeated(osm: bytes) -> tuple[bytes, str]:
    """The map ``osm`` with a copy of its first node, at latitude 0, after
    its last, and the warning that the copy makes."""
    nodes = _NODE.findall(osm)
    copy = re.sub(rb'lat="[^"]*"', b'lat="0.0"', nodes[0])
    node_id = int(re.search(rb'id="([^"]*)"', copy)[1])
    return (
        _nodes_placed(osm, [*nodes[:-1], nodes[-1] + b"\n" + copy]),
        f"duplicate node id {node_id}: keeping first occurrence",
    )


def _written(result):
    """The world's bytes, as ``GenerationResult.write`` gives them."""
    sink = io.StringIO()
    result.write(sink)
    return sink.getvalue()


def test_every_fixture_pair_has_a_hash():
    pairs = {
        f"{osm.name} {config.name}"
        for osm in DATA_DIR.glob("*.osm")
        for config in DATA_DIR.glob("config_*.json")
    }
    assert len(pairs) == 15
    assert set(GOLDEN) == pairs


@pytest.mark.parametrize("pair", sorted(GOLDEN))
def test_world_bytes_match_golden_hash(pair):
    # the map as it is, and with every way held until the map ends: the
    # same world and the same warnings
    osm_name, config_name = pair.split()
    config = load_config((DATA_DIR / config_name).read_text(encoding="utf-8"))
    osm = (DATA_DIR / osm_name).read_bytes()
    in_order = generate_world(config, io.BytesIO(osm))
    ways_first = generate_world(config, io.BytesIO(_ways_first(osm)))
    for result in (in_order, ways_first):
        digest = hashlib.sha256(_written(result).encode("utf-8")).hexdigest()
        assert digest == GOLDEN[pair]
    assert ways_first.warnings == in_order.warnings


@pytest.mark.parametrize("pair", sorted(p for p in GOLDEN if not p.startswith("empty.osm")))
def test_world_bytes_match_golden_hash_however_the_node_ids_run(pair):
    # node ids that fall from the start, or stop rising halfway, are found
    # through an id index built at the first that falls; a node repeated
    # after the last is found on the rising ids, warned of and dropped:
    # the same world, and the same warnings but the repeated node's
    osm_name, config_name = pair.split()
    config = load_config((DATA_DIR / config_name).read_text(encoding="utf-8"))
    osm = (DATA_DIR / osm_name).read_bytes()
    in_order = generate_world(config, io.BytesIO(osm))
    repeated, warning = _first_node_repeated(osm)
    for variant, indexed in ((osm, False), (_nodes_reversed(osm), True), (_nodes_turned(osm), True), (repeated, False)):
        assert (parse_osm(io.BytesIO(variant)).nodes.index is not None) == indexed
        result = generate_world(config, io.BytesIO(variant))
        assert hashlib.sha256(_written(result).encode("utf-8")).hexdigest() == GOLDEN[pair]
        if variant is repeated:
            assert result.warnings.count(warning) == 1
            assert [w for w in result.warnings if w != warning] == list(in_order.warnings)
        else:
            assert result.warnings == in_order.warnings


def test_committed_demo_world_is_current():
    demo = runpy.run_path(str(DEMOS_DIR / "01_world_from_map.py"))
    result = generate_world(load_config(json.dumps(demo["CONFIG"])), io.BytesIO(demo["OSM_XML"]))
    committed = (DEMOS_DIR / "out" / "block_world.sdf").read_text(encoding="utf-8")
    assert _written(result) == committed
