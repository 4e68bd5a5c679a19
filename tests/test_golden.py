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


def test_committed_demo_world_is_current():
    demo = runpy.run_path(str(DEMOS_DIR / "01_world_from_map.py"))
    result = generate_world(load_config(json.dumps(demo["CONFIG"])), io.BytesIO(demo["OSM_XML"]))
    committed = (DEMOS_DIR / "out" / "block_world.sdf").read_text(encoding="utf-8")
    assert _written(result) == committed
