"""Golden hashes: the sha256 of the world generated from every bundled map
fixture with every bundled config.

A refactor of extraction or emission must leave these unchanged. A change
that alters the output on purpose regenerates ``data/golden_world_sha256.json``
and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dtgen.config import load_config
from dtgen.pipeline import generate_world

DATA_DIR = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA_DIR / "golden_world_sha256.json").read_text(encoding="utf-8"))


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
    osm_name, config_name = pair.split()
    config = load_config((DATA_DIR / config_name).read_text(encoding="utf-8"))
    result = generate_world(config, (DATA_DIR / osm_name).read_text(encoding="utf-8"))
    digest = hashlib.sha256(result.world.text.encode("utf-8")).hexdigest()
    assert digest == GOLDEN[pair]
