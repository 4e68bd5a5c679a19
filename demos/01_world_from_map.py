"""Build a complete simulator world from a small map snippet.

Walks the whole pipeline on an inline OpenStreetMap extract: parse the XML,
clip it to a bounding box, pull out buildings and roads in metric
coordinates, add one vehicle of each kind, and emit a validated SDF file
that Gazebo Classic (or Gazebo / o3de) can load directly.

Run:  python3 demos/01_world_from_map.py
"""

import io
import json
from pathlib import Path

from dtgen import (
    filter_bbox,
    generate_world,
    load_config,
    parse_osm,
    validate_sdf,
)

# A toy block: two buildings (one with an explicit height, one with floor
# levels) and a residential street, all within ~100 m of (48.01, 8.015).
OSM_XML = b"""<?xml version="1.0" encoding="UTF-8"?>
<osm version="0.6">
  <node id="1" lat="48.0100" lon="8.0150"/>
  <node id="2" lat="48.0100" lon="8.0156"/>
  <node id="3" lat="48.0104" lon="8.0156"/>
  <node id="4" lat="48.0104" lon="8.0150"/>
  <node id="5" lat="48.0106" lon="8.0160"/>
  <node id="6" lat="48.0106" lon="8.0166"/>
  <node id="7" lat="48.0110" lon="8.0166"/>
  <node id="8" lat="48.0110" lon="8.0160"/>
  <node id="9" lat="48.0095" lon="8.0145"/>
  <node id="10" lat="48.0098" lon="8.0155"/>
  <node id="11" lat="48.0101" lon="8.0165"/>
  <node id="12" lat="48.0104" lon="8.0175"/>
  <way id="100">
    <nd ref="1"/><nd ref="2"/><nd ref="3"/><nd ref="4"/><nd ref="1"/>
    <tag k="building" v="yes"/>
    <tag k="height" v="12.5"/>
  </way>
  <way id="101">
    <nd ref="5"/><nd ref="6"/><nd ref="7"/><nd ref="8"/><nd ref="5"/>
    <tag k="building" v="residential"/>
    <tag k="building:levels" v="3"/>
  </way>
  <way id="102">
    <nd ref="9"/><nd ref="10"/><nd ref="11"/><nd ref="12"/>
    <tag k="highway" v="residential"/>
  </way>
</osm>
"""

CONFIG = {
    "bbox": {"min_lat": 48.008, "min_lon": 8.012, "max_lat": 48.013, "max_lon": 8.020},
    "vehicles": [
        {"name": "ego", "kind": "twin", "spawn": {"x": 0.0, "y": 0.0, "yaw": 0.0}},
        {"name": "real_pose", "kind": "shadow", "spawn": {"x": 6.0, "y": 0.0, "yaw": 0.0}},
        {"name": "candidate", "kind": "ghost", "spawn": {"x": -6.0, "y": 0.0, "yaw": 0.0}},
    ],
}


def main():
    config = load_config(json.dumps(CONFIG))

    # the individual stages, for a look at the intermediate results
    doc = filter_bbox(parse_osm(io.BytesIO(OSM_XML)), config.bbox)
    print(f"parsed + clipped: {len(doc.nodes)} nodes, {len(doc.ways)} ways")

    # ... or the whole pipeline in one call
    result = generate_world(config, io.BytesIO(OSM_XML))
    for building in result.buildings:
        print(f"  building_{building.id}: {len(building.footprint)} vertices, "
              f"height {building.height} m")
    for road in result.roads:
        print(f"  road_{road.id}: {len(road.centerline)} centerline points, "
              f"width {road.width} m")
    for warning in result.warnings:
        print(f"  warning: {warning}")

    out = Path(__file__).parent / "out"
    out.mkdir(exist_ok=True)
    target = out / "block_world.sdf"
    with open(target, "w", encoding="utf-8") as sink:
        result.write(sink)  # streamed to the file, a model at a time
    text = target.read_text(encoding="utf-8")
    report = validate_sdf(text)
    print(f"validation violations: {len(report.violations)}")
    print(f"wrote {target} ({len(text)} bytes)")
    print("load it with:  gazebo demos/out/block_world.sdf")


if __name__ == "__main__":
    main()
