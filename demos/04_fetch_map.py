"""Download a live map extract for a bounding box.

Needs network access and an Overpass interpreter endpoint, e.g.

    export DTGEN_OVERPASS_ENDPOINT=https://overpass-api.de/api/interpreter
    python3 demos/04_fetch_map.py

Without the endpoint variable the script prints the query it would send and
exits; everything else in this package works offline from .osm files.
"""

import io
import os
from pathlib import Path

from dtgen import BoundingBox, FetchError, fetch_overpass, overpass_query, parse_osm

# a few hundred meters of central Prague
BBOX = BoundingBox(50.086, 14.410, 50.090, 14.418)


def main():
    endpoint = os.environ.get("DTGEN_OVERPASS_ENDPOINT")
    print("query to send:\n")
    print(overpass_query(BBOX))
    if not endpoint:
        print("DTGEN_OVERPASS_ENDPOINT is not set; stopping before the network call.")
        return

    try:
        body = fetch_overpass(BBOX, endpoint, timeout=30.0)  # UTF-8 bytes
    except FetchError as exc:
        print(f"fetch failed: {exc}")
        return

    doc = parse_osm(io.BytesIO(body))
    print(f"received {len(body)} bytes: {len(doc.nodes)} nodes, {len(doc.ways)} ways")
    out = Path(__file__).parent / "out"
    out.mkdir(exist_ok=True)
    target = out / "prague_extract.osm"
    target.write_bytes(body)
    print(f"saved to {target}; feed it to 'dtgen generate --osm {target} ...'")


if __name__ == "__main__":
    main()
