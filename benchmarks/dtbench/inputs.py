"""Seeded synthetic inputs for the benchmark workloads.

Everything is drawn from ``random.Random`` seeded by the workload seed, so the
same seed gives the same bytes. Each maker writes the files the program reads
plus ``manifest.json``: what the generator knows the program must produce from
them (which ways qualify, their node coordinates and heights; for the gap drive
the closed-form path the controls describe). The checks compare against the
manifest, never against a saved program output.

Run ``python3 -m dtbench.inputs WORKLOAD SEED DIR`` (with ``benchmarks`` on
``PYTHONPATH``) to write one input set by hand.
"""

import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

EARTH_RADIUS_M = 6378137.0  # WGS84 equatorial radius, as the projection uses
DT_MAX_S = 1e-3  # largest Euler sub-step of the replay integrator

DRIVABLE = (
    ["residential"] * 8
    + ["service", "tertiary", "secondary", "primary", "unclassified", "living_street"]
    + ["primary_link", "motorway", "trunk_link"]
)
NON_DRIVABLE = ["footway", "cycleway", "path", "steps", "pedestrian", "track", "bridleway"]
BUILDING_VALUES = ["yes", "house", "apartments", "commercial", "garage"]


@dataclass(frozen=True)
class MapScale:
    bbox: tuple[float, float, float, float]  # min_lat, min_lon, max_lat, max_lon
    margin_deg: float  # map extent beyond the bbox on every side
    buildings: int
    roads: int
    road_nodes: int
    lattice_deg: float  # street grid spacing
    defects: int  # defective ways of each kind, all inside the bbox


CITY = MapScale((48.0, 8.0, 48.05, 8.05), 0.002, 20000, 5000, 8, 0.0005, 12)
TRACK = MapScale((48.0, 8.0, 48.02, 8.03), 0.001, 16, 14, 8, 0.002, 0)

# keeps a footprint (at most ~20 m from its centre) clear of the bbox edge
CLEARANCE_DEG = 0.0004

GAP_BBOX = (48.0, 8.0, 48.02, 8.03)
GAP_DURATION_S = 1200.0
GAP_PARKED_S = 240.0


def _centre(bbox):
    return (bbox[0] + bbox[2]) / 2.0, (bbox[1] + bbox[3]) / 2.0


def _inside(bbox, lat, lon):
    return bbox[0] <= lat <= bbox[2] and bbox[1] <= lon <= bbox[3]


def _deg(value: float) -> str:
    return f"{value:.7f}"


class _MapBuilder:
    """Collects nodes and ways and knows which ways the program must keep."""

    def __init__(self, scale: MapScale, rng: random.Random):
        self.scale = scale
        self.rng = rng
        self.lat0, _ = _centre(scale.bbox)
        self.m_per_deg_lat = EARTH_RADIUS_M * math.pi / 180.0
        self.m_per_deg_lon = self.m_per_deg_lat * math.cos(math.radians(self.lat0))
        self.nodes: dict[int, tuple[str, str]] = {}
        self.ways: list[tuple[int, list[int], list[tuple[str, str]]]] = []
        self.expected_buildings: list[list] = []
        self.expected_roads: list[list] = []
        self.defective = 0
        self._lattice: dict[tuple[int, int], int] = {}
        self._next_way = 1

    def node(self, lat: float, lon: float) -> int:
        node_id = len(self.nodes) + 1
        self.nodes[node_id] = (_deg(lat), _deg(lon))
        return node_id

    def latlon(self, node_id: int) -> tuple[float, float]:
        lat, lon = self.nodes[node_id]
        return float(lat), float(lon)

    def way(self, refs: list[int], tags: list[tuple[str, str]]) -> int:
        way_id = self._next_way
        self._next_way += 1
        self.ways.append((way_id, refs, tags))
        return way_id

    def touches_bbox(self, refs) -> bool:
        return any(
            ref in self.nodes and _inside(self.scale.bbox, *self.latlon(ref)) for ref in refs
        )

    def centre(self, place: str) -> tuple[float, float]:
        """A building centre wholly inside the bbox, on one of its edges (so
        the footprint straddles it), or wholly outside it in the margin."""
        rng = self.rng
        min_lat, min_lon, max_lat, max_lon = self.scale.bbox
        if place == "inside":
            return (rng.uniform(min_lat + CLEARANCE_DEG, max_lat - CLEARANCE_DEG),
                    rng.uniform(min_lon + CLEARANCE_DEG, max_lon - CLEARANCE_DEG))
        side = rng.randrange(4)
        if place == "straddle":
            offset = 0.0
        else:
            offset = rng.uniform(CLEARANCE_DEG, self.scale.margin_deg)
        along_lat = rng.uniform(min_lat + CLEARANCE_DEG, max_lat - CLEARANCE_DEG)
        along_lon = rng.uniform(min_lon + CLEARANCE_DEG, max_lon - CLEARANCE_DEG)
        if side < 2:
            return (min_lat - offset) if side == 0 else (max_lat + offset), along_lon
        return along_lat, (min_lon - offset) if side == 2 else (max_lon + offset)

    def ring(self, lat: float, lon: float) -> list[tuple[float, float]]:
        """Rectangle of 8-24 m sides, turned at random; a fifth of them get a
        gable point pushed out of one side, as OSM houses often have."""
        rng = self.rng
        a, b = rng.uniform(4.0, 12.0), rng.uniform(4.0, 12.0)
        theta = rng.uniform(0.0, math.pi / 2)
        corners = [(-a, -b), (a, -b), (a, b), (-a, b)]
        if rng.random() < 0.2:
            corners.insert(2, (a + rng.uniform(1.5, 3.0), 0.0))
        c, s = math.cos(theta), math.sin(theta)
        return [
            (
                lat + (x * s + y * c) / self.m_per_deg_lat,
                lon + (x * c - y * s) / self.m_per_deg_lon,
            )
            for x, y in corners
        ]

    def building(self, place: str) -> None:
        rng = self.rng
        centre = self.centre("inside" if place == "no" else place)
        ring = [self.node(lat, lon) for lat, lon in self.ring(*centre)]
        tags = [("building", rng.choice(BUILDING_VALUES))]
        rule = rng.random()
        if rule < 0.3:
            height = round(rng.uniform(3.0, 60.0), 1)
            text = f"{height:g} m" if rng.random() < 0.3 else f"{height:g}"
            tags.append(("height", text))
        elif rule < 0.6:
            levels = rng.randint(1, 12)
            tags.append(("building:levels", str(levels)))
            height = levels * 3.0
        else:
            height = 10.0
        if place == "no":
            tags[0] = ("building", "no")
        way_id = self.way(ring + ring[:1], tags)
        if tags[0][1] != "no" and self.touches_bbox(ring):
            self.expected_buildings.append(
                [way_id, height, [list(self.latlon(ref)) for ref in ring]]
            )

    def lattice_node(self, i: int, j: int) -> int:
        if (i, j) not in self._lattice:
            min_lat, min_lon = self.scale.bbox[0], self.scale.bbox[1]
            start = -self.scale.margin_deg
            self._lattice[(i, j)] = self.node(
                min_lat + start + i * self.scale.lattice_deg,
                min_lon + start + j * self.scale.lattice_deg,
            )
        return self._lattice[(i, j)]

    def road(self, place: str) -> None:
        """A random walk on the street grid from a node inside the bbox, so
        roads meet at shared nodes and some run out over the edge; an
        "outside" road runs straight along the margin instead."""
        rng = self.rng
        min_lat, min_lon, max_lat, max_lon = self.scale.bbox
        span = self.scale.lattice_deg
        n_i = int((max_lat - min_lat + 2 * self.scale.margin_deg) / span)
        n_j = int((max_lon - min_lon + 2 * self.scale.margin_deg) / span)
        length = self.scale.road_nodes
        if place == "outside":
            i, j = rng.choice((0, n_i)), rng.randint(0, n_j - length + 1)
            steps = [(i, j + k) for k in range(length)]
        else:
            edge = math.ceil(self.scale.margin_deg / span - 1e-9)  # first index inside
            i, j = rng.randint(edge, n_i - edge), rng.randint(edge, n_j - edge)
            steps = [(i, j)]
            previous = None
            while len(steps) < length:
                moves = [
                    (di, dj)
                    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))
                    if (-di, -dj) != previous and 0 <= i + di <= n_i and 0 <= j + dj <= n_j
                ]
                di, dj = rng.choice(moves)
                i, j = i + di, j + dj
                previous = (di, dj)
                steps.append((i, j))
        refs = [self.lattice_node(a, b) for a, b in steps]
        drivable = place != "non-drivable"
        tags = [("highway", rng.choice(DRIVABLE if drivable else NON_DRIVABLE))]
        if rng.random() < 0.3:
            tags.append(("name", f"Street {rng.randint(1, 999)}"))
        way_id = self.way(refs, tags)
        if drivable and self.touches_bbox(refs):
            self.expected_roads.append([way_id, [list(self.latlon(ref)) for ref in refs]])

    def defects(self) -> None:
        """Ways the program must drop with a warning, none making it fail."""
        rng = self.rng
        missing = 10**9
        for _ in range(self.scale.defects):
            ring = [self.node(*p) for p in self.ring(*self.centre("inside"))]
            self.way(ring, [("building", "yes")])  # not closed
            ring = [self.node(*p) for p in self.ring(*self.centre("inside"))]
            ring[1] = missing
            missing += 1
            self.way(ring + ring[:1], [("building", "yes")])  # unresolved ref
            lat, lon = self.centre("inside")
            a, b = self.node(lat, lon), self.node(lat + 1e-4, lon)
            twin = self.node(lat + 1e-4, lon)  # same place as b
            self.way([a, b, twin, a], [("building", "yes")])  # < 3 distinct vertices
            i, j = rng.randint(10, 40), rng.randint(10, 40)
            refs = [self.lattice_node(i, j + k) for k in range(3)]
            refs.insert(1, missing)
            missing += 1
            self.way(refs, [("highway", "residential")])  # road with unresolved ref
            self.defective += 4

    def xml(self) -> str:
        min_lat, min_lon, max_lat, max_lon = self.scale.bbox
        m = self.scale.margin_deg
        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<osm version="0.6" generator="dtbench">',
            f'  <bounds minlat="{_deg(min_lat - m)}" minlon="{_deg(min_lon - m)}" '
            f'maxlat="{_deg(max_lat + m)}" maxlon="{_deg(max_lon + m)}"/>',
        ]
        for node_id, (lat, lon) in self.nodes.items():
            lines.append(f'  <node id="{node_id}" lat="{lat}" lon="{lon}"/>')
        for way_id, refs, tags in self.ways:
            lines.append(f'  <way id="{way_id}">')
            lines.extend(f'    <nd ref="{ref}"/>' for ref in refs)
            lines.extend(f'    <tag k="{k}" v="{v}"/>' for k, v in tags)
            lines.append("  </way>")
        lines.append("</osm>")
        return "\n".join(lines) + "\n"


def _vehicle(rng: random.Random, name: str, kind: str, spawn: dict) -> dict:
    wheelbase = round(rng.uniform(2.4, 3.2), 2)
    return {
        "name": name,
        "kind": kind,
        "wheelbase": wheelbase,
        "track": round(rng.uniform(1.4, 1.7), 2),
        "wheel_radius": round(rng.uniform(0.28, 0.36), 2),
        "max_steer_angle": round(rng.uniform(0.45, 0.65), 2),
        "chassis": {
            "length": round(wheelbase + rng.uniform(1.2, 2.0), 2),
            "width": round(rng.uniform(1.7, 2.0), 2),
            "height": round(rng.uniform(1.3, 1.8), 2),
        },
        "gps": rng.random() < 0.8,
        "spawn": spawn,
    }


def _config(rng: random.Random, bbox, counts: dict[str, int]) -> dict:
    min_lat, min_lon, max_lat, max_lon = bbox
    vehicles = []
    for kind, count in counts.items():
        for k in range(count):
            yaw = round(rng.uniform(-math.pi, math.pi), 4)
            if k % 2 == 0:
                spawn = {
                    "lat": round(rng.uniform(min_lat + 0.002, max_lat - 0.002), 7),
                    "lon": round(rng.uniform(min_lon + 0.002, max_lon - 0.002), 7),
                    "yaw": yaw,
                }
            else:
                spawn = {"x": round(rng.uniform(-50, 50), 3), "y": round(rng.uniform(-50, 50), 3), "yaw": yaw}
            vehicles.append(_vehicle(rng, f"{kind}_{k}", kind, spawn))
    return {
        "bbox": dict(zip(("min_lat", "min_lon", "max_lat", "max_lon"), bbox)),
        "defaults": {
            "default_building_height": 10.0,
            "meters_per_level": 3.0,
            "road_width": 7.0,
            "road_thickness": 0.1,
        },
        "sdf_version": "1.6",
        "vehicles": vehicles,
    }


def _shuffled(rng: random.Random, total: int, shares: dict[str, float], rest: str) -> list[str]:
    """Exactly ``round(share * total)`` of each kind, in random order, so
    the amount of work does not drift with the seed."""
    kinds = [kind for kind, share in shares.items() for _ in range(round(share * total))]
    kinds += [rest] * (total - len(kinds))
    rng.shuffle(kinds)
    return kinds


def make_map_inputs(scale: MapScale, vehicle_counts: dict[str, int], seed: int, out: Path) -> None:
    rng = random.Random(seed)
    builder = _MapBuilder(scale, rng)
    for place in _shuffled(rng, scale.roads, {"outside": 0.05, "non-drivable": 0.05}, "inside"):
        builder.road(place)
    shares = {"outside": 0.08, "straddle": 0.04, "no": 0.01}
    for place in _shuffled(rng, scale.buildings, shares, "inside"):
        builder.building(place)
    builder.defects()
    config = _config(rng, scale.bbox, vehicle_counts)
    out.mkdir(parents=True, exist_ok=True)
    (out / "map.osm").write_text(builder.xml(), encoding="utf-8")
    (out / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    manifest = {
        "kind": "generate",
        "bbox": list(scale.bbox),
        "ways": len(builder.ways),
        "defective_ways": builder.defective,
        "buildings": builder.expected_buildings,
        "roads": builder.expected_roads,
    }
    (out / "manifest.json").write_text(json.dumps(manifest) + "\n", encoding="utf-8")


def _drive_segments(rng: random.Random, n_intervals: int) -> list[tuple[int, float, float]]:
    """(intervals, speed, steer) pieces of a drive: a straight start, then
    arcs, straights and stops, with one parked stretch near 40 %."""
    segments = [(100, rng.uniform(6.0, 10.0), 0.0)]
    used = 100
    parked_at = int(0.4 * n_intervals)
    parked = False
    while used < n_intervals:
        kind = rng.random()
        if not parked and used >= parked_at:
            length, speed, steer = int(GAP_PARKED_S * 10), 0.0, 0.0
            parked = True
        elif kind < 0.5:
            steer = rng.choice((-1, 1)) * rng.uniform(0.02, 0.25)
            length, speed = rng.randint(50, 300), rng.uniform(3.0, 14.0)
        elif kind < 0.8:
            length, speed, steer = rng.randint(50, 300), rng.uniform(3.0, 14.0), 0.0
        else:
            length, speed, steer = rng.randint(30, 200), 0.0, 0.0
        length = min(length, n_intervals - used)
        segments.append((length, speed, steer))
        used += length
    return segments


def closed_form_path(segments, wheelbase: float, yaw0: float, times: list[float]):
    """Exact zero-order-hold path of the kinematic bicycle: each control
    interval is a circular arc (or a straight line) advanced by its chord."""
    x = y = 0.0
    yaw = yaw0
    path = [(x, y)]
    k = 0
    for length, speed, steer in segments:
        kappa = math.tan(steer) / wheelbase
        for _ in range(length):
            dt = times[k + 1] - times[k]
            turn = kappa * speed * dt
            chord = speed * dt if steer == 0.0 else 2.0 * math.sin(turn / 2.0) / kappa
            x += chord * math.cos(yaw + turn / 2.0)
            y += chord * math.sin(yaw + turn / 2.0)
            yaw += turn
            path.append((x, y))
            k += 1
    return path


def make_gap_inputs(seed: int, out: Path, duration_s: float = GAP_DURATION_S) -> None:
    rng = random.Random(seed)
    n = int(round(duration_s * 10))
    times = [k / 10 for k in range(n + 1)]
    segments = _drive_segments(rng, n)
    config = _config(rng, GAP_BBOX, {"twin": 1})
    ego = config["vehicles"][0]
    ego.update(name="ego", wheelbase=2.7, max_steer_angle=0.6)
    ego["chassis"]["length"] = 4.5
    yaw0 = rng.uniform(-math.pi, math.pi)
    model = closed_form_path(segments, 2.7, yaw0, times)
    # the recorded vehicle turns less sharply than the model: a reality gap
    real = closed_form_path(segments, 2.7 * 1.04, yaw0, times)

    lat0, lon0 = _centre(GAP_BBOX)
    cos_lat0 = math.cos(math.radians(lat0))
    rows = ["t,lat,lon"]
    for k, (t, (x, y)) in enumerate(zip(times, real)):
        if k > 100:  # GPS jitter inside a 2 cm disc: a stop never moves 5 cm
            r, phi = 0.02 * math.sqrt(rng.random()), rng.uniform(0, math.tau)
            x, y = x + r * math.cos(phi), y + r * math.sin(phi)
        lat = lat0 + math.degrees(y / EARTH_RADIUS_M)
        lon = lon0 + math.degrees(x / (EARTH_RADIUS_M * cos_lat0))
        rows.append(f"{t!r},{lat!r},{lon!r}")
    controls = ["t,speed,steer"]
    k = 0
    for length, speed, steer in segments:
        for _ in range(length):
            controls.append(f"{times[k]!r},{speed!r},{steer!r}")
            k += 1
    controls.append(f"{times[n]!r},0.0,0.0")

    # Euler's left-rule error on one constant-control stretch is at most one
    # step length per axis; stretches add up because yaw is integrated exactly.
    tolerance = 1e-3 + sum(math.sqrt(2) * speed * DT_MAX_S for _, speed, _ in segments)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    (out / "trace.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (out / "controls.csv").write_text("\n".join(controls) + "\n", encoding="utf-8")
    manifest = {
        "kind": "gap",
        "bbox": list(GAP_BBOX),
        "samples": n + 1,
        "parked_samples": max(s[0] for s in segments if s[1] == 0.0),
        "model_path": model,
        "tolerance_m": tolerance,
    }
    (out / "manifest.json").write_text(json.dumps(manifest) + "\n", encoding="utf-8")


WORKLOADS = {
    "city-generate": lambda seed, out: make_map_inputs(
        CITY, {"twin": 1, "shadow": 1, "ghost": 1}, seed, out
    ),
    "track-generate": lambda seed, out: make_map_inputs(
        TRACK, {"twin": 3, "shadow": 3, "ghost": 3}, seed, out
    ),
    "gap-replay": make_gap_inputs,
}


if __name__ == "__main__":
    WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3]))
