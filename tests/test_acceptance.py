"""Acceptance suite: every release criterion, one test each, at its stated
tolerance. Each test prints a single PASS line with the measured numbers so a
plain ``pytest tests/test_acceptance.py -v -s`` doubles as the release
checklist."""

import io
import itertools
import json
import math
import random
import statistics
import time
import xml.etree.ElementTree as ET

import pytest

from dtgen import cli
from dtgen.config import VehicleKind, VehicleSpec
from dtgen.geodesy import EARTH_RADIUS_M, GeoOrigin, project, unproject
from dtgen.replay import (
    ControlSample,
    TrajectorySample,
    VehicleState,
    compute_gap,
    simulate_controls,
    step_kinematic,
)

BBOX = (48.0, 8.0, 48.02, 8.03)
OSM_FIXTURES = ["empty.osm", "buildings_only.osm", "roads_only.osm", "mixed.osm", "track.osm"]

# drivable highway whitelist, restated independently of the library
DRIVABLE = {
    "motorway", "trunk", "primary", "secondary", "tertiary",
    "unclassified", "residential", "service", "living_street",
}
DRIVABLE |= {f"{v}_link" for v in DRIVABLE}


def _generate(data_dir, tmp_path, osm_name, config_name, out_name="world.sdf"):
    out = tmp_path / out_name
    code = cli.main(
        [
            "generate",
            "--config",
            str(data_dir / config_name),
            "--osm",
            str(data_dir / osm_name),
            "--out",
            str(out),
        ]
    )
    return code, out


def test_generation_speed(data_dir, tmp_path):
    """Track-scale generation (200 nodes, 30 ways, 2 vehicles) in under 1 s."""
    durations = []
    for i in range(5):
        start = time.perf_counter()
        code, _ = _generate(data_dir, tmp_path, "track.osm", "config_track.json", f"w{i}.sdf")
        durations.append(time.perf_counter() - start)
        assert code == 0
    median = statistics.median(durations)
    assert median < 1.0
    print(f"\nPASS generation speed: median {median * 1000:.1f} ms over 5 runs (< 1000 ms)")


def test_generation_validation_closure(data_dir, tmp_path):
    """Every fixture generates a world that validates with zero violations."""
    runs = [(name, "config_minimal.json") for name in OSM_FIXTURES]
    runs.append(("track.osm", "config_kinds.json"))  # covers all three vehicle kinds
    for i, (osm_name, config_name) in enumerate(runs):
        code, out = _generate(data_dir, tmp_path, osm_name, config_name, f"c{i}.sdf")
        assert code == 0, f"generate failed for {osm_name} + {config_name}"
        assert cli.main(["validate", str(out)]) == 0, f"validate rejected {osm_name}"
    print(f"\nPASS generation/validation closure: {len(runs)} fixture runs, zero violations")


def _scan_fixture(text):
    """Brute-force building/road count, straight off the fixture XML."""
    min_lat, min_lon, max_lat, max_lon = BBOX
    lat0 = (min_lat + max_lat) / 2
    lon0 = (min_lon + max_lon) / 2
    cos_lat0 = math.cos(math.radians(lat0))

    root = ET.fromstring(text)
    nodes = {}
    ways = []
    seen_ways = set()
    for el in root:
        if el.tag == "node":
            try:
                nid = int(el.get("id"))
                lat = float(el.get("lat"))
                lon = float(el.get("lon"))
            except (TypeError, ValueError):
                continue
            if not (-90 <= lat <= 90 and -180 <= lon <= 180):
                continue
            if nid not in nodes:
                nodes[nid] = (lat, lon)
        elif el.tag == "way":
            wid = int(el.get("id"))
            if wid in seen_ways:
                continue
            seen_ways.add(wid)
            refs = [int(nd.get("ref")) for nd in el.findall("nd")]
            tags = {t.get("k"): t.get("v") for t in el.findall("tag")}
            ways.append((wid, refs, tags))

    def inside(ref):
        if ref not in nodes:
            return False
        lat, lon = nodes[ref]
        return min_lat <= lat <= max_lat and min_lon <= lon <= max_lon

    def proj(ref):
        lat, lon = nodes[ref]
        x = EARTH_RADIUS_M * math.radians(lon - lon0) * cos_lat0
        y = EARTH_RADIUS_M * math.radians(lat - lat0)
        return x, y

    def collapse(pts):
        out = [pts[0]]
        for p in pts[1:]:
            if math.hypot(p[0] - out[-1][0], p[1] - out[-1][1]) > 1e-6:
                out.append(p)
        return out

    buildings = roads = 0
    for wid, refs, tags in ways:
        if not any(inside(r) for r in refs):
            continue  # dropped by the bbox filter
        resolvable = all(r in nodes for r in refs)
        value = tags.get("building")
        if value is not None and value != "no":
            if len(refs) >= 2 and refs[0] == refs[-1] and resolvable:
                ring = collapse([proj(r) for r in refs[:-1]])
                while len(ring) > 1 and math.hypot(
                    ring[0][0] - ring[-1][0], ring[0][1] - ring[-1][1]
                ) <= 1e-6:
                    ring.pop()
                distinct = []
                for p in ring:
                    if all(math.hypot(p[0] - q[0], p[1] - q[1]) > 1e-6 for q in distinct):
                        distinct.append(p)
                if len(ring) >= 3 and len(distinct) >= 3:
                    buildings += 1
        if tags.get("highway") in DRIVABLE and resolvable:
            if len(collapse([proj(r) for r in refs])) >= 2:
                roads += 1
    return buildings, roads


def test_extraction_count_oracle(data_dir, tmp_path):
    """Extracted building/road counts equal an independent fixture scan."""
    from dtgen.geodesy import origin_of
    from dtgen.config import ExtractionDefaults
    from dtgen.geodesy import BoundingBox
    from dtgen.osm import filter_bbox, parse_osm
    from dtgen.world_model import extract_buildings, extract_roads

    bbox = BoundingBox(*BBOX)
    origin = origin_of(bbox)
    defaults = ExtractionDefaults()
    totals = []
    for name in OSM_FIXTURES:
        text = (data_dir / name).read_text()
        expected_buildings, expected_roads = _scan_fixture(text)
        doc = filter_bbox(parse_osm(io.BytesIO(text.encode())), bbox)
        buildings, _ = extract_buildings(doc, origin, defaults)
        roads, _ = extract_roads(doc, origin, defaults)
        assert len(buildings) == expected_buildings, name
        assert len(roads) == expected_roads, name
        totals.append(f"{name}: {expected_buildings}b/{expected_roads}r")
    print(f"\nPASS extraction count oracle: exact match on {'; '.join(totals)}")


def test_vehicle_kind_semantics(data_dir, tmp_path):
    """Ghosts never collide, shadows listen passively, twins steer."""
    code, out = _generate(data_dir, tmp_path, "track.osm", "config_kinds.json")
    assert code == 0
    tree = ET.fromstring(out.read_text())

    ghost = tree.find("world/model[@name='what_if_ghost']")
    assert ghost.findall(".//collision") == []

    shadow = tree.find("world/model[@name='real_shadow']")
    assert len(shadow.findall(".//collision")) > 0
    assert shadow.find(".//sensor[@type='gps']") is not None
    assert shadow.findall(".//plugin") == []

    twin = tree.find("world/model[@name='ego_twin']")
    assert twin.find(".//sensor[@type='gps']") is not None
    steer = [j for j in twin.findall("joint") if "steer" in j.get("name")]
    assert len(steer) == 2
    for joint in steer:
        assert float(joint.find("axis/limit/lower").text) == -0.6
        assert float(joint.find("axis/limit/upper").text) == 0.6
    print(
        "\nPASS vehicle-kind semantics: ghost 0 collisions; shadow "
        f"{len(shadow.findall('.//collision'))} collisions + gps, no plugin; "
        "twin steer limits +/-0.6"
    )


def _haversine(lat1, lon1, lat2, lon2):
    p1, p2 = math.radians(lat1), math.radians(lat2)
    a = (
        math.sin((p2 - p1) / 2) ** 2
        + math.cos(p1) * math.cos(p2) * math.sin(math.radians(lon2 - lon1) / 2) ** 2
    )
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


def test_projection_accuracy():
    """1000 random sub-5km pairs within 0.5% of haversine; round trip 1e-9 deg."""
    rng = random.Random(2024)
    pairs = 0
    worst_rel = 0.0
    worst_round = 0.0
    while pairs < 1000:
        lat0 = rng.uniform(-70.0, 70.0)
        lon0 = rng.uniform(-179.0, 179.0)
        origin = GeoOrigin(lat0, lon0)
        # both endpoints within 2.5 km of the origin
        lats, lons = [], []
        for _ in range(2):
            bearing = rng.uniform(0, 2 * math.pi)
            dist = rng.uniform(0, 2500.0)
            lats.append(lat0 + math.degrees(dist * math.cos(bearing) / EARTH_RADIUS_M))
            lons.append(lon0 + math.degrees(
                dist * math.sin(bearing) / (EARTH_RADIUS_M * math.cos(math.radians(lat0)))
            ))
        truth = _haversine(lats[0], lons[0], lats[1], lons[1])
        if truth < 1.0 or truth >= 5000.0:
            continue
        pairs += 1
        p1 = project(origin, lats[0], lons[0])
        p2 = project(origin, lats[1], lons[1])
        planar = math.hypot(p2.x - p1.x, p2.y - p1.y)
        rel = abs(planar - truth) / truth
        worst_rel = max(worst_rel, rel)
        assert rel < 0.005
        for lat, lon in zip(lats, lons):
            back_lat, back_lon = unproject(origin, project(origin, lat, lon))
            err = max(abs(back_lat - lat), abs(back_lon - lon))
            worst_round = max(worst_round, err)
            assert err < 1e-9
    print(
        f"\nPASS projection accuracy: worst distance error {worst_rel * 100:.4f}% "
        f"(< 0.5%), worst round trip {worst_round:.2e} deg (< 1e-9)"
    )


def test_kinematic_oracle():
    """Turning radius wheelbase/tan(steer) to 0.1%; straight line to 1e-9."""
    spec = VehicleSpec(name="a", kind=VehicleKind.TWIN, wheelbase=2.7)
    radius = 10.0
    steer = math.atan(spec.wheelbase / radius)
    control = ControlSample(0.0, 1.0, steer)
    state = VehicleState(0.0, 0.0, 0.0, 1.0)
    steps = round((2 * math.pi * radius / 1.0) / 1e-3)
    points = []
    for _ in range(steps):
        state = step_kinematic(state, control, 1e-3, spec)
        points.append((state.x, state.y))
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    worst = max(abs(math.hypot(px - cx, py - cy) - radius) / radius for px, py in points)
    assert worst < 1e-3

    controls = [ControlSample(0.0, 2.0, 0.0), ControlSample(5.0, 2.0, 0.0)]
    traj = simulate_controls(VehicleState(0.0, 0.0, 0.0, 0.0), controls, spec)
    final = traj.samples[-1]
    straight_err = max(abs(final.x - 10.0), abs(final.y))
    assert straight_err < 1e-9
    print(
        f"\nPASS kinematic oracle: radius error {worst * 100:.4f}% (< 0.1%), "
        f"straight-line error {straight_err:.2e} m (< 1e-9)"
    )


def test_gap_metric_oracle():
    """compute_gap vs direct summation on 100 random pairs, 1e-12 tolerance."""
    from oracles import brute_force_gap_metrics, trajectory_of

    rng = random.Random(99)
    worst = 0.0
    for _ in range(100):
        n = rng.randrange(5, 60)
        times = list(itertools.accumulate(rng.uniform(0.1, 1.0) for _ in range(n)))
        xs = list(itertools.accumulate(rng.uniform(-2, 3) for _ in range(n)))
        ys = list(itertools.accumulate(rng.uniform(-2, 2) for _ in range(n)))
        real_pts = list(zip(xs, ys))
        sim_pts = [(x + rng.gauss(0, 0.5), y + rng.gauss(0, 0.5)) for x, y in real_pts]
        real = trajectory_of(TrajectorySample(t, x, y) for t, (x, y) in zip(times, real_pts))
        sim = trajectory_of(TrajectorySample(t, x, y) for t, (x, y) in zip(times, sim_pts))
        report = compute_gap(real, sim)
        expected = brute_force_gap_metrics(real_pts, sim_pts)
        for key, value in expected.items():
            worst = max(worst, abs(getattr(report, key) - value))
            assert abs(getattr(report, key) - value) < 1e-12, key

    identity = trajectory_of(TrajectorySample(float(t), float(t), 0.5 * t) for t in range(10))
    zero = compute_gap(identity, identity)
    assert zero.rmse == 0.0 and zero.max_dev == 0.0 and zero.final_drift == 0.0

    offset_real = trajectory_of(TrajectorySample(float(t), float(t), 0.0) for t in range(8))
    offset_sim = trajectory_of(TrajectorySample(float(t), float(t), 1.0) for t in range(8))
    assert compute_gap(offset_real, offset_sim).rmse == 1.0
    print(
        f"\nPASS gap-metric oracle: 100 random pairs, worst |delta| {worst:.2e} "
        "(< 1e-12); identity exactly zero; unit offset rmse exactly 1"
    )


def test_determinism(data_dir, tmp_path):
    """Same inputs, byte-identical SDF output."""
    outputs = []
    for name in ("first.sdf", "second.sdf"):
        code, out = _generate(data_dir, tmp_path, "track.osm", "config_track.json", name)
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    print(f"\nPASS determinism: two runs, {len(outputs[0])} identical bytes")
