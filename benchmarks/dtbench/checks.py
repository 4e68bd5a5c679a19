"""Correctness checks run at the end of every workload.

Expected values come from the input manifest (what the generator planted) and
from plain loops written from the documented rules: the equirectangular
projection, the height rule, the drivable whitelist, the gap statistics. They
share no code with dtgen. dtgen itself is called only where the check is about
it: ``validate_sdf`` must accept the world, and the gap statistics are
recomputed against the trajectory ``simulate_controls`` returns for the
config's vehicle (read with ``load_config``).

Every check raises :class:`CheckFailed` with the first discrepancy found.
"""

import bisect
import csv
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

EARTH_RADIUS_M = 6378137.0
HEADING_GATE_M = 0.05
VERTEX_TOL_M = 1e-3
STAT_REL_TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _project(lat0: float, lon0: float, lat: float, lon: float) -> tuple[float, float]:
    x = EARTH_RADIUS_M * math.radians(lon - lon0) * math.cos(math.radians(lat0))
    y = EARTH_RADIUS_M * math.radians(lat - lat0)
    return x, y


def _identical(outputs: list[Path]) -> bytes:
    _require(len(outputs) >= 2, "need two outputs to compare")
    data = outputs[0].read_bytes()
    for other in outputs[1:]:
        _require(other.read_bytes() == data, f"{other.name} differs from {outputs[0].name}")
    return data


# --- world geometry -------------------------------------------------------


def _pose(element) -> tuple[float, float, float, float]:
    """(x, y, z, yaw) of an element's <pose>; the world is flat, so roll and
    pitch must be zero."""
    pose = element.find("pose")
    if pose is None:
        return 0.0, 0.0, 0.0, 0.0
    values = [float(v) for v in pose.text.split()]
    _require(len(values) == 6, f"pose {pose.text!r} is not 6 numbers")
    _require(values[3] == 0.0 and values[4] == 0.0, f"pose {pose.text!r} is not planar")
    return values[0], values[1], values[2], values[5]


def _compose(a, b):
    x, y, z, yaw = a
    c, s = math.cos(yaw), math.sin(yaw)
    return x + c * b[0] - s * b[1], y + s * b[0] + c * b[1], z + b[2], yaw + b[3]


def _pieces(model, kind: str):
    """Footprint polygons of the model's ``collision`` or ``visual``
    geometry in world coordinates: (points, z_bottom, z_top)."""
    pieces = []
    model_frame = _pose(model)
    for link in model.findall("link"):
        link_frame = _compose(model_frame, _pose(link))
        for holder in link.findall(kind):
            frame = _compose(link_frame, _pose(holder))
            geometry = holder.find("geometry")
            _require(geometry is not None, f"{kind} without <geometry>")
            for box in geometry.findall("box"):
                length, width, height = (float(v) for v in box.find("size").text.split())
                corners = [(-length / 2, -width / 2), (length / 2, -width / 2),
                           (length / 2, width / 2), (-length / 2, width / 2)]
                points = [_compose(frame, (x, y, 0.0, 0.0))[:2] for x, y in corners]
                pieces.append((points, frame[2] - height / 2, frame[2] + height / 2))
            for polyline in geometry.findall("polyline"):
                points = []
                for point in polyline.findall("point"):
                    x, y = (float(v) for v in point.text.split())
                    points.append(_compose(frame, (x, y, 0.0, 0.0))[:2])
                height = float(polyline.find("height").text)
                pieces.append((points, frame[2], frame[2] + height))
    return pieces


def _segment_distance(p, a, b) -> float:
    dx, dy = b[0] - a[0], b[1] - a[1]
    length_sq = dx * dx + dy * dy
    t = 0.0 if length_sq == 0 else ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / length_sq
    t = min(1.0, max(0.0, t))
    return math.hypot(p[0] - a[0] - t * dx, p[1] - a[1] - t * dy)


def _corner_fit(p, segments, half: float) -> tuple[float, bool]:
    """Distance from ``p`` to the centerline, and whether ``p`` lies ``half``
    off some segment's line with its foot on that segment or at most ``half``
    beyond an end (as far as a miter reaches)."""
    nearest, on_edge = math.inf, False
    for a, b in segments:
        dx, dy = b[0] - a[0], b[1] - a[1]
        length = math.hypot(dx, dy)
        along = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / length
        off = abs((p[0] - a[0]) * dy - (p[1] - a[1]) * dx) / length
        if along < 0:
            nearest = min(nearest, math.hypot(p[0] - a[0], p[1] - a[1]))
        elif along > length:
            nearest = min(nearest, math.hypot(p[0] - b[0], p[1] - b[1]))
        else:
            nearest = min(nearest, off)
        if _close(off, half, VERTEX_TOL_M) and -half - VERTEX_TOL_M <= along <= length + half + VERTEX_TOL_M:
            on_edge = True
    return nearest, on_edge


def _covers(polygon, box, p, tol: float) -> bool:
    """Point in polygon, or within ``tol`` of its boundary; ``box`` is the
    polygon's (min_x, min_y, max_x, max_y), a cheap first rejection."""
    if not (box[0] - tol <= p[0] <= box[2] + tol and box[1] - tol <= p[1] <= box[3] + tol):
        return False
    inside = False
    n = len(polygon)
    for i in range(n):
        a, b = polygon[i], polygon[(i + 1) % n]
        if (a[1] > p[1]) != (b[1] > p[1]):
            x = a[0] + (p[1] - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
            if p[0] < x:
                inside = not inside
    if inside:
        return True
    return any(_segment_distance(p, polygon[i], polygon[(i + 1) % n]) <= tol for i in range(n))


def _check_road(model, centerline, width: float, thickness: float) -> None:
    """Holds whether a road is one box per segment or a ribbon polyline:
    every centerline vertex and eight points along each segment lie on the road,
    every footprint corner lies on a segment's edge line (width/2 off it, its
    foot no farther past the segment's end than a miter reaches) and within
    a right-angle miter of the centerline, and the surface spans z = 0 to the
    road thickness."""
    name = model.get("name")
    collision = _pieces(model, "collision")
    visual = _pieces(model, "visual")
    _require(collision, f"{name}: no collision geometry")

    def canonical(pieces):
        return sorted(
            (tuple((round(x, 6), round(y, 6)) for x, y in pts), round(lo, 6), round(hi, 6))
            for pts, lo, hi in pieces
        )

    _require(canonical(visual) == canonical(collision), f"{name}: visual differs from collision")
    segments = list(zip(centerline, centerline[1:]))
    samples = list(centerline) + [
        (a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]))
        for a, b in segments
        for f in (1 / 16, 3 / 16, 5 / 16, 7 / 16, 9 / 16, 11 / 16, 13 / 16, 15 / 16)
    ]
    boxes = [
        (min(x for x, _ in pts), min(y for _, y in pts), max(x for x, _ in pts),
         max(y for _, y in pts))
        for pts, _, _ in collision
    ]
    for p in samples:
        _require(
            any(_covers(pts, box, p, VERTEX_TOL_M) for (pts, _, _), box in zip(collision, boxes)),
            f"{name}: centerline point {p} is not on the road",
        )
    reach = math.sqrt(2) * width / 2 + VERTEX_TOL_M
    for points, z_lo, z_hi in collision:
        _require(
            _close(z_lo, 0.0, 1e-6) and _close(z_hi, thickness, 1e-6),
            f"{name}: surface spans z {z_lo}..{z_hi}, expected 0..{thickness}",
        )
        for p in points:
            nearest, on_edge = _corner_fit(p, segments, width / 2)
            _require(nearest <= reach, f"{name}: corner {p} lies beyond the road width")
            _require(on_edge, f"{name}: corner {p} is not width/2 off any centerline segment")


def _check_building(model, ring, height: float) -> None:
    name = model.get("name")
    for kind in ("collision", "visual"):
        pieces = _pieces(model, kind)
        _require(len(pieces) == 1, f"{name}: {len(pieces)} {kind} polylines, expected 1")
        points, z_lo, z_hi = pieces[0]
        _require(len(points) == len(ring), f"{name}: {len(points)} vertices, expected {len(ring)}")
        for got, want in zip(points, ring):
            _require(
                math.hypot(got[0] - want[0], got[1] - want[1]) <= VERTEX_TOL_M,
                f"{name}: vertex {got} is not the projection {want} of its node",
            )
        _require(
            _close(z_lo, 0.0, 1e-6) and _close(z_hi - z_lo, height, 1e-6 * height),
            f"{name}: height {z_hi - z_lo}, expected {height}",
        )


def _check_vehicle(model, spec: dict, lat0: float, lon0: float) -> None:
    name = spec["name"]
    spawn = spec["spawn"]
    if "lat" in spawn:
        x, y = _project(lat0, lon0, spawn["lat"], spawn["lon"])
    else:
        x, y = spawn["x"], spawn["y"]
    px, py, _, pyaw = _pose(model)
    _require(math.hypot(px - x, py - y) <= VERTEX_TOL_M, f"{name}: pose ({px}, {py}) != ({x}, {y})")
    turn = (pyaw - spawn.get("yaw", 0.0) + math.pi) % math.tau - math.pi
    _require(abs(turn) <= 1e-6, f"{name}: yaw {pyaw} != {spawn.get('yaw', 0.0)}")

    kind = spec["kind"]
    collisions = model.findall(".//collision")
    plugins = model.findall("plugin")
    gps = model.findall(".//sensor[@type='gps']")
    _require(bool(gps) == spec.get("gps", True), f"{name}: gps sensor presence is wrong")
    if kind == "ghost":
        _require(not collisions, f"{name}: ghost carries {len(collisions)} <collision>")
    else:
        _require(collisions, f"{name}: {kind} carries no <collision>")
    if kind != "twin":
        _require(not plugins, f"{name}: {kind} carries a plugin")
        static = model.find("static")
        _require(static is not None and static.text == "true", f"{name}: {kind} is not static")
        return
    _require(len(plugins) == 1, f"{name}: twin has {len(plugins)} plugins, expected 1")
    for key in ("wheelbase", "track", "wheel_radius", "max_steer_angle"):
        got = float(plugins[0].find(key).text)
        _require(_close(got, spec[key], 1e-9 * spec[key]), f"{name}: plugin {key} {got} != {spec[key]}")
    limit = spec["max_steer_angle"]
    for side in ("left", "right"):
        joint = model.find(f"joint[@name='front_{side}_steer_joint']")
        _require(joint is not None, f"{name}: twin lacks front_{side}_steer_joint")
        lower = float(joint.find("axis/limit/lower").text)
        upper = float(joint.find("axis/limit/upper").text)
        _require(lower == -limit and upper == limit, f"{name}: steer limits {lower}..{upper}")


def check_generation(inputs: Path, outputs: list[Path]) -> dict:
    """Check the generated worlds against the map manifest and config."""
    from dtgen.sdf import validate_sdf

    data = _identical(outputs)
    report = validate_sdf(data.decode("utf-8"))
    _require(report.ok, f"validate_sdf: {report.violations[:3]}")
    del report

    manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
    config = json.loads((inputs / "config.json").read_text(encoding="utf-8"))
    bbox = config["bbox"]
    lat0 = (bbox["min_lat"] + bbox["max_lat"]) / 2
    lon0 = (bbox["min_lon"] + bbox["max_lon"]) / 2

    root = ET.fromstring(data)
    world = root.find("world")
    _require(world is not None, "no <world>")
    coords = world.find("spherical_coordinates")
    _require(coords is not None, "no <spherical_coordinates>")
    _require(
        _close(float(coords.find("latitude_deg").text), lat0, 1e-9)
        and _close(float(coords.find("longitude_deg").text), lon0, 1e-9),
        "spherical_coordinates is not the bbox centre",
    )

    models = {m.get("name"): m for m in world.findall("model")}
    buildings = {f"building_{way_id}": (h, ring) for way_id, h, ring in manifest["buildings"]}
    roads = {f"road_{way_id}": line for way_id, line in manifest["roads"]}
    vehicles = {v["name"]: v for v in config["vehicles"]}
    expected = {"ground_plane", *buildings, *roads, *vehicles}
    _require(
        set(models) == expected,
        f"model set differs: missing {sorted(expected - set(models))[:5]}, "
        f"unexpected {sorted(set(models) - expected)[:5]}",
    )

    for name, (height, ring) in buildings.items():
        _check_building(models[name], [_project(lat0, lon0, *p) for p in ring], height)
    defaults = config["defaults"]
    for name, line in roads.items():
        centerline = [_project(lat0, lon0, *p) for p in line]
        _check_road(models[name], centerline, defaults["road_width"], defaults["road_thickness"])
    for name, spec in vehicles.items():
        _check_vehicle(models[name], spec, lat0, lon0)
    return {"bytes": len(data), "buildings": len(buildings), "roads": len(roads),
            "vehicles": len(vehicles)}


# --- gap ------------------------------------------------------------------


def _brute_force_headings(points) -> list[float]:
    """Direction to the first later point at least the gate away; trailing
    unknowns carry the last heading, leading ones take the first."""
    n = len(points)
    headings = []
    for i in range(n):
        heading = None
        xi, yi = points[i]
        for j in range(i + 1, n):
            dx, dy = points[j][0] - xi, points[j][1] - yi
            if math.sqrt(dx * dx + dy * dy) >= HEADING_GATE_M:
                heading = math.atan2(dy, dx)
                break
        headings.append(heading)
    last = next((h for h in headings if h is not None), 0.0)
    filled = []
    for h in headings:
        if h is not None:
            last = h
        filled.append(last)
    return filled


def gap_statistics(times, real, headings, sim_times, sim):
    """Plain-loop gap metrics: the simulated path resampled linearly onto the
    recorded timestamps that both cover, deviations split in the recorded
    heading frame."""
    t_lo, t_hi = max(times[0], sim_times[0]), min(times[-1], sim_times[-1])
    devs, lat_sq, lon_sq, per_sample = [], 0.0, 0.0, []
    for t, (rx, ry), heading in zip(times, real, headings):
        if not t_lo <= t <= t_hi:
            continue
        i = bisect.bisect_left(sim_times, t)
        if sim_times[i] == t:
            sx, sy = sim[i]
        else:
            f = (t - sim_times[i - 1]) / (sim_times[i] - sim_times[i - 1])
            sx = sim[i - 1][0] + f * (sim[i][0] - sim[i - 1][0])
            sy = sim[i - 1][1] + f * (sim[i][1] - sim[i - 1][1])
        dx, dy = sx - rx, sy - ry
        devs.append(math.hypot(dx, dy))
        per_sample.append((t, devs[-1]))
        lat_sq += (-math.sin(heading) * dx + math.cos(heading) * dy) ** 2
        lon_sq += (math.cos(heading) * dx + math.sin(heading) * dy) ** 2
    n = len(devs)
    return {
        "n": n,
        "rmse": math.sqrt(sum(d * d for d in devs) / n),
        "max_dev": max(devs),
        "mean_dev": sum(devs) / n,
        "final_drift": devs[-1],
        "lateral_rmse": math.sqrt(lat_sq / n),
        "longitudinal_rmse": math.sqrt(lon_sq / n),
    }, per_sample


def _reject_constant(token: str):
    raise CheckFailed(f"gap JSON holds the non-finite token {token}")


def check_gap(inputs: Path, outputs: list[Path]) -> dict:
    """Check the gap reports against a plain-loop recomputation, and the
    replayed trajectory against the closed-form path behind the controls."""
    from dtgen.config import load_config
    from dtgen.replay import ControlSample, VehicleState, simulate_controls

    data = _identical(outputs)
    try:
        report = json.loads(data, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"gap output is not JSON: {exc}") from exc
    manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
    config_text = (inputs / "config.json").read_text(encoding="utf-8")
    bbox = json.loads(config_text)["bbox"]
    lat0 = (bbox["min_lat"] + bbox["max_lat"]) / 2
    lon0 = (bbox["min_lon"] + bbox["max_lon"]) / 2

    with open(inputs / "trace.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))[1:]
    times = [float(r[0]) for r in rows]
    real = [_project(lat0, lon0, float(r[1]), float(r[2])) for r in rows]
    with open(inputs / "controls.csv", newline="", encoding="utf-8") as f:
        controls = [ControlSample(*(float(v) for v in r)) for r in list(csv.reader(f))[1:]]

    headings = _brute_force_headings(real)
    spec = next(v for v in load_config(config_text).vehicles if v.name == "ego")
    t_end = times[-1] if times[-1] > controls[-1].t else None
    initial = VehicleState(real[0][0], real[0][1], headings[0], 0.0)
    trajectory = simulate_controls(initial, controls, spec, t_end=t_end)
    sim_times = [s.t for s in trajectory.samples]
    sim = [(s.x, s.y) for s in trajectory.samples]

    model = manifest["model_path"]
    _require(len(sim) == len(model), f"trajectory has {len(sim)} poses, expected {len(model)}")
    drift = max(math.hypot(s[0] - m[0], s[1] - m[1]) for s, m in zip(sim, model))
    _require(
        drift <= manifest["tolerance_m"],
        f"trajectory strays {drift:.4f} m from the closed-form path "
        f"(tolerance {manifest['tolerance_m']:.4f} m)",
    )

    expected, per_sample = gap_statistics(times, real, headings, sim_times, sim)
    _require(report.get("n") == expected["n"], f"n {report.get('n')} != {expected['n']}")
    for key, want in expected.items():
        got = report.get(key)
        _require(
            isinstance(got, (int, float)) and _close(got, want, STAT_REL_TOL * max(1.0, abs(want))),
            f"{key} {got} != {want}",
        )
    got_samples = report.get("per_sample", [])
    _require(len(got_samples) == len(per_sample), "per_sample length differs from n")
    for (t, d), (want_t, want_d) in zip(got_samples, per_sample):
        _require(t == want_t and _close(d, want_d, STAT_REL_TOL * max(1.0, want_d)),
                 f"per_sample at t={want_t}: {d} != {want_d}")
    return {"bytes": len(data), "n": expected["n"], "rmse": expected["rmse"],
            "trajectory_drift_m": drift, "tolerance_m": manifest["tolerance_m"]}


def check(workload: str, inputs: Path, outputs: list[Path]) -> dict:
    if workload == "gap-replay":
        return check_gap(inputs, outputs)
    return check_generation(inputs, outputs)
