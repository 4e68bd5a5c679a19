"""How good is the flat-earth projection at driving scale?

The generator places everything on a local tangent plane: x east, y north,
meters. This script projects random point pairs around a few origins and
compares the planar distances against great-circle distances, then checks
that unprojecting returns the original coordinates.

Run:  python3 demos/02_projection_accuracy.py
"""

import math
import random

from dtgen import EARTH_RADIUS_M, GeoOrigin, project, unproject


def haversine_m(lat1, lon1, lat2, lon2):
    p1, p2 = math.radians(lat1), math.radians(lat2)
    a = (
        math.sin((p2 - p1) / 2) ** 2
        + math.cos(p1) * math.cos(p2) * math.sin(math.radians(lon2 - lon1) / 2) ** 2
    )
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


def main():
    rng = random.Random(1)
    print(f"{'origin lat':>10} {'pair dist':>10} {'planar err':>11} {'relative':>9}")
    for origin_lat in (0.0, 30.0, 48.0, 60.0, 70.0):
        origin = GeoOrigin(origin_lat, 10.0)
        worst = 0.0
        worst_dist = 0.0
        for _ in range(500):
            lats = [origin_lat + rng.uniform(-0.02, 0.02) for _ in range(2)]
            lons = [
                10.0 + rng.uniform(-0.02, 0.02) / math.cos(math.radians(origin_lat))
                for _ in range(2)
            ]
            truth = haversine_m(lats[0], lons[0], lats[1], lons[1])
            if truth < 10.0:
                continue
            p1 = project(origin, lats[0], lons[0])
            p2 = project(origin, lats[1], lons[1])
            planar = math.hypot(p2.x - p1.x, p2.y - p1.y)
            if abs(planar - truth) / truth > worst:
                worst = abs(planar - truth) / truth
                worst_dist = truth
        print(f"{origin_lat:>10.1f} {worst_dist:>9.0f}m {worst * worst_dist:>10.3f}m {worst:>8.4%}")

    origin = GeoOrigin(48.0, 10.0)
    lat, lon = 48.017, 10.013
    p = project(origin, lat, lon)
    back = unproject(origin, p)
    print(f"\nround trip: ({lat}, {lon}) -> ({p.x:.3f} m, {p.y:.3f} m) -> "
          f"({back[0]:.12f}, {back[1]:.12f})")
    print(f"round-trip error: {max(abs(back[0] - lat), abs(back[1] - lon)):.2e} degrees")


if __name__ == "__main__":
    main()
