"""Independent reference implementations used to check library results.

These deliberately avoid numpy and any dtgen internals: plain loops and
math, written straight from the documented rules.
"""

import math

HEADING_GATE_M = 0.05


def brute_force_headings(real_pts, gate=HEADING_GATE_M):
    """Gated motion heading per point, carried over where motion is unknown."""
    n = len(real_pts)
    headings = []
    for i in range(n):
        heading = None
        for j in range(i + 1, n):
            dx = real_pts[j][0] - real_pts[i][0]
            dy = real_pts[j][1] - real_pts[i][1]
            if math.sqrt(dx * dx + dy * dy) >= gate:
                heading = math.atan2(dy, dx)
                break
        headings.append(heading)
    last = next((h for h in headings if h is not None), 0.0)
    carried = []
    for h in headings:
        if h is None:
            carried.append(last)
        else:
            carried.append(h)
            last = h
    return carried


def brute_force_gap_metrics(real_pts, sim_pts, gate=HEADING_GATE_M):
    """Direct-summation deviation metrics for two aligned point sequences."""
    n = len(real_pts)
    devs = []
    for (rx, ry), (sx, sy) in zip(real_pts, sim_pts):
        devs.append(math.sqrt((sx - rx) ** 2 + (sy - ry) ** 2))
    rmse = math.sqrt(sum(d * d for d in devs) / n)

    carried = brute_force_headings(real_pts, gate)
    lat_sq = lon_sq = 0.0
    for (rx, ry), (sx, sy), heading in zip(real_pts, sim_pts, carried):
        dx, dy = sx - rx, sy - ry
        lat_sq += (-math.sin(heading) * dx + math.cos(heading) * dy) ** 2
        lon_sq += (math.cos(heading) * dx + math.sin(heading) * dy) ** 2

    return {
        "rmse": rmse,
        "max_dev": max(devs),
        "mean_dev": sum(devs) / n,
        "final_drift": devs[-1],
        "lateral_rmse": math.sqrt(lat_sq / n),
        "longitudinal_rmse": math.sqrt(lon_sq / n),
    }
