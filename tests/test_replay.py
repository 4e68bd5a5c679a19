import dataclasses
import io
import json
import math
import random
import sys
import time
import tracemalloc
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dtgen.config import VehicleKind, VehicleSpec
from dtgen.geodesy import GeoOrigin
from dtgen.replay import (
    HEADING_DISPLACEMENT_GATE_M,
    ControlSample,
    GapReport,
    Trajectory,
    TrajectorySample,
    VehicleState,
    compute_gap,
    derive_headings,
    normalize_angle,
    parse_controls_csv,
    parse_trajectory_csv,
    shadow_follow,
    simulate_controls,
    step_kinematic,
)
from oracles import column_simulate_controls, trajectory_of

SPEC = VehicleSpec(name="testcar", kind=VehicleKind.TWIN, wheelbase=2.7, max_steer_angle=0.6)


def _lines(text):
    """``text`` as the parsers read it: an iterable of lines."""
    return io.StringIO(text)


def _traj(points, yaw=False):
    if yaw:
        return trajectory_of(TrajectorySample(t, x, y, th) for t, x, y, th in points)
    return trajectory_of(TrajectorySample(t, x, y) for t, x, y in points)


@st.composite
def grid_traces(draw, moving=False):
    """Points on a 0.1 m grid, each with up to 1 cm of jitter per axis.

    A step of (0, 0) parks the trace: points in one grid cell lie under
    3 cm apart, inside the 5 cm heading gate, and points in different cells
    at least 7 cm apart, so no pair sits near the gate. ``moving`` asks for
    at least one step out of the first cell.
    """
    steps = draw(
        st.lists(
            st.one_of(st.just((0, 0)), st.tuples(st.integers(-3, 3), st.integers(-3, 3))),
            min_size=1,
            max_size=40,
        )
    )
    if moving:
        assume(any(step != (0, 0) for step in steps))
    jitter = st.tuples(st.integers(-10, 10), st.integers(-10, 10))
    cells = [(0, 0)]
    for dx, dy in steps:
        cells.append((cells[-1][0] + dx, cells[-1][1] + dy))
    points = []
    for t, (cx, cy) in enumerate(cells):
        jx, jy = draw(jitter)
        points.append((0.5 * t, 0.1 * cx + 0.001 * jx, 0.1 * cy + 0.001 * jy))
    return points


class TestNormalizeAngle:
    def test_zero(self):
        assert normalize_angle(0.0) == 0.0

    def test_pi_stays_pi(self):
        assert normalize_angle(math.pi) == math.pi

    def test_minus_pi_wraps_to_pi(self):
        assert normalize_angle(-math.pi) == math.pi

    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    @settings(max_examples=200)
    def test_result_in_half_open_interval(self, theta):
        wrapped = normalize_angle(theta)
        assert -math.pi < wrapped <= math.pi
        # same direction on the unit circle
        assert math.cos(wrapped) == pytest.approx(math.cos(theta), abs=1e-9)
        assert math.sin(wrapped) == pytest.approx(math.sin(theta), abs=1e-9)


class TestStepKinematic:
    def test_straight_line_unit_step(self):
        state = VehicleState(0.0, 0.0, 0.0, 1.0)
        out = step_kinematic(state, ControlSample(0.0, 1.0, 0.0), 1.0, SPEC)
        assert (out.x, out.y, out.yaw, out.v) == (1.0, 0.0, 0.0, 1.0)

    def test_zero_speed_zero_steer_is_fixed_point(self):
        state = VehicleState(2.0, 3.0, 0.5, 0.0)
        out = step_kinematic(state, ControlSample(0.0, 0.0, 0.0), 0.1, SPEC)
        assert out == state

    def test_rejects_non_positive_dt(self):
        state = VehicleState(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            step_kinematic(state, ControlSample(0.0, 1.0, 0.0), 0.0, SPEC)
        with pytest.raises(ValueError):
            step_kinematic(state, ControlSample(0.0, 1.0, 0.0), -0.1, SPEC)

    def test_rejects_nan_dt(self):
        state = VehicleState(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="dt must be positive"):
            step_kinematic(state, ControlSample(0.0, 1.0, 0.0), math.nan, SPEC)

    def test_rejects_infinite_dt(self):
        # an infinite hold once became a NaN pose
        state = VehicleState(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="dt must be positive"):
            step_kinematic(state, ControlSample(0.0, 1.0, 0.0), math.inf, SPEC)

    @pytest.mark.parametrize(
        ("state", "speed", "steer", "dt", "spec"),
        [
            # the distance: once x=inf, y=nan
            (VehicleState(0.0, 0.0, 0.0, 0.0), 2.0, 0.0, 1e308, SPEC),
            # the distance and the turn: once a bare math domain error
            (VehicleState(0.0, 0.0, 0.0, 0.0), 2.0, 0.1, 1e308, SPEC),
            # a finite half turn whose double is not: once yaw=nan
            (VehicleState(0.0, 0.0, 0.0, 0.0), 1.0, 1.5, 1.5e305,
             dataclasses.replace(SPEC, wheelbase=0.01, max_steer_angle=1.5)),
            # a finite step from a position near the top of the range: once x=inf
            (VehicleState(1.7e308, 0.0, 0.0, 1.7), 1.7, 0.0, 0.5e308, SPEC),
        ],
        ids=["distance", "turn", "doubled-turn", "position"],
    )
    def test_a_pose_past_the_float_range_names_the_control_time(self, state, speed, steer, dt, spec):
        with pytest.raises(ValueError) as excinfo:
            step_kinematic(state, ControlSample(3.0, speed, steer), dt, spec)
        assert str(excinfo.value) == (
            f"control at t=3.0: held for {dt} s, the pose leaves the float range"
        )

    def test_steer_clamped_to_limit(self):
        state = VehicleState(0.0, 0.0, 0.0, 1.0)
        over = step_kinematic(state, ControlSample(0.0, 1.0, 1.4), 0.01, SPEC)
        at_limit = step_kinematic(state, ControlSample(0.0, 1.0, SPEC.max_steer_angle), 0.01, SPEC)
        assert over == at_limit

    def test_commanded_speed_applies_immediately(self):
        state = VehicleState(0.0, 0.0, 0.0, 0.0)
        out = step_kinematic(state, ControlSample(0.0, 2.0, 0.0), 0.5, SPEC)
        assert out.x == 1.0
        assert out.v == 2.0

    def test_turning_radius_matches_wheelbase_over_tan_steer(self):
        # analytic oracle: radius = wheelbase / tan(steer) = 10 m
        steer = math.atan(SPEC.wheelbase / 10.0)
        control = ControlSample(0.0, 1.0, steer)
        period = 2 * math.pi / 0.1  # yaw rate v/R
        state = VehicleState(0.0, 0.0, 0.0, 1.0)
        points = []
        steps = round(period / 1e-3)
        for _ in range(steps):
            state = step_kinematic(state, control, 1e-3, SPEC)
            points.append((state.x, state.y))
        cx = sum(p[0] for p in points) / len(points)
        cy = sum(p[1] for p in points) / len(points)
        for px, py in points:
            assert abs(math.hypot(px - cx, py - cy) - 10.0) / 10.0 < 1e-3
        # and the loop closes
        assert math.hypot(state.x, state.y) < 0.01


def _analytic_arc(x, y, yaw, speed, yaw_rate, duration):
    radius = speed / yaw_rate
    return (
        x + radius * (math.sin(yaw + yaw_rate * duration) - math.sin(yaw)),
        y - radius * (math.cos(yaw + yaw_rate * duration) - math.cos(yaw)),
        yaw + yaw_rate * duration,
    )


class TestSimulateControls:
    @pytest.mark.parametrize("t_end", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("steer", [0.0, 0.1])
    def test_rejects_non_finite_t_end(self, t_end, steer):
        # inf once ended on a NaN pose, or a math domain error when steering;
        # NaN was silently ignored
        with pytest.raises(ValueError, match="t_end must be finite"):
            simulate_controls(
                VehicleState(0.0, 0.0, 0.0, 0.0), [ControlSample(0.0, 1.0, steer)], SPEC, t_end=t_end
            )

    def test_no_controls_rejected(self):
        with pytest.raises(ValueError, match="^at least one control sample is required$"):
            simulate_controls(VehicleState(0.0, 0.0, 0.0, 0.0), [], SPEC)

    def test_single_zero_control_stays_stationary(self):
        traj = simulate_controls(
            VehicleState(0.0, 0.0, 0.0, 0.0),
            [ControlSample(0.0, 0.0, 0.0)],
            SPEC,
            t_end=1.0,
        )
        assert len(traj.samples) == 2
        assert all((s.x, s.y) == (0.0, 0.0) for s in traj.samples)
        assert traj.samples[-1].t == 1.0

    def test_constant_speed_straight_line(self):
        controls = [ControlSample(0.0, 2.0, 0.0), ControlSample(5.0, 2.0, 0.0)]
        traj = simulate_controls(VehicleState(0.0, 0.0, 0.0, 0.0), controls, SPEC)
        final = traj.samples[-1]
        assert abs(final.x - 10.0) < 1e-9
        assert abs(final.y) < 1e-9

    def test_quarter_turn_composed_of_two_arcs(self):
        speed = 1.0
        rate_a, rate_b = 0.05, 0.15
        dur_a = (math.pi / 8) / rate_a
        dur_b = (3 * math.pi / 8) / rate_b
        controls = [
            ControlSample(0.0, speed, math.atan(rate_a * SPEC.wheelbase / speed)),
            ControlSample(dur_a, speed, math.atan(rate_b * SPEC.wheelbase / speed)),
        ]
        traj = simulate_controls(
            VehicleState(0.0, 0.0, 0.0, speed), controls, SPEC, t_end=dur_a + dur_b
        )
        expected = _analytic_arc(
            *_analytic_arc(0.0, 0.0, 0.0, speed, rate_a, dur_a), speed, rate_b, dur_b
        )
        final = traj.samples[-1]
        assert abs(final.yaw - math.pi / 2) < 1e-9
        assert math.hypot(final.x - expected[0], final.y - expected[1]) < 1e-9

    def test_one_pose_per_control_timestamp(self):
        controls = [ControlSample(float(t), 1.0, 0.0) for t in range(4)]
        traj = simulate_controls(VehicleState(0.0, 0.0, 0.0, 1.0), controls, SPEC)
        assert [s.t for s in traj.samples] == [0.0, 1.0, 2.0, 3.0]

    def test_unordered_timestamps_rejected(self):
        controls = [ControlSample(1.0, 1.0, 0.0), ControlSample(0.5, 1.0, 0.0)]
        with pytest.raises(ValueError):
            simulate_controls(VehicleState(0.0, 0.0, 0.0, 0.0), controls, SPEC)

    def test_nan_timestamp_rejected(self):
        controls = [ControlSample(0.0, 1.0, 0.0), ControlSample(math.nan, 1.0, 0.0)]
        with pytest.raises(ValueError, match="strictly increasing"):
            simulate_controls(VehicleState(0.0, 0.0, 0.0, 0.0), controls, SPEC)

    def test_excessive_steer_warns_and_clamps(self):
        controls = [ControlSample(0.0, 1.0, 2.0), ControlSample(1.0, 1.0, 2.0)]
        traj = simulate_controls(VehicleState(0.0, 0.0, 0.0, 1.0), controls, SPEC)
        assert any("clamped" in w for w in traj.warnings)
        clamped = [ControlSample(0.0, 1.0, SPEC.max_steer_angle), ControlSample(1.0, 1.0, 0.6)]
        reference = simulate_controls(VehicleState(0.0, 0.0, 0.0, 1.0), clamped, SPEC)
        assert traj.samples == reference.samples

    @pytest.mark.parametrize("steer", [0.05, 0.3, -0.45, 0.9])
    def test_matches_the_analytic_arc(self, steer):
        speed = 3.0
        held = min(max(steer, -SPEC.max_steer_angle), SPEC.max_steer_angle)
        yaw_rate = speed * math.tan(held) / SPEC.wheelbase
        controls = [ControlSample(0.25 * k, speed, steer) for k in range(41)]
        traj = simulate_controls(VehicleState(1.0, -2.0, 0.4, 0.0), controls, SPEC)
        for sample in traj.samples:
            x, y, yaw = _analytic_arc(1.0, -2.0, 0.4, speed, yaw_rate, sample.t)
            assert math.hypot(sample.x - x, sample.y - y) < 1e-9
            assert abs(normalize_angle(sample.yaw - yaw)) < 1e-9

    def test_circle_in_quarter_turns_hits_the_compass_points(self):
        # radius 10 m about (0, 10): one held control per quarter turn
        steer = math.atan(SPEC.wheelbase / 10.0)
        quarter = (math.pi / 2) * 10.0 / 2.0
        controls = [ControlSample(k * quarter, 2.0, steer) for k in range(4)]
        traj = simulate_controls(
            VehicleState(0.0, 0.0, 0.0, 0.0), controls, SPEC, t_end=4 * quarter
        )
        expected = [(0.0, 0.0), (10.0, 10.0), (0.0, 20.0), (-10.0, 10.0), (0.0, 0.0)]
        for sample, (x, y) in zip(traj.samples, expected, strict=True):
            assert math.hypot(sample.x - x, sample.y - y) < 1e-9
        assert abs(normalize_angle(traj.samples[-1].yaw)) < 1e-9

    def test_forward_euler_converges_to_the_exact_arc_at_first_order(self):
        speed, steer, duration = 2.0, 0.3, 4.0
        controls = [ControlSample(0.0, speed, steer), ControlSample(duration, speed, steer)]
        exact = simulate_controls(VehicleState(0.0, 0.0, 0.0, 0.0), controls, SPEC).samples[-1]
        yaw_rate = speed * math.tan(steer) / SPEC.wheelbase
        errors = []
        for steps in (250, 500, 1000, 2000):
            dt = duration / steps
            x = y = yaw = 0.0
            for _ in range(steps):
                x += speed * math.cos(yaw) * dt
                y += speed * math.sin(yaw) * dt
                yaw += yaw_rate * dt
            errors.append(math.hypot(x - exact.x, y - exact.y))
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.8 < coarse / fine < 2.2

    @given(
        x=st.floats(-100.0, 100.0),
        y=st.floats(-100.0, 100.0),
        yaw=st.floats(-math.pi, math.pi),
        speed=st.floats(-10.0, 30.0),
        steer=st.floats(-1.0, 1.0),
        duration=st.floats(0.01, 20.0),
        split=st.floats(0.01, 0.99),
    )
    @settings(max_examples=200)
    def test_splitting_a_held_interval_keeps_the_end_pose(
        self, x, y, yaw, speed, steer, duration, split
    ):
        start = VehicleState(x, y, yaw, 0.0)
        held = [ControlSample(0.0, speed, steer), ControlSample(duration, speed, steer)]
        split_in_two = [held[0], ControlSample(split * duration, speed, steer), held[1]]
        whole = simulate_controls(start, held, SPEC).samples[-1]
        parts = simulate_controls(start, split_in_two, SPEC).samples[-1]
        assert math.hypot(whole.x - parts.x, whole.y - parts.y) < 1e-9
        assert abs(normalize_angle(whole.yaw - parts.yaw)) < 1e-9


class TestShadowFollow:
    def test_exact_timestamp_returns_exact_sample(self):
        recorded = _traj([(0.0, 0.0, 0.0), (1.0, 2.0, 0.0), (2.0, 2.0, 3.0)])
        out = shadow_follow(recorded, [1.0])
        assert (out.samples[0].x, out.samples[0].y) == (2.0, 0.0)

    def test_passes_through_every_recorded_sample(self):
        rng = random.Random(3)
        points = [(float(t), rng.uniform(-5, 5), rng.uniform(-5, 5)) for t in range(10)]
        recorded = _traj(points)
        out = shadow_follow(recorded, [s.t for s in recorded.samples])
        for got, want in zip(out.samples, recorded.samples):
            assert (got.t, got.x, got.y) == (want.t, want.x, want.y)

    def test_linear_midpoint(self):
        recorded = _traj([(0.0, 0.0, 0.0), (1.0, 2.0, 0.0)])
        out = shadow_follow(recorded, [0.5])
        assert (out.samples[0].x, out.samples[0].y) == (1.0, 0.0)

    def test_yaw_interpolates_on_shortest_arc(self):
        recorded = _traj([(0.0, 0.0, 0.0, 3.0), (1.0, 1.0, 0.0, -3.0)], yaw=True)
        out = shadow_follow(recorded, [0.5])
        # shortest arc from 3.0 to -3.0 crosses +/-pi, never 0
        assert abs(abs(out.samples[0].yaw) - math.pi) < 1e-9

    def test_yaw_from_motion_direction_when_absent(self):
        recorded = _traj([(0.0, 0.0, 0.0), (1.0, 0.0, 4.0)])
        out = shadow_follow(recorded, [0.5])
        assert out.samples[0].yaw == pytest.approx(math.pi / 2, abs=1e-9)

    def test_rejects_query_outside_range(self):
        recorded = _traj([(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)])
        with pytest.raises(ValueError):
            shadow_follow(recorded, [1.5])
        with pytest.raises(ValueError):
            shadow_follow(recorded, [-0.5])

    def test_rejects_nan_query_time(self):
        recorded = _traj([(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)])
        with pytest.raises(ValueError, match="outside recorded range"):
            shadow_follow(recorded, [math.nan])

    def test_exact_hit_and_interpolation_share_the_recorded_yaw(self):
        recorded = _traj([(0.0, 0.0, 0.0, 0.5), (1.0, 1.0, 0.0, 1.5), (2.0, 2.0, 0.0, 2.5)], yaw=True)
        out = shadow_follow(recorded, [1.0, 1.5])
        assert [s.yaw for s in out.samples] == [1.5, 2.0]


@st.composite
def follow_cases(draw):
    """A recording, with or without yaw, and query times for it: increasing
    lists drawn from every sample (both ends included) and from points
    between samples, or such a list made to repeat or go back a time, or to
    hold a time before, after or NaN. The times may come as an iterator."""
    pool = sorted(set(draw(st.lists(st.integers(-200, 200), min_size=1, max_size=20))))
    scale = draw(st.sampled_from([1.0, 0.1, 1 / 3, 7.25]))
    times = [k * scale for k in pool]
    coord = st.floats(-1e3, 1e3)
    yaw = st.floats(-4.0, 4.0) if draw(st.booleans()) else st.none()
    recorded = trajectory_of(
        TrajectorySample(t, draw(coord), draw(coord), draw(yaw)) for t in times
    )
    between = [a + draw(st.floats(0.0, 1.0)) * (b - a) for a, b in zip(times, times[1:])]
    picked = draw(st.sampled_from(["every sample", "between", "mixed"]))
    if picked == "every sample":
        queries = list(times)
    else:
        candidates = between if picked == "between" else times + between
        queries = sorted(set(draw(st.lists(st.sampled_from(candidates))))) if candidates else []
    fault = draw(st.sampled_from([None, "repeat", "go back", "before", "after", "nan"]))
    if fault and queries:
        k = draw(st.integers(0, len(queries) - 1))
        if fault == "repeat":
            queries.insert(k, queries[k])
        elif fault == "go back":
            queries.reverse()
        else:
            bad = {"before": times[0] - scale, "after": times[-1] + scale, "nan": math.nan}[fault]
            queries.insert(k, bad)
    return recorded, queries, draw(st.sampled_from([list, iter]))


class TestShadowFollowWalk:
    @given(follow_cases())
    @settings(max_examples=400)
    def test_matches_the_bisect_lookup(self, case):
        from oracles import bisect_shadow_follow

        recorded, queries, feed = case
        outcome = _outcome(shadow_follow, recorded, feed(queries))
        assert outcome == _outcome(bisect_shadow_follow, recorded, feed(queries))


class TestDeriveHeadings:
    def test_straight_motion(self):
        traj = _traj([(0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (2.0, 2.0, 0.0)])
        assert derive_headings(traj) == array("d", [0.0, 0.0, 0.0])

    def test_jitter_below_gate_keeps_heading(self):
        # 1 cm jitter at the end must not produce a random heading
        traj = _traj([(0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (2.0, 1.0, 0.01), (3.0, 1.01, 0.01)])
        headings = derive_headings(traj)
        assert headings[2] == headings[1]
        assert headings[3] == headings[1]

    def test_stationary_trajectory_defaults_to_zero(self):
        traj = _traj([(0.0, 5.0, 5.0), (1.0, 5.0, 5.0)])
        assert derive_headings(traj) == array("d", [0.0, 0.0])

    @given(grid_traces())
    @settings(max_examples=200)
    def test_matches_brute_force_with_parked_clusters(self, points):
        from oracles import brute_force_headings

        headings = derive_headings(_traj(points))
        assert list(headings) == brute_force_headings([(x, y) for _, x, y in points])

    def test_each_call_returns_an_independent_column(self):
        traj = _traj([(0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (2.0, 1.0, 1.0)])
        first = derive_headings(traj)
        second = derive_headings(traj)
        assert first == second
        first[0] = 99.0
        assert second[0] != 99.0
        assert derive_headings(traj) == second


def forward_scan_headings(traj):
    """The quadratic forward scan that ``Trajectory.motion_headings`` ran before
    its box-tree walk, verbatim: the reference the walk must equal bit for bit."""
    pts = [(s.x, s.y) for s in traj.samples]
    n = len(pts)
    headings: list[float | None] = [None] * n
    for i in range(n):
        xi, yi = pts[i]
        for j in range(i + 1, n):
            dx = pts[j][0] - xi
            dy = pts[j][1] - yi
            if math.hypot(dx, dy) >= HEADING_DISPLACEMENT_GATE_M:
                headings[i] = math.atan2(dy, dx)
                break
    last = next((h for h in headings if h is not None), 0.0)
    filled: list[float] = []
    for h in headings:
        last = last if h is None else h
        filled.append(last)
    return tuple(filled)


def _points_traj(points):
    return trajectory_of(TrajectorySample(0.5 * t, x, y) for t, (x, y) in enumerate(points))


def _bits(headings):
    """Exact form of a heading sequence: tells -0.0 from 0.0, and NaN equals NaN."""
    return [float.hex(h) for h in headings]


_STEP = st.one_of(
    st.floats(-0.012, 0.012),  # jitter that parks the trace
    st.floats(-0.06, 0.06),  # steps around the gate
    st.floats(-2.0, 2.0),  # driving
    st.sampled_from([0.0, 0.03, 0.04, 0.05, -0.05]),
)


@st.composite
def walk_traces(draw):
    """A random walk of up to 400 steps that parks, creeps and drives."""
    x, y = draw(st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)))
    points = [(x, y)]
    for dx, dy in draw(st.lists(st.tuples(_STEP, _STEP), max_size=400)):
        x, y = x + dx, y + dy
        points.append((x, y))
    return points


@st.composite
def parked_clusters(draw):
    """Stretches of 65 to 300 samples jittering in a disc, joined by hops.

    Discs of radius up to 2.4 cm keep every pair inside the gate; a 3 cm disc
    lets some pairs cross it. Hops of 3 to 7 cm land next to the gate."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    cx = cy = 0.0
    points = []
    for _ in range(draw(st.integers(1, 4))):
        radius = draw(st.sampled_from([0.0, 0.005, 0.02, 0.024, 0.03]))
        for _ in range(draw(st.integers(65, 300))):
            r, a = radius * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi)
            points.append((cx + r * math.cos(a), cy + r * math.sin(a)))
        hop, a = draw(st.sampled_from([0.03, 0.05, 0.07, 1.0])), rng.uniform(-math.pi, math.pi)
        cx, cy = cx + hop * math.cos(a), cy + hop * math.sin(a)
    return points


@st.composite
def loop_traces(draw):
    """Park, drive a circle that starts and ends at the parking spot, park again."""
    radius = draw(st.floats(0.01, 2.0))
    steps = draw(st.integers(4, 80))
    park = draw(st.integers(65, 130))
    jitter = draw(st.sampled_from([0.0, 0.001, 0.01]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def parked():
        return [(rng.uniform(-jitter, jitter), rng.uniform(-jitter, jitter)) for _ in range(park)]

    circle = [
        (radius * math.sin(math.tau * k / steps), radius * (1.0 - math.cos(math.tau * k / steps)))
        for k in range(1, steps)
    ]
    return parked() + circle + parked()


def _sprinkled_with_non_finite_values():
    rng = random.Random(3)
    specials = [math.nan, math.inf, -math.inf, 1e308, -1e308]
    points = []
    for k in range(400):
        x, y = rng.uniform(-0.02, 0.02) + 0.1 * (k // 100), rng.uniform(-0.02, 0.02)
        if rng.random() < 0.05:
            x = rng.choice(specials)
        if rng.random() < 0.05:
            y = rng.choice(specials)
        points.append((x, y))
    return points


@st.composite
def drifting_clouds(draw):
    """One to three stretches of 300 to 450 samples in a disc of 2.0 to 4 cm,
    whose centre drifts up to 0.1 mm a sample, joined by hops. Long enough
    for the window's anchor to move several times per stretch; some traces
    get NaN, inf or 1e308 coordinates inside a stretch."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    cx = cy = 0.0
    points = []
    for _ in range(draw(st.integers(1, 3))):
        radius = draw(st.sampled_from([0.02, 0.024, 0.0249, 0.03, 0.04]))
        drift, way = draw(st.floats(0.0, 1e-4)), rng.uniform(-math.pi, math.pi)
        for _ in range(draw(st.integers(300, 450))):
            cx, cy = cx + drift * math.cos(way), cy + drift * math.sin(way)
            r, a = radius * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi)
            points.append((cx + r * math.cos(a), cy + r * math.sin(a)))
        hop, a = draw(st.sampled_from([0.03, 0.05, 0.07, 1.0])), rng.uniform(-math.pi, math.pi)
        cx, cy = cx + hop * math.cos(a), cy + hop * math.sin(a)
    specials = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308])
    for _ in range(draw(st.integers(0, 6))):
        k, axis = draw(st.integers(0, len(points) - 1)), draw(st.integers(0, 1))
        point = list(points[k])
        point[axis] = draw(specials)
        points[k] = tuple(point)
    return points


def _parked_then_moving(radius, count):
    """``count`` samples drawn uniformly in a disc of ``radius`` about the
    origin, then one sample 1 m east."""
    rng = random.Random(2)
    samples = []
    for k in range(count):
        r, a = radius * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi)
        samples.append(TrajectorySample(0.1 * k, r * math.cos(a), r * math.sin(a)))
    return trajectory_of((*samples, TrajectorySample(0.1 * count, 1.0, 0.0)))


def _timed_headings(traj):
    start = time.perf_counter()
    headings = traj.motion_headings
    return headings, time.perf_counter() - start


class TestMotionHeadingsMatchTheForwardScan:
    @given(walk_traces())
    @settings(max_examples=150, deadline=None)
    def test_random_walks(self, points):
        traj = _points_traj(points)
        assert tuple(traj.motion_headings) == forward_scan_headings(traj)

    @given(parked_clusters())
    @settings(max_examples=60, deadline=None)
    def test_parked_clusters_longer_than_64_samples(self, points):
        traj = _points_traj(points)
        assert tuple(traj.motion_headings) == forward_scan_headings(traj)

    @given(loop_traces())
    @settings(max_examples=60, deadline=None)
    def test_loops_that_leave_the_disc_and_come_back(self, points):
        traj = _points_traj(points)
        assert tuple(traj.motion_headings) == forward_scan_headings(traj)

    @pytest.mark.parametrize(
        "offset", [(0.05, 0.0), (0.0, -0.05), (-0.05, 0.0), (0.03, 0.04), (-0.04, -0.03)]
    )
    @pytest.mark.parametrize("base", [(0.0, 0.0), (1234.5678, -87.125)])
    @pytest.mark.parametrize("park", [0, 70])
    def test_pairs_at_exactly_the_gate(self, offset, base, park):
        away = (base[0] + offset[0], base[1] + offset[1])
        traj = _points_traj([base] * (park + 1) + [away] + [base] * park)
        assert _bits(traj.motion_headings) == _bits(forward_scan_headings(traj))

    @pytest.mark.parametrize(
        "points",
        [
            [(3.0, 4.0)],
            [(0.0, 0.0), (0.0, 0.0)],
            [(0.0, 0.0), (0.01, 0.0)],
            [(0.0, 0.0), (1.0, -1.0)],
            [(5.0, 5.0)] * 200,
            [(0.01 * math.cos(k), 0.01 * math.sin(k)) for k in range(300)],
        ],
        ids=["one", "two-same", "two-inside", "two-apart", "parked-still", "parked-jitter"],
    )
    def test_short_and_all_parked_traces(self, points):
        traj = _points_traj(points)
        assert _bits(traj.motion_headings) == _bits(forward_scan_headings(traj))

    @pytest.mark.parametrize(
        "points",
        [
            _sprinkled_with_non_finite_values(),
            # a NaN right before the first crossing, in the same box as it;
            # the first sample's heading differs from the crossing's
            [(0.0, 0.1)] + [(0.0, 0.0)] * 5 + [(math.nan, 0.0), (-0.1, 0.0)],
            [(0.1, 0.0)] + [(0.0, 0.0)] * 5 + [(0.0, math.nan), (0.0, -0.1)],
        ],
        ids=["sprinkled", "nan-x-before-crossing", "nan-y-before-crossing"],
    )
    def test_non_finite_coordinates(self, points):
        traj = _points_traj(points)
        assert _bits(traj.motion_headings) == _bits(forward_scan_headings(traj))

    def test_an_hour_parked_at_ten_hertz_takes_under_two_seconds(self):
        rng = random.Random(7)
        samples = []
        for k in range(36_001):
            r, a = 0.02 * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi)
            samples.append(TrajectorySample(0.1 * k, r * math.cos(a), r * math.sin(a)))
        move = TrajectorySample(3601.0, 1.0, 0.0)
        traj = trajectory_of((*samples, move))

        start = time.perf_counter()
        headings = traj.motion_headings
        elapsed = time.perf_counter() - start

        assert all(
            h == math.atan2(move.y - s.y, move.x - s.x) for s, h in zip(samples, headings)
        )
        assert headings[-1] == headings[-2]
        assert elapsed < 2.0, f"headings took {elapsed:.2f} s"

    @given(drifting_clouds())
    @settings(max_examples=40, deadline=None)
    def test_drifting_clouds_around_half_the_gate(self, points):
        traj = _points_traj(points)
        assert _bits(traj.motion_headings) == _bits(forward_scan_headings(traj))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("radius", [0.03, 0.04])
    def test_nan_samples_waiting_in_a_drifting_cloud(self, radius, seed):
        # with no inf coordinate to meet, a NaN sample never crosses the gate:
        # it waits in the window for good while the cloud comes and goes
        rng = random.Random(seed)
        points = []
        for k in range(400):
            r, a = radius * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi)
            points.append((1e-4 * k + r * math.cos(a), r * math.sin(a)))
        for k, axis in [(3, 0), (10, 1), (40, 0)]:
            points[k] = (math.nan, points[k][1]) if axis == 0 else (points[k][0], math.nan)
        traj = _points_traj(points)
        assert _bits(traj.motion_headings) == _bits(forward_scan_headings(traj))

    def test_a_disc_just_under_half_the_gate_takes_under_a_second(self):
        # every pair in a 2.4 cm disc lies inside the 5 cm gate: no sample
        # crosses it until the last one, 1 m away
        traj = _parked_then_moving(0.024, 32_000)
        headings, elapsed = _timed_headings(traj)
        move = traj.samples[-1]
        assert all(
            h == math.atan2(move.y - s.y, move.x - s.x)
            for s, h in zip(traj.samples, headings[:-1])
        )
        assert elapsed < 1.0, f"headings took {elapsed:.2f} s"

    def test_a_disc_past_half_the_gate_takes_under_three_seconds(self):
        # in a 3 cm disc samples near the rim cross the gate only with
        # samples near the opposite rim, so they wait long in the window
        headings, elapsed = _timed_headings(_parked_then_moving(0.03, 16_000))
        assert len(headings) == 16_001
        assert elapsed < 3.0, f"headings took {elapsed:.2f} s"


class TestComputeGap:
    def test_identity_is_exactly_zero(self):
        traj = _traj([(0.0, 0.0, 0.0), (1.0, 3.0, 1.0), (2.0, 5.0, -2.0)])
        report = compute_gap(traj, traj)
        assert report.n == 3
        assert report.rmse == 0.0
        assert report.max_dev == 0.0
        assert report.mean_dev == 0.0
        assert report.final_drift == 0.0
        assert report.lateral_rmse == 0.0
        assert report.longitudinal_rmse == 0.0
        assert all(d == 0.0 for _, d in report.per_sample)

    def test_constant_offset_on_straight_path(self):
        real = _traj([(float(t), float(t), 0.0) for t in range(6)])
        sim = _traj([(float(t), float(t), 1.0) for t in range(6)])
        report = compute_gap(real, sim)
        assert report.rmse == 1.0
        assert report.max_dev == 1.0
        assert report.mean_dev == 1.0
        assert report.final_drift == 1.0
        assert report.lateral_rmse == 1.0
        assert report.longitudinal_rmse == 0.0

    def test_matches_brute_force_on_random_pair(self):
        from oracles import brute_force_gap_metrics

        rng = random.Random(17)
        times = [float(t) for t in range(100)]
        real_pts = [(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in times]
        sim_pts = [(x + rng.gauss(0, 1), y + rng.gauss(0, 1)) for x, y in real_pts]
        real = _traj([(t, x, y) for t, (x, y) in zip(times, real_pts)])
        sim = _traj([(t, x, y) for t, (x, y) in zip(times, sim_pts)])
        report = compute_gap(real, sim)
        expected = brute_force_gap_metrics(real_pts, sim_pts)
        for key, value in expected.items():
            assert abs(getattr(report, key) - value) < 1e-12

    def test_symmetric_after_resampling_to_shared_timestamps(self):
        rng = random.Random(23)
        a = _traj([(float(t), float(t), rng.gauss(0, 0.2)) for t in range(20)])
        b = _traj([(float(t), float(t) + 0.5, rng.gauss(0, 0.2)) for t in range(20)])
        forward = compute_gap(a, b)
        backward = compute_gap(b, a)
        assert forward.rmse == pytest.approx(backward.rmse, abs=1e-12)
        assert forward.max_dev == pytest.approx(backward.max_dev, abs=1e-12)
        assert forward.mean_dev == pytest.approx(backward.mean_dev, abs=1e-12)

    def test_overlap_restricted_to_common_range(self):
        real = _traj([(float(t), float(t), 0.0) for t in range(10)])
        sim = _traj([(float(t), float(t), 1.0) for t in range(5, 15)])
        report = compute_gap(real, sim)
        assert report.n == 5  # real samples at t = 5..9

    def test_too_small_overlap_rejected(self):
        real = _traj([(0.0, 0.0, 0.0), (10.0, 1.0, 0.0)])
        sim = _traj([(9.5, 0.0, 0.0), (20.0, 1.0, 0.0)])
        with pytest.raises(ValueError, match="overlap"):
            compute_gap(real, sim)

    def test_report_round_trips_through_json(self):
        import json

        traj = _traj([(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)])
        report = compute_gap(traj, traj)
        loaded = json.loads(report.to_json())
        assert loaded["n"] == 2
        assert loaded["rmse"] == 0.0
        assert loaded["per_sample"] == [[0.0, 0.0], [1.0, 0.0]]

    @given(grid_traces(moving=True), st.data())
    @settings(max_examples=100)
    def test_invariant_under_a_rigid_transform(self, points, data):
        offset = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
        noise = data.draw(st.lists(offset, min_size=len(points), max_size=len(points)))
        sim_points = [(t, x + dx, y + dy) for (t, x, y), (dx, dy) in zip(points, noise)]
        theta = data.draw(st.floats(-math.pi, math.pi))
        tx, ty = data.draw(st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)))
        c, s = math.cos(theta), math.sin(theta)

        def moved(pts):
            return _traj([(t, c * x - s * y + tx, s * x + c * y + ty) for t, x, y in pts])

        before = compute_gap(_traj(points), _traj(sim_points))
        after = compute_gap(moved(points), moved(sim_points))
        for key in ("rmse", "max_dev", "mean_dev", "final_drift",
                    "lateral_rmse", "longitudinal_rmse"):
            assert getattr(after, key) == pytest.approx(getattr(before, key), abs=1e-9)

    @given(grid_traces())
    @settings(max_examples=100)
    def test_identical_traces_give_zero_deviation(self, points):
        traj = _traj(points)
        report = compute_gap(traj, traj)
        assert report.rmse == report.max_dev == report.final_drift == 0.0
        assert report.lateral_rmse == report.longitudinal_rmse == 0.0
        assert all(d == 0.0 for _, d in report.per_sample)

    def test_sums_past_the_float_range_give_inf_and_json_refuses_them(self):
        real = _traj([(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)])
        sim = _traj([(0.0, 1e154, 0.0), (1.0, 1.2e154, 0.0)])
        report = compute_gap(real, sim)
        assert report.rmse == report.longitudinal_rmse == math.inf
        assert report.max_dev == report.final_drift == pytest.approx(1.2e154)
        with pytest.raises(ValueError):
            report.to_json()

    def test_integer_timestamps_report_as_floats(self):
        traj = _traj([(0, 0, 0), (1, 1, 0)])
        report = compute_gap(traj, traj)
        assert [type(t) for t, _ in report.per_sample] == [float, float]

    def test_json_refuses_non_finite_metrics(self):
        report = GapReport(2, math.nan, 0.0, 0.0, 0.0, 0.0, 0.0, ((0.0, 0.0), (1.0, math.nan)))
        with pytest.raises(ValueError):
            report.to_json()


# subnormals, signed zeros, the ends of the float range and integer-valued
# floats, on top of hypothesis's own spread of finite floats
_JSON_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     sys.float_info.max, 1e16, 1e-7, 0.1]),
    st.integers(-(2**60), 2**60).map(float),
)


@st.composite
def gap_reports(draw):
    pair = st.tuples(_JSON_FLOATS, _JSON_FLOATS)
    per_sample = draw(st.one_of(
        st.just(()),
        st.tuples(pair),
        st.lists(pair, min_size=2, max_size=12).map(tuple),
    ))
    metrics = draw(st.lists(_JSON_FLOATS, min_size=6, max_size=6))
    return GapReport(draw(st.integers(0, 10**9)), *metrics, per_sample)


def _outcome(func, *args):
    """What a call returns, as its repr, or the text of the ValueError it
    raises; a repr tells -0.0 from 0.0, so equal outcomes are equal bits."""
    try:
        return repr(func(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestGapJson:
    def test_an_int_is_written_as_the_encoder_writes_it(self):
        report = GapReport(3, 1, 2, 1.5, 0, 0, 0.25, ((0, 0), (1, 3), (2, 0.5), (2.5, 1)))
        assert report.to_json() == json.dumps(vars(report), indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("per_sample", [((0, 10**400),), ((-(10**400), 0.5), (1, 2.0))])
    def test_an_int_no_float_holds_is_written_as_the_encoder_writes_it(self, per_sample):
        report = GapReport(len(per_sample), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, per_sample)
        assert report.to_json() == json.dumps(vars(report), indent=2, allow_nan=False) + "\n"

    @given(gap_reports())
    @settings(max_examples=400)
    def test_matches_the_indent_encoder_byte_for_byte(self, report):
        from oracles import indent_encoder_gap_json

        assert report.to_json() == indent_encoder_gap_json(report)

    @given(gap_reports(), st.data())
    @settings(max_examples=300)
    def test_a_non_finite_value_anywhere_is_refused_as_the_encoder_refuses_it(self, report, data):
        from oracles import indent_encoder_gap_json

        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        metrics = list(dataclasses.astuple(report)[1:7])
        pairs = [list(p) for p in report.per_sample]
        slot = data.draw(st.integers(0, len(metrics) + 2 * len(pairs) - 1))
        if slot < len(metrics):
            metrics[slot] = bad
        else:
            pairs[(slot - len(metrics)) // 2][slot % 2] = bad
        report = GapReport(report.n, *metrics, tuple(tuple(p) for p in pairs))
        with pytest.raises(ValueError) as refused:
            report.to_json()
        with pytest.raises(ValueError) as expected:
            indent_encoder_gap_json(report)
        assert str(refused.value) == str(expected.value)


@st.composite
def gap_pairs(draw):
    """A recorded and a simulated trajectory on time grids that coincide,
    interleave, start later or end earlier than each other, or barely meet;
    either may carry yaw."""
    pool = sorted(set(draw(st.lists(st.integers(-500, 500), min_size=1, max_size=30))))
    scale = draw(st.sampled_from([1.0, 0.1, 1 / 3, 1e-3, 7.25]))
    times = [k * scale for k in pool]
    grid = draw(st.sampled_from(["coincide", "interleave", "mixed"]))
    if grid == "coincide":
        real_times = sim_times = times
    elif grid == "interleave":
        real_times, sim_times = times[0::2], times[1::2]
    else:
        # each time goes to the recording, the simulation or both
        sides = draw(st.lists(st.integers(0, 2), min_size=len(times), max_size=len(times)))
        real_times = [t for t, side in zip(times, sides) if side != 1]
        sim_times = [t for t, side in zip(times, sides) if side != 0]
    assume(real_times and sim_times)
    coord = st.one_of(st.floats(-1e3, 1e3), st.integers(-(10**6), 10**6).map(lambda k: k / 997))

    def trajectory(ts):
        yaw = st.floats(-4.0, 4.0) if draw(st.booleans()) else st.none()
        return trajectory_of(TrajectorySample(t, draw(coord), draw(coord), draw(yaw)) for t in ts)

    return trajectory(real_times), trajectory(sim_times)


class TestOnePassCompare:
    @given(gap_pairs())
    @settings(max_examples=400)
    def test_matches_the_shadow_follow_comparison_bit_for_bit(self, pair):
        from oracles import shadow_follow_compute_gap

        real, sim = pair
        outcome = _outcome(compute_gap, real, sim)
        if not sim.has_yaw:
            # the comparison needs no headings of the simulated path
            assert "motion_headings" not in vars(sim)
        assert outcome == _outcome(shadow_follow_compute_gap, real, sim)

    def test_a_one_sample_sim_at_a_nan_time_fails_as_before(self):
        from oracles import shadow_follow_compute_gap

        real = _traj([(0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (2.0, 2.0, 0.0)])
        sim = _traj([(math.nan, 0.0, 0.0)])
        outcome = _outcome(compute_gap, real, sim)
        assert outcome.startswith("ValueError: query time 0.0 outside recorded range")
        assert outcome == _outcome(shadow_follow_compute_gap, real, sim)


class TestCsvParsing:
    def test_local_trajectory(self):
        traj = parse_trajectory_csv(_lines("t,x,y\n0,1.5,2.5\n1,2.5,3.5\n"))
        assert traj.samples[0] == TrajectorySample(0.0, 1.5, 2.5)
        assert not traj.has_yaw

    def test_local_trajectory_with_yaw(self):
        traj = parse_trajectory_csv(_lines("t,x,y,yaw\n0,0,0,0.5\n1,1,0,0.6\n"))
        assert traj.has_yaw
        assert traj.samples[1].yaw == 0.6

    def test_geodetic_requires_origin(self):
        with pytest.raises(ValueError, match="origin"):
            parse_trajectory_csv(_lines("t,lat,lon\n0,48.0,8.0\n"))

    def test_geodetic_projected(self):
        origin = GeoOrigin(48.0, 8.0)
        traj = parse_trajectory_csv(_lines("t,lat,lon\n0,48.0,8.0\n1,48.001,8.0\n"), origin=origin)
        assert traj.samples[0].x == 0.0
        assert traj.samples[1].y == pytest.approx(111.3194908, abs=1e-3)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_trajectory_csv(_lines("time,x,y\n0,0,0\n"))

    def test_controls(self):
        controls = parse_controls_csv(_lines("t,speed,steer\n0,2.0,0.1\n0.5,2.0,-0.1\n"))
        assert controls == (ControlSample(0.0, 2.0, 0.1), ControlSample(0.5, 2.0, -0.1))

    def test_controls_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_controls_csv(_lines("t,v,delta\n0,1,0\n"))

    @pytest.mark.parametrize("row", ["nan,1,0", "2,inf,0", "2,1,-inf"])
    def test_trajectory_non_finite_rejected_with_line(self, row):
        # a NaN timestamp would otherwise slip past the strictly-increasing check
        with pytest.raises(ValueError, match="line 3: non-finite"):
            parse_trajectory_csv(_lines(f"t,x,y\n0,0,0\n{row}\n3,2,0\n"))

    @pytest.mark.parametrize("row", ["nan,1,0", "1,inf,0", "1,1,nan"])
    def test_controls_non_finite_rejected_with_line(self, row):
        with pytest.raises(ValueError, match="line 3: non-finite"):
            parse_controls_csv(_lines(f"t,speed,steer\n0,1,0\n{row}\n"))

    @pytest.mark.parametrize("field", ["1_0", "\uff11", "\u0661.5", "1\u00a0"])
    def test_a_number_not_written_in_ascii_decimal_names_its_line(self, field):
        # float() reads "1_0" as 10.0 and the fullwidth or Arabic-Indic digits as theirs
        with pytest.raises(ValueError) as exc:
            parse_trajectory_csv(_lines(f"t,x,y\n0,0,0\n\n{field},1,0\n"))
        assert str(exc.value) == f"trajectory CSV line 4: could not convert string to float: {field!r}"
        with pytest.raises(ValueError) as exc:
            parse_controls_csv(_lines(f"t,speed,steer\n0,1,0\n2,1,{field}\n"))
        assert str(exc.value) == f"controls CSV line 3: could not convert string to float: {field!r}"

    def test_ascii_whitespace_around_a_number_is_accepted(self):
        controls = parse_controls_csv(_lines("t,speed,steer\n 0 ,1\t,0\n1, 2,0\n"))
        assert [(c.t, c.speed) for c in controls] == [(0.0, 1.0), (1.0, 2.0)]

    def test_trajectory_error_names_the_physical_line_after_blank_lines(self):
        with pytest.raises(ValueError, match="trajectory CSV line 5:"):
            parse_trajectory_csv(_lines("t,x,y\n\n0,0,0\n\n1,x,0\n"))

    def test_controls_error_names_the_physical_line_after_blank_lines(self):
        with pytest.raises(ValueError, match="controls CSV line 5:"):
            parse_controls_csv(_lines("t,speed,steer\n\n0,1,0\n\n1,x,0\n"))

    def test_geodetic_rows_out_of_range_rejected_with_line(self):
        # both rows used to project: 4,786 km and 29,192 km from the origin
        with pytest.raises(ValueError) as exc:
            parse_trajectory_csv(_lines("t,lat,lon\n0,91,8\n1,95,400\n"), origin=GeoOrigin(48.01, 8.015))
        assert str(exc.value) == (
            "trajectory CSV line 2: coordinates (91.0, 8.0) out of range; "
            "latitude must lie in [-90, 90] and longitude in [-180, 180]"
        )

    @pytest.mark.parametrize("lat, lon", [
        ("1e308", "8"), ("-1e308", "8"), ("48", "180.000001"), ("-90.000001", "8"), ("48", "-400"),
    ])
    def test_geodetic_value_past_the_range_names_its_line(self, lat, lon):
        # a latitude of 1e308 used to fail as "local coordinates must be finite"
        text = f"t,lat,lon,yaw\n0,48,8,0\n\n1,{lat},{lon},0\n"
        with pytest.raises(ValueError, match=r"^trajectory CSV line 4: coordinates \("):
            parse_trajectory_csv(_lines(text), origin=GeoOrigin(48.0, 8.0))

    def test_geodetic_range_bounds_are_inclusive(self):
        text = "t,lat,lon\n0,90,180\n1,-90,-180\n2,90,-180\n3,-90,180\n"
        assert len(parse_trajectory_csv(_lines(text), origin=GeoOrigin(48.0, 8.0)).samples) == 4

    def test_geodetic_rows_across_the_antimeridian_stay_neighbours(self):
        # the second row used to land 40,018 km west of the first
        text = "t,lat,lon\n0,0,179.99\n1,0,-179.99\n"
        first, second = parse_trajectory_csv(_lines(text), origin=GeoOrigin(0, 179.5)).samples
        assert second.x - first.x == pytest.approx(2226.4, abs=0.1)
        assert first.y == second.y == 0.0

    def test_local_rows_have_no_range(self):
        traj = parse_trajectory_csv(_lines("t,x,y\n0,91,400\n1,-1e6,1e6\n"))
        assert traj.samples[0] == TrajectorySample(0.0, 91.0, 400.0)

    @pytest.mark.parametrize("text", ["t,x,y\n", "t,lat,lon,yaw\n\n\n", "\nt,x,y,yaw"])
    def test_trajectory_header_without_rows_rejected(self, text):
        with pytest.raises(ValueError, match="^trajectory CSV has no data rows$"):
            parse_trajectory_csv(_lines(text), origin=GeoOrigin(48.0, 8.0))

    @pytest.mark.parametrize("text", ["t,speed,steer\n", "t,speed,steer\n\n", "t,speed,steer"])
    def test_controls_header_without_rows_rejected(self, text):
        # an empty control list used to reach the CLI, which indexed its first sample
        with pytest.raises(ValueError, match="^controls CSV has no data rows$"):
            parse_controls_csv(_lines(text))


class TestTrajectoryInvariants:
    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            _traj([(0.0, 0.0, 0.0), (0.0, 1.0, 0.0)])

    def test_nan_timestamp_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            trajectory_of((TrajectorySample(0.0, 0, 0), TrajectorySample(math.nan, 1, 1)))

    @pytest.mark.parametrize("short", ["x", "y", "yaw"])
    def test_a_column_shorter_than_t_rejected(self, short):
        columns = {name: array("d", [0.0, 1.0]) for name in ("t", "x", "y", "yaw")}
        columns[short] = array("d", [0.0])
        with pytest.raises(ValueError, match=f"^trajectory column {short} has 1 values, t 2$"):
            Trajectory(**columns)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(array("d"), array("d"), array("d"))


# the ends of the float range, subnormals and -0.0, on top of hypothesis's
# own spread of finite floats: what a CSV row written with repr holds exactly
_COLUMN_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
)


@st.composite
def sample_lists(draw):
    """Samples at strictly increasing times, with yaw on every one or none."""
    times = sorted(set(draw(st.lists(_COLUMN_FLOATS, min_size=1, max_size=30))))
    yaw = _COLUMN_FLOATS if draw(st.booleans()) else st.none()
    return [TrajectorySample(t, draw(_COLUMN_FLOATS), draw(_COLUMN_FLOATS), draw(yaw)) for t in times]


@st.composite
def control_lists(draw):
    times = sorted(set(draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30))))
    value = st.floats(-30.0, 30.0) | st.sampled_from([-0.0, 5e-324, 0.6, 2.0])
    return [ControlSample(t, draw(value), draw(value)) for t in times]


def _csv(header, rows):
    return _lines(header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))


class TestColumnStorage:
    @given(sample_lists())
    @settings(max_examples=200, deadline=None)
    def test_samples_and_the_csv_rows_of_them_read_alike(self, samples):
        has_yaw = samples[0].yaw is not None
        rows = [dataclasses.astuple(s)[: 4 if has_yaw else 3] for s in samples]
        built = trajectory_of(samples)
        read = parse_trajectory_csv(_csv("t,x,y,yaw" if has_yaw else "t,x,y", rows))
        assert built.samples == read.samples == tuple(samples)
        assert repr(built.samples) == repr(read.samples) == repr(tuple(samples))
        assert len(built.samples) == len(read.samples) == len(samples)
        assert built.has_yaw == read.has_yaw == has_yaw
        assert float.hex(built.t_first) == float.hex(read.t_first) == float.hex(samples[0].t)
        assert float.hex(built.t_last) == float.hex(read.t_last) == float.hex(samples[-1].t)
        assert _bits(built.motion_headings) == _bits(read.motion_headings)

    @given(control_lists())
    @settings(max_examples=200, deadline=None)
    def test_controls_read_from_csv_are_the_rows(self, controls):
        read = parse_controls_csv(_csv("t,speed,steer", map(dataclasses.astuple, controls)))
        assert read == tuple(controls)
        assert list(read) == controls and len(read) == len(controls)
        assert [repr(c) for c in read] == [repr(c) for c in controls]
        assert (read[0], read[-1]) == (controls[0], controls[-1])
        # the integrator reads the parsed columns and the list alike
        start = VehicleState(1.0, -2.0, 0.4, 0.0)
        t_end = controls[-1].t + 0.5
        assert repr(simulate_controls(start, read, SPEC, t_end)) == repr(
            simulate_controls(start, controls, SPEC, t_end)
        )

    @pytest.mark.parametrize("parse", [parse_trajectory_csv, parse_controls_csv])
    @pytest.mark.parametrize("source", ["t,x,y\n0,0,0\n", b"t,x,y\n0,0,0\n"])
    def test_text_itself_is_refused_naming_stringio(self, parse, source):
        with pytest.raises(TypeError, match=r"wrap a str in io\.StringIO"):
            parse(source)


@st.composite
def replay_cases(draw):
    """A control stream, steers past the limit included, and a ``t_end``
    before, at or after its last control, or none."""
    times = sorted(set(draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30))))
    speed = st.floats(-30.0, 30.0) | st.sampled_from([-0.0, 5e-324])
    steer = st.floats(-2.0, 2.0) | st.sampled_from([-0.0, 5e-324, 0.6, -0.6])
    controls = [ControlSample(t, draw(speed), draw(steer)) for t in times]
    last = times[-1]
    t_end = draw(
        st.none()
        | st.sampled_from([last, last - 1.0])
        | st.floats(-2e3, last, exclude_max=True)
        | st.floats(last, 2e3, exclude_min=True)
    )
    return controls, t_end


def _columns(traj):
    return [[float.hex(v) for v in column] for column in (traj.t, traj.x, traj.y, traj.yaw)]


class TestOnePassReplay:
    """``simulate_controls`` reads any sequence of controls in one pass; the
    replay it replaced, three columns and then the steps, is the reference."""

    @given(replay_cases())
    @settings(max_examples=200, deadline=None)
    def test_a_list_and_the_parsed_stream_give_the_column_replay(self, case):
        controls, t_end = case
        start = VehicleState(1.0, -2.0, 0.4, 0.0)
        read = parse_controls_csv(_csv("t,speed,steer", map(dataclasses.astuple, controls)))
        expected = column_simulate_controls(start, controls, SPEC, t_end)
        for stream in (controls, read):
            traj = simulate_controls(start, stream, SPEC, t_end)
            assert _columns(traj) == _columns(expected)
            assert traj.warnings == expected.warnings

    def test_faults_of_a_code_built_stream_are_refused_in_stream_order(self):
        start = VehicleState(0.0, 0.0, 0.0, 0.0)
        # control 0's hold overflows, and control 2 then steps back in time
        overflow_first = [
            ControlSample(0.0, 1e308, 0.0), ControlSample(10.0, 1.0, 0.0), ControlSample(5.0, 1.0, 0.0)
        ]
        message = "^control at t=0.0: held for 10.0 s, the pose leaves the float range$"
        with pytest.raises(ValueError, match=message):
            simulate_controls(start, overflow_first, SPEC)
        # the column replay checked the whole order before it stepped
        with pytest.raises(ValueError, match="^control timestamps must be strictly increasing: control 2 "):
            column_simulate_controls(start, overflow_first, SPEC)
        # a step back before the overflowing hold is refused first, as it was
        step_back_first = [ControlSample(0.0, 1.0, 0.0), ControlSample(-1.0, 1.0, 0.0), *overflow_first]
        message = r"^control timestamps must be strictly increasing: control 1 at t=-1\.0 follows t=0\.0$"
        for replay in (simulate_controls, column_simulate_controls):
            with pytest.raises(ValueError, match=message):
                replay(start, step_back_first, SPEC)

    def test_a_non_finite_t_end_is_refused_before_the_stream_is_read(self):
        stepping_back = [ControlSample(1.0, 1.0, 0.0), ControlSample(0.5, 1.0, 0.0)]
        with pytest.raises(ValueError, match="^t_end must be finite, got nan$"):
            simulate_controls(VehicleState(0.0, 0.0, 0.0, 0.0), stepping_back, SPEC, t_end=math.nan)

    def test_any_iterable_sequence_is_read_once_in_order(self):
        reads = []

        class Logged(list):
            def __iter__(self):
                for control in super().__iter__():
                    reads.append(control.t)
                    yield control

        controls = Logged(ControlSample(float(k), 2.0, 0.1) for k in range(5))
        traj = simulate_controls(VehicleState(0.0, 0.0, 0.0, 0.0), controls, SPEC, t_end=6.0)
        assert reads == [0.0, 1.0, 2.0, 3.0, 4.0]
        expected = column_simulate_controls(VehicleState(0.0, 0.0, 0.0, 0.0), list(controls), SPEC, 6.0)
        assert _columns(traj) == _columns(expected)


_LONG = 72_001  # two hours at 10 Hz


def _traced_peak(func, *args):
    """What ``func(*args)`` returns, and the traced allocation peak of the call."""
    tracemalloc.start()
    try:
        result = func(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _long_drive(offset):
    """Two hours on a 500 m circle at 10 Hz, ``offset`` metres out."""
    radius = 500.0 + offset
    return trajectory_of(
        TrajectorySample(0.1 * k, radius * math.cos(k * 1e-4), radius * math.sin(k * 1e-4))
        for k in range(_LONG)
    )


class TestLongTraceMemory:
    def test_a_csv_read_from_a_file_holds_under_40_bytes_a_row(self, tmp_path):
        path = tmp_path / "trace.csv"
        with path.open("w", encoding="utf-8") as sink:
            sink.write("t,lat,lon\n")
            for k in range(_LONG):
                sink.write(f"{k / 10!r},{48.01 + 1e-7 * k!r},{8.015 + 2e-7 * k!r}\n")
        with path.open(encoding="utf-8", newline="") as lines:
            traj, peak = _traced_peak(parse_trajectory_csv, lines, GeoOrigin(48.01, 8.015))
        assert len(traj.samples) == _LONG
        assert peak < 40 * _LONG, f"{peak / _LONG:.0f} B a row"

    def test_motion_headings_peak_under_24_bytes_a_sample(self):
        traj = _long_drive(0.0)
        headings, peak = _traced_peak(getattr, traj, "motion_headings")
        assert len(headings) == _LONG
        assert peak < 24 * _LONG, f"{peak / _LONG:.1f} B a sample"

    def test_compute_gap_holds_under_48_bytes_a_sample(self):
        real, sim = _long_drive(0.0), _long_drive(1.5)
        real.motion_headings  # derived before the comparison, as the CLI's first shadow_follow does
        report, peak = _traced_peak(compute_gap, real, sim)
        assert report.n == _LONG
        assert peak < 48 * _LONG, f"{peak / _LONG:.0f} B a sample"

    def test_to_json_peaks_under_two_and_a_half_times_its_text(self):
        real = _long_drive(0.0)
        report = compute_gap(real, _long_drive(1.5))
        del real
        text, peak = _traced_peak(report.to_json)
        assert len(text) > 3_000_000
        assert peak < 2.5 * len(text), f"{peak / len(text):.2f} times the text"
