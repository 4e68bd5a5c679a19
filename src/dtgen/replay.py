"""Trace replay against a kinematic bicycle model, and reality-gap metrics.

The internal vehicle dynamics are the minimal Ackermann abstraction: a
kinematic bicycle with instantaneous speed tracking and turning radius
wheelbase / tan(steer). Recorded command streams are replayed with zero-order
hold, each held control integrated exactly along its circular arc (a straight
line when the steer is 0); recorded pose streams can be resampled at arbitrary
times and compared against a simulated trajectory, yielding RMSE, maximum/mean
deviation, final drift, and a lateral/longitudinal split in the recorded
trajectory's heading frame. The numbers describe the mismatch; which
side of the twin is to blame remains a human call.
"""

import bisect
import csv
import io
import itertools
import json
import math
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .config import VehicleSpec
from .geodesy import GeoOrigin, _Rows, is_ascii_number, lat_lon_in_range, project

HEADING_DISPLACEMENT_GATE_M = 0.05
# A waiting sample is skipped only when its distance from the anchor plus the
# new sample's lies this far inside the gate. math.hypot is accurate to under
# 1 ulp but not always correctly rounded, so the margin, not monotonic
# rounding, proves that no skipped pair can reach the gate.
_INSIDE_M = HEADING_DISPLACEMENT_GATE_M * (1.0 - 1e-9)


def normalize_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = (theta + math.pi) % math.tau - math.pi
    return math.pi if wrapped == -math.pi else wrapped


@dataclass(frozen=True, slots=True)
class VehicleState:
    x: float
    y: float
    yaw: float
    v: float

    def __post_init__(self):
        object.__setattr__(self, "yaw", normalize_angle(self.yaw))


@dataclass(frozen=True, slots=True)
class ControlSample:
    t: float
    speed: float
    steer: float


@dataclass(frozen=True, slots=True)
class TrajectorySample:
    t: float
    x: float
    y: float
    yaw: float | None = None


def _pair(t: float, d: float) -> tuple[float, float]:
    return t, d


class Trajectory:
    """A pose stream, held as the ``array('d')`` columns ``t``, ``x``, ``y``
    and ``yaw`` (``None`` when the stream has no yaw) it is given: 8 bytes a
    number. ``warnings``, an iterable of strings, is held as a tuple.

    The columns must have the length of ``t``, which must be at least 1,
    and the times must strictly increase. ``samples`` gives the poses back
    as :class:`TrajectorySample`, built as they are read.
    """

    def __init__(self, t: array, x: array, y: array, yaw: array | None = None, warnings=()):
        if not t:
            raise ValueError("trajectory requires at least one sample")
        for name, column in (("x", x), ("y", y), ("yaw", yaw)):
            if column is not None and len(column) != len(t):
                raise ValueError(f"trajectory column {name} has {len(column)} values, t {len(t)}")
        for i, (a, b) in enumerate(itertools.pairwise(t), 1):
            if not b > a:  # a NaN never rises
                raise ValueError(
                    f"trajectory timestamps must be strictly increasing: sample {i} at t={b} follows t={a}"
                )
        self.t, self.x, self.y, self.yaw, self.warnings = t, x, y, yaw, tuple(warnings)

    @property
    def samples(self) -> Sequence[TrajectorySample]:
        """The samples, a read-only sequence that compares and prints as
        the tuple of them."""
        columns = (self.t, self.x, self.y)
        return _Rows(TrajectorySample, columns if self.yaw is None else (*columns, self.yaw))

    def __eq__(self, other):
        if isinstance(other, Trajectory):
            return self.samples == other.samples
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.samples)

    def __repr__(self) -> str:
        return f"Trajectory(samples={self.samples!r}, warnings={self.warnings!r})"

    @property
    def has_yaw(self) -> bool:
        return self.yaw is not None

    @property
    def t_first(self) -> float:
        return self.t[0]

    @property
    def t_last(self) -> float:
        return self.t[-1]

    @cached_property
    def motion_headings(self) -> array:
        """Per-sample motion heading (see :func:`derive_headings`), derived
        once."""
        return derive_headings(self)


def derive_headings(traj: Trajectory) -> array:
    """Per-sample motion heading of ``traj``, gated against jitter: a new
    ``array('d')`` column.

    The heading at a sample is the direction to the first later sample at
    least ``HEADING_DISPLACEMENT_GATE_M`` away; samples near the end
    inherit the last known heading, leading unknowns take the first known
    one. A trajectory that never moves past the gate gets heading 0
    everywhere. The first crossings come from one forward pass, see
    :func:`_first_crossings`.
    """
    n = len(traj.t)
    # a byte per sample marks the known headings: a NaN coordinate can make a NaN heading
    headings, known = array("d", [0.0]) * n, bytearray(n)
    for i, heading in _first_crossings(zip(traj.x, traj.y)):
        headings[i] = heading
        known[i] = 1
    first = known.find(1)
    lead = headings[first] if first >= 0 else 0.0
    i = -1
    while (i := known.find(0, i + 1)) >= 0:
        headings[i] = headings[i - 1] if i else lead
    return headings


def _first_crossings(points: Iterable[tuple[float, float]]) -> Iterator[tuple[int, float]]:
    """Yield ``(i, heading)`` when the first point at least the gate away
    from point i arrives, ``heading`` pointing from point i to it.

    Points still waiting for their crossing are kept sorted by rho, their
    distance from an anchor. A new point at distance d from it can reach
    the gate only from the tail with rho >= ``_INSIDE_M`` - d, and only that
    tail is tested, as a plain forward scan tests: the headings are that
    scan's bit for bit. A NaN or infinite distance counts as inf, so it is
    always tested and tests the whole window. The anchor moves to the centre
    of the window's box, and every rho is recomputed, when the window is
    empty, has doubled since the last move, or has had more than twice its
    size at that move in tests that found no crossing. A parked stretch
    under half the gate across is then not tested until the vehicle leaves.
    """
    hypot, atan2, gate, inf = math.hypot, math.atan2, HEADING_DISPLACEMENT_GATE_M, math.inf
    ax = ay = 0.0

    def rho(x: float, y: float) -> float:
        r = hypot(x - ax, y - ay)
        return r if r < inf else inf  # NaN too

    window: list[tuple[float, int, float, float]] = []  # (rho, index, x, y)
    size = misses = 0  # the window's size at the anchor's last move, the misses since
    for j, (x, y) in enumerate(points):
        d = rho(x, y)
        start = bisect.bisect_left(window, (_INSIDE_M - d,))
        waiting = []
        for entry in window[start:]:
            dx, dy = x - entry[2], y - entry[3]
            if hypot(dx, dy) >= gate:
                yield entry[1], atan2(dy, dx)
            else:
                waiting.append(entry)
        window[start:] = waiting
        misses += len(waiting)
        if not window:
            ax, ay, size, misses = x, y, 1, 0
            d = rho(x, y)
        bisect.insort(window, (d, j, x, y))
        if len(window) >= 2 * size or misses > 2 * size:
            box = [e[2:] for e in window if math.isfinite(e[2]) and math.isfinite(e[3])]
            if box:
                xs, ys = zip(*box)
                ax, ay = 0.5 * min(xs) + 0.5 * max(xs), 0.5 * min(ys) + 0.5 * max(ys)
            window = sorted((rho(ex, ey), i, ex, ey) for _, i, ex, ey in window)
            size, misses = len(window), 0


@dataclass(frozen=True)
class GapReport:
    n: int
    rmse: float
    max_dev: float
    mean_dev: float
    final_drift: float
    lateral_rmse: float
    longitudinal_rmse: float
    # (t, deviation) pairs; compute_gap holds them as two array('d') columns
    per_sample: Sequence[tuple[float, float]]

    def to_json(self) -> str:
        """The report, with ``per_sample`` as a list of ``[t, deviation]``
        pairs, as ``json.dumps(..., indent=2, allow_nan=False)`` plus a
        newline would write it, byte for byte.

        ``json.dumps`` with an indent runs the pure-Python encoder, so it
        formats only the scalar head; ``per_sample`` is written here with
        ``float.__repr__``, as the encoder writes a float, and an int as the
        encoder writes it, ``_JSON_BLOCK`` pairs to a string, so no string
        per pair is held. A NaN or inf anywhere raises ``ValueError``: it
        must fail loudly, never become a bare NaN token that strict JSON
        readers reject.
        """
        scalars = {k: v for k, v in vars(self).items() if k != "per_sample"}
        # the head without its closing "\n}"; per_sample is the last key
        head = json.dumps(scalars, indent=2, allow_nan=False)[:-2]
        if not self.per_sample:
            return head + ',\n  "per_sample": []\n}\n'
        pairs = iter(self.per_sample)
        parts = [head, ',\n  "per_sample": [']
        while block := ",".join(map(_json_pair, itertools.islice(pairs, _JSON_BLOCK))):
            parts += (block, ",")
        parts[-1] = "\n  ]\n}\n"  # in place of the comma after the last block
        return "".join(parts)


_JSON_BLOCK = 4096


def _json_pair(pair: tuple[float, float]) -> str:
    """One ``per_sample`` entry as the indent-2 encoder writes it, with the
    newline and indent that precede it."""
    t, d = pair
    # a comparison, which never converts: an int of any size is written
    if not (abs(t) < math.inf and abs(d) < math.inf):
        # the encoder's message, naming the first value it refuses
        bad = d if abs(t) < math.inf else t
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    try:
        t_text, d_text = float.__repr__(t), float.__repr__(d)
    except TypeError:  # an int, which compute_gap never makes: the float path pays nothing
        t_text, d_text = map(json.dumps, pair)
    return f"\n    [\n      {t_text},\n      {d_text}\n    ]"


def step_kinematic(
    state: VehicleState, control: ControlSample, dt: float, spec: VehicleSpec
) -> VehicleState:
    """Hold one control for ``dt`` and return the pose on its exact arc.

    Commanded speed applies immediately; steer is clamped to the spec limit.
    The yaw turns by 2h, with h = v * dt * tan(steer) / (2 * wheelbase), and
    the position moves along the chord, v * dt * sin(h) / h at heading
    yaw + h; for tiny |h| the series 1 - h^2/6 stands in for sin(h) / h.
    A distance, turn or position past the float range is a ``ValueError``
    that names the control's time.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    steer = min(max(control.steer, -spec.max_steer_angle), spec.max_steer_angle)
    v = control.speed
    h = 0.5 * v * dt * math.tan(steer) / spec.wheelbase
    # checked before sin and cos, which refuse an infinite angle
    if math.isfinite(v * dt) and math.isfinite(2.0 * h):
        chord = v * dt * (1.0 - h * h / 6.0 if abs(h) < 1e-4 else math.sin(h) / h)
        x = state.x + chord * math.cos(state.yaw + h)
        y = state.y + chord * math.sin(state.yaw + h)
        if math.isfinite(x) and math.isfinite(y):
            return VehicleState(x, y, normalize_angle(state.yaw + 2.0 * h), v)
    raise ValueError(f"control at t={control.t}: held for {dt} s, the pose leaves the float range")


def simulate_controls(
    initial: VehicleState,
    controls: Sequence[ControlSample],
    spec: VehicleSpec,
    t_end: float | None = None,
) -> Trajectory:
    """Integrate a recorded command stream, any sequence of controls, with
    zero-order hold in one pass over it.

    Each control must rise past the one before it, which is then held until
    its time, one exact :func:`step_kinematic` per interval; a stream with
    several faults is refused at the first in stream order. The trajectory
    has one pose per control timestamp, plus one at ``t_end`` when that
    extends past the last control (the last command is held). Steer beyond
    the spec limit is clamped and noted on the trajectory's warning list.
    """
    if not controls:
        raise ValueError("at least one control sample is required")
    if t_end is not None and not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    limit = spec.max_steer_angle
    state, warnings = initial, []
    t, x, y, yaw = array("d"), array("d", [state.x]), array("d", [state.y]), array("d", [state.yaw])

    def hold(until: float) -> None:
        nonlocal state
        state = step_kinematic(state, held, until - held.t, spec)
        x.append(state.x)
        y.append(state.y)
        yaw.append(state.yaw)

    for i, control in enumerate(controls):
        if i:  # every control but the first
            if not control.t > held.t:  # a NaN never rises
                raise ValueError(
                    "control timestamps must be strictly increasing: "
                    f"control {i} at t={control.t} follows t={held.t}"
                )
            hold(control.t)
        if abs(control.steer) > limit:
            warnings.append(
                f"control at t={control.t}: steer {control.steer} exceeds limit {limit}, clamped"
            )
        t.append(control.t)
        held = control
    if t_end is not None and t_end > held.t:
        hold(t_end)  # the last control is held until then
        t.append(t_end)
    return Trajectory(t, x, y, yaw, warnings)


def _resample(traj: Trajectory, times: Iterable[float]) -> Iterator[tuple]:
    """One forward walk over ``traj`` for increasing query times. Each time
    t yields t, the index of the first sample at or after t, the fraction of
    the way there from the sample before (``None`` on an exact hit) and the
    linearly interpolated x and y. A time outside the range, NaN too, is
    refused."""
    ts, xs, ys, first, last = traj.t, traj.x, traj.y, traj.t_first, traj.t_last
    j = 0
    for t in times:
        if not first <= t <= last:
            raise ValueError(f"query time {t} outside recorded range [{first}, {last}]")
        while ts[j] < t:
            j += 1
        hi_t = ts[j]
        if hi_t == t:
            yield t, j, None, xs[j], ys[j]
        else:
            lo_t = ts[j - 1]
            frac = (t - lo_t) / (hi_t - lo_t)
            lo_x, lo_y = xs[j - 1], ys[j - 1]
            yield t, j, frac, lo_x + frac * (xs[j] - lo_x), lo_y + frac * (ys[j] - lo_y)


def shadow_follow(recorded: Trajectory, query_times: Iterable[float]) -> Trajectory:
    """Resample a recorded trajectory at the query times, which must
    strictly increase.

    Positions interpolate linearly; yaw interpolates on the shortest angular
    arc, or is derived from the direction of motion when the recording has
    no yaw channel. This is the pose stream a shadow or ghost model follows.
    Query times outside the recorded range are rejected, never extrapolated.
    """
    yaws = recorded.yaw if recorded.has_yaw else recorded.motion_headings
    t, x, y, yaw = array("d"), array("d"), array("d"), array("d")
    for q, i, frac, qx, qy in _resample(recorded, query_times):
        if frac is None:
            yaw.append(yaws[i])
        else:
            yaw.append(normalize_angle(yaws[i - 1] + frac * normalize_angle(yaws[i] - yaws[i - 1])))
        t.append(q)
        x.append(qx)
        y.append(qy)
    return Trajectory(t, x, y, yaw)


def compute_gap(real: Trajectory, sim: Trajectory) -> GapReport:
    """Deviation statistics between a recorded and a simulated trajectory.

    Comparison runs on the recorded timestamps inside the overlapping time
    range, with the simulated positions resampled onto them by the walk
    that :func:`shadow_follow` uses. The lateral and longitudinal components
    live in the recorded trajectory's heading frame (heading from motion
    direction). The report's times, deviations and the squares summed for
    the split are ``array('d')`` columns, 32 bytes a compared sample. Fewer
    than 2 recorded samples in the overlap raise ``ValueError`` naming both
    time spans.
    """
    t_lo = max(real.t_first, sim.t_first)
    t_hi = min(real.t_last, sim.t_last)
    # the recorded samples in [t_lo, t_hi]: a run, as the times increase
    first = bisect.bisect_left(real.t, t_lo)
    stop = bisect.bisect_right(real.t, t_hi)
    if stop - first < 2:
        raise ValueError(
            "trajectories overlap on fewer than 2 samples: recorded "
            f"t=[{real.t_first}, {real.t_last}], simulated t=[{sim.t_first}, {sim.t_last}]"
        )

    times = real.t[first:stop]
    recorded = zip(
        itertools.islice(real.x, first, stop),
        itertools.islice(real.y, first, stop),
        itertools.islice(real.motion_headings, first, stop),
    )
    deviation, lateral_sq, longitudinal_sq = array("d"), array("d"), array("d")
    for (rx, ry, heading), (_, _, _, x, y) in zip(recorded, _resample(sim, times)):
        dx = x - rx
        dy = y - ry
        cos_h, sin_h = math.cos(heading), math.sin(heading)
        lateral = -sin_h * dx + cos_h * dy
        longitudinal = cos_h * dx + sin_h * dy
        deviation.append(math.hypot(dx, dy))
        lateral_sq.append(lateral * lateral)
        longitudinal_sq.append(longitudinal * longitudinal)

    n = len(deviation)
    return GapReport(
        n=n,
        rmse=math.sqrt(_mean(map(mul, deviation, deviation), n)),
        max_dev=max(deviation),
        mean_dev=_mean(deviation, n),
        final_drift=deviation[-1],
        lateral_rmse=math.sqrt(_mean(lateral_sq, n)),
        longitudinal_rmse=math.sqrt(_mean(longitudinal_sq, n)),
        per_sample=_Rows(_pair, (times, deviation)),
    )


def _mean(values: Iterable[float], count: int) -> float:
    """Correctly rounded mean of ``count`` non-negative values; a sum past the
    float range is inf, so ``GapReport.to_json`` still refuses the report."""
    try:
        return math.fsum(values) / count
    except OverflowError:
        return math.inf


def parse_trajectory_csv(lines: Iterable[str], origin: GeoOrigin | None = None) -> Trajectory:
    """Load a trajectory from CSV ``lines``, an iterable of text lines such
    as a file open in text mode or an ``io.StringIO``, read one at a time.

    Header ``t,lat,lon[,yaw]`` means geodetic samples, projected with
    ``origin``; header ``t,x,y[,yaw]`` means local meters. Every value must
    be a finite number, the times must strictly increase, and a geodetic
    sample must lie in range (see :func:`dtgen.geodesy.lat_lon_in_range`).
    """
    header, rows = _read_csv(lines, "trajectory")
    if header in (["t", "lat", "lon"], ["t", "lat", "lon", "yaw"]):
        geodetic = True
    elif header in (["t", "x", "y"], ["t", "x", "y", "yaw"]):
        geodetic = False
    else:
        raise ValueError(
            f"unrecognized trajectory header {header!r}: "
            "expected t,lat,lon[,yaw] or t,x,y[,yaw]"
        )
    if geodetic and origin is None:
        raise ValueError("geodetic trajectory requires a projection origin")
    has_yaw = len(header) == 4

    t, x, y = array("d"), array("d"), array("d")
    yaw = array("d") if has_yaw else None
    for line_no, values in _numeric_rows(rows, len(header), "trajectory"):
        a, b = values[1], values[2]
        if geodetic:
            if not lat_lon_in_range(a, b):
                raise ValueError(
                    f"trajectory CSV line {line_no}: coordinates ({a!r}, {b!r}) out of range; "
                    "latitude must lie in [-90, 90] and longitude in [-180, 180]"
                )
            point = project(origin, a, b)
            a, b = point.x, point.y
        t.append(values[0])
        x.append(a)
        y.append(b)
        if has_yaw:
            yaw.append(values[3])
    return Trajectory(t, x, y, yaw)


def parse_controls_csv(lines: Iterable[str]) -> Sequence[ControlSample]:
    """Load a command stream from CSV ``lines`` (see
    :func:`parse_trajectory_csv`) with header ``t,speed,steer``; every value
    must be a finite number, and the times must strictly increase. The
    samples are held as three ``array('d')`` columns, and the read-only
    sequence of them compares and prints as the tuple of them."""
    header, rows = _read_csv(lines, "controls")
    if header != ["t", "speed", "steer"]:
        raise ValueError(f"unrecognized controls header {header!r}: expected t,speed,steer")
    t, speed, steer = columns = array("d"), array("d"), array("d")
    for _, (c_t, c_speed, c_steer) in _numeric_rows(rows, 3, "controls"):
        t.append(c_t)
        speed.append(c_speed)
        steer.append(c_steer)
    return _Rows(ControlSample, columns)


def _read_csv(lines: Iterable[str], kind: str) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """The stripped header of CSV ``lines`` and an iterator over its data
    rows, blank lines skipped; each row comes with its physical line number.
    The lines are read as the iterator is consumed, so they are never all
    held at once. Lines with no header, or with a header and no data rows,
    are a ``ValueError``, and so is a row the ``csv`` module refuses, such
    as a field over its length limit, with the line it was refused at. A
    ``str`` or bytes raises ``TypeError``."""
    if isinstance(lines, (str, bytes, bytearray, memoryview, io.BufferedIOBase, io.RawIOBase)):
        raise TypeError(
            f"parse_{kind}_csv takes an iterable of text lines, not {type(lines).__name__}: "
            "open the file in text mode, or wrap a str in io.StringIO"
        )
    reader = csv.reader(lines)

    def numbered_rows() -> Iterator[tuple[int, list[str]]]:
        try:
            for row in reader:
                if row:
                    yield reader.line_num, row
        except csv.Error as exc:
            raise ValueError(f"{kind} CSV line {reader.line_num}: {exc}") from exc

    rows = numbered_rows()
    header = next(rows, None)
    if header is None:
        raise ValueError(f"{kind} CSV is empty")
    first = next(rows, None)
    if first is None:
        raise ValueError(f"{kind} CSV has no data rows")
    return [h.strip() for h in header[1]], itertools.chain((first,), rows)


def _numeric_rows(
    rows: Iterable[tuple[int, list[str]]], width: int, kind: str
) -> Iterator[tuple[int, list[float]]]:
    """Each numbered CSV row as ``width`` finite numbers, each written in
    ASCII without ``_`` (see :func:`dtgen.geodesy.is_ascii_number`), the
    first of which, the time, rises strictly from row to row; a row that
    breaks a rule is a ``ValueError`` that names its line."""
    t_before = -math.inf
    for line_no, row in rows:
        if len(row) != width:
            raise ValueError(f"{kind} CSV line {line_no}: expected {width} fields, got {len(row)}")
        try:
            if not is_ascii_number(",".join(row)):  # float would read "1_0" or "\u0661"
                bad = next(field for field in row if not is_ascii_number(field))
                raise ValueError(f"could not convert string to float: {bad!r}")
            values = list(map(float, row))
        except ValueError as exc:
            raise ValueError(f"{kind} CSV line {line_no}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{kind} CSV line {line_no}: non-finite value in {row!r}")
        if not values[0] > t_before:
            raise ValueError(
                f"{kind} CSV line {line_no}: timestamps must be strictly increasing: "
                f"t={values[0]} follows t={t_before}"
            )
        t_before = values[0]
        yield line_no, values
