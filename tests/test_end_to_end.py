"""Whole-command properties: ``dtgen gap`` and ``dtgen generate`` run in
process on small random inputs, defects included, and either succeed with
output a strict reader accepts or fail with one ``dtgen: error:`` line.
Never another exit code, a traceback or a leftover temporary file."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import accumulate
from pathlib import Path

from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from dtgen import cli
from dtgen.config import load_config
from dtgen.pipeline import generate_world
from dtgen.sdf import validate_sdf

BBOX = {"min_lat": 48.0, "min_lon": 8.0, "max_lat": 48.02, "max_lon": 8.03}
GAP_CONFIG = {"bbox": BBOX, "vehicles": [{"name": "ego", "kind": "twin"}]}
STRAIGHT_TRACE = "t,x,y\n" + "".join(f"{t / 2},{t},0\n" for t in range(11))


def _run(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` in process: the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# a search for one example of an outcome, not shrunk once found
_SEARCH = settings(database=None, max_examples=1000, phases=[Phase.generate])


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def _assert_failed_cleanly(code: int, out: str, err: str) -> None:
    assert code == 1, (code, err)
    assert out == ""
    assert any(line.startswith("dtgen: error: ") for line in err.splitlines()), err
    assert "Traceback" not in err


# ---------------------------------------------------------------- dtgen gap

# every accepted header, spaced and not, several times over, then a few
# that are refused
_TRAJECTORY_HEADERS = (
    "t,x,y", "t,x,y,yaw", "t,lat,lon", "t,lat,lon,yaw", " t , x , y ", "t,lat, lon ,yaw ",
) * 4 + ("time,x,y", "t,x", "t,y,x")
_CONTROLS_HEADERS = ("t,speed,steer", " t , speed , steer") * 4 + ("t,v,delta", "t,speed", "")

_COLUMN_VALUES = {
    "lat": st.floats(47.98, 48.04),
    "lon": st.floats(7.99, 8.04),
    "x": st.floats(-300, 300),
    "y": st.floats(-300, 300),
    "yaw": st.floats(-7, 7),
    "speed": st.floats(-5, 40),
    "steer": st.floats(-1.6, 1.6),
}
_ODD_FIELDS = ("nan", "inf", "-inf", "1e999", "-1e999", "", "x", " 2 ", "1e308", "5e-324", "91")
# past the latitude or longitude range, or just inside it
_RANGE_FIELDS = ("91", "-90.000001", "180.000001", "-400", "1e308", "90", "-180")
_ROW_DEFECTS = (None,) * 6 + ("short", "long", "odd", "range", "repeat_t", "back_t")


@st.composite
def _csv_text(draw, headers: tuple[str, ...], starts: tuple[float, ...]) -> str:
    """A CSV text with one of ``headers``, its rows starting at one of
    ``starts``; in half the texts some rows carry a defect, and blank lines
    fall anywhere."""
    header = draw(st.sampled_from(headers))
    columns = [c.strip() for c in header.split(",")][1:]
    defects = _ROW_DEFECTS if draw(st.booleans()) else (None,)
    n = draw(st.integers(0, 8))
    steps = draw(st.lists(st.floats(0.01, 3.0), min_size=n, max_size=n))
    times = list(accumulate(steps, initial=draw(st.sampled_from(starts))))[:-1]
    lines = [header]
    for i, t in enumerate(times):
        row = [repr(t)] + [repr(draw(_COLUMN_VALUES.get(c, st.floats(-10, 10))))
                           for c in columns]
        defect = draw(st.sampled_from(defects))
        if defect == "short":
            row.pop()
        elif defect == "long":
            row.append("0")
        elif defect == "odd":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_ODD_FIELDS))
        elif defect == "range":
            # the lat or lon column, or the last one of a shorter header
            row[min(draw(st.integers(1, 2)), len(row) - 1)] = draw(st.sampled_from(_RANGE_FIELDS))
        elif defect == "repeat_t":
            row[0] = repr(times[max(0, i - 1)])
        elif defect == "back_t":
            row[0] = repr(t - 5.0)
        lines.append(",".join(row))
        lines.extend([""] * draw(st.integers(0, 1)))
    if draw(st.booleans()):
        lines.insert(0, "")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


_RECORDED = _csv_text(_TRAJECTORY_HEADERS, starts=(0.0, 1.0))
_SIM = _csv_text(_TRAJECTORY_HEADERS, starts=(-1.0, 0.0, 1.0, 50.0))
_CONTROLS = _csv_text(_CONTROLS_HEADERS, starts=(-2.0, 0.0, 0.5, 3.0))  # may start early
_GAP_CASES = st.one_of(
    st.tuples(st.just("--sim"), _RECORDED, _SIM),
    st.tuples(st.just("--controls"), _RECORDED, _CONTROLS),
)


def _checked_gap(case: tuple[str, str, str]) -> int:
    """Run ``dtgen gap`` on ``(flag, recorded CSV, --sim or --controls CSV)``,
    check the outcome, and return the exit code."""
    flag, recorded_text, second_text = case
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "config.json").write_text(json.dumps(GAP_CONFIG), encoding="utf-8")
        (d / "recorded.csv").write_text(recorded_text, encoding="utf-8")
        (d / "second.csv").write_text(second_text, encoding="utf-8")
        source = [flag, str(d / "second.csv")]
        if flag == "--controls":
            source += ["--vehicle", "ego"]
        out = d / "gap.json"
        code, stdout, stderr = _run(
            ["gap", "--recorded", str(d / "recorded.csv"), *source,
             "--config", str(d / "config.json"), "--out", str(out)]
        )
        if code == 0:
            report = json.loads(out.read_text(encoding="utf-8"), parse_constant=_reject_constant)
            assert report["n"] >= 2
            assert stdout.startswith("rmse=")
            assert "dtgen: error:" not in stderr and "Traceback" not in stderr
        else:
            _assert_failed_cleanly(code, stdout, stderr)
            assert not out.exists()
    return code


@given(case=_GAP_CASES)
@example(case=("--controls", STRAIGHT_TRACE, "t,speed,steer\n"))  # used to raise IndexError
@example(case=("--controls", STRAIGHT_TRACE, "t,speed,steer\n-1,10,0\n5,10,0\n"))
@example(case=("--sim", "t,x,y\n", STRAIGHT_TRACE))
@example(case=("--sim", STRAIGHT_TRACE, STRAIGHT_TRACE))
@settings(max_examples=150, deadline=None)
def test_gap_succeeds_with_strict_json_or_fails_with_one_error(case):
    _checked_gap(case)


def test_gap_property_reaches_both_outcomes():
    for flag in ("--sim", "--controls"):
        cases = _GAP_CASES.filter(lambda case: case[0] == flag)
        find(cases, lambda case: _checked_gap(case) == 0, settings=_SEARCH)
        find(cases, lambda case: _checked_gap(case) == 1, settings=_SEARCH)


# ----------------------------------------------------------- dtgen generate

_NODE_POSITIONS = st.one_of(
    # a coarse grid inside the bbox, so footprints are often collinear
    st.tuples(st.integers(0, 4).map(lambda i: 48.0 + 0.004 * i),
              st.integers(0, 4).map(lambda j: 8.0 + 0.006 * j)),
    st.tuples(st.floats(48.0, 48.02), st.floats(8.0, 8.03)),
    # past the bbox, out to the ends of the globe
    st.tuples(st.sampled_from([47.9, 48.1, 90.0, -90.0]), st.sampled_from([7.9, 8.1, 180.0, -180.0])),
)
_HEIGHTS = ("12", "5 m", "0", "-3", "nan", "inf", "1e308", "1e400", "1e-320", "abc", "")
_LEVELS = ("3", "2.5", "0", "-1", "nan", "1e308", "1e-310", "many")
_HIGHWAYS = ("residential", "primary_link", "footway", "service")


@st.composite
def _way(draw, node_ids: list[int]) -> tuple[list[int], dict[str, str]]:
    refs = draw(st.one_of(
        st.lists(st.sampled_from(node_ids), min_size=3, max_size=6, unique=True),
        st.lists(st.sampled_from(node_ids + [9999]), max_size=7),  # repeats, and 9999 dangles
    ))
    tags: dict[str, str] = {}
    if draw(st.booleans()):
        tags["building"] = draw(st.sampled_from(["yes", "house", "no"]))
        if refs and draw(st.integers(0, 3)):
            refs.append(refs[0])  # closed, mostly
        if draw(st.booleans()):
            tags["height"] = draw(st.sampled_from(_HEIGHTS))
        if draw(st.booleans()):
            tags["building:levels"] = draw(st.sampled_from(_LEVELS))
    else:
        tags["highway"] = draw(st.sampled_from(_HIGHWAYS))
    return refs, tags


@st.composite
def _map_xml(draw) -> str:
    positions = draw(st.lists(_NODE_POSITIONS, min_size=3, max_size=12))
    node_ids = list(range(1, len(positions) + 1))
    ways = draw(st.lists(_way(node_ids), min_size=1, max_size=5))
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', '<osm version="0.6">']
    lines += [f'<node id="{i}" lat="{lat!r}" lon="{lon!r}"/>'
              for i, (lat, lon) in zip(node_ids, positions)]
    for way_id, (refs, tags) in enumerate(ways, start=100):
        lines.append(f'<way id="{way_id}">')
        lines += [f'<nd ref="{ref}"/>' for ref in refs]
        lines += [f'<tag k="{k}" v="{v}"/>' for k, v in tags.items()]
        lines.append("</way>")
    lines.append("</osm>")
    return "\n".join(lines) + "\n"


_SPAWNS = st.one_of(
    st.fixed_dictionaries({"lat": st.floats(47.9, 48.1), "lon": st.floats(7.9, 8.1)},
                          optional={"yaw": st.floats(-10, 10)}),
    st.fixed_dictionaries({"x": st.floats(-1e7, 1e7), "y": st.floats(-1e7, 1e7)},
                          optional={"yaw": st.floats(-10, 10)}),
)
_VEHICLES = st.lists(
    st.fixed_dictionaries({
        # a vehicle named like a building or the ground plane collides with it
        "name": st.sampled_from(
            ["ego", "shadow_1", "ghost", "car_2", "bus", "van", "ground_plane", "building_100"]
        ),
        "kind": st.sampled_from(["twin", "shadow", "ghost"]),
        "spawn": _SPAWNS,
    }, optional={"gps": st.booleans()}),
    max_size=3,
    unique_by=lambda v: v["name"],
)
_EXTREMES = st.sampled_from([0.1, 3.0, 10.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308])
_CONFIGS = st.fixed_dictionaries(
    {"bbox": st.just(BBOX), "vehicles": _VEHICLES},
    optional={"defaults": st.fixed_dictionaries({}, optional={
        "default_building_height": _EXTREMES,
        "meters_per_level": _EXTREMES,
        "road_width": _EXTREMES,
        "road_thickness": _EXTREMES,
    })},
)


def _checked_generate(osm: str, config: dict) -> int:
    """Run ``dtgen generate`` on a map and a config, check the outcome, and
    return the exit code."""
    config_text = json.dumps(config)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "config.json").write_text(config_text, encoding="utf-8")
        (d / "map.osm").write_text(osm, encoding="utf-8")
        out = d / "world.sdf"
        code, stdout, stderr = _run(
            ["generate", "--config", str(d / "config.json"), "--osm", str(d / "map.osm"),
             "--out", str(out)]
        )
        if code == 0:
            written = out.read_bytes()
            assert validate_sdf(written.decode("utf-8")).ok
            sink = io.StringIO()
            assert generate_world(load_config(config_text), io.BytesIO(osm.encode())).write(sink) == 0
            assert written == sink.getvalue().encode("utf-8")
            assert stdout == "" and "dtgen: error:" not in stderr
            expected = {"config.json", "map.osm", "world.sdf"}
        else:
            _assert_failed_cleanly(code, stdout, stderr)
            expected = {"config.json", "map.osm"}
        assert set(os.listdir(d)) == expected  # no temporary file is left behind
    return code


@given(osm=_map_xml(), config=_CONFIGS)
@settings(max_examples=100, deadline=None)
def test_generate_writes_a_valid_world_or_fails_with_one_error(osm, config):
    _checked_generate(osm, config)


def test_generate_property_reaches_both_outcomes():
    def has_both_model_kinds(osm, config):
        result = generate_world(load_config(json.dumps(config)), io.BytesIO(osm.encode()))
        return bool(result.buildings and result.roads)

    cases = st.tuples(_map_xml(), _CONFIGS)
    find(cases, lambda case: _checked_generate(*case) == 0 and has_both_model_kinds(*case),
         settings=_SEARCH)
    find(cases, lambda case: _checked_generate(*case) == 1, settings=_SEARCH)
