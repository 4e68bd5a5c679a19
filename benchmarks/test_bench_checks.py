"""The benchmark's checks accept real outputs and reject planted faults.

Runs on track-size inputs and a one-minute drive, so it stays fast inside the
repository-wide pytest run.
"""

import json
import math
import re

import pytest

from dtbench.checks import CheckFailed, check_gap, check_generation
from dtbench.inputs import TRACK, make_gap_inputs, make_map_inputs
from dtgen import cli


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("map")
    make_map_inputs(TRACK, {"twin": 2, "shadow": 1, "ghost": 1}, 7, inputs)
    outputs = [inputs / "out0.sdf", inputs / "out1.sdf"]
    for out in outputs:
        argv = ["generate", "--config", str(inputs / "config.json"),
                "--osm", str(inputs / "map.osm"), "--out", str(out)]
        assert cli.main(argv) == 0
    return inputs, outputs


@pytest.fixture(scope="module")
def gap(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("gap")
    make_gap_inputs(7, inputs, duration_s=60.0)
    outputs = [inputs / "out0.json", inputs / "out1.json"]
    for out in outputs:
        argv = ["gap", "--recorded", str(inputs / "trace.csv"),
                "--controls", str(inputs / "controls.csv"),
                "--config", str(inputs / "config.json"), "--vehicle", "ego", "--out", str(out)]
        assert cli.main(argv) == 0
    return inputs, outputs


def _planted(tmp_path, outputs, text):
    planted = [tmp_path / f"planted{i}{outputs[0].suffix}" for i in range(len(outputs))]
    for path in planted:
        path.write_text(text, encoding="utf-8")
    return planted


def _shift_first_number(text, anchor, tag, delta):
    """Add ``delta`` to the first number inside ``<tag>`` after ``anchor``."""
    start = text.index(anchor)
    match = re.compile(rf"<{tag}>(-?[\d.e+-]+)").search(text, start)
    value = float(match.group(1)) + delta
    return text[: match.start(1)] + repr(value) + text[match.end(1):]


def test_generation_checks_accept_the_program_output(world):
    inputs, outputs = world
    summary = check_generation(inputs, outputs)
    assert summary["buildings"] > 0 and summary["roads"] > 0 and summary["vehicles"] == 4


def _ghost_with_collision(text):
    start = text.index('<model name="ghost_0">')
    at = text.index('<visual name="visual">', start)
    collision = ('<collision name="collision"><geometry><box><size>1 1 1</size></box>'
                 "</geometry></collision>")
    return text[:at] + collision + text[at:]


def _road_moved_sideways(text):
    """The first road's first link, moved 1 m across its own direction."""
    start = text.index(_first_model(text, "road_"))
    match = re.compile(r"<pose>([^<]*)</pose>").search(text, start)
    x, y, z, roll, pitch, yaw = (float(v) for v in match.group(1).split())
    x, y = x - math.sin(yaw), y + math.cos(yaw)
    pose = " ".join(repr(v) for v in (x, y, z, roll, pitch, yaw))
    return text[: match.start(1)] + pose + text[match.end(1):]


def _first_model(text, prefix):
    return re.search(rf'<model name="({prefix}[^"]*)">', text).group(0)


@pytest.mark.parametrize(
    "fault, reason",
    [
        (lambda t: _shift_first_number(t, _first_model(t, "building_"), "point", 1.0),
         "is not the projection"),
        (lambda t: _shift_first_number(t, _first_model(t, "building_"), "height", 0.5),
         "height"),
        (_road_moved_sideways, "width/2"),
        (lambda t: _shift_first_number(t, "<spherical_coordinates>", "latitude_deg", 1e-6),
         "bbox centre"),
        (lambda t: t.replace(_first_model(t, "road_"), '<model name="road_999999999">', 1),
         "model set differs"),
        (lambda t: _shift_first_number(t, '<plugin name="ackermann_drive"', "wheelbase", 0.1),
         "plugin wheelbase"),
        (_ghost_with_collision, "ghost carries"),
    ],
    ids=["vertex-moved-1m", "height", "road-moved-1m-sideways", "origin", "road-missing",
         "twin-plugin", "ghost-collision"],
)
def test_generation_checks_reject_a_planted_fault(world, tmp_path, fault, reason):
    inputs, outputs = world
    text = fault(outputs[0].read_text(encoding="utf-8"))
    with pytest.raises(CheckFailed, match=reason):
        check_generation(inputs, _planted(tmp_path, outputs, text))


def test_generation_checks_reject_outputs_that_differ(world, tmp_path):
    inputs, outputs = world
    text = outputs[0].read_text(encoding="utf-8")
    planted = _planted(tmp_path, outputs, text)
    planted[1].write_text(text.replace("generated", "generatee", 1), encoding="utf-8")
    with pytest.raises(CheckFailed, match="differs"):
        check_generation(inputs, planted)


def test_gap_checks_accept_the_program_output(gap):
    inputs, outputs = gap
    summary = check_gap(inputs, outputs)
    assert summary["n"] == 601
    assert summary["trajectory_drift_m"] < summary["tolerance_m"]


def _report_with(outputs, **changes):
    report = json.loads(outputs[0].read_text(encoding="utf-8"))
    for key, change in changes.items():
        report[key] = change(report[key])
    return json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize(
    "changes, reason",
    [
        ({"rmse": lambda v: v * (1 + 1e-6)}, "rmse"),
        ({"lateral_rmse": lambda v: v + 1e-3}, "lateral_rmse"),
        ({"n": lambda v: v - 1}, "n "),
        ({"rmse": lambda v: float("nan")}, "non-finite"),
        ({"per_sample": lambda v: v[:-1]}, "per_sample"),
    ],
    ids=["rmse-perturbed", "lateral", "n", "nan", "per-sample"],
)
def test_gap_checks_reject_a_planted_fault(gap, tmp_path, changes, reason):
    inputs, outputs = gap
    with pytest.raises(CheckFailed, match=reason):
        check_gap(inputs, _planted(tmp_path, outputs, _report_with(outputs, **changes)))


def test_gap_checks_reject_a_trajectory_off_the_closed_form_path(gap, tmp_path):
    inputs, outputs = gap
    manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
    manifest["model_path"][300][0] += 1.0
    moved = tmp_path / "inputs"
    moved.mkdir()
    for name in ("config.json", "trace.csv", "controls.csv"):
        (moved / name).write_bytes((inputs / name).read_bytes())
    (moved / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(CheckFailed, match="closed-form path"):
        check_gap(moved, outputs)


def test_inputs_are_the_same_bytes_for_the_same_seed(tmp_path):
    for run in ("a", "b"):
        make_map_inputs(TRACK, {"twin": 1}, 3, tmp_path / run)
        make_gap_inputs(3, tmp_path / run / "gap", duration_s=20.0)
    for name in ("map.osm", "config.json", "manifest.json", "gap/trace.csv", "gap/controls.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
