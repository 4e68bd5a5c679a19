"""The benchmark's tracer wraps program functions it looks up by attribute
name, so a cleanup that deletes one of them breaks ``benchmarks/run.py
--trace 1``. These tests install the tracer and run one traced command each."""

from pathlib import Path

from dtgen import cli, pipeline, replay

BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def test_tracer_installs_and_traces_one_generate(data_dir, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS_DIR))
    from dtbench.tracing import Tracer

    parse_osm = pipeline.parse_osm
    tracer = Tracer()
    tracer.begin_call(0)
    with tracer.installed():
        code = cli.main(
            ["generate", "--config", str(data_dir / "config_track.json"),
             "--osm", str(data_dir / "track.osm"), "--out", str(tmp_path / "world.sdf")]
        )
    assert code == 0
    assert {"config.load", "osm.parse", "world_model.buildings"} <= {s.name for s in tracer.spans}
    assert pipeline.parse_osm is parse_osm  # the originals are put back


def test_tracer_installs_and_traces_one_gap(data_dir, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS_DIR))
    from dtbench.tracing import Tracer

    # a 3 s drive east from the centre of config_track.json's bbox at 10 Hz
    recorded = ["t,lat,lon"] + [f"{k / 10},48.01,{8.015 + k * 1e-5}" for k in range(31)]
    controls = ["t,speed,steer"] + [f"{k / 10},7.4,0.0" for k in range(31)]
    (tmp_path / "trace.csv").write_text("\n".join(recorded) + "\n", encoding="utf-8")
    (tmp_path / "controls.csv").write_text("\n".join(controls) + "\n", encoding="utf-8")

    originals = (cli.Path, cli.compute_gap, cli.simulate_controls, replay.project)
    tracer = Tracer()
    tracer.begin_call(0)
    with tracer.installed():
        code = cli.main(
            ["gap", "--config", str(data_dir / "config_track.json"),
             "--recorded", str(tmp_path / "trace.csv"),
             "--controls", str(tmp_path / "controls.csv"),
             "--vehicle", "ego", "--out", str(tmp_path / "gap.json")]
        )
    assert code == 0
    spans = {s.name for s in tracer.spans}
    assert {"replay.parse_csv", "replay.simulate", "replay.compare", "cli.write"} <= spans
    # the recorded headings are derived once, and that derivation is timed
    assert [s.name for s in tracer.spans].count("replay.headings") == 1
    assert tracer.counters[0]["replay.points"] > 0
    # the originals are put back
    assert (cli.Path, cli.compute_gap, cli.simulate_controls, replay.project) == originals
