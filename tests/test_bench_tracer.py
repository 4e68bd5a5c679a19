"""The benchmark's tracer wraps program functions it looks up by attribute
name, so a cleanup that deletes one of them breaks ``benchmarks/run.py
--trace 1``. This test installs the tracer and runs one traced command."""

from pathlib import Path

from dtgen import cli, pipeline

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
