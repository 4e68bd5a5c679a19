import json
import os
import stat
import xml.etree.ElementTree as ET

import pytest

from dtgen import cli, sdf

STRAIGHT_TRACE = "t,x,y\n" + "".join(f"{t / 2},{t},0\n" for t in range(11))
MATCHING_CONTROLS = "t,speed,steer\n0,2.0,0\n5,2.0,0\n"


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def track_args(data_dir, tmp_path):
    out = tmp_path / "world.sdf"
    return [
        "generate",
        "--config",
        str(data_dir / "config_track.json"),
        "--osm",
        str(data_dir / "track.osm"),
        "--out",
        str(out),
    ], out


class TestGenerate:
    def test_nominal_run(self, track_args, capsys):
        args, out = track_args
        assert cli.main(args) == 0
        assert out.exists()
        err = capsys.readouterr().err
        assert "models:" in err
        assert "warnings:" in err
        tree = ET.fromstring(out.read_text())
        assert tree.tag == "sdf"

    def test_both_sources_is_usage_error(self, data_dir, tmp_path, capsys):
        code = cli.main(
            [
                "generate",
                "--config",
                str(data_dir / "config_minimal.json"),
                "--osm",
                str(data_dir / "empty.osm"),
                "--fetch",
                "--out",
                str(tmp_path / "w.sdf"),
            ]
        )
        assert code == 2

    def test_no_source_is_usage_error(self, data_dir, tmp_path):
        code = cli.main(
            [
                "generate",
                "--config",
                str(data_dir / "config_minimal.json"),
                "--out",
                str(tmp_path / "w.sdf"),
            ]
        )
        assert code == 2

    def test_missing_config_file_is_io_error(self, data_dir, tmp_path):
        code = cli.main(
            [
                "generate",
                "--config",
                str(tmp_path / "nope.json"),
                "--osm",
                str(data_dir / "empty.osm"),
                "--out",
                str(tmp_path / "w.sdf"),
            ]
        )
        assert code == 3

    def test_invalid_config_is_domain_failure(self, data_dir, tmp_path):
        bad = _write(tmp_path / "bad.json", '{"bbox": {"min_lat": 2, "min_lon": 0, "max_lat": 1, "max_lon": 1}}')
        code = cli.main(
            ["generate", "--config", bad, "--osm", str(data_dir / "empty.osm"), "--out", str(tmp_path / "w.sdf")]
        )
        assert code == 1

    def test_malformed_osm_is_domain_failure(self, data_dir, tmp_path):
        bad = _write(tmp_path / "bad.osm", "<osm><node id='1'</osm>")
        code = cli.main(
            [
                "generate",
                "--config",
                str(data_dir / "config_minimal.json"),
                "--osm",
                bad,
                "--out",
                str(tmp_path / "w.sdf"),
            ]
        )
        assert code == 1

    def test_byte_identical_across_runs(self, data_dir, tmp_path):
        outs = []
        for name in ("a.sdf", "b.sdf"):
            out = tmp_path / name
            code = cli.main(
                [
                    "generate",
                    "--config",
                    str(data_dir / "config_track.json"),
                    "--osm",
                    str(data_dir / "track.osm"),
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_inputs_not_mutated(self, track_args, data_dir):
        before = (data_dir / "track.osm").read_bytes()
        args, _ = track_args
        cli.main(args)
        assert (data_dir / "track.osm").read_bytes() == before

    def test_vehicle_colliding_with_boilerplate_name_is_domain_failure(self, data_dir, tmp_path):
        config = _write(
            tmp_path / "clash.json",
            '{"bbox": {"min_lat": 48.0, "min_lon": 8.0, "max_lat": 48.02, "max_lon": 8.03},'
            ' "vehicles": [{"name": "ground_plane", "kind": "twin"}]}',
        )
        code = cli.main(
            [
                "generate",
                "--config",
                config,
                "--osm",
                str(data_dir / "empty.osm"),
                "--out",
                str(tmp_path / "w.sdf"),
            ]
        )
        assert code == 1

    def test_world_its_validator_rejects_is_not_written(self, data_dir, tmp_path, capsys):
        # both lengths are finite, but the chassis pose z, wheel_radius +
        # height / 2, overflows to inf
        config = _write(
            tmp_path / "huge.json",
            '{"bbox": {"min_lat": 48.0, "min_lon": 8.0, "max_lat": 48.02, "max_lon": 8.03},'
            ' "vehicles": [{"name": "ego", "kind": "twin", "wheel_radius": 1e308,'
            ' "chassis": {"height": 1.7e308}}]}',
        )
        out = tmp_path / "w.sdf"
        code = cli.main(
            ["generate", "--config", config, "--osm", str(data_dir / "empty.osm"), "--out", str(out)]
        )
        assert code == 1
        assert (
            "/sdf/world[@name='generated']/model[@name='ego']/link[@name='chassis']/pose: "
            "pose must contain 6 finite numbers"
        ) in capsys.readouterr().err
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json"]  # no temporary file

    def test_success_leaves_only_the_output(self, track_args, tmp_path):
        args, out = track_args
        assert cli.main(args) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [out.name]

    def test_emit_error_late_in_the_write_keeps_the_old_output(self, data_dir, tmp_path, capsys):
        # vehicles are written last, after every building and road of the
        # track map, so the temporary file is well under way when this raises
        config = json.loads((data_dir / "config_track.json").read_text(encoding="utf-8"))
        config["vehicles"].append({"name": "ground_plane", "kind": "ghost"})
        config_path = _write(tmp_path / "clash.json", json.dumps(config))
        out = tmp_path / "w.sdf"
        out.write_bytes(b"<sdf version='1.6'>an older world</sdf>\n")
        code = cli.main(
            ["generate", "--config", config_path, "--osm", str(data_dir / "track.osm"), "--out", str(out)]
        )
        assert code == 1
        assert "duplicate model name 'ground_plane'" in capsys.readouterr().err
        assert out.read_bytes() == b"<sdf version='1.6'>an older world</sdf>\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clash.json", "w.sdf"]

    def test_written_file_mode_matches_write_text(self, track_args, tmp_path):
        args, out = track_args
        previous = os.umask(0o027)
        try:
            assert cli.main(args) == 0
            reference = tmp_path / "reference.sdf"
            reference.write_text("", encoding="utf-8")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode) == 0o640

    def test_output_symlink_is_replaced_and_its_target_kept(self, track_args, tmp_path):
        args, out = track_args
        target = tmp_path / "target.sdf"
        target.write_text("kept\n", encoding="utf-8")
        out.symlink_to(target)
        assert cli.main(args) == 0
        assert not out.is_symlink()
        assert out.read_text(encoding="utf-8").startswith("<?xml")
        assert target.read_text(encoding="utf-8") == "kept\n"

    def test_output_onto_a_directory_is_io_error_and_leaves_no_file(self, track_args, tmp_path):
        args, _ = track_args
        (tmp_path / "dir").mkdir()
        assert cli.main(args[:-1] + [str(tmp_path / "dir")]) == 3
        assert [p.name for p in tmp_path.iterdir()] == ["dir"]
        assert list((tmp_path / "dir").iterdir()) == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_output_onto_a_fifo_is_refused_and_leaves_it_in_place(self, track_args, tmp_path, capsys):
        # replacing it would turn a FIFO or a device such as /dev/null into a regular file
        args, out = track_args
        os.mkfifo(out)
        assert cli.main(args) == 3
        assert "not a regular file or a symlink" in capsys.readouterr().err
        assert stat.S_ISFIFO(os.lstat(out).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == [out.name]  # no temporary file

    def test_output_into_a_missing_directory_is_io_error(self, track_args, tmp_path):
        args, _ = track_args
        args = args[:-1] + [str(tmp_path / "missing" / "w.sdf")]
        assert cli.main(args) == 3
        assert list(tmp_path.iterdir()) == []

    def test_clean_world_is_written_without_a_reparse(self, track_args, monkeypatch):
        args, out = track_args
        assert cli.main(args) == 0
        expected = out.read_bytes()
        out.unlink()

        def refuse(text):
            raise AssertionError("validate_sdf ran on a world its writer found clean")

        monkeypatch.setattr(sdf, "validate_sdf", refuse)
        monkeypatch.setattr(cli, "validate_sdf", refuse)
        assert cli.main(args) == 0
        assert out.read_bytes() == expected

    def test_generate_with_fetch_from_stub(self, data_dir, tmp_path, stub_server):
        stub_server.state.body = (data_dir / "mixed.osm").read_bytes()
        out = tmp_path / "w.sdf"
        code = cli.main(
            [
                "generate",
                "--config",
                str(data_dir / "config_minimal.json"),
                "--fetch",
                "--endpoint",
                stub_server.url,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()

    def test_fetch_without_endpoint_is_usage_error(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.ENDPOINT_ENV_VAR, raising=False)
        code = cli.main(
            [
                "generate",
                "--config",
                str(data_dir / "config_minimal.json"),
                "--fetch",
                "--out",
                str(tmp_path / "w.sdf"),
            ]
        )
        assert code == 2


class TestValidate:
    def test_fresh_file_passes(self, track_args):
        args, out = track_args
        assert cli.main(args) == 0
        assert cli.main(["validate", str(out)]) == 0

    def test_corrupted_duplicate_model_name(self, track_args, tmp_path, capsys):
        args, out = track_args
        assert cli.main(args) == 0
        text = out.read_text()
        # duplicate an existing model by renaming another one to match
        corrupted = text.replace('<model name="follower">', '<model name="ego">', 1)
        bad = tmp_path / "corrupted.sdf"
        bad.write_text(corrupted, encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["validate", str(bad)]) == 1
        err_lines = [l for l in capsys.readouterr().err.splitlines() if l]
        assert len(err_lines) == 1
        assert "duplicate model name ego" in err_lines[0]

    def test_nonexistent_path_is_io_error(self, tmp_path):
        assert cli.main(["validate", str(tmp_path / "missing.sdf")]) == 3


class TestGap:
    def test_identity_pair_all_zero(self, data_dir, tmp_path, capsys):
        recorded = _write(tmp_path / "trace.csv", STRAIGHT_TRACE)
        out = tmp_path / "gap.json"
        code = cli.main(
            [
                "gap",
                "--recorded",
                recorded,
                "--sim",
                recorded,
                "--config",
                str(data_dir / "config_track.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["rmse"] == 0.0
        assert report["max_dev"] == 0.0
        summary = capsys.readouterr().out
        assert "rmse=0.000000" in summary

    def test_straight_line_controls_replay(self, data_dir, tmp_path):
        recorded = _write(tmp_path / "trace.csv", STRAIGHT_TRACE)
        controls = _write(tmp_path / "controls.csv", MATCHING_CONTROLS)
        out = tmp_path / "gap.json"
        code = cli.main(
            [
                "gap",
                "--recorded",
                recorded,
                "--controls",
                controls,
                "--config",
                str(data_dir / "config_track.json"),
                "--vehicle",
                "ego",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["rmse"] < 1e-6

    def _replay_ten_meters_per_second(self, data_dir, tmp_path, controls_text):
        recorded = _write(tmp_path / "trace.csv", "t,x,y\n" + "".join(
            f"{t},{10 * t},0\n" for t in range(11)
        ))
        controls = _write(tmp_path / "controls.csv", controls_text)
        out = tmp_path / "gap.json"
        code = cli.main(
            [
                "gap",
                "--recorded",
                recorded,
                "--controls",
                controls,
                "--config",
                str(data_dir / "config_track.json"),
                "--vehicle",
                "ego",
                "--out",
                str(out),
            ]
        )
        return code, out

    def test_controls_starting_late_replay_from_the_recorded_pose_then(
        self, data_dir, tmp_path, capsys
    ):
        code, out = self._replay_ten_meters_per_second(
            data_dir, tmp_path, "t,speed,steer\n5,10,0\n7.5,10,0\n"
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["n"] == 6
        assert report["rmse"] < 1e-9
        assert "rmse=0.000000" in capsys.readouterr().out

    def test_controls_starting_before_the_recording_are_rejected(
        self, data_dir, tmp_path, capsys
    ):
        code, out = self._replay_ten_meters_per_second(
            data_dir, tmp_path, "t,speed,steer\n-1,10,0\n5,10,0\n"
        )
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "t=-1.0" in err and "t=0.0" in err

    def test_controls_replay_derives_recorded_headings_once(
        self, data_dir, tmp_path, monkeypatch
    ):
        from functools import cached_property

        from dtgen.replay import Trajectory

        scanned = []
        scan = Trajectory.motion_headings.func

        def counted(traj):
            scanned.append(traj)
            return scan(traj)

        prop = cached_property(counted)
        prop.__set_name__(Trajectory, "motion_headings")
        monkeypatch.setattr(Trajectory, "motion_headings", prop)
        recorded = _write(tmp_path / "trace.csv", STRAIGHT_TRACE)
        controls = _write(tmp_path / "controls.csv", MATCHING_CONTROLS)
        code = cli.main(
            [
                "gap",
                "--recorded",
                recorded,
                "--controls",
                controls,
                "--config",
                str(data_dir / "config_track.json"),
                "--vehicle",
                "ego",
                "--out",
                str(tmp_path / "gap.json"),
            ]
        )
        assert code == 0
        assert len(scanned) == 1

    def test_unknown_vehicle_is_usage_error(self, data_dir, tmp_path):
        recorded = _write(tmp_path / "trace.csv", STRAIGHT_TRACE)
        controls = _write(tmp_path / "controls.csv", MATCHING_CONTROLS)
        code = cli.main(
            [
                "gap",
                "--recorded",
                recorded,
                "--controls",
                controls,
                "--config",
                str(data_dir / "config_track.json"),
                "--vehicle",
                "nosuchcar",
                "--out",
                str(tmp_path / "gap.json"),
            ]
        )
        assert code == 2

    def test_controls_without_vehicle_is_usage_error(self, data_dir, tmp_path):
        recorded = _write(tmp_path / "trace.csv", STRAIGHT_TRACE)
        controls = _write(tmp_path / "controls.csv", MATCHING_CONTROLS)
        code = cli.main(
            [
                "gap",
                "--recorded",
                recorded,
                "--controls",
                controls,
                "--config",
                str(data_dir / "config_track.json"),
                "--out",
                str(tmp_path / "gap.json"),
            ]
        )
        assert code == 2

    def test_disjoint_ranges_is_domain_failure(self, data_dir, tmp_path):
        recorded = _write(tmp_path / "a.csv", "t,x,y\n0,0,0\n1,1,0\n")
        sim = _write(tmp_path / "b.csv", "t,x,y\n5,0,0\n6,1,0\n")
        code = cli.main(
            [
                "gap",
                "--recorded",
                recorded,
                "--sim",
                sim,
                "--config",
                str(data_dir / "config_track.json"),
                "--out",
                str(tmp_path / "gap.json"),
            ]
        )
        assert code == 1

    def test_geodetic_recorded_trace(self, data_dir, tmp_path):
        # same straight line, expressed as lat/lon around the bbox center
        recorded = _write(
            tmp_path / "geo.csv",
            "t,lat,lon\n0,48.01,8.015\n1,48.0101,8.015\n2,48.0102,8.015\n",
        )
        out = tmp_path / "gap.json"
        code = cli.main(
            [
                "gap",
                "--recorded",
                recorded,
                "--sim",
                recorded,
                "--config",
                str(data_dir / "config_track.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["rmse"] == 0.0


class TestFetch:
    def test_writes_stub_response_verbatim(self, data_dir, tmp_path, stub_server):
        stub_server.state.body = (data_dir / "mixed.osm").read_bytes()
        out = tmp_path / "extract.osm"
        code = cli.main(
            [
                "fetch",
                "--config",
                str(data_dir / "config_minimal.json"),
                "--endpoint",
                stub_server.url,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_bytes() == stub_server.state.body

    def test_http_500_is_io_error_and_no_file(self, data_dir, tmp_path, stub_server):
        stub_server.state.status = 500
        stub_server.state.body = b"boom"
        out = tmp_path / "extract.osm"
        code = cli.main(
            [
                "fetch",
                "--config",
                str(data_dir / "config_minimal.json"),
                "--endpoint",
                stub_server.url,
                "--out",
                str(out),
            ]
        )
        assert code == 3
        assert not out.exists()

    def test_timeout_is_io_error(self, data_dir, tmp_path, stub_server, capsys):
        stub_server.state.delay = 2.0
        code = cli.main(
            [
                "fetch",
                "--config",
                str(data_dir / "config_minimal.json"),
                "--endpoint",
                stub_server.url,
                "--timeout",
                "0.3",
                "--out",
                str(tmp_path / "x.osm"),
            ]
        )
        assert code == 3
        assert "failed" in capsys.readouterr().err

    def test_endpoint_from_environment(self, data_dir, tmp_path, stub_server, monkeypatch):
        monkeypatch.setenv(cli.ENDPOINT_ENV_VAR, stub_server.url)
        out = tmp_path / "extract.osm"
        code = cli.main(
            ["fetch", "--config", str(data_dir / "config_minimal.json"), "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
