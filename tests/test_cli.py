import codecs
import gc
import json
import os
import stat
import warnings
import xml.etree.ElementTree as ET

import pytest

from dtgen import cli, sdf

STRAIGHT_TRACE = "t,x,y\n" + "".join(f"{t / 2},{t},0\n" for t in range(11))
MATCHING_CONTROLS = "t,speed,steer\n0,2.0,0\n5,2.0,0\n"
# the vehicle is checked before any CSV is read: a usage error wins over this one
REPEATED_TIME_TRACE = "t,x,y\n0,0,0\n1,1,0\n1,2,0\n"


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

    def test_a_map_that_is_not_utf8_is_a_located_parse_error(self, data_dir, tmp_path, capsys):
        # the map is never decoded in Python: expat meets the byte where it lies
        osm = tmp_path / "latin1.osm"
        osm.write_bytes(
            b"<?xml version='1.0'?>\n<osm version='0.6'>\n"
            b" <way id='1'><tag k='name' v='Z\xfcrich'/></way>\n</osm>\n"
        )
        out = tmp_path / "w.sdf"
        out.write_bytes(b"<sdf version='1.6'>an older world</sdf>\n")
        code = cli.main(
            ["generate", "--config", str(data_dir / "config_minimal.json"), "--osm", str(osm), "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "dtgen: error: malformed OSM XML at line 3, column 31: "
            "not well-formed (invalid token): line 3, column 31\n"
        )
        assert out.read_bytes() == b"<sdf version='1.6'>an older world</sdf>\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["latin1.osm", "w.sdf"]  # no temporary file

    def test_a_byte_order_mark_and_crlf_line_ends_give_the_same_world(self, data_dir, tmp_path):
        lf = (data_dir / "track.osm").read_bytes()
        assert b"\r" not in lf and not lf.startswith(codecs.BOM_UTF8)
        crlf = tmp_path / "crlf.osm"
        crlf.write_bytes(codecs.BOM_UTF8 + lf.replace(b"\n", b"\r\n"))
        worlds = []
        for osm in (data_dir / "track.osm", crlf):
            out = tmp_path / f"{osm.stem}.sdf"
            code = cli.main(
                ["generate", "--config", str(data_dir / "config_track.json"), "--osm", str(osm), "--out", str(out)]
            )
            assert code == 0
            worlds.append(out.read_bytes())
        assert worlds[0] == worlds[1]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_the_map_is_closed_on_every_path(self, data_dir, tmp_path):
        track = str(data_dir / "config_track.json")
        bad = _write(tmp_path / "bad.osm", "<osm><node id='1'</osm>")
        # the chassis pose z overflows, so the writer counts a fault
        huge = _write(
            tmp_path / "huge.json",
            '{"bbox": {"min_lat": 48.0, "min_lon": 8.0, "max_lat": 48.02, "max_lon": 8.03},'
            ' "vehicles": [{"name": "ego", "kind": "twin", "wheel_radius": 1e308,'
            ' "chassis": {"height": 1.7e308}}]}',
        )
        fifo = tmp_path / "fifo.sdf"
        os.mkfifo(fifo)
        runs = [
            (track, str(data_dir / "track.osm"), tmp_path / "w.sdf", 0),  # success
            (track, bad, tmp_path / "w.sdf", 1),  # parse error
            (huge, str(data_dir / "track.osm"), tmp_path / "w.sdf", 1),  # writer fault
            (track, str(data_dir / "track.osm"), fifo, 3),  # --out refused
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for config, osm, out, expected in runs:
                assert cli.main(["generate", "--config", config, "--osm", osm, "--out", str(out)]) == expected
                gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

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

    @pytest.mark.skipif(not hasattr(os, "pathconf"), reason="needs os.pathconf")
    def test_an_output_name_of_the_longest_length_is_written(self, track_args, tmp_path):
        # the temporary file beside --out must fit whatever name --out has
        args, out = track_args
        longest = tmp_path / ("w" * os.pathconf(tmp_path, "PC_NAME_MAX"))
        assert cli.main(args[:-1] + [str(longest)]) == 0
        assert cli.main(args) == 0
        assert longest.read_bytes() == out.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([longest.name, out.name])

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

    @pytest.mark.parametrize("served", ["as-is", "bom-crlf", "latin-1"])
    def test_generate_with_fetch_from_stub(self, data_dir, tmp_path, stub_server, served):
        # the world of a fetched map is the world of the same map on disk
        data = (data_dir / "mixed.osm").read_bytes()
        if served == "bom-crlf":
            data = codecs.BOM_UTF8 + data.replace(b"\n", b"\r\n")
        stub_server.state.body = data
        if served == "latin-1":
            # a named road, so the body holds bytes that are not UTF-8
            text = data.decode("utf-8").replace('encoding="UTF-8"', 'encoding="ISO-8859-1"').replace(
                '<tag k="highway" v="unclassified"/>',
                '<tag k="highway" v="unclassified"/><tag k="name" v="Zürichstraße"/>',
            )
            data = text.encode("utf-8")
            stub_server.state.body = text.encode("iso-8859-1")
            stub_server.state.content_type = "application/osm3s+xml; charset=iso-8859-1"
        osm = tmp_path / "map.osm"
        osm.write_bytes(data)
        config = str(data_dir / "config_minimal.json")
        fetched, read = tmp_path / "fetched.sdf", tmp_path / "read.sdf"
        assert cli.main(
            ["generate", "--config", config, "--fetch", "--endpoint", stub_server.url, "--out", str(fetched)]
        ) == 0
        assert cli.main(["generate", "--config", config, "--osm", str(osm), "--out", str(read)]) == 0
        assert fetched.read_bytes() == read.read_bytes()
        assert b"road_303" in fetched.read_bytes()

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

    def test_a_file_that_is_not_utf8_is_a_located_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.sdf"
        bad.write_bytes(b"<?xml version='1.0'?>\n<sdf version='1.6'>\n<world name='Z\xfcrich'/>\n</sdf>\n")
        assert cli.main(["validate", str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"dtgen: error: {bad}, line 3: not UTF-8 (invalid start byte, byte 0xfc)\n"
        )

    def test_a_nan_wheel_radius_is_a_located_violation(self, track_args, tmp_path, capsys):
        args, out = track_args
        assert cli.main(args) == 0
        bad = tmp_path / "nan_radius.sdf"
        bad.write_text(out.read_text().replace("<radius>0.3</radius>", "<radius>nan</radius>", 1), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["validate", str(bad)]) == 1
        assert capsys.readouterr().err == (
            "/sdf/world[@name='generated']/model[@name='ego']/link[@name='front_left_wheel']"
            "/collision[@name='collision']/geometry/cylinder/radius: radius must contain finite positive numbers\n"
        )

    def test_a_nan_joint_limit_is_a_located_violation(self, track_args, tmp_path, capsys):
        args, out = track_args
        assert cli.main(args) == 0
        bad = tmp_path / "nan_lower.sdf"
        bad.write_text(out.read_text().replace("<lower>-0.6</lower>", "<lower>nan</lower>", 1), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["validate", str(bad)]) == 1
        assert capsys.readouterr().err == (
            "/sdf/world[@name='generated']/model[@name='ego']/joint[@name='front_left_steer_joint']"
            "/axis/limit/lower: lower must contain 1 finite number\n"
        )


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

    @pytest.mark.parametrize(
        "controls_text, message",
        [
            (
                "t,speed,steer\n-1,10,0\n5,10,0\n",
                "control log starts at t=-1.0, before the recorded trajectory starts at t=0.0",
            ),
            (
                "t,speed,steer\n12,10,0\n15,10,0\n",
                "control log starts at t=12.0, after the recorded trajectory ends at t=10.0",
            ),
        ],
        ids=["before", "after"],
    )
    def test_controls_outside_the_recording_name_both_spans(
        self, data_dir, tmp_path, capsys, controls_text, message
    ):
        code, out = self._replay_ten_meters_per_second(data_dir, tmp_path, controls_text)
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err == f"dtgen: error: {message}\n"

    def test_controls_from_the_recorded_end_name_both_spans(self, data_dir, tmp_path, capsys):
        code, out = self._replay_ten_meters_per_second(data_dir, tmp_path, "t,speed,steer\n10,10,0\n12,10,0\n")
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            "dtgen: error: trajectories overlap on fewer than 2 samples: "
            "recorded t=[0.0, 10.0], simulated t=[10.0, 12.0]\n"
        )

    @pytest.mark.parametrize("first, last", [(2, 3), (5, 6)], ids=["touching", "after"])
    def test_a_sim_overlapping_on_one_sample_or_none_names_both_spans(
        self, data_dir, tmp_path, capsys, first, last
    ):
        recorded = _write(tmp_path / "trace.csv", "t,x,y\n" + "".join(f"{t / 10},{t},0\n" for t in range(21)))
        sim = _write(tmp_path / "sim.csv", f"t,x,y\n{first},0,0\n{(first + last) / 2},1,0\n{last},2,0\n")
        out = tmp_path / "gap.json"
        code = cli.main(
            ["gap", "--recorded", recorded, "--sim", sim, "--config", str(data_dir / "config_track.json"), "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            "dtgen: error: trajectories overlap on fewer than 2 samples: "
            f"recorded t=[0.0, 2.0], simulated t=[{float(first)}, {float(last)}]\n"
        )

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

    @pytest.mark.parametrize("trace", [STRAIGHT_TRACE, REPEATED_TIME_TRACE], ids=["good", "bad"])
    def test_unknown_vehicle_is_usage_error(self, data_dir, tmp_path, capsys, trace):
        recorded = _write(tmp_path / "trace.csv", trace)
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
        assert capsys.readouterr().err == "dtgen: error: unknown vehicle name 'nosuchcar'\n"

    @pytest.mark.parametrize("trace", [STRAIGHT_TRACE, REPEATED_TIME_TRACE], ids=["good", "bad"])
    def test_controls_without_vehicle_is_usage_error(self, data_dir, tmp_path, capsys, trace):
        recorded = _write(tmp_path / "trace.csv", trace)
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
        assert capsys.readouterr().err == "dtgen: error: --controls requires --vehicle\n"

    @pytest.mark.parametrize("vehicle", ["ego", "nosuch"])
    @pytest.mark.parametrize("trace", [STRAIGHT_TRACE, REPEATED_TIME_TRACE], ids=["good", "bad"])
    def test_vehicle_without_controls_is_usage_error(self, data_dir, tmp_path, capsys, trace, vehicle):
        # a bad trace as both CSVs: the error comes before either is read
        recorded = _write(tmp_path / "trace.csv", trace)
        sim = _write(tmp_path / "sim.csv", trace)
        out = tmp_path / "gap.json"
        code = cli.main(
            [
                "gap",
                "--recorded",
                recorded,
                "--sim",
                sim,
                "--config",
                str(data_dir / "config_track.json"),
                "--vehicle",
                vehicle,
                "--out",
                str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "dtgen: error: --vehicle requires --controls\n"
        assert not out.exists()

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

    @pytest.mark.parametrize(
        ("flag", "kind"),
        [("--recorded", "trajectory"), ("--controls", "controls"), ("--sim", "trajectory")],
    )
    def test_header_only_csv_is_domain_failure(self, flag, kind, data_dir, tmp_path, capsys):
        files = {
            "--recorded": _write(tmp_path / "trace.csv", STRAIGHT_TRACE),
            "--controls": _write(tmp_path / "controls.csv", MATCHING_CONTROLS),
            "--sim": _write(tmp_path / "sim.csv", STRAIGHT_TRACE),
        }
        header = "t,speed,steer\n" if flag == "--controls" else "t,x,y\n"
        files[flag] = _write(tmp_path / "header_only.csv", header)
        source = ["--sim", files["--sim"]]
        if flag == "--controls":
            source = ["--controls", files["--controls"], "--vehicle", "ego"]
        out = tmp_path / "gap.json"
        code = cli.main(
            ["gap", "--recorded", files["--recorded"], *source,
             "--config", str(data_dir / "config_track.json"), "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dtgen: error: {kind} CSV has no data rows\n"

    def test_a_field_over_the_csv_limit_is_located(self, data_dir, tmp_path, capsys):
        recorded = _write(tmp_path / "trace.csv", STRAIGHT_TRACE)
        sim = _write(tmp_path / "sim.csv", f"t,x,y\n0,1,2\n1,{'9' * 140_000},3\n")
        out = tmp_path / "gap.json"
        code = cli.main(
            ["gap", "--recorded", recorded, "--sim", sim,
             "--config", str(data_dir / "config_track.json"), "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "dtgen: error: trajectory CSV line 3: field larger than field limit (131072)\n"
        )

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

    def test_a_refused_report_leaves_an_existing_out_as_it_was(self, data_dir, tmp_path, capsys):
        # squared deviations past the float range: rmse is inf, which JSON refuses
        recorded = _write(tmp_path / "trace.csv", "t,x,y\n0,0,0\n1,1,0\n")
        sim = _write(tmp_path / "sim.csv", "t,x,y\n0,1e154,0\n1,1.2e154,0\n")
        out = tmp_path / "gap.json"
        out.write_text("previous report\n", encoding="utf-8")
        code = cli.main(
            ["gap", "--recorded", recorded, "--sim", sim,
             "--config", str(data_dir / "config_track.json"), "--out", str(out)]
        )
        assert code == 1
        assert out.read_text(encoding="utf-8") == "previous report\n"
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "dtgen: error: Out of range float values are not JSON compliant: inf\n"
        )

    def test_a_replayed_pose_past_the_float_range_names_the_control_time(
        self, data_dir, tmp_path, capsys
    ):
        # the last control is held to t=1e308: 2 m/s for that long leaves the
        # float range, which once surfaced only as JSON's refusal of an inf
        recorded = _write(tmp_path / "trace.csv", "t,x,y\n0,0,0\n1e308,1,0\n")
        controls = _write(tmp_path / "controls.csv", "t,speed,steer\n0,2.0,0\n")
        out = tmp_path / "gap.json"
        code = cli.main(
            ["gap", "--recorded", recorded, "--controls", controls, "--vehicle", "ego",
             "--config", str(data_dir / "config_track.json"), "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "dtgen: error: control at t=0.0: held for 1e+308 s, the pose leaves the float range\n"
        )

    @pytest.mark.parametrize(
        ("flag", "blank", "message"),
        [
            ("--recorded", False, "trajectory CSV line 5: timestamps must be strictly increasing: t=1.0 follows t=1.0"),
            ("--controls", False, "controls CSV line 5: timestamps must be strictly increasing: t=5.0 follows t=5.0"),
            ("--sim", False, "trajectory CSV line 5: timestamps must be strictly increasing: t=1.0 follows t=1.0"),
            ("--controls", True, "controls CSV line 6: timestamps must be strictly increasing: t=5.0 follows t=5.0"),
        ],
        ids=["recorded", "controls", "sim", "controls-after-a-blank-line"],
    )
    def test_a_time_that_does_not_rise_is_named_with_the_time_before_it(
        self, flag, blank, message, data_dir, tmp_path, capsys
    ):
        files = {
            "--recorded": STRAIGHT_TRACE,
            "--controls": "t,speed,steer\n0,2.0,0\n2,2.0,0\n5,2.0,0\n",
            "--sim": STRAIGHT_TRACE,
        }
        lines = files[flag].splitlines(keepends=True)
        lines.insert(3, lines[3])  # the third data row, repeated
        if blank:
            lines.insert(4, "\n")  # skipped, but counted as a line
        files[flag] = "".join(lines)
        paths = {name: _write(tmp_path / f"{name[2:]}.csv", text) for name, text in files.items()}
        source = ["--sim", paths["--sim"]]
        if flag == "--controls":
            source = ["--controls", paths["--controls"], "--vehicle", "ego"]
        out = tmp_path / "gap.json"
        code = cli.main(
            ["gap", "--recorded", paths["--recorded"], *source,
             "--config", str(data_dir / "config_track.json"), "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dtgen: error: {message}\n"


def _gap_inputs(data_dir, tmp_path, flag, marked):
    """The gap command line over the track config, a straight trace and,
    with ``flag`` naming ``--controls``, a command stream, else the trace as
    ``--sim``; the file ``flag`` names starts with a UTF-8 byte order mark
    when ``marked`` is true."""
    files = {
        "--config": (data_dir / "config_track.json").read_text(encoding="utf-8"),
        "--recorded": STRAIGHT_TRACE,
        "--controls": MATCHING_CONTROLS,
        "--sim": STRAIGHT_TRACE,
    }
    paths = {name: _write(tmp_path / f"{name[2:]}.txt", text) for name, text in files.items()}
    if marked:
        path = tmp_path / f"{flag[2:]}.txt"
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    source = ["--sim", paths["--sim"]]
    if flag == "--controls":
        source = ["--controls", paths["--controls"], "--vehicle", "ego"]
    return ["gap", "--recorded", paths["--recorded"], *source, "--config", paths["--config"]]


@pytest.mark.parametrize("flag", ["--config", "--recorded", "--controls", "--sim"])
def test_a_byte_order_mark_is_skipped(flag, data_dir, tmp_path, capsys):
    # a config with a mark was "Unexpected UTF-8 BOM", and a CSV header
    # began with "\ufefft"
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.mkdir()
    marked.mkdir()
    assert cli.main([*_gap_inputs(data_dir, plain, flag, False), "--out", str(plain / "gap.json")]) == 0
    expected = capsys.readouterr()
    assert cli.main([*_gap_inputs(data_dir, marked, flag, True), "--out", str(marked / "gap.json")]) == 0
    assert capsys.readouterr() == expected
    assert (marked / "gap.json").read_bytes() == (plain / "gap.json").read_bytes()


@pytest.mark.parametrize("flag", ["--config", "--recorded", "--controls", "--sim"])
def test_an_input_that_is_not_utf8_is_a_located_error(flag, data_dir, tmp_path, capsys):
    controls = "t,speed,steer\n" + "".join(f"{t},2.0,0\n" for t in range(6))
    files = {
        "--config": (data_dir / "config_track.json").read_text(encoding="utf-8"),
        "--recorded": STRAIGHT_TRACE,
        "--controls": controls,
        "--sim": STRAIGHT_TRACE,
    }
    paths = {name: _write(tmp_path / f"{name[2:]}.txt", text) for name, text in files.items()}
    bad = tmp_path / f"{flag[2:]}.txt"
    lines = bad.read_bytes().splitlines(keepends=True)
    lines[5] = lines[5][:2] + b"\xff" + lines[5][2:]
    bad.write_bytes(b"".join(lines))
    source = ["--sim", paths["--sim"]]
    if flag == "--controls":
        source = ["--controls", paths["--controls"], "--vehicle", "ego"]
    out = tmp_path / "gap.json"
    code = cli.main(
        ["gap", "--recorded", paths["--recorded"], *source,
         "--config", paths["--config"], "--out", str(out)]
    )
    assert code == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"dtgen: error: {bad}, line 6: not UTF-8 (invalid start byte, byte 0xff)\n"


def test_a_csv_error_on_an_earlier_line_is_reported_before_a_later_byte(
    data_dir, tmp_path, capsys
):
    # the CSV is decoded a line at a time as it is parsed, so the parser
    # stops at line 3 before it reaches the byte on line 6
    bad = tmp_path / "trace.csv"
    lines = STRAIGHT_TRACE.encode().splitlines(keepends=True)
    lines[2] = b"0.5,x,0\n"
    lines[5] = lines[5][:2] + b"\xff" + lines[5][2:]
    bad.write_bytes(b"".join(lines))
    out = tmp_path / "gap.json"
    code = cli.main(
        ["gap", "--recorded", str(bad), "--sim", str(bad),
         "--config", str(data_dir / "config_track.json"), "--out", str(out)]
    )
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        "dtgen: error: trajectory CSV line 3: could not convert string to float: 'x'\n"
    )


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("flag", ["--recorded", "--controls", "--sim"])
def test_a_csv_with_carriage_returns_reads_as_with_newlines(flag, newline, data_dir, tmp_path, capsys):
    # as a file read in text mode: each \r\n or lone \r ends a line
    plain, other = tmp_path / "plain", tmp_path / "other"
    plain.mkdir()
    other.mkdir()
    assert cli.main([*_gap_inputs(data_dir, plain, flag, False), "--out", str(plain / "gap.json")]) == 0
    expected = capsys.readouterr()
    args = _gap_inputs(data_dir, other, flag, False)
    path = other / f"{flag[2:]}.txt"
    path.write_bytes(path.read_bytes().replace(b"\n", newline))
    assert cli.main([*args, "--out", str(other / "gap.json")]) == 0
    assert capsys.readouterr() == expected
    assert (other / "gap.json").read_bytes() == (plain / "gap.json").read_bytes()


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_a_csv_error_after_carriage_returns_names_its_line(newline, data_dir, tmp_path, capsys):
    bad = tmp_path / "trace.csv"
    bad.write_bytes(f"t,x,y{newline}0,0,0{newline}{newline}1,x,0{newline}".encode())
    code = cli.main(
        ["gap", "--recorded", str(bad), "--sim", str(bad),
         "--config", str(data_dir / "config_track.json"), "--out", str(tmp_path / "gap.json")]
    )
    assert code == 1
    assert capsys.readouterr().err == (
        "dtgen: error: trajectory CSV line 4: could not convert string to float: 'x'\n"
    )


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

    def test_http_503_with_an_unknown_charset_is_io_error(self, data_dir, tmp_path, stub_server, capsys):
        stub_server.state.status = 503
        stub_server.state.content_type = "text/plain; charset=bogus"
        stub_server.state.body = b"overloaded \xff"
        out = tmp_path / "extract.osm"
        config = str(data_dir / "config_minimal.json")
        code = cli.main(["fetch", "--config", config, "--endpoint", stub_server.url, "--out", str(out)])
        assert code == 3
        assert not out.exists()
        assert capsys.readouterr().err == "dtgen: error: server returned HTTP 503: 'overloaded \ufffd'\n"

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

    @pytest.mark.parametrize("command", ["fetch", "generate"])
    @pytest.mark.parametrize("timeout", ["inf", "nan", "0", "-1", "abc", "1e10"])
    def test_bad_timeout_is_usage_error_and_makes_no_request(
        self, data_dir, tmp_path, stub_server, capsys, command, timeout
    ):
        out = tmp_path / "out"
        args = [command, "--config", str(data_dir / "config_minimal.json")]
        if command == "generate":
            args.append("--fetch")
        args += ["--endpoint", stub_server.url, "--timeout", timeout, "--out", str(out)]
        assert cli.main(args) == 2
        assert "finite positive number of seconds" in capsys.readouterr().err
        assert stub_server.state.requests == []
        assert not out.exists()

    def test_no_endpoint_is_usage_error_and_makes_no_request(
        self, data_dir, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.delenv(cli.ENDPOINT_ENV_VAR, raising=False)
        requests = []
        monkeypatch.setattr(cli, "fetch_overpass", lambda *args: requests.append(args))
        out = tmp_path / "extract.osm"
        code = cli.main(
            ["fetch", "--config", str(data_dir / "config_minimal.json"), "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"dtgen: error: fetch requires --endpoint or ${cli.ENDPOINT_ENV_VAR}\n"
        )
        assert requests == []
        assert not out.exists()

    def test_endpoint_from_environment(self, data_dir, tmp_path, stub_server, monkeypatch):
        monkeypatch.setenv(cli.ENDPOINT_ENV_VAR, stub_server.url)
        out = tmp_path / "extract.osm"
        code = cli.main(
            ["fetch", "--config", str(data_dir / "config_minimal.json"), "--out", str(out)]
        )
        assert code == 0
        assert out.exists()


# a number no float can hold, and nesting past the recursion limit of json.loads
_UNREADABLE_CONFIGS = {
    "401-digit integer": '{"bbox": {"min_lat": 48.0, "min_lon": 8.0, "max_lat": 48.1, '
    f'"max_lon": {10**400}}}}}',
    "nested 100,000 deep": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("command", ["generate", "gap", "fetch"])
@pytest.mark.parametrize("config", _UNREADABLE_CONFIGS.values(), ids=_UNREADABLE_CONFIGS.keys())
def test_unreadable_config_is_one_error_line(data_dir, tmp_path, capsys, command, config):
    path = _write(tmp_path / "config.json", config)
    out = tmp_path / "out"
    args = {
        "generate": ["--osm", str(data_dir / "track.osm")],
        "gap": ["--recorded", "trace.csv", "--controls", "controls.csv", "--vehicle", "ego"],
        "fetch": ["--endpoint", "http://127.0.0.1:9/"],
    }[command]
    assert cli.main([command, "--config", path, *args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("dtgen: error: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_a_number_no_float_holds_is_shown_short(data_dir, tmp_path, capsys):
    path = _write(tmp_path / "config.json", _UNREADABLE_CONFIGS["401-digit integer"])
    out = tmp_path / "world.sdf"
    args = ["--config", path, "--osm", str(data_dir / "track.osm"), "--out", str(out)]
    assert cli.main(["generate", *args]) == 1
    err = capsys.readouterr().err
    assert err == "dtgen: error: bbox.max_lon must be finite, got 1" + "0" * 17 + "..." + "0" * 19 + "\n"
    assert len(err.splitlines()[0]) < 120
