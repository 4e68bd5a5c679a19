"""The package's import surface: what ``import dtgen`` offers and loads."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import dtgen

ROOT = Path(__file__).parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in dtgen.__all__ if not hasattr(dtgen, name)]
    assert missing == []


# what only fetch may load (the network stack), and ElementTree, which no command loads
_LOADED_ON_DEMAND = ("http.client", "urllib.request", "ssl", "email.parser", "xml.etree.ElementTree")


def test_import_and_gap_load_neither_requests_nor_numpy(data_dir, tmp_path):
    src = str(Path(dtgen.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    (tmp_path / "trace.csv").write_text(
        "t,x,y\n" + "".join(f"{t / 2},{t},0\n" for t in range(11)), encoding="utf-8"
    )
    (tmp_path / "controls.csv").write_text("t,speed,steer\n0,2.0,0\n5,2.0,0\n", encoding="utf-8")
    config = str(data_dir / "config_track.json")
    world = str(tmp_path / "world.sdf")
    generate = ["generate", "--config", config, "--osm", str(data_dir / "track.osm"), "--out", world]
    gap = [
        "gap", "--recorded", str(tmp_path / "trace.csv"), "--controls", str(tmp_path / "controls.csv"),
        "--config", config, "--vehicle", "ego", "--out", str(tmp_path / "gap.json"),
    ]
    # one compute_gap call, so a lazy import inside it would show up too;
    # then a generate and a gap through the CLI, and last a validate
    probe = (
        "import json, sys, dtgen\n"
        "from dtgen import cli\n"
        "from array import array\n"
        "from dtgen.replay import Trajectory\n"
        "t = Trajectory(array('d', [0, 1]), array('d', [0, 1]), array('d', [0, 0]))\n"
        "assert dtgen.compute_gap(t, t).rmse == 0.0\n"
        "print(sorted({'requests', 'numpy'} & set(sys.modules)))\n"
        f"assert cli.main({generate!r}) == 0\n"
        f"assert cli.main({gap!r}) == 0\n"
        f"print(json.dumps(sorted(set({_LOADED_ON_DEMAND!r}) & set(sys.modules))))\n"
        f"assert cli.main(['validate', {world!r}]) == 0\n"
        "print('xml.etree.ElementTree' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    lines = out.stdout.splitlines()
    assert lines[0] == "[]"
    assert json.loads(lines[-2]) == []  # gap prints its summary line in between
    assert lines[-1] == "False"


def _module_graph() -> dict[str, set[str]]:
    """The dtgen modules each ``src/dtgen/*.py`` imports, read from its
    relative imports without running it."""
    graph = {}
    for path in (ROOT / "src" / "dtgen").glob("*.py"):
        graph[path.stem] = {
            target
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for target in ([node.module] if node.module else [a.name for a in node.names])
        }
    return graph


# the replay path reads no map: none of its modules reaches osm, and through it expat
_IMPORTS_AT_MOST = {
    "replay": {"config", "geodesy"},
    "config": {"errors", "geodesy"},
    "geodesy": set(),
    "errors": set(),
}


def test_replay_path_modules_import_only_what_they_use():
    graph = _module_graph()
    assert {module: graph[module] for module in _IMPORTS_AT_MOST} == {
        module: graph[module] & allowed for module, allowed in _IMPORTS_AT_MOST.items()
    }


def _names_imported_from_dtgen(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "dtgen" and node.level == 0
        for alias in node.names
    }


def _readme_python_blocks() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)


def test_demos_and_readme_import_only_exported_names():
    sources = {path.name: path.read_text(encoding="utf-8") for path in ROOT.glob("demos/*.py")}
    for i, block in enumerate(_readme_python_blocks()):
        sources[f"README.md python block {i}"] = block
    imported = {where: _names_imported_from_dtgen(source) for where, source in sources.items()}
    assert len(imported) >= 5 and all(imported.values())  # each place imports from dtgen
    unexported = {
        where: sorted(names - set(dtgen.__all__))
        for where, names in imported.items()
        if names - set(dtgen.__all__)
    }
    assert unexported == {}


def test_readme_lists_the_whole_surface():
    listed = set().union(*map(_names_imported_from_dtgen, _readme_python_blocks()))
    assert listed == set(dtgen.__all__)


# names the top level still served, with a DeprecationWarning, until 0.2.0
_MOVED = {
    "config": ("ExtractionDefaults", "GenerationConfig", "GeoSpawn", "LocalSpawn", "resolve_spawn"),
    "geodesy": ("LocalPoint",),
    "osm": ("OsmDocument", "OsmNode", "OsmWay"),
    "replay": (
        "GapReport", "Trajectory", "TrajectorySample", "derive_headings", "normalize_angle",
        "step_kinematic",
    ),
    "sdf": ("SdfWorld", "ValidationIssue", "ValidationReport", "emit_world"),
    "world_model": (
        "DRIVABLE_HIGHWAY_VALUES", "Building", "Road", "estimate_height",
        "extract_buildings", "extract_roads",
    ),
}


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in _MOVED.items() for name in names]
)
def test_moved_name_imports_only_from_its_submodule(module, name):
    with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
        getattr(dtgen, name)
    with pytest.raises(ImportError, match=f"cannot import name '{name}' from 'dtgen'"):
        exec(f"from dtgen import {name}", {})
    assert hasattr(importlib.import_module(f"dtgen.{module}"), name)


def test_unknown_name_raises_attribute_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AttributeError, match="no attribute 'serialize_config'"):
            dtgen.serialize_config  # noqa: B018 - deleted, not moved


def test_from_dtgen_import_cli_loads_the_submodule_without_warning():
    env = {**os.environ, "PYTHONPATH": str(Path(dtgen.__file__).resolve().parent.parent)}
    probe = (
        "import sys, dtgen\n"
        "assert 'dtgen.cli' not in sys.modules\n"
        "from dtgen import cli\n"
        "print(cli.main.__module__)"
    )
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", probe],
        capture_output=True, text=True, check=True, env=env,
    )
    assert out.stdout.strip() == "dtgen.cli"
