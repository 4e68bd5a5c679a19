"""The offline demos run from a copy of ``demos/`` and reproduce the committed
outputs in ``demos/out/`` byte for byte. ``04_fetch_map.py`` needs a map
server and is not run."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = ["01_world_from_map.py", "02_projection_accuracy.py", "03_replay_reality_gap.py"]
OUTPUTS = ["block_world.sdf", "lane_change_gap.json"]


@pytest.fixture(scope="module")
def demo_copy(tmp_path_factory):
    """A copy of ``demos/`` without its outputs, after every offline demo has
    run in it, and the finished process of each."""
    copy = tmp_path_factory.mktemp("demos") / "demos"
    shutil.copytree(ROOT / "demos", copy, ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    runs = {
        demo: subprocess.run(
            [sys.executable, str(copy / demo)],
            cwd=copy.parent,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        for demo in DEMOS
    }
    return copy, runs


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo_copy, demo):
    _, runs = demo_copy
    assert runs[demo].returncode == 0, runs[demo].stderr


@pytest.mark.parametrize("name", OUTPUTS)
def test_demo_reproduces_its_committed_output(demo_copy, name):
    copy, _ = demo_copy
    assert (copy / "out" / name).read_bytes() == (ROOT / "demos" / "out" / name).read_bytes()
