"""The package's import surface: what ``import dtgen`` offers and loads."""

import os
import subprocess
import sys
from pathlib import Path

import dtgen


def test_every_exported_name_resolves():
    missing = [name for name in dtgen.__all__ if not hasattr(dtgen, name)]
    assert missing == []


def test_import_and_gap_load_neither_requests_nor_numpy():
    src = str(Path(dtgen.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    # one compute_gap call, so a lazy import inside it would show up too
    probe = (
        "import sys, dtgen\n"
        "t = dtgen.Trajectory((dtgen.TrajectorySample(0.0, 0.0, 0.0),"
        " dtgen.TrajectorySample(1.0, 1.0, 0.0)))\n"
        "assert dtgen.compute_gap(t, t).rmse == 0.0\n"
        "print(sorted({'requests', 'numpy'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"
