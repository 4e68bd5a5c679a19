"""The package's import surface: what ``import dtgen`` offers and loads."""

import os
import subprocess
import sys
from pathlib import Path

import dtgen


def test_every_exported_name_resolves():
    missing = [name for name in dtgen.__all__ if not hasattr(dtgen, name)]
    assert missing == []


def test_import_does_not_load_requests():
    src = str(Path(dtgen.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, dtgen; print('requests' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
