"""The package's import surface: what ``import dtgen`` offers and loads."""

import ast
import importlib
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


def test_import_and_gap_load_neither_requests_nor_numpy():
    src = str(Path(dtgen.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    # one compute_gap call, so a lazy import inside it would show up too
    probe = (
        "import sys, dtgen\n"
        "from dtgen.replay import Trajectory, TrajectorySample\n"
        "t = Trajectory((TrajectorySample(0.0, 0.0, 0.0), TrajectorySample(1.0, 1.0, 0.0)))\n"
        "assert dtgen.compute_gap(t, t).rmse == 0.0\n"
        "print(sorted({'requests', 'numpy'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


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


@pytest.mark.parametrize("name, module", sorted(dtgen._MOVED.items()))
def test_moved_name_warns_once_and_resolves_to_its_submodule(monkeypatch, name, module):
    expected = getattr(importlib.import_module(f"dtgen.{module}"), name)
    message = f"dtgen.{name} is deprecated; import it from dtgen.{module}"
    # the shim binds a name after its first use; forget that, each way in turn
    for access in ("getattr", "from-import"):
        monkeypatch.delitem(vars(dtgen), name, raising=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if access == "getattr":
                value = getattr(dtgen, name)
            else:
                namespace = {}
                exec(f"from dtgen import {name}", namespace)
                value = namespace[name]
        assert value is expected
        assert [(w.category, str(w.message)) for w in caught] == [(DeprecationWarning, message)]


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
