"""Project metadata: every declared entry point resolves to code that exists,
and importing the program loads neither numpy nor scipy."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SRC = PYPROJECT.parent / "src"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_console_scripts_import():
    import tomllib

    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_program_imports_neither_numpy_nor_scipy():
    # Only the HiGHS child imports them, after it forks; the solver's own
    # process must not pay for them or start their threads.
    modules = sorted(f"maxhrt.{path.stem}" for path in (SRC / "maxhrt").glob("*.py"))
    assert modules
    code = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('numpy', 'scipy')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert result.stdout == "[]\n"
