"""The package imports with only its declared dependency, numpy.

``pyproject.toml`` declares ``numpy`` alone, and CI's perf-gate job installs
nothing else, so ``import repro``, ``import repro.cli`` and ``pmtree --help``
must work with every other third-party module unimportable.  Each check runs
in a fresh interpreter whose import system refuses any top-level module that
is neither in the standard library nor ``numpy`` / ``repro``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

ONLY_NUMPY = """
import sys

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}


class RefuseUndeclared:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in ALLOWED:
            raise ModuleNotFoundError(f"{name} is not a declared dependency", name=name)
        return None


sys.meta_path.insert(0, RefuseUndeclared())
"""


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", ONLY_NUMPY + code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_undeclared_modules_are_refused():
    result = _run("import networkx")
    assert result.returncode != 0
    assert "not a declared dependency" in result.stderr


@pytest.mark.parametrize("module", ["repro", "repro.cli"])
def test_package_imports_with_numpy_only(module):
    result = _run(f"import {module}")
    assert result.returncode == 0, result.stderr


def test_cli_help_runs_with_numpy_only():
    result = _run("from repro.cli import main\nmain(['--help'])")
    assert result.returncode == 0, result.stderr
    assert "usage: pmtree" in result.stdout
