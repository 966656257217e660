"""The runtime package imports nothing outside the standard library."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import child_env

SOURCES = sorted((Path(__file__).parent.parent / "src" / "polytri").glob("*.py"))


def imported_top_levels(path: Path) -> set[str]:
    """Top-level names of the modules a source file imports ("polytri"
    for a relative import)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("polytri" if node.level else node.module.split(".")[0])
    return names


def test_sources_found():
    assert "cli.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_stdlib_or_polytri(path):
    outside = imported_top_levels(path) - set(sys.stdlib_module_names) - {"polytri"}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_the_cli_and_verify_leave_process_pools_unimported():
    """The package's fork runner uses os.fork and pipes, so neither
    importing the CLI nor forking verify's and a listing's workers imports
    a process pool."""
    script = ("import contextlib, io, sys\n"
              "from polytri import _workers, cli\n"
              "_workers._usable_cpus = lambda: 2\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert cli.run(['verify', '--max-n', '5']) == 0\n"
              "    assert cli.run(['enumerate', '--n', '13']) == 0\n"
              "assert not {'concurrent.futures', 'multiprocessing'} & sys.modules.keys()\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_importing_the_package_imports_no_submodule():
    """The exports are resolved on first access, so a bare import runs
    none of the package's modules, and the first export brings them in."""
    script = ("import sys, polytri\n"
              "assert [m for m in sys.modules if m.startswith('polytri.')] == []\n"
              "assert polytri.Triangulation.__module__ == 'polytri.triangulation'\n"
              "assert 'polytri.triangulation' in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
