"""What `import neutralsys` and each command load, and the names it exports.

Each cold-start case runs in a fresh interpreter, because this process has
imported every module already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import neutralsys

from conftest import EXAMPLE1_DOC, bench_module

SRC = Path(neutralsys.__file__).resolve().parents[1]
# the root finder and the verdict modules
SCAN_MODULES = {f"neutralsys.{m}" for m in ("charmatrix", "rootfinder", "stability",
                                           "structural")}


def _loaded_after(tmp_path, statements: str) -> set[str]:
    """The neutralsys modules a fresh interpreter holds after `statements`,
    run with `path` bound to a system file with one input."""
    doc = json.loads(json.dumps(EXAMPLE1_DOC))
    doc["r"], doc["B"] = 1, [[0.0], [1.0]]
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    script = (f"import sys\npath = {str(path)!r}\nout = {str(tmp_path / 'out')!r}\n"
              f"{statements}\n"
              "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'neutralsys'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_load_system_loads_only_the_system_model(tmp_path):
    loaded = _loaded_after(tmp_path, "import neutralsys\nneutralsys.load_system(path)")
    # the package binds the function simulate at import, not on first access
    assert loaded == {"neutralsys", "neutralsys.errors", "neutralsys.sysmodel",
                      "neutralsys.simulate"}


@pytest.mark.parametrize("command, runs, unloaded", [
    ("simulate", "neutralsys.simulate", SCAN_MODULES | {"neutralsys.reachability"}),
    ("reach", "neutralsys.reachability", SCAN_MODULES),
    ("spectrum", "neutralsys.rootfinder", {"neutralsys.stability", "neutralsys.structural",
                                           "neutralsys.reachability"}),
])
def test_command_loads_only_the_modules_it_runs(tmp_path, command, runs, unloaded):
    loaded = _loaded_after(tmp_path, (
        "from neutralsys import cli\n"
        f"assert cli.main([{command!r}, '--input', path, '--out', out]) == 0"))
    assert runs in loaded
    assert not loaded & unloaded, loaded & unloaded


def test_simulate_is_the_function_after_the_cli_imported_its_module(tmp_path):
    # the simulate command imports the submodule neutralsys.simulate
    _loaded_after(tmp_path, (
        "from neutralsys import cli\n"
        "assert cli.main(['simulate', '--input', path, '--out', out]) == 0\n"
        "import neutralsys\n"
        "from neutralsys import simulate\n"
        "assert simulate is neutralsys.simulate is sys.modules['neutralsys.simulate'].simulate"))


def test_each_export_is_its_defining_modules_object():
    for name in neutralsys.__all__:
        obj = getattr(neutralsys, name)
        assert obj.__module__.startswith("neutralsys."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_dir_lists_every_export_and_unknown_names_raise():
    assert set(neutralsys.__all__) <= set(dir(neutralsys))
    with pytest.raises(AttributeError, match="no_such_name"):
        neutralsys.no_such_name
    assert not hasattr(neutralsys, "no_such_name")


def test_every_benchmark_entry_point_resolves():
    # the benchmark tracer looks each entry point up on its module by name,
    # and a missing one fails the traced benchmark runs
    for layer, names in bench_module("spans").ENTRY_POINTS.items():
        module = importlib.import_module(f"neutralsys.{layer}")
        assert [n for n in names if not callable(getattr(module, n, None))] == [], layer
