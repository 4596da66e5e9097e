"""Each command loads only the layers it runs, and the package root loads none.

``python -m knotcocycle`` imports ``cli`` alone; each subcommand imports
its layers when it runs, and ``knotcocycle``'s public names are imported
from their modules on first use.  No module imports ``dataclasses``,
which costs every process ``inspect``, and none holds a float constant,
for the package computes exactly.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import knotcocycle
from conftest import FIXTURES, REPO

PACKAGE = REPO / "src" / "knotcocycle"
ROOT = {"knotcocycle", "knotcocycle.__main__", "knotcocycle.cli"}
SYSTEM_SIDE = {"knotcocycle.strata", "knotcocycle.rational_linalg", "knotcocycle.quadruple",
               "knotcocycle.fixturegen"}

# Runs the entry point of ``python -m knotcocycle`` and prints, as its last
# line, the exit code and the modules the process has loaded.
RUN_MAIN = """
import json, sys
from knotcocycle.__main__ import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _loaded(code: str, *argv) -> tuple[int, set]:
    """(exit code, loaded modules) of a fresh process running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, cwd=REPO, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["code"], set(out["modules"])


def _package(modules) -> set:
    return {m for m in modules if m == "knotcocycle" or m.startswith("knotcocycle.")}


@pytest.mark.parametrize("argv", [["--help"], ["rot-test"], ["no-such-command"]],
                         ids=["help", "missing-option", "unknown-command"])
def test_help_and_usage_errors_load_no_layer(argv):
    code, modules = _loaded(RUN_MAIN, *argv)
    assert code == (0 if argv == ["--help"] else 2)
    assert _package(modules) == ROOT
    assert "dataclasses" not in modules


LOOP = REPO / "tests" / "data" / "rot_loops" / "trefoil+figure8.json"


@pytest.mark.parametrize("argv, left_out", [
    (["rot-test", "--knot", "figure8"], SYSTEM_SIDE),
    (["eval-loop", "--loop", str(LOOP)], SYSTEM_SIDE),
    (["stokes-check", "--trials", "20"],
     SYSTEM_SIDE | {"knotcocycle.cocycles", "knotcocycle.morse"}),
], ids=["rot-test", "eval-loop", "stokes-check"])
def test_a_command_loads_only_the_layers_it_runs(argv, left_out):
    code, modules = _loaded(RUN_MAIN, *argv, "--fixtures", str(FIXTURES))
    assert code == 0
    assert ROOT <= _package(modules)
    assert not _package(modules) & left_out
    assert "dataclasses" not in modules


def test_importing_the_package_loads_no_submodule():
    _, modules = _loaded("import json, sys, knotcocycle\n"
                         "print(json.dumps({'code': 0, 'modules': sorted(sys.modules)}))")
    assert _package(modules) == {"knotcocycle"}


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.stem}:{node.lineno}" for n in names
                      if n.split(".")[0] == "dataclasses"]
    assert found == []


def test_no_module_holds_a_float_constant():
    found = [f"{path.stem}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, float)]
    assert found == []


# The public names of the package root, by the module that defines them.
EXPORTS = {
    "diagrams": ["ArrowDiagram", "GaussDiagram", "FormalSum", "EMPTY_ARROW", "EMPTY_GAUSS",
                 "pair", "parse_diagram"],
    "moves": ["Move", "apply_move", "edge_data", "enumerate_moves", "inverse", "validate_r3"],
    "germs": ["Germ", "boundary", "make_germ", "monotonic_reduce", "pair_germ", "subgerms"],
    "coboundary": ["coboundary", "stokes_sides"],
}


def test_every_exported_name_is_the_object_of_its_module():
    assert sorted(knotcocycle.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"knotcocycle.{module}")
        for name in names:
            assert getattr(knotcocycle, name) is getattr(home, name), name
    # The function, not the submodule that the import above bound on the package.
    assert knotcocycle.coboundary is importlib.import_module("knotcocycle.coboundary").coboundary


def test_star_import_and_dir_give_every_exported_name():
    namespace: dict = {}
    exec("from knotcocycle import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(knotcocycle.__all__)
    assert set(knotcocycle.__all__) <= set(dir(knotcocycle))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        knotcocycle.no_such_name
    assert not hasattr(knotcocycle, "no_such_name")
