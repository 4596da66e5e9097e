"""The benchmark's launcher and setup step must keep working as the package changes."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

from conftest import FIXTURES, REPO

TRACED = REPO / "perfbench" / "traced.py"
LOOPS = REPO / "perfbench" / "loops.py"


def _load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    traced = _load_traced()
    for name in traced.MODULES:
        importlib.import_module(f"knotcocycle.{name}")
    for module, attr, _kind in traced.TARGETS:
        obj = importlib.import_module(f"knotcocycle.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{attr}"


def test_traced_run_writes_a_trace(tmp_path):
    out = tmp_path / "trace.json"
    cmd = [sys.executable, str(TRACED), str(out),
           str(FIXTURES / "formulas" / "alpha31.json"), "cli",
           "--fixtures", str(FIXTURES), "rot-test", "--knot", "unknot"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    trace = json.loads(out.read_text())
    assert trace["names"]


def test_loop_files_match_the_recorded_bytes(tmp_path):
    # The rot workload's setup writes these files; recorded from the
    # move-list Loop that replayed its moves, before loops held germs.
    specs = ["trefoil+trefoil", "trefoil+figure8"]
    cmd = [sys.executable, str(LOOPS), str(FIXTURES), str(tmp_path), *specs]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=REPO, env=env)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    for spec in specs:
        recorded = REPO / "tests" / "data" / "rot_loops" / f"{spec}.json"
        assert (tmp_path / f"{spec}.json").read_bytes() == recorded.read_bytes(), spec
