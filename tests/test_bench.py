"""The bench/ scripts: their command lines, child programs and run records.

The scripts reach the package only through the programs their children
run, so a renamed package function breaks them only when they run.  Each
child program runs here on its smallest input against this repository.
"""

import json
import subprocess
import sys

import pytest

from conftest import REPO

BENCH = REPO / "bench"
sys.path.insert(0, str(BENCH))

import fixturegen_stages  # noqa: E402
import harness  # noqa: E402
import invariants  # noqa: E402
import loop_eval  # noqa: E402
import startup  # noqa: E402
import stokes_stages  # noqa: E402
import ti_degrees  # noqa: E402

SCRIPTS = sorted(p.name for p in BENCH.glob("*.py") if p.name != "harness.py")


def _child(program: str, *args) -> bytes:
    return harness.run(REPO, [sys.executable, "-c", program, *map(str, args)])


@pytest.mark.parametrize("script", SCRIPTS)
def test_help_exits_0(script):
    proc = subprocess.run([sys.executable, str(BENCH / script), "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


def test_fixturegen_stage_runs():
    seconds = float(_child(fixturegen_stages.STAGE, "quadruple_meridians"))
    assert seconds > 0


def test_fixturegen_counts_run_on_the_one_bystander_meridians():
    counts = json.loads(_child(fixturegen_stages.COUNTS, "-"))
    assert counts["diagrams.ArrowDiagram.__init__"] > 0


@pytest.mark.parametrize("mode", ["time", "count"])
def test_stokes_loop_runs(mode):
    out = json.loads(_child(stokes_stages.LOOP, mode, 1, 5, 4))
    if mode == "time":
        assert set(out) == set(stokes_stages.STAGES)
    else:
        assert out["pair_calls"] == 10  # two per trial, one per side of gamma
        assert out["gamma_R1"] + out["gamma_R2"] + out["gamma_R3"] == 5


@pytest.mark.parametrize("count", ["0", "1"])
def test_ti_points_run(count):
    points = [json.loads(line) for line in _child(ti_degrees.POINTS, 3, count, 1).splitlines()]
    assert [p["n"] for p in points] == [1]
    assert ("canonicalisations" if count == "1" else "seconds") in points[0]


def test_loop_eval_point_runs():
    point = json.loads(_child(loop_eval.POINT, REPO / "fixtures", 1, 1))
    assert point["n"] == 1
    assert point["value"] == "1"  # alpha31(rot figure8) = -v2(figure8)


def test_invariants_counts_run_at_degree_two():
    counts = json.loads(_child(invariants.COUNTS, 2))
    # 1 + 2 + 12 diagrams; the degree-0 and the two degree-2 ones have no death
    assert counts["diagrams"] == 15 and counts["diagrams_kept"] == 3
    assert counts["components"] == 4 * 3


def test_startup_imports_runs():
    imports = json.loads(_child(startup.IMPORTS, "--help").splitlines()[-1])
    assert "knotcocycle.cli" in imports["modules"]


def test_record_adds_a_label_and_keeps_the_runs_there(tmp_path):
    out = tmp_path / "BENCH_test.json"
    harness.record(out, "first workload", {"a": (REPO, {"points": [1]})})
    first = json.loads(out.read_text())["runs"]["a"]
    harness.record(out, "second workload", {"b": (REPO, {"points": [2]})})
    doc = json.loads(out.read_text())
    assert doc["workload"] == "second workload"
    assert doc["runs"]["a"] == first
    assert set(doc["runs"]["b"]) == {"git_revision", "uncommitted_changes", "python",
                                     "machine", "nproc", "points"}
    assert doc["runs"]["b"]["points"] == [2]
