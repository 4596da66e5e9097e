"""Stage times and work counts of `python -m knotcocycle.fixturegen`.

Usage:  python3 bench/fixturegen_stages.py [--src DIR --label NAME]... [--repeats N]

Times each stage of the fixture generator with the ``knotcocycle``
package of each source tree DIR (default: this repository), each
measurement in its own process on fixed inputs; a stage's inputs are
built before its clock starts (the 144 meridians as
``list(enumerate_cube_meridians(0))``).  The stages are

  enumerate_cube_meridians_0  list(enumerate_cube_meridians(0)), the walk alone
  enumerate_cube_meridians_1  list(enumerate_cube_meridians(1)), the 5,760
                              one-bystander meridians (not part of fixturegen)
  classify_scenes             classify_scenes on the 144 unoriented meridians
  collect_rows                collect_rows on those meridians, none expanded yet
  collect_rows_1              collect_rows on the 5,760 one-bystander meridians,
                              none expanded yet: the rows `solve --bystanders` adds
  quadruple_meridians         quadruple_meridians()
  derive_alpha31              derive_alpha31 on the assembled degree-3 system
  total                       a cold `python -m knotcocycle.fixturegen` process

and each is the median of N processes (default 5).  With several trees
the trees take turns on every stage, the first tree leading in odd
rounds and the last in even ones, so drift on the machine falls on all
of them alike.  Two more processes per tree run, with counting
wrappers, the whole generator (``counts``) and
``list(enumerate_cube_meridians(1))`` (``counts_enumerate_cube_meridians_1``)
once each, and record the calls of ``strata.ti_meridian``,
``Germ.canonical``, ``moves.apply_move``, ``moves.r3_moves``,
``moves.r3_triangle``, ``moves.validate_r3``,
``rational_linalg.solve_in_span``, ``coboundary.coboundary`` and
``ArrowDiagram.arrow_ids``
and the diagram constructions (``ArrowDiagram.__init__``, which
``GaussDiagram`` also runs).  Each
tree's run is stored under its NAME in BENCH_fixturegen.json
at the repository root, next to the runs already there, with the tree's
git revision, whether its sources had uncommitted changes, the Python
version and the machine.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import harness

OUT = harness.REPO / "BENCH_fixturegen.json"
REPEATS = 5
WORKLOAD = ("python -m knotcocycle.fixturegen and its stages, median of each run's `repeats` "
            "processes per stage; counts from one run of the whole generator")

# One stage, run in a child process with argv (stage); it prints the
# stage's seconds.  Inputs are prepared before the clock starts.
STAGE = """
import sys, time
from knotcocycle import strata
from knotcocycle.cocycles import assemble_default_system
from knotcocycle.fixturegen import derive_alpha31
from knotcocycle.quadruple import quadruple_meridians
stage = sys.argv[1]

def meridians():
    return list(strata.enumerate_cube_meridians(0))

if stage == "enumerate_cube_meridians_0":
    run = lambda: list(strata.enumerate_cube_meridians(0))
elif stage == "enumerate_cube_meridians_1":
    run = lambda: list(strata.enumerate_cube_meridians(1))
elif stage == "classify_scenes":
    ms, variables = meridians(), strata.variable_basis(3)
    var_index = {g: j for j, g in enumerate(variables)}
    run = lambda: strata.classify_scenes(ms, variables, var_index)
elif stage == "collect_rows":
    ms = meridians()
    strata.variable_basis(3)
    run = lambda: strata.collect_rows(ms)
elif stage == "collect_rows_1":
    ms = list(strata.enumerate_cube_meridians(1))
    strata.variable_basis(3)
    run = lambda: strata.collect_rows(ms)
elif stage == "quadruple_meridians":
    run = quadruple_meridians
elif stage == "derive_alpha31":
    system = assemble_default_system()
    run = lambda: derive_alpha31(system)
else:
    raise SystemExit(f"unknown stage {stage}")
t = time.perf_counter()
run()
print(time.perf_counter() - t)
"""
STAGES = ("enumerate_cube_meridians_0", "enumerate_cube_meridians_1", "classify_scenes",
          "collect_rows", "collect_rows_1", "quadruple_meridians", "derive_alpha31")

# One full fixture generation, or with argv[1] "-" the one-bystander
# meridians, with counting wrappers; argv (out dir).  A function is
# replaced on every module that imported it by name.
COUNTS = """
import json, sys
from knotcocycle import (cocycles, diagrams, fixturegen, germs, moves, quadruple,
                         rational_linalg, strata)
coboundary = sys.modules["knotcocycle.coboundary"]  # the package's `coboundary` is the function
modules = (cocycles, coboundary, diagrams, fixturegen, germs, moves, quadruple, rational_linalg,
           strata)
counts = {}

def counting(name, fn):
    counts[name] = 0
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper

for name, module in (("ti_meridian", strata), ("apply_move", moves), ("r3_moves", moves),
                     ("r3_triangle", moves), ("validate_r3", moves),
                     ("solve_in_span", rational_linalg), ("coboundary", coboundary)):
    wrapper = counting(f"{module.__name__.split('.')[-1]}.{name}", getattr(module, name))
    for m in modules:
        if getattr(m, name, None) is getattr(module, name) and m is not module:
            setattr(m, name, wrapper)
    setattr(module, name, wrapper)
germs.Germ.canonical = counting("germs.Germ.canonical", germs.Germ.canonical)
for method in ("__init__", "arrow_ids"):
    setattr(diagrams.ArrowDiagram, method, counting(f"diagrams.ArrowDiagram.{method}",
                                                    getattr(diagrams.ArrowDiagram, method)))
if sys.argv[1] == "-":
    list(strata.enumerate_cube_meridians(1))
else:
    fixturegen.generate_all(sys.argv[1])
print(json.dumps(counts))
"""


def _seconds(src: Path, name: str, tmp: str) -> float:
    """One process of the stage, or of the whole generator for ``total``."""
    if name != "total":
        return float(harness.run(src, [sys.executable, "-c", STAGE, name]))
    t = time.perf_counter()
    harness.run(src, [sys.executable, "-m", "knotcocycle.fixturegen", "--out",
                      str(Path(tmp) / "total")])
    return time.perf_counter() - t


def measure(trees: dict[str, Path], repeats: int) -> dict[str, tuple[dict, dict]]:
    """(stages, counts) per label; the trees take turns on every stage."""
    names = (*STAGES, "total")
    times = {label: {name: [] for name in names} for label in trees}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(repeats):
            for name in names:
                for label, src in harness.turn(trees, i):
                    times[label][name].append(_seconds(src, name, tmp))
        counts = {label: {target: json.loads(harness.run(src, [sys.executable, "-c", COUNTS, arg]))
                          for target, arg in (("counts", str(Path(tmp) / label)),
                                              ("counts_enumerate_cube_meridians_1", "-"))}
                  for label, src in trees.items()}
    out = {}
    for label in trees:
        stages = {name: {"median_s": statistics.median(ts), "runs_s": ts}
                  for name, ts in times[label].items()}
        for name, rec in stages.items():
            print(f"{label:12s} {name:28s} {rec['median_s']:.3f} s", file=sys.stderr)
        print(label, json.dumps(counts[label]), file=sys.stderr)
        out[label] = stages, counts[label]
    return out


def main(argv=None) -> int:
    trees, repeats = harness.parse_trees(__doc__, REPEATS,
                                         "processes per stage (the median is recorded)", argv)
    harness.record(OUT, WORKLOAD, {
        label: (trees[label], {"repeats": repeats, "stages": stages, **counts})
        for label, (stages, counts) in measure(trees, repeats).items()})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
