"""Cold `python -m knotcocycle invariants` and the work behind it.

Usage:  python3 bench/invariants.py [--src DIR --label NAME]... [--repeats N]

Times cold ``invariants --max-degree 3`` and ``--max-degree 4``
processes with the ``knotcocycle`` package of each source tree DIR
(default: this repository).  Each degree's time is the median of N
processes per tree (default 10); the trees take turns in every round,
the first tree leading in even rounds and the last in odd ones, and the
script checks that they print the same bytes.  One more process per
degree and tree runs the command in process and counts:

  diagrams               the arrow diagrams up to the degree, as printed
  diagrams_kept          the columns of the matrix of d
  components             the components of dA computed: misses of the
                         ``coboundary.component`` cache
  rows, nonzeros         the rows of the matrix of d and its entries
  reduce_primitive_calls calls of ``rational_linalg.reduce_primitive``

Each tree's run is stored under its NAME in BENCH_invariants.json at the
repository root, next to the runs already there, with the tree's git
revision, whether its sources had uncommitted changes, the Python
version and the machine.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import harness

OUT = harness.REPO / "BENCH_invariants.json"
DEGREES = (3, 4)
REPEATS = 10
WORKLOAD = ("cold `python -m knotcocycle invariants --max-degree D` for D in 3 and 4, one "
            "process per degree, tree and round, the trees taking turns; median and quartiles "
            "of `repeats` processes; counts from one in-process run per degree")

# The invariants command in process, argv (max degree); prints the counts
# as one JSON line.  kernel_basis and reduce_primitive are looked up on
# their module at call time, so wrapping them there sees every call.
COUNTS = """
import contextlib, io, json, sys
from knotcocycle import cli, rational_linalg
from knotcocycle.coboundary import component
counts = {"reduce_primitive_calls": 0}
reduce_primitive, kernel_basis = rational_linalg.reduce_primitive, rational_linalg.kernel_basis

def counted(*args):
    counts["reduce_primitive_calls"] += 1
    return reduce_primitive(*args)

def recorded(m):
    counts.update(rows=m.nrows, diagrams_kept=m.ncols, nonzeros=sum(map(len, m.rows)))
    return kernel_basis(m)

rational_linalg.reduce_primitive, rational_linalg.kernel_basis = counted, recorded
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cli.main(["invariants", "--max-degree", sys.argv[1]]) == 0
counts.update(diagrams=json.loads(out.getvalue())["diagrams"],
              components=component.cache_info().misses)
print(json.dumps(counts))
"""


def _cold(tree: Path, degree: int) -> tuple[float, bytes]:
    start = time.perf_counter()
    out = harness.run(tree, [sys.executable, "-m", "knotcocycle", "invariants",
                             "--max-degree", str(degree)])
    return time.perf_counter() - start, out


def measure(trees: dict[str, Path], repeats: int) -> dict[str, dict]:
    """Per label and degree: the cold times and the counts."""
    times = {label: {d: [] for d in DEGREES} for label in trees}
    for i in range(repeats):
        for degree in DEGREES:
            printed = {}
            for label, tree in harness.turn(trees, i):
                seconds, printed[label] = _cold(tree, degree)
                times[label][degree].append(seconds)
            if len(set(printed.values())) != 1:
                raise RuntimeError(f"--max-degree {degree}: the trees print different bytes")
    out = {}
    for label, tree in trees.items():
        out[label] = {}
        for degree in DEGREES:
            counts = json.loads(harness.run(tree, [sys.executable, "-c", COUNTS, str(degree)]))
            run = {**harness.summary(times[label][degree]), "counts": counts}
            out[label][f"max_degree_{degree}"] = run
            print(f"{label:12s} --max-degree {degree}  {run['median_s']:.3f} s  "
                  f"{json.dumps(counts)}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    trees, repeats = harness.parse_trees(
        __doc__, REPEATS, "cold processes per degree and tree (at least 2)", argv)
    if repeats < 2:
        raise SystemExit("--repeats must be at least 2 for the quartiles")
    harness.record(OUT, WORKLOAD, {label: (trees[label], {"repeats": repeats, **runs})
                                   for label, runs in measure(trees, repeats).items()})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
