"""Degree-3 and degree-4 T∘I on the R3 germs of rotation loops.

Usage:  python3 bench/ti_degrees.py [--src DIR --label NAME]... [--repeats N]

For n = 1, 2, 4, 8 and 12, builds the rotation loop of figure8^n (the
fixture figure8 taken n times with ``morse.connected_sum``) and times
``germs.ti(g, {d})`` over its R3 germs, for d = 3 and d = 4, with the
``knotcocycle`` package of each source tree DIR (default: this
repository).  Each degree runs in its own process, which takes n in
increasing order, so the subgerm table fills as in one long run; the
loops are built before the clock starts.  Per n it records

  seconds              the median over N processes (default 3)
  canonicalisations    the normal forms worked out (``germs._normalise``
                       calls: ``Germ.canonical`` on a germ with no normal
                       form yet, and every table miss), from one more
                       process with a counting wrapper
  table_entries        the normal forms stored in ``germs._PLACEMENTS``
                       after that n, from the same process

With several trees the trees take turns, the first tree leading in odd
rounds and the last in even ones.  Each tree's run is stored under its
NAME in BENCH_ti.json at the repository root, next to the runs already
there, with the tree's git revision, whether its sources had
uncommitted changes, the Python version and the machine.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import harness

OUT = harness.REPO / "BENCH_ti.json"
SIZES = (1, 2, 4, 8, 12)
DEGREES = (3, 4)
REPEATS = 3
TIMEOUT_S = 600.0
WORKLOAD = ("germs.ti(g, {d}) over the R3 germs of rot figure8^n, d = 3 and 4, "
            f"n = {', '.join(map(str, SIZES))} in one process per degree; "
            "median of each run's `repeats` processes, counts from one more")

# One degree over every n, run in a child process with argv (degree,
# count, n...); it prints one JSON object per n.  With count "1" the
# canonicalisations are counted and nothing is timed.
POINTS = """
import json, sys, time
from knotcocycle import germs
from knotcocycle.cocycles import rot_loop
from knotcocycle.morse import FIXTURE_MORSE, connected_sum
degree, count = int(sys.argv[1]), sys.argv[2] == "1"
sizes = [int(n) for n in sys.argv[3:]]
figure8 = FIXTURE_MORSE["figure8"]
loops = {n: [g for g in rot_loop(connected_sum(*[figure8] * n)).germs if g.kind == "R3"]
         for n in sizes}
fresh = [0]
if count:
    normalise = germs._normalise
    def counting(*args):
        fresh[0] += 1
        return normalise(*args)
    germs._normalise = counting
for n, r3 in loops.items():
    fresh[0] = 0
    t = time.perf_counter()
    for g in r3:
        germs.ti(g, {degree})
    seconds = time.perf_counter() - t
    point = {"n": n, "r3_germs": len(r3), "max_degree": max(g.degree for g in r3)}
    if count:
        point["canonicalisations"] = fresh[0]
        point["table_entries"] = sum(len(v) if isinstance(v, dict) else 1
                                     for v in germs._PLACEMENTS.values())
    else:
        point["seconds"] = seconds
    print(json.dumps(point), flush=True)
"""


def _points(src: Path, degree: int, count: bool) -> list[dict]:
    out = harness.run(src, [sys.executable, "-c", POINTS, str(degree), "1" if count else "0",
                            *map(str, SIZES)], TIMEOUT_S)
    return [json.loads(line) for line in out.splitlines()]


def measure(trees: dict[str, Path], repeats: int) -> dict[str, dict]:
    """Per label and degree, the points with their timed runs and counts."""
    times = {label: {d: {n: [] for n in SIZES} for d in DEGREES} for label in trees}
    for i in range(repeats):
        for d in DEGREES:
            for label, src in harness.turn(trees, i):
                for point in _points(src, d, False):
                    times[label][d][point["n"]].append(point["seconds"])
    out = {}
    for label, src in trees.items():
        out[label] = {}
        for d in DEGREES:
            points = _points(src, d, True)
            for point in points:
                runs = times[label][d][point["n"]]
                point.update(median_s=statistics.median(runs), runs_s=runs)
                print(f"{label:12s} degree {d} n={point['n']:2d} {point['median_s']:8.3f} s "
                      f"{point['canonicalisations']:7d} new canonicalisations "
                      f"{point['table_entries']:6d} entries", file=sys.stderr)
            out[label][f"degree_{d}"] = points
    return out


def main(argv=None) -> int:
    trees, repeats = harness.parse_trees(
        __doc__, REPEATS, "timed processes per degree (the median is recorded)", argv)
    harness.record(OUT, WORKLOAD, {label: (trees[label], {"repeats": repeats, **degrees})
                                   for label, degrees in measure(trees, repeats).items()})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
