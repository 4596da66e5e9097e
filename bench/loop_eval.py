"""Rotation-loop evaluation time against the size of the knot.

Usage:  python3 bench/loop_eval.py [--src DIR] [--label NAME]

For the connected sums figure8^n, n = 1..5, 10, 20, 30, 40 and 50 (up to
about 200 crossings), builds the rotation loop and times
``evaluate_loop(alpha31, loop)`` with the ``knotcocycle`` package of
the source tree DIR (default: this repository), each point in its own
process; DIR's ``Loop`` must have ``replay``, so an older tree is
measured with its own copy of this script.  A point that does not finish
within BUDGET_S seconds is recorded as skipped, and so are the larger
ones after it.  The run is stored under NAME in BENCH_loop_eval.json at
the repository root, next to the runs already there, with the tree's git
revision, whether its sources had uncommitted changes, the Python
version and the machine.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import harness

OUT = harness.REPO / "BENCH_loop_eval.json"
SIZES = (1, 2, 3, 4, 5, 10, 20, 30, 40, 50)
REPEATS = 3
BUDGET_S = 120.0  # per point, loop building included
WORKLOAD = ("evaluate_loop(alpha31, rot_loop(figure8^n)), n as listed in each run's points; "
            f"median of {REPEATS} runs per point")

# One point, run in a child process with argv (fixtures, n, repeats); it
# prints the point as JSON.  Each repeat replays the loop's move list with
# the checked replay of `eval-loop --loop` and evaluates the result, so its
# time is replay plus evaluation, as in the earlier records (`rot-test`
# builds its germs directly and replays nothing).
POINT = """
import json, statistics, sys, time
from knotcocycle.cocycles import Loop, alpha31, evaluate_loop, rot_loop
from knotcocycle.morse import FIXTURE_MORSE, connected_sum
fixtures, n, repeats = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
events = connected_sum(*[FIXTURE_MORSE["figure8"]] * n)
alpha = alpha31(fixtures)
loop = rot_loop(events)
initial, moves = loop.initial, loop.moves
times = []
for _ in range(repeats):
    t = time.perf_counter()
    value = evaluate_loop(alpha, Loop.replay(initial, moves))
    times.append(time.perf_counter() - t)
print(json.dumps({"n": n, "moves": len(moves),
                  "r3_moves": sum(1 for m in moves if m.kind == "R3"),
                  "max_loop_degree": max(g.g1.degree for g in loop.germs),
                  "value": str(value), "evaluate_loop_s": statistics.median(times),
                  "repeats": repeats}))
"""


def measure(src: Path) -> list[dict]:
    points = []
    for n in SIZES:
        if points and "skipped" in points[-1]:
            points.append({"n": n, "skipped": f"figure8^{n - 1} exceeded the budget"})
            continue
        cmd = [sys.executable, "-c", POINT, str(src / "fixtures"), str(n), str(REPEATS)]
        try:
            points.append(json.loads(harness.run(src, cmd, BUDGET_S)))
        except subprocess.TimeoutExpired:
            points.append({"n": n, "skipped": f"over the {BUDGET_S:g} s budget"})
            continue
        print(json.dumps(points[-1]), file=sys.stderr)
    return points


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--src", type=Path, default=harness.REPO, help="source tree to measure")
    ap.add_argument("--label", default="change", help="name of the run in the output")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    harness.record(OUT, WORKLOAD, {args.label: (src, {"budget_s": BUDGET_S,
                                                      "points": measure(src)})})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
