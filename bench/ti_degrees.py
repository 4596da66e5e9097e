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
  canonicalisations    the ``Germ.canonical`` calls on a germ with no
                       normal form yet, from one more process with a
                       counting wrapper
  table_entries        the normal forms stored in ``germs._PLACEMENTS``
                       after that n, from the same process

With several trees the trees take turns, the first tree leading in odd
rounds and the last in even ones.  Each tree's run is stored under its
NAME in BENCH_ti.json at the repository root, next to the runs already
there, with the tree's git revision, whether its sources had
uncommitted changes, the Python version and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OUT = REPO / "BENCH_ti.json"
SIZES = (1, 2, 4, 8, 12)
DEGREES = (3, 4)
REPEATS = 3
TIMEOUT_S = 600.0

# One degree over every n, run in a child process with argv (fixtures,
# degree, count); it prints one JSON object per n.  With count "1" the
# canonicalisations are counted and nothing is timed.
POINTS = """
import json, sys, time
from knotcocycle import fixtures_io as fio, germs
from knotcocycle.cocycles import rot_loop
from knotcocycle.morse import connected_sum
fixtures, degree, count = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
sizes = [int(n) for n in sys.argv[4:]]
figure8 = fio.load_morse(fio.resolve_fixtures(fixtures), "figure8")
loops = {n: [g for g in rot_loop(connected_sum(*[figure8] * n)).germs if g.kind == "R3"]
         for n in sizes}
fresh = [0]
if count:
    canonical = germs.Germ.canonical
    def counting(self):
        fresh[0] += self._canon is None
        return canonical(self)
    germs.Germ.canonical = counting
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


def _git(src: Path, *args) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(src), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _points(src: Path, degree: int, count: bool) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    cmd = [sys.executable, "-c", POINTS, str(src / "fixtures"), str(degree),
           "1" if count else "0", *map(str, SIZES)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=src,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"degree {degree} failed:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def measure(trees: dict[str, Path], repeats: int) -> dict[str, dict]:
    """Per label and degree, the points with their timed runs and counts."""
    times = {label: {d: {n: [] for n in SIZES} for d in DEGREES} for label in trees}
    for i in range(repeats):
        order = list(trees.items())[::-1 if i % 2 else 1]
        for d in DEGREES:
            for label, src in order:
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
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--src", type=Path, action="append",
                    help="source tree to measure (repeatable; default: this repository)")
    ap.add_argument("--label", action="append",
                    help="name of the run in the output, one per --src (default: change)")
    ap.add_argument("--repeats", type=int, default=REPEATS,
                    help="timed processes per degree (the median is recorded)")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    srcs, labels = args.src or [REPO], args.label or ["change"]
    if len(srcs) != len(labels) or len(set(labels)) != len(labels):
        ap.error("give one distinct --label per --src")

    trees = {label: src.resolve() for label, src in zip(labels, srcs)}
    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc["workload"] = ("germs.ti(g, {d}) over the R3 germs of rot figure8^n, d = 3 and 4, "
                       f"n = {', '.join(map(str, SIZES))} in one process per degree; "
                       f"median of {args.repeats} processes, counts from one more")
    for label, degrees in measure(trees, args.repeats).items():
        src = trees[label]
        doc.setdefault("runs", {})[label] = {
            "git_revision": _git(src, "rev-parse", "HEAD"),
            "uncommitted_changes": bool(_git(src, "status", "--porcelain", "--", "src")),
            "python": platform.python_version(), "machine": platform.machine(),
            "nproc": os.cpu_count(), "repeats": args.repeats, **degrees}
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
