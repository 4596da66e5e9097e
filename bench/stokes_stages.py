"""Stage times and work counts of `python -m knotcocycle stokes-check`.

Usage:  python3 bench/stokes_stages.py [--src DIR --label NAME]... [--repeats N]

Runs the Stokes check, 400 trials at --max-degree 4, on each of the
seeds 1, 2, 3 and 12345 with the ``knotcocycle`` package of each source
tree DIR (default: this repository), every seed in its own process as
the CLI runs it.  A child replays the CLI's trial loop, drawing what it
draws in the same order, and times its two stages:

  generation    draw A, draw the Gauss diagram, draw the move, make the germ gamma
  stokes_sides  both sides of the Stokes formula, as the CLI computes them
  total         a cold `python -m knotcocycle stokes-check` process

A stage's time is the sum over the four seeds, and each is the median
of N such sums (default 5).  The trees take turns on every seed, the
first tree leading in odd rounds and the last in even ones, so drift on
the machine falls on all of them alike.  One more process per seed and
tree runs the loop under a ``sys.setprofile`` hook that counts calls of
Python code, summed over the seeds:

  dA_I, dA_II            components I and II of some dA computed: calls
                         from coboundary.py of moves.enumerate_moves for
                         R1 and for R2 deaths
  dA_Delta, dA_Lambda    components Delta and Lambda computed: calls
                         from coboundary.py of moves.r3_moves and of
                         moves.split_gaps
  gamma_R1, gamma_R2,    the germs gamma drawn, by kind
  gamma_R3
  pair_calls             calls of diagrams.pair
  pair_assignments       P(n_g, n_a) summed over the pair calls with
                         n_a <= n_g: the ordered assignments of Gauss
                         arrows to arrows that trying each one visits
  pair_walk_nodes        calls of the walk inside diagrams.pair, one per
                         node of its tree of partial embeddings (0 in a
                         tree whose pair has no walk)
  enumerate_moves_calls  calls of moves.enumerate_moves
  apply_move_calls       calls of moves.apply_move: the steps the random walk
                         takes, and the germs gamma made
  germ_canonical_calls   calls of Germ.canonical

Each tree's run is stored under its NAME in BENCH_stokes.json at the
repository root, next to the runs already there, with the tree's git
revision, whether its sources had uncommitted changes, the Python
version and the machine.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import harness

OUT = harness.REPO / "BENCH_stokes.json"
SEEDS = (1, 2, 3, 12345)
TRIALS = 400
MAX_DEGREE = 4
REPEATS = 5
WORKLOAD = (f"stokes-check --trials {TRIALS} --max-degree {MAX_DEGREE} on seeds "
            f"{', '.join(map(str, SEEDS))}, one process per seed; stage times summed over the "
            "seeds, median of each run's `repeats` such sums; counts summed over one run per seed")

# The trial loop of cmd_stokes_check; argv (mode, seed, trials, max
# degree).  Mode "time" prints the seconds of each stage, mode "count"
# the calls counted by a profile hook and the kinds of gamma drawn.
LOOP = """
import json, math, os, random, sys, time
from knotcocycle.coboundary import stokes_sides
from knotcocycle.germs import make_germ
from knotcocycle.moves import random_arrow_diagram, random_gauss_diagram, random_move
mode = sys.argv[1]
seed, trials, max_degree = map(int, sys.argv[2:])
clock = time.perf_counter
spent = dict.fromkeys(("generation", "stokes_sides"), 0.0)
counts = dict.fromkeys(("dA_I", "dA_II", "dA_Delta", "dA_Lambda", "gamma_R1", "gamma_R2",
                        "gamma_R3", "pair_calls", "pair_assignments", "pair_walk_nodes",
                        "enumerate_moves_calls", "apply_move_calls", "germ_canonical_calls"), 0)
TARGETS = {("diagrams.py", "pair"): "pair_calls", ("diagrams.py", "walk"): "pair_walk_nodes",
           ("moves.py", "enumerate_moves"): "enumerate_moves_calls",
           ("moves.py", "apply_move"): "apply_move_calls",
           ("moves.py", "r3_moves"): "dA_Delta", ("moves.py", "split_gaps"): "dA_Lambda",
           ("germs.py", "canonical"): "germ_canonical_calls"}
DEATHS = {"R1_death": "dA_I", "R2_death": "dA_II"}

def hook(frame, event, _arg):
    if event != "call":
        return
    code = frame.f_code
    name = TARGETS.get((os.path.basename(code.co_filename), code.co_name))
    if name is None:
        return
    from_d = os.path.basename(frame.f_back.f_code.co_filename) == "coboundary.py"
    if name.startswith("dA_"):
        counts[name] += from_d
        return
    counts[name] += 1
    if name == "enumerate_moves_calls" and from_d:
        counts[DEATHS[frame.f_locals["kind"]]] += 1
    if name == "pair_calls":
        a, g = frame.f_locals["a"], frame.f_locals["g"]
        if a.degree <= g.degree:
            counts["pair_assignments"] += math.perm(g.degree, a.degree)

if mode == "count":
    sys.setprofile(hook)
rng = random.Random(seed)
done = 0
while done < trials:
    t0 = clock()
    a = random_arrow_diagram(rng, max_degree)
    g = random_gauss_diagram(rng, max_degree)
    move = random_move(rng, g)
    if move is None:
        spent["generation"] += clock() - t0
        continue
    gamma = make_germ(g, move)
    t1 = clock()
    lhs, rhs = stokes_sides(a, gamma)
    t2 = clock()
    if lhs != rhs:
        raise SystemExit(f"Stokes formula fails on trial {done}: {lhs} != {rhs}")
    spent["generation"] += t1 - t0
    spent["stokes_sides"] += t2 - t1
    counts["gamma_" + gamma.kind] += 1
    done += 1
sys.setprofile(None)
print(json.dumps(spent if mode == "time" else counts))
"""
STAGES = ("generation", "stokes_sides")


def _loop(src: Path, mode: str, seed: int) -> dict:
    return json.loads(harness.run(src, [sys.executable, "-c", LOOP, mode, str(seed),
                                        str(TRIALS), str(MAX_DEGREE)]))


def _total(src: Path, seed: int) -> float:
    """Seconds of one cold stokes-check process."""
    t = time.perf_counter()
    harness.run(src, [sys.executable, "-m", "knotcocycle", "stokes-check", "--trials",
                      str(TRIALS), "--max-degree", str(MAX_DEGREE), "--seed", str(seed)])
    return time.perf_counter() - t


def measure(trees: dict[str, Path], repeats: int) -> dict[str, tuple[dict, dict]]:
    """(stages, counts) per label; the trees take turns on every seed."""
    names = (*STAGES, "total")
    times = {label: {name: [] for name in names} for label in trees}
    for i in range(repeats):
        sums = {label: dict.fromkeys(names, 0.0) for label in trees}
        for seed in SEEDS:
            for label, src in harness.turn(trees, i):
                for name, s in _loop(src, "time", seed).items():
                    sums[label][name] += s
                sums[label]["total"] += _total(src, seed)
        for label in trees:
            for name in names:
                times[label][name].append(sums[label][name])
    out = {}
    for label, src in trees.items():
        counts = {}
        for seed in SEEDS:
            for name, n in _loop(src, "count", seed).items():
                counts[name] = counts.get(name, 0) + n
        stages = {name: {"median_s": statistics.median(ts), "runs_s": ts}
                  for name, ts in times[label].items()}
        for name, rec in stages.items():
            print(f"{label:12s} {name:16s} {rec['median_s']:.3f} s", file=sys.stderr)
        print(label, json.dumps(counts), file=sys.stderr)
        out[label] = stages, counts
    return out


def main(argv=None) -> int:
    trees, repeats = harness.parse_trees(
        __doc__, REPEATS, "processes per seed and stage (the median sum is recorded)", argv)
    harness.record(OUT, WORKLOAD, {
        label: (trees[label], {"repeats": repeats, "stages": stages, "counts": counts})
        for label, (stages, counts) in measure(trees, repeats).items()})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
