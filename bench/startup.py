"""Cold start of the command line: this tree against another, in alternating pairs.

Usage:  python3 bench/startup.py --parent DIR [--pairs N] [--label NAME]

Times fresh ``python -m knotcocycle`` processes for ``--help``,
``rot-test --knot figure8``, ``stokes-check --trials 0`` and ``solve``,
with the package of this repository ("change") and of the source tree
DIR ("parent", for example a ``git archive`` of the parent commit).  Each
of the N pairs (default 15) runs both sides back to back, alternating
which goes first, and checks that they print the same bytes.

Two modes are measured.  In "source" every process compiles the
package's modules, as under ``PYTHONDONTWRITEBYTECODE=1`` with no
``__pycache__``; in "bytecode" both packages are compiled first with
``compileall``.  The script deletes ``src/knotcocycle/__pycache__`` in
both trees before and after.  It also records, for each command and side,
the ``knotcocycle`` modules the process loads and whether it loads
``dataclasses``.  The run is stored under NAME in BENCH_startup.json at
the repository root, with each side's median and quartiles, the number of
pairs the change won, the trees' git revisions and the machine.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import sys
import time
from pathlib import Path

import harness

REPO = harness.REPO
OUT = REPO / "BENCH_startup.json"
COMMANDS = {
    "help": ["--help"],
    "rot-test": ["rot-test", "--knot", "figure8"],
    "stokes-check": ["stokes-check", "--trials", "0"],
    "solve": ["solve"],
}
MODES = ("source", "bytecode")
# A fixed hash seed for both sides; no process writes bytecode, so "source"
# compiles every module and "bytecode" reads only what compileall wrote.
ENV = {"PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
WORKLOAD = ("cold `python -m knotcocycle` processes, one per command and side, in alternating "
            "parent/change pairs; times are wall seconds of the whole process, median and "
            "quartiles over the pairs")

# The entry point of `python -m knotcocycle`, run in a child that prints,
# as its last line, the package modules and whether dataclasses was loaded.
IMPORTS = """
import json, sys
from knotcocycle.__main__ import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print(json.dumps({"modules": sorted(m for m in sys.modules if m.split(".")[0] == "knotcocycle"),
                  "dataclasses": "dataclasses" in sys.modules}))
"""


def _argv(tree: Path, name: str) -> list[str]:
    args = COMMANDS[name]
    return args if name == "help" else [*args, "--fixtures", str(tree / "fixtures")]


def _run(tree: Path, name: str) -> tuple[float, bytes]:
    start = time.perf_counter()
    out = harness.run(tree, [sys.executable, "-m", "knotcocycle", *_argv(tree, name)], **ENV)
    return time.perf_counter() - start, out


def _imports(tree: Path, name: str) -> dict:
    out = harness.run(tree, [sys.executable, "-c", IMPORTS, *_argv(tree, name)], **ENV)
    return json.loads(out.splitlines()[-1])


def _clear_bytecode(trees) -> None:
    for tree in trees:
        shutil.rmtree(tree / "src" / "knotcocycle" / "__pycache__", ignore_errors=True)


def measure(sides: dict[str, Path], pairs: int) -> dict:
    out = {}
    for mode in MODES:
        _clear_bytecode(sides.values())
        if mode == "bytecode":
            for tree in sides.values():
                compileall.compile_dir(tree / "src" / "knotcocycle", quiet=1)
        times = {name: {side: [] for side in sides} for name in COMMANDS}
        for i in range(pairs):
            for name in COMMANDS:
                printed = {}
                for side, tree in harness.turn(sides, i):
                    seconds, printed[side] = _run(tree, name)
                    times[name][side].append(seconds)
                if len(set(printed.values())) != 1:
                    raise RuntimeError(f"{name}: the two trees print different bytes")
        out[mode] = {}
        for name, by_side in times.items():
            wins = sum(c < p for c, p in zip(by_side["change"], by_side["parent"]))
            parent, change = harness.summary(by_side["parent"]), harness.summary(by_side["change"])
            out[mode][name] = {
                "parent": parent, "change": change, "change_wins": wins, "pairs": pairs,
                "median_change": change["median_s"] / parent["median_s"] - 1,
                "parent_iqr_s": parent["q3_s"] - parent["q1_s"],
            }
            print(f"{mode:<8} {name:<12} parent {parent['median_s']:.4f} s  "
                  f"change {change['median_s']:.4f} s  wins {wins}/{pairs}", file=sys.stderr)
    _clear_bytecode(sides.values())
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="source tree to compare with")
    ap.add_argument("--pairs", type=int, default=15, help="alternating pairs per command")
    ap.add_argument("--label", default="change", help="name of the run in the output")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    sides = {"parent": args.parent.resolve(), "change": REPO}
    harness.record(OUT, WORKLOAD, {args.label: (REPO, {
        "git_revision": {side: harness.git(tree, "rev-parse", "HEAD")
                         for side, tree in sides.items()},
        "imports": {name: {side: _imports(tree, name) for side, tree in sides.items()}
                    for name in COMMANDS},
        "modes": measure(sides, args.pairs)})})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
