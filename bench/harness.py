"""What the bench/ scripts share: child processes, source trees and run records.

Each script runs a child program with the ``knotcocycle`` package of one
or more source trees and stores each tree's run under a label in a
BENCH_*.json at the repository root.  A child runs in its tree, with the
tree's ``src`` first on its path and no ``KNOT_COCYCLE_FIXTURES`` (as in
``perfbench/run.py``), so it reads only what its command line names.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
from pathlib import Path
from statistics import median, quantiles

REPO = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300.0


def git(tree: Path, *args) -> str | None:
    """Stripped stdout of ``git -C tree ARGS``, or None when git fails."""
    try:
        proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(tree: Path, cmd: list[str], timeout: float = TIMEOUT_S, **env: str) -> bytes:
    """The stdout of ``cmd`` run in ``tree`` with its package, plus ``env``.

    Raises ``subprocess.TimeoutExpired`` after ``timeout`` seconds, and
    ``RuntimeError`` naming the command (its arguments, without the text
    of a ``-c`` program) and showing its stderr when it exits non-zero.
    """
    child_env = {k: v for k, v in os.environ.items()
                 if k not in ("KNOT_COCYCLE_FIXTURES", "PYTHONPATH")}
    child_env.update(PYTHONPATH=str(tree / "src"), **env)
    proc = subprocess.run(cmd, capture_output=True, env=child_env, cwd=tree, timeout=timeout)
    if proc.returncode != 0:
        name = " ".join(arg for arg in cmd if "\n" not in arg)
        raise RuntimeError(f"{name} failed in {tree}:\n{proc.stderr.decode(errors='replace')}")
    return proc.stdout


def parse_trees(doc: str, repeats: int, repeats_help: str,
                argv=None) -> tuple[dict[str, Path], int]:
    """The trees by label and the repeats of ``[--src DIR --label NAME]... [--repeats N]``."""
    ap = argparse.ArgumentParser(description=doc.strip().splitlines()[0])
    ap.add_argument("--src", type=Path, action="append",
                    help="source tree to measure (repeatable; default: this repository)")
    ap.add_argument("--label", action="append",
                    help="name of the run in the output, one per --src (default: change)")
    ap.add_argument("--repeats", type=int, default=repeats, help=repeats_help)
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    srcs, labels = args.src or [REPO], args.label or ["change"]
    if len(srcs) != len(labels) or len(set(labels)) != len(labels):
        ap.error("give one distinct --label per --src")
    return {label: src.resolve() for label, src in zip(labels, srcs)}, args.repeats


def turn(trees: dict, i: int) -> list:
    """The (label, tree) pairs in the order of round ``i`` from 0.

    The first tree leads in even rounds and the last in odd ones, so
    drift on the machine falls on all of them alike.
    """
    items = list(trees.items())
    return items if i % 2 == 0 else items[::-1]


def summary(times: list[float]) -> dict:
    """The median and quartiles of two or more times, and the times."""
    q1, _, q3 = quantiles(times, n=4)
    return {"median_s": median(times), "q1_s": q1, "q3_s": q3, "runs_s": times}


def record(out: Path, workload: str, runs: dict[str, tuple[Path, dict]]) -> None:
    """Store each (tree, fields) of ``runs`` under its label in the JSON file ``out``.

    A run records its tree's git revision and whether the tree's ``src``
    had uncommitted changes, the Python version, the machine and the
    CPUs this process may use, then ``fields``, which may replace any of
    them.  Runs under other labels stay as they are; ``workload``
    replaces the file's description of what the script measures.
    """
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["workload"] = workload
    for label, (tree, fields) in runs.items():
        doc.setdefault("runs", {})[label] = {
            "git_revision": git(tree, "rev-parse", "HEAD"),
            "uncommitted_changes": bool(git(tree, "status", "--porcelain", "--", "src")),
            "python": platform.python_version(), "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)), **fields}
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
