"""Benchmark of the knotcocycle command line, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {system,rot,stokes,fixturegen}
                             --seed N --seconds S --trace {0,1}

Every op is one fresh process running a user-facing entry point
(``python -m knotcocycle ...`` or ``python -m knotcocycle.fixturegen``),
started from this single driver one at a time, and every op's output is
checked exactly.  A pass runs the workload's fixed ops once; passes
repeat until S seconds have gone by (at least one pass).

--trace 0 reports the end-to-end metrics: wall_s, op_p50_s, setup_s and
peak_rss_mib.  --trace 1 alternates untraced passes with passes in which
every op runs under perfbench/traced.py, and reports the per-layer
metrics of the traced passes plus the tracing overhead.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give the environment, the
source size and every metric by name with its unit.  See
perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
WORK = ROOT / ".perfbench_work"
TRACED = Path(__file__).resolve().parent / "traced.py"
LOOPS = Path(__file__).resolve().parent / "loops.py"

SETUP_RUNS = 9
SETUP_PER_PASS = 2
STOKES_OPS = 4
STOKES_TRIALS = 400
OP_TIMEOUT_S = 150.0
RUN_BUDGET_S = 160.0

# The Casson invariant of the fixture knots; v2 is additive under
# connected sum and alpha31(rot K) = -v2(K).
V2 = {"unknot": 0, "trefoil": 1, "figure8": -1}
ROT_KNOTS = ("unknot", "trefoil", "figure8")
ROT_SUMS = ("trefoil+trefoil", "trefoil+figure8")
SOLVE_EXPECTED = {"variables": 38, "equations": 16, "rank": 16,
                  "kernel_dimension": 22, "trivial_dimension": 21,
                  "quotient_dimension": 1, "alpha31_in_kernel": True}
# sha256 of `equations` stdout; the same under every PYTHONHASHSEED.
EQUATIONS_SHA256 = "c2e83f54457d94330e309cc225b90b7c0d49b67f8e425e03e1b5b2616d71a018"

LAYERS = ("strata", "germs", "coboundary", "cocycles", "rational_linalg",
          "fixturegen", "moves", "diagrams", "quadruple", "morse", "fixtures_io")


@dataclass
class Op:
    name: str
    module: str                      # "knotcocycle" or "knotcocycle.fixturegen"
    args: list[str]
    check: Callable[[int, bytes], str | None]   # (exit code, stdout) -> error
    prepare: Callable[[], None] | None = None


@dataclass
class OpResult:
    op: Op
    seconds: float
    rss_kib: int
    error: str | None
    trace: dict | None = None


# -- correctness checks ------------------------------------------------------

def _json_out(code: int, out: bytes):
    if code != 0:
        raise ValueError(f"exit code {code}")
    return json.loads(out)


def _check(fn):
    def check(code: int, out: bytes) -> str | None:
        try:
            return fn(code, out)
        except ValueError as exc:
            return str(exc)
    return check


@_check
def check_help(code, out):
    if code != 0 or not out.startswith(b"usage: knotcocycle"):
        return f"--help: exit {code}, no usage line"
    return None


@_check
def check_solve(code, out):
    got = _json_out(code, out)
    return None if got == SOLVE_EXPECTED else f"solve printed {got}"


@_check
def check_verify(code, out):
    got = _json_out(code, out)
    want = {"passed": True, "trivial": False, "violated_equations": [],
            "kernel_dimension": 22, "trivial_dimension": 21, "quotient_dimension": 1}
    return None if got == want else f"verify printed {got}"


@_check
def check_equations(code, out):
    if code != 0:
        return f"exit code {code}"
    digest = hashlib.sha256(out).hexdigest()
    return None if digest == EQUATIONS_SHA256 else f"equations sha256 {digest}"


def check_rot_test(knot: str):
    want = f"alpha31(rot)={-V2[knot]}, v2={V2[knot]}, identity holds"

    @_check
    def check(code, out):
        got = out.decode(errors="replace").strip()
        return None if code == 0 and got == want else f"exit {code}, printed {got!r}"
    return check


def check_eval_loop(spec: str):
    want = {"value": -sum(V2[k] for k in spec.split("+"))}

    @_check
    def check(code, out):
        got = _json_out(code, out)
        return None if got == want else f"printed {got}, want {want}"
    return check


def check_stokes(trials: int):
    @_check
    def check(code, out):
        got = _json_out(code, out)
        if got.get("failures") != [] or got.get("trials") != trials:
            return f"trials {got.get('trials')}, {len(got.get('failures') or [])} failures"
        return None
    return check


def check_fixturegen(out_dir: Path):
    @_check
    def check(code, out):
        if code != 0:
            return f"exit code {code}"
        want = _tree(FIXTURES)
        got = _tree(out_dir)
        if want.keys() != got.keys():
            return f"files differ: {sorted(want.keys() ^ got.keys())}"
        diff = sorted(k for k in want if want[k] != got[k])
        return f"bytes differ in {diff}" if diff else None
    return check


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# -- workloads ---------------------------------------------------------------

def _cli(args: list[str]) -> list[str]:
    # --fixtures goes after the subcommand: a top-level one is overridden
    # by the subparser default (see README.md).
    return [*args, "--fixtures", str(FIXTURES)]


def workload_ops(name: str, rng: random.Random) -> list[Op]:
    if name == "system":
        return [Op("solve", "knotcocycle", _cli(["solve"]), check_solve),
                Op("verify", "knotcocycle", _cli(["verify"]), check_verify),
                Op("equations", "knotcocycle", _cli(["equations"]), check_equations)]
    if name == "rot":
        ops = [Op(f"rot-test:{k}", "knotcocycle", _cli(["rot-test", "--knot", k]),
                  check_rot_test(k)) for k in ROT_KNOTS]
        ops += [Op(f"eval-loop:{s}", "knotcocycle",
                   _cli(["eval-loop", "--loop", str(WORK / "loops" / f"{s}.json")]),
                   check_eval_loop(s)) for s in ROT_SUMS]
        return ops
    if name == "stokes":
        seeds = [rng.randrange(2 ** 31) for _ in range(STOKES_OPS)]
        return [Op(f"stokes-check:{s}", "knotcocycle",
                   ["stokes-check", "--trials", str(STOKES_TRIALS), "--max-degree", "4",
                    "--seed", str(s)], check_stokes(STOKES_TRIALS)) for s in seeds]
    if name == "fixturegen":
        out = WORK / "fixturegen_out"
        return [Op("fixturegen", "knotcocycle.fixturegen", ["--out", str(out)],
                   check_fixturegen(out), prepare=lambda: shutil.rmtree(out, ignore_errors=True))]
    raise ValueError(name)


WORKLOADS = ("system", "rot", "stokes", "fixturegen")


# -- running ops ---------------------------------------------------------------

class Runner:
    def __init__(self, hashseed: int, deadline: float):
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("KNOT_COCYCLE_FIXTURES", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONHASHSEED"] = str(hashseed)
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def spawn(self, cmd: list[str]) -> tuple[float, int, int, bytes]:
        """Run one child to completion: (seconds, exit code, peak RSS KiB, stdout).

        A child still running at the run's deadline is killed; past the
        deadline no child starts and the op reads as killed.
        """
        out_path, err_path = WORK / "op.out", WORK / "op.err"
        timeout = min(OP_TIMEOUT_S, self.deadline - time.monotonic())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            if timeout <= 0:
                return 0.0, -signal.SIGKILL, 0, b""
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, cwd=ROOT, env=self.env)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, proc.returncode, usage.ru_maxrss, out_path.read_bytes()

    def run(self, op: Op, trace_path: Path | None = None) -> OpResult:
        if op.prepare is not None:
            op.prepare()
        if trace_path is None:
            cmd = [sys.executable, "-m", op.module, *op.args]
        else:
            entry = "fixturegen" if op.module.endswith("fixturegen") else "cli"
            alpha = FIXTURES / "formulas" / "alpha31.json"
            cmd = [sys.executable, str(TRACED), str(trace_path), str(alpha), entry, *op.args]
            trace_path.unlink(missing_ok=True)
        seconds, code, rss, out = self.spawn(cmd)
        error = op.check(code, out)
        trace = None
        if trace_path is not None and error is None:
            try:
                trace = json.loads(trace_path.read_text())
            except (OSError, ValueError) as exc:
                error = f"no trace: {exc}"
        self.attempted += 1
        if error is not None:
            self.failed += 1
            stderr = (WORK / "op.err").read_text(errors="replace").strip().splitlines()
            self.errors.append(f"{op.name}: {error}" + (f" ({stderr[-1]})" if stderr else ""))
        return OpResult(op, seconds, rss, error, trace)

    def run_pass(self, ops: list[Op], rng: random.Random, traced: bool) -> list[OpResult]:
        order = list(ops)
        rng.shuffle(order)
        return [self.run(op, WORK / f"trace{i}.json" if traced else None)
                for i, op in enumerate(order)]


# -- metrics -----------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: the sums over its ops."""
    names: dict[str, list[float]] = {}
    edges: dict[tuple, int] = {}
    ctr: dict[str, int] = {}
    outside = 0.0
    for tr in traces:
        for n, rec in tr["names"].items():
            acc = names.setdefault(n, [0, 0.0, 0.0])
            acc[0] += rec["calls"]
            acc[1] += rec["time_s"]
            acc[2] += rec["self_s"]
        for e in tr["edges"]:
            key = (e["parent"], e["name"])
            edges[key] = edges.get(key, 0) + e["spans"]
        for n, v in tr["counters"].items():
            ctr[n] = ctr.get(n, 0) + v
        top = sum(e["time_s"] for e in tr["edges"] if e["parent"] is None)
        outside += tr["process_s"] - tr["hook_s"] - top

    def calls(n):
        return (n + "_calls", "count", names.get(n, [0])[0])

    def secs(n):
        return (n + "_s", "s", names.get(n, [0, 0.0])[1])

    def count(n):
        return (n, "count", ctr.get(n, 0))

    rows = [
        secs("strata.enumerate_cube_meridians"), count("strata.meridians_raw"),
        secs("strata.dedupe_meridians"), count("strata.meridians_kept"),
        ("strata.dedupe_keep_ratio", "ratio",
         _ratio(ctr.get("strata.meridians_kept", 0), ctr.get("strata.meridians_raw", 0))),
        secs("strata.collect_rows"), calls("strata.ti_meridian"), count("strata.rows"),
        ("strata.row_yield", "ratio",
         _ratio(ctr.get("strata.rows", 0),
                edges.get(("strata.collect_rows", "strata.ti_meridian"), 0))),
        secs("strata.variable_basis"), secs("strata.assemble_system"),
        secs("strata.classify_scenes"),
        calls("germs.ti"), secs("germs.ti"), secs("germs.subgerms"),
        count("germs.subgerm_terms"),
        ("germs.subgerms_per_r3", "count",
         _ratio(ctr.get("germs.subgerm_terms_r3", 0), ctr.get("germs.subgerms_r3_germs", 0))),
        ("germs.alpha_hit_ratio", "ratio",
         _ratio(ctr.get("germs.ti_alpha_keys", 0), ctr.get("germs.ti_keys", 0))),
        calls("germs.canonical"), secs("germs.canonical"), secs("germs.make_germ"),
        secs("germs.monotonic_reduce"),
        calls("coboundary.coboundary"), secs("coboundary.coboundary"),
        secs("coboundary.stokes_sides"),
        calls("cocycles.trivial_cocycle_vectors"), secs("cocycles.trivial_cocycle_vectors"),
        secs("cocycles.system_dimensions"), secs("cocycles.verify_cocycle"),
        secs("cocycles.evaluate_loop"), count("cocycles.r3_germs"),
        calls("rational_linalg.solve_in_span"), secs("rational_linalg.solve_in_span"),
        secs("rational_linalg.in_row_span"), secs("rational_linalg.kernel_basis"),
        calls("rational_linalg.rank"), secs("rational_linalg.rank"),
        ("rational_linalg.rref_nnz_ratio", "ratio",
         _ratio(ctr.get("rational_linalg.rref_nnz_after", 0),
                ctr.get("rational_linalg.rref_nnz_before", 0))),
        secs("fixturegen.gen_strata"), secs("fixturegen.derive_alpha31"),
        secs("fixturegen.gen_alpha31"),
        calls("moves.apply_move"), secs("moves.apply_move"),
        calls("moves.enumerate_moves"), secs("moves.enumerate_moves"),
        calls("moves.validate_r3"),
        calls("diagrams.pair"), secs("diagrams.pair"), count("diagrams.pair_permutations"),
        secs("quadruple.quadruple_meridians"), secs("morse.rot_moves"),
        ("fixtures_io.load_s", "s",
         names.get("fixtures_io.load_json", [0, 0.0])[1]
         + names.get("fixtures_io.formula_from_json", [0, 0.0])[1]),
    ]
    for layer in LAYERS:
        rows.append((f"{layer}.self_s", "s",
                     sum(v[2] for n, v in names.items() if n.split(".")[0] == layer)))
    rows.append(("trace.outside_s", "s", outside))
    return {n: (value, unit) for n, unit, value in rows}


# -- environment ---------------------------------------------------------------

def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_info() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for p in files:
        data = p.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(p.relative_to(SRC)).encode() + b"\0" + data)
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


# -- driver --------------------------------------------------------------------

def op_seconds(passes: list[list[OpResult]], ops: list[Op]) -> list[float]:
    """Each op's median time over the run's passes."""
    return [median([r.seconds for p in passes for r in p if r.op is op]) for op in ops]


def measure(args, runner: Runner, rng: random.Random) -> tuple[dict, dict]:
    """Run the passes; returns (metrics, info)."""
    ops = workload_ops(args.workload, rng)
    info: dict = {"ops_per_pass": len(ops)}
    metrics: dict = {}
    if not args.trace:
        # Set-up samples are spread over the run, so that one slow
        # stretch of the machine does not set them all.
        setup: list[float] = []
        help_op = Op("help", "knotcocycle", ["--help"], check_help)

        def sample_setup(n: int) -> None:
            setup.extend(runner.run(help_op).seconds for _ in range(n))

        passes = run_passes(args, runner, ops, rng, [False],
                            before=lambda: sample_setup(SETUP_PER_PASS))
        sample_setup(max(0, SETUP_RUNS - len(setup)))
        per_op = op_seconds(passes, ops)
        metrics["wall_s"] = (sum(per_op), "s")
        metrics["op_p50_s"] = (median(per_op), "s")
        metrics["setup_s"] = (median(setup), "s")
        metrics["peak_rss_mib"] = (median([max(r.rss_kib for r in p)
                                           for p in passes]) / 1024, "MiB")
        info["passes"] = len(passes)
        info["setup_runs"] = len(setup)
        return metrics, info

    passes = run_passes(args, runner, ops, rng, [False, True])
    plain = passes[0::2]
    traced = passes[1::2]
    per_pass = [layer_metrics([r.trace for r in p if r.trace is not None]) for p in traced]
    for name, (_, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if unit == "count" and len(set(values)) != 1:
            runner.errors.append(f"count {name} differs between traced passes: {values}")
        metrics[name] = (median(values), unit)
    traced_wall = sum(op_seconds(traced, ops))
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - sum(op_seconds(plain, ops)), "s")
    info["passes"] = len(plain)
    info["traced_passes"] = len(traced)
    return metrics, info


def run_passes(args, runner: Runner, ops: list[Op], rng: random.Random,
               traced: list[bool], before: Callable[[], None] | None = None
               ) -> list[list[OpResult]]:
    """Cycles of passes, one per traced flag, until --seconds are used.

    Always completes one cycle.  Another cycle starts only when it is
    expected to end less than half a cycle after --seconds, and well
    inside the run budget, so a run lasts about --seconds whatever the
    speed of the machine.
    """
    passes: list[list[OpResult]] = []
    start = time.monotonic()
    cycle = 0.0
    while True:
        t0 = time.monotonic()
        for flag in traced:
            if before is not None:
                before()
            passes.append(runner.run_pass(ops, rng, flag))
        now = time.monotonic()
        cycle = max(cycle, now - t0)
        if now - start + cycle / 2 > args.seconds or now + 1.5 * cycle > runner.deadline:
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an error, so the running child is stopped and
    # the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (SRC / "knotcocycle" / "__init__.py").is_file() or not FIXTURES.is_dir():
        print(f"error: no knotcocycle sources or fixtures under {ROOT}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    hashseed = rng.randrange(2 ** 32)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    runner = Runner(hashseed, deadline)
    try:
        # Compile bytecode and make the loop files; neither is timed.
        _, code, _, _ = runner.spawn([sys.executable, "-c",
                                      "import knotcocycle.cli, knotcocycle.fixturegen"])
        if code != 0:
            print("error: the knotcocycle package does not import", file=sys.stderr)
            return 2
        if args.workload == "rot":
            _, code, _, _ = runner.spawn([sys.executable, str(LOOPS), str(FIXTURES),
                                          str(WORK / "loops"), *ROT_SUMS])
            if code != 0:
                print("error: cannot write the rotation loop files", file=sys.stderr)
                return 2
        metrics, info = measure(args, runner, rng)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    env = {"git_revision": git_revision(), "python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)), "seed": args.seed,
           "pythonhashseed": hashseed, "workload": args.workload, "trace": args.trace}
    info.update(source_info())
    info["fail_frac"] = runner.failed / runner.attempted
    print(json.dumps({"env": env, "info": info}, sort_keys=True))
    for err in runner.errors:
        print(f"FAILED {err}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6f} {unit}")
    print(f"{'fail_frac':<44} {info['fail_frac']:>14.6f} ratio")
    correct = not runner.errors
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
