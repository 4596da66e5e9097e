"""Command-line front end for batch runs and reproduction.

Subcommands: pair, coboundary, stokes-check, equations, solve, verify,
eval-loop, rot-test, invariants.  Results are printed as JSON by default
or as aligned text with --format text; identical invocations produce
byte-identical output.  The common options --fixtures and --format may
be given before or after the subcommand; when given in both places the
one after it wins.  --seed is an option of stokes-check, the only
randomized command.  Exit status: 0 on success, 1 on verification
failure, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

# Each command imports the layers it runs, so that a process loads no
# other: --help loads none, rot-test and eval-loop no strata or linear
# algebra, stokes-check no cocycles.
TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from .cocycles import Loop
    from .diagrams import FormalSum


# pair walks at most the P(n_g, n_a) assignments of Gauss arrows to arrows.
PAIR_ASSIGNMENT_CAP = 10**7


def _read_json(path: str, parse, what: str):
    from . import fixtures_io as fio
    return fio.read(path, lambda text: parse(json.loads(text)), what)


def _load_diagram(path: str):
    from . import fixtures_io as fio
    from .diagrams import parse_diagram
    if path.endswith(".json"):
        return _read_json(path, fio.diagram_from_json, "diagram file")
    return fio.read(path, parse_diagram, "diagram file")


def _frac(x):
    return str(x) if x.denominator != 1 else int(x)


def _emit(obj, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, indent=1, sort_keys=True, default=str))
    else:
        _emit_text(obj)


def _emit_text(obj, indent="") -> None:
    if isinstance(obj, dict):
        width = max((len(str(k)) for k in obj), default=0)
        for k in sorted(obj, key=str):
            v = obj[k]
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _emit_text(v, indent + "  ")
            else:
                print(f"{indent}{str(k):<{width}}  {v}")
    elif isinstance(obj, list):
        for v in obj:
            _emit_text(v, indent)
    else:
        print(f"{indent}{obj}")


def cmd_pair(args) -> int:
    import math
    from .diagrams import GaussDiagram, pair
    from .fixtures_io import InputError
    a = _load_diagram(args.arrow)
    g = _load_diagram(args.gauss)
    if isinstance(a, GaussDiagram) or not isinstance(g, GaussDiagram):
        raise InputError("pair expects an arrow diagram and a Gauss diagram")
    count = math.perm(g.degree, a.degree)
    if count > PAIR_ASSIGNMENT_CAP:
        raise InputError(f"pair walks at most {count:,} assignments of arrows; "
                         f"the cap is {PAIR_ASSIGNMENT_CAP:,}")
    print(_frac(pair(a, g)))
    return 0


def cmd_coboundary(args) -> int:
    from . import fixtures_io as fio
    from .coboundary import coboundary
    from .diagrams import GaussDiagram
    d = _load_diagram(args.diagram)
    if isinstance(d, GaussDiagram):
        raise fio.InputError("the coboundary acts on arrow diagrams (no signs)")
    component = {"R1": "I", "R2": "II", "R3": "Delta", "P": "Lambda"}
    out = {name: [] for name in component.values()}
    for g, c in sorted(coboundary(d).items(), key=lambda kv: kv[0].key()):
        out[component[g.kind]].append({"coeff": _frac(c), "germ": fio.germ_to_json(g)})
    _emit(out, args.format)
    return 0


def cmd_stokes_check(args) -> int:
    import random
    from . import fixtures_io as fio
    from .coboundary import stokes_sides
    from .germs import make_germ
    from .moves import random_arrow_diagram, random_gauss_diagram, random_move
    if args.trials < 0:
        raise fio.InputError(f"--trials must be at least 0, got {args.trials}")
    if args.max_degree < 0:
        raise fio.InputError(f"--max-degree must be at least 0, got {args.max_degree}")
    if args.max_degree > 8:
        raise fio.InputError("degree cap is 8; a trial's pairings walk up to P(n, k) "
                             "embeddings of k arrows into n, a count that grows factorially "
                             "with the degree")
    rng = random.Random(args.seed)
    failures = []
    done = 0
    while done < args.trials:
        a = random_arrow_diagram(rng, args.max_degree)
        g = random_gauss_diagram(rng, args.max_degree)
        move = random_move(rng, g)
        if move is None:
            continue
        lhs, rhs = stokes_sides(a, make_germ(g, move))
        if lhs != rhs:
            failures.append({"arrow": fio.diagram_to_json(a),
                             "gauss": fio.diagram_to_json(g),
                             "lhs": str(lhs), "rhs": str(rhs)})
        done += 1
    _emit({"trials": done, "failures": failures, "max_degree": args.max_degree},
          args.format)
    return 1 if failures else 0


def cmd_equations(args) -> int:
    from pathlib import Path
    from .cocycles import assemble_default_system
    from .fixtures_io import InputError
    system = assemble_default_system(args.bystanders)
    mat = system.matrix()
    triplets = [[r, c, f"{v.numerator}/{v.denominator}"]
                for r, c, v in mat.triplets()]
    out = {
        "degree": system.degree,
        "variables": len(system.variables),
        "rows": len(system.rows),
        "rank": system.rank(),
        "triplets": triplets,
    }
    if args.matrix_out:
        try:
            Path(args.matrix_out).write_text(
                "\n".join(f"{r} {c} {v.numerator}/{v.denominator}"
                          for r, c, v in mat.triplets()) + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.matrix_out}: {exc}") from exc
        out["matrix_out"] = args.matrix_out
    _emit(out, args.format)
    return 0


def cmd_solve(args) -> int:
    from .cocycles import alpha31, assemble_default_system, system_dimensions
    from .strata import restrict_to_variables
    a = alpha31(args.fixtures)
    system = assemble_default_system(args.bystanders)
    kdim, tdim, qdim = system_dimensions(system)
    vec = restrict_to_variables(a, system.var_index)
    in_kernel = all(s == 0 for s in system.matrix().multiply_vector(vec))
    _emit({
        "variables": len(system.variables),
        "equations": len(system.rows),
        "rank": len(system.variables) - kdim,
        "kernel_dimension": kdim,
        "trivial_dimension": tdim,
        "quotient_dimension": qdim,
        "alpha31_in_kernel": in_kernel,
    }, args.format)
    return 0


def _load_formula(args) -> FormalSum:
    from . import fixtures_io as fio
    from .cocycles import alpha31
    if args.formula == "alpha31":
        return alpha31(args.fixtures)
    return _read_json(args.formula, fio.formula_from_json, "formula file")


def cmd_verify(args) -> int:
    from .cocycles import verify_cocycle
    a = _load_formula(args)
    report = verify_cocycle(a)
    _emit({
        "violated_equations": report.violated,
        "passed": report.passed,
        "trivial": report.trivial,
        "kernel_dimension": report.kernel_dim,
        "trivial_dimension": report.trivial_dim,
        "quotient_dimension": report.quotient_dim,
    }, args.format)
    return 0 if report.passed else 1


def _loop_from_json(obj) -> Loop:
    from . import fixtures_io as fio
    from .cocycles import Loop
    from .germs import check_closed
    loop = Loop.replay(*fio.loop_from_json(obj))  # an inapplicable move is a ValueError
    check_closed(loop.germs)  # and so is an open loop
    return loop


def cmd_eval_loop(args) -> int:
    from .cocycles import evaluate_loop
    a = _load_formula(args)
    loop = _read_json(args.loop, _loop_from_json, "loop file")
    value = evaluate_loop(a, loop)
    _emit({"value": _frac(value)}, args.format)
    return 0


def cmd_invariants(args) -> int:
    """Basis of Ker d over arrow diagrams up to the given degree."""
    from .coboundary import coboundary, deaths
    from .diagrams import format_diagram
    from .fixtures_io import InputError
    from .germs import enumerate_arrow_diagrams
    from .rational_linalg import SparseMatrix, kernel_basis
    if args.max_degree < 0:
        raise InputError(f"--max-degree must be at least 0, got {args.max_degree}")
    if args.max_degree > 4:
        raise InputError("degree cap is 4; degree 5 needs dA of its 6,174 diagrams without a "
                         "death, of 30,240, and the exact kernel of that matrix")
    diagrams = [a for deg in range(args.max_degree + 1) for a in enumerate_arrow_diagrams(deg)]
    # A death's germ is a +1 term of dA and of no other dB, so kernel vectors are 0 on A.
    kept = [a for a in diagrams if not deaths(a)]
    rows: dict = {}  # d maps the diagram space into the germ space: one row per germ key
    for i, a in enumerate(kept):
        for germ, c in coboundary(a).items():
            rows.setdefault(germ.key(), {})[i] = c
    basis = kernel_basis(SparseMatrix(len(rows), len(kept), list(rows.values())))
    out = {
        "max_degree": args.max_degree,
        "diagrams": len(diagrams),
        "kernel_dimension": len(basis),
        "formulas": [
            sorted(f"{_frac(c)} * [{format_diagram(kept[i])}]" for i, c in vec.items())
            for vec in basis
        ],
    }
    _emit(out, args.format)
    return 0


def cmd_rot_test(args) -> int:
    from .cocycles import alpha31, evaluate_loop, rot_loop, v2
    from .diagrams import GaussDiagram
    from .fixtures_io import InputError
    from .morse import FIXTURE_MORSE
    knot = args.knot
    if knot not in FIXTURE_MORSE:  # then a diagram file, JSON or text
        knot = _load_diagram(knot)
        if not isinstance(knot, GaussDiagram):
            raise InputError("the rotation identity needs a Gauss diagram (with signs)")
    loop = rot_loop(knot)
    k = loop.initial
    a = alpha31(args.fixtures)
    val = evaluate_loop(a, loop)
    casson = v2(k.canonical(), args.fixtures)
    holds = val == -casson
    print(f"alpha31(rot)={_frac(val)}, v2={_frac(casson)}, "
          f"identity {'holds' if holds else 'FAILS'}")
    return 0 if holds else 1


def main(argv=None) -> int:
    # SUPPRESS keeps a subparser from overwriting a value given before the
    # subcommand with its own default; the real defaults are set below.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--fixtures", default=argparse.SUPPRESS,
                        help="fixture directory (default: $KNOT_COCYCLE_FIXTURES or ./fixtures)")
    common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS,
                        help="output format (default: json)")
    ap = argparse.ArgumentParser(prog="knotcocycle", description=__doc__,
                                 parents=[common])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pair", parents=[common], help="Polyak-Viro pairing of an arrow and a Gauss diagram")
    p.add_argument("--arrow", required=True)
    p.add_argument("--gauss", required=True)
    p.set_defaults(fn=cmd_pair)

    p = sub.add_parser("coboundary", parents=[common], help="the four components of dA")
    p.add_argument("--diagram", required=True)
    p.set_defaults(fn=cmd_coboundary)

    p = sub.add_parser("stokes-check", parents=[common], help="randomized Stokes formula suite")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--seed", type=int, default=0, help="seed of the random suite")
    p.set_defaults(fn=cmd_stokes_check)

    p = sub.add_parser("equations", parents=[common], help="assemble and export the degree-3 system")
    p.add_argument("--bystanders", action="store_true")
    p.add_argument("--matrix-out", default=None,
                   help="write the plain-text 'row col num/den' matrix here")
    p.set_defaults(fn=cmd_equations)

    p = sub.add_parser("solve", parents=[common], help="kernel and quotient dimensions of the system")
    p.add_argument("--bystanders", action="store_true")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", parents=[common], help="check a formula against all meridian equations")
    p.add_argument("--formula", default="alpha31")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("eval-loop", parents=[common], help="evaluate a formula on a loop file")
    p.add_argument("--formula", default="alpha31")
    p.add_argument("--loop", required=True)
    p.set_defaults(fn=cmd_eval_loop)

    p = sub.add_parser("rot-test", parents=[common], help="the rotation identity on a fixture knot")
    p.add_argument("--knot", required=True)
    p.set_defaults(fn=cmd_rot_test)

    p = sub.add_parser("invariants", parents=[common],
                       help="basis of the arrow diagram formulas up to a degree")
    p.add_argument("--max-degree", type=int, default=2)
    p.set_defaults(fn=cmd_invariants)

    args = ap.parse_args(argv, argparse.Namespace(fixtures=None, format="json"))
    from .fixtures_io import InputError
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
