"""Generate every fixture from first principles.

The fixtures are frozen outputs of this module: knot diagrams traced
from Morse presentations, the v2 arrow diagram validated against the
trefoil and figure-eight values, the degree-2 triangle relators, the
six cube scenes with their expected equations, the two tetrahedron
equations extracted from the quadruple-point movie, and the formula
alpha31 selected from the solution space of the degree-3 system, to
which the scan of the quadruple meridians passes the tetrahedron pair,
checked against ``quadruple.tetrahedron_meridians``; no strata fixture
is read back.  Span questions are answered by normal forms: the cube
rows and the trivial cocycles are each eliminated once, and every
candidate row is reduced against that echelon form.

Run as  python -m knotcocycle.fixturegen [--out DIR]  to refresh them;
the test suite regenerates them all and compares byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .diagrams import ArrowDiagram, FormalSum, format_diagram, pair
from .germs import (KIND_R3, enumerate_arrow_diagrams, enumerate_partial_germs,
                    monotonic_partners, ti)
from .coboundary import coboundary
from .cocycles import evaluate_loop, rot_loop, trivial_variable_vectors
from .morse import FIXTURE_MORSE, trace
from .quadruple import quadruple_meridians, tetrahedron_meridians
from .rational_linalg import (SparseMatrix, kernel_basis, primitive, reduce_primitive, residual,
                              rref, solve_in_span)
from .strata import (System, assemble_system, classify_scenes, enumerate_cube_meridians,
                     meridian_equation, meridian_key, row_of_meridian, variable_basis)
from . import fixtures_io as fio

# The Casson invariant v2 of the fixture knots.
V2 = {"unknot": 0, "trefoil": 1, "figure8": -1}


def gen_knots(out: Path) -> dict:
    knots = {}
    for name, events in FIXTURE_MORSE.items():
        d = trace(events).diagram.canonical()
        obj = fio.diagram_to_json(d)
        obj["name"] = name
        obj["text"] = format_diagram(d)
        fio.save_json(out / "knots" / f"{name}.json", obj)
        knots[name] = d
    return knots


def gen_rot_template(out: Path) -> None:
    obj = {
        "description": (
            "Morse column events of the fixture knots; the rotation loop "
            "is compiled by sweeping a riser across the columns twice, "
            "first under all wires then over them (cup: R2 birth, cap: "
            "R2 death, crossing: one R3), with curl births at the ends."),
        "knots": {name: [list(ev) for ev in events]
                  for name, events in FIXTURE_MORSE.items()},
    }
    fio.save_json(out / "loops" / "rot_template.json", obj)


def derive_v2_diagram(knots) -> ArrowDiagram:
    """The two-arrow diagram giving v2 = 1, -1, 0 on the fixtures.

    Degree-2 candidates are screened against the known Casson values and
    must be arrow diagram formulas (zero coboundary, hence R-move
    invariant).  Two single-diagram formulas survive, as the invariant
    has more than one two-arrow presentation; the canonically smallest
    is frozen.
    """
    winners = []
    for cand in enumerate_arrow_diagrams(2):
        if all(pair(cand, knots[name]) == v for name, v in V2.items()) \
                and not coboundary(cand):
            winners.append(cand)
    if not winners:
        raise RuntimeError("v2 screening found no candidate")
    return min(winners, key=lambda d: d.canonical_key())


def gen_v2(out: Path, knots) -> ArrowDiagram:
    d = derive_v2_diagram(knots)
    obj = fio.diagram_to_json(d)
    obj["values"] = V2
    fio.save_json(out / "formulas" / "v2_diagram.json", obj)
    return d


@functools.cache
def _fixture_loop(name: str):
    """The rotation loop of a fixture knot, built once per process; callers must not mutate it."""
    return rot_loop(name)


def gen_seed_r3(out: Path) -> None:
    """A planar-certified R3 move: the first bottom move of rot(trefoil)."""
    loop = _fixture_loop("trefoil")
    germ = next(g for g, tag in zip(loop.germs, loop.tags) if tag == "bottom")
    fio.save_json(out / "moves" / "seed_r3.json", {
        "source": fio.diagram_to_json(germ.g0),
        "gaps": list(germ.dist),
        "target": fio.diagram_to_json(germ.g1),
        "provenance": "first under-pass R3 of the trefoil rotation loop",
    })


def gen_triangle_relations(out: Path) -> None:
    relators = []
    for p in enumerate_partial_germs(2):
        if p.is_monotonic():
            continue
        partners = monotonic_partners(p)
        relators.append({
            "top": fio.germ_to_json(p),
            "bottom": [fio.germ_to_json(m) for m in partners],
        })
    fio.save_json(out / "relations" / "triangle_deg2.json", {
        "description": "non-monotonic partial germ = sum of the two "
                       "monotonic germs of its triangle completions",
        "relators": relators,
    })


def _row_to_formula(row: tuple, variables) -> list:
    fs = FormalSum()
    for j, v in row:
        fs.add(variables[j], v)
    return fio.formula_to_json(fs)


def gen_strata(out: Path) -> System:
    """Write the scene and tetrahedron fixtures; return the degree-3 system."""
    variables = variable_basis(3)
    var_index = {g: j for j, g in enumerate(variables)}
    meridians = list(enumerate_cube_meridians(0))
    scenes = classify_scenes(meridians, variables, var_index)

    scene_objs = []
    eq_objs = {}
    for label in sorted(scenes):
        cls = scenes[label]
        rep = min(cls["meridians"], key=meridian_key)
        scene_objs.append({
            "label": label,
            "base": fio.diagram_to_json(rep.base()),
            "germs": [fio.germ_to_json(g) for g in rep.germs],
            "pictures": len(cls["fingerprints"]),
            "meridians": len(cls["meridians"]),
            "equations_up_to_reversal": cls["eq_count"],
            "four_term_rows": cls["four_term"],
        })
        eq_objs[label] = [_row_to_formula(r, variables)
                          for r in sorted(cls["rows"]) if r]
    fio.save_json(out / "strata" / "fig7_scenes.json", {
        "description": "six essentially different cube meridians; labels "
                       "c, d, e carry the distinguishing structure",
        "scenes": scene_objs,
    })
    fio.save_json(out / "strata" / "fig8_expected.json", {
        "description": "degree-3 cube equations per scene, in the "
                       "monotonic coordinates",
        "scene_equations": eq_objs,
    })

    # Tetrahedron pair: the meridians of the quadruple rows outside the
    # cube span, which must be those of quadruple.tetrahedron_meridians.
    cube_rows = sorted(set().union(*(cls["rows"] for cls in scenes.values())) - {()})
    cube_span, _ = rref(SparseMatrix(len(cube_rows), len(variables),
                                     [dict(r) for r in cube_rows]))
    novel = []
    seen = set()
    for m in quadruple_meridians():
        norm = row_of_meridian(m, var_index)
        if not norm or norm in seen:
            continue
        seen.add(norm)
        if residual(cube_span, dict(norm)):
            novel.append(m)
    if list(map(meridian_key, novel)) != list(map(meridian_key, tetrahedron_meridians())):
        raise RuntimeError("the quadruple rows outside the cube span are not the tetrahedron pair")
    fio.save_json(out / "strata" / "fig9_tetra.json", {
        "description": "the two degree-3 quadruple-point equations not "
                       "spanned by the cube equations; images of each "
                       "other under arrow reversal",
        "equations": [fio.formula_to_json(meridian_equation(m)) for m in novel],
    })
    return assemble_system(meridians + novel)


def derive_alpha31(system: System) -> FormalSum:
    """Select the distinguished representative of the nontrivial class.

    The kernel of the degree-3 system modulo coboundaries is expected to
    be one-dimensional.  Among its representatives we take the one with
    a sweep-counting first germ (the unique variable carrying the whole
    rotation value, invisible to the over-pass), three further terms
    invisible on the fixture rotation loops, and unit coefficients.

    Vectors are reduced modulo the trivial span, eliminated once; the
    class is that of the first kernel vector v0 with a nonzero residual.
    ``_unit_candidates`` finds the supports of the first germ and three
    invisible variables that express res(v0) with unit coefficients,
    and the smallest sorted germ keys win.
    """
    variables, var_index = system.variables, system.var_index
    trivials = trivial_variable_vectors(var_index)
    trivial_span, _ = rref(SparseMatrix(len(trivials), len(variables), trivials))
    residuals = (residual(trivial_span, v) for v in kernel_basis(system.matrix()))
    target = next((r for r in residuals if r), None)
    if target is None:
        raise RuntimeError("no nontrivial kernel vector found")

    profile = _rot_profiles(var_index)
    first = [j for j, (tb, tt, fb, ft) in profile.items()
             if tt == 0 and ft == 0 and tb == -1 and fb == 1]
    if len(first) != 1:
        raise RuntimeError(f"sweep-counting first germ not unique: {first}")
    fg = first[0]
    invisible = [j for j in range(len(variables)) if j not in profile]
    res = {j: residual(trivial_span, {j: 1}) for j in (fg, *invisible)}

    candidates = _unit_candidates(fg, invisible, res, target)
    if not candidates:
        raise RuntimeError("no unit-coefficient four-term representative found")
    chosen = min(candidates, key=lambda cand: sorted(variables[j].key() for j in cand))
    return FormalSum((variables[j], c) for j, c in chosen.items())


def _unit_candidates(fg, others, res, target) -> list[dict]:
    """The unit-coefficient solutions over the supports (fg, a, b, c), in order.

    A support of fg and three of ``others`` (in ``itertools.combinations``
    order) is kept when sum_j x_j res[j] = target has a unique solution
    x without zero entries; scaled to x_fg = 1, a unit solution is a
    candidate.  The supports are walked depth-first, keeping the target's
    and every later variable's residual modulo each prefix (fg), (fg, a)
    and (fg, a, b) as a primitive integer row; a prefix reduces the
    residuals of its parent by the one row it adds, its last variable's:

    - a prefix whose new row reduces to zero is dependent, so every
      support through it has a zero coefficient;
    - when the target reduces to zero against (fg, a, b), c gets 0;
    - otherwise c completes the support only when its residual is the
      target's: primitive rows are equal exactly when they are multiples.

    Those survivors alone are solved with ``solve_in_span``.  That is one
    single-row reduction per support and per (prefix, later variable),
    against an elimination per support.
    """
    candidates = []
    pfg = primitive(res[fg])
    if not pfg:
        return candidates
    t1 = reduce_primitive(primitive(target), pfg)
    level1 = {j: reduce_primitive(primitive(res[j]), pfg) for j in others}
    for i, a in enumerate(others):
        pa = level1[a]
        if not pa:
            continue
        t2 = reduce_primitive(t1, pa)
        level2 = {j: reduce_primitive(level1[j], pa) for j in others[i + 1:]}
        for k, b in enumerate(others[i + 1:], i + 1):
            pb = level2[b]
            if not pb:
                continue
            rest = reduce_primitive(t2, pb)
            if not rest:
                continue
            for c in others[k + 1:]:
                if reduce_primitive(level2[c], pb) != rest:
                    continue
                support = (fg, a, b, c)
                # solve_in_span gives non-pivot rows coefficient 0, so a
                # solution without a zero coefficient is unique.
                sol = solve_in_span([res[j] for j in support], target)
                if sol is None or not all(sol):
                    continue
                cand = {j: x / sol[0] for j, x in zip(support, sol)}
                if all(abs(x) == 1 for x in cand.values()):
                    candidates.append(cand)
    return candidates


def _rot_profiles(var_index):
    """Each variable's TI coefficients summed over the rotation loops.

    Keyed by variable index, valued (trefoil bottom, trefoil top,
    figure8 bottom, figure8 top) over the R3 moves of each pass;
    variables no R3 germ reaches are absent.
    """
    profile: dict = {}
    for pos, name in enumerate(("trefoil", "figure8")):
        loop = _fixture_loop(name)
        for germ, tag in zip(loop.germs, loop.tags):
            if germ.kind == KIND_R3:
                for key, c in ti(germ, {3}).items():
                    j = var_index.get(key)
                    if j is not None:
                        rec = profile.setdefault(j, [0] * 4)
                        rec[2 * pos + (0 if tag == "bottom" else 1)] += c
    return {j: tuple(rec) for j, rec in profile.items()}


def gen_alpha31(out: Path, system: System) -> FormalSum:
    fs = derive_alpha31(system)
    # Hard validation before freezing: the rotation identity on all three
    # fixture knots, with the advertised sign.
    for name in FIXTURE_MORSE:
        total = evaluate_loop(fs, _fixture_loop(name))
        if total != -V2[name]:
            raise RuntimeError(f"alpha31 candidate fails rot({name}): {total}")
    fio.save_json(out / "formulas" / "alpha31.json", fio.formula_to_json(fs))
    return fs


def generate_all(out) -> None:
    out = Path(out)
    knots = gen_knots(out)
    gen_rot_template(out)
    gen_v2(out, knots)
    gen_seed_r3(out)
    gen_triangle_relations(out)
    gen_alpha31(out, gen_strata(out))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="fixtures", help="output directory")
    args = ap.parse_args(argv)
    try:
        generate_all(args.out)
    except OSError as exc:
        print(f"error: cannot write fixtures to {args.out}: {exc}", file=sys.stderr)
        return 2
    print(f"fixtures written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
