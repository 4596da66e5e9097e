"""Acceptance suite: one test per criterion, each printing a verdict line.

Regression constants established on the first full run and asserted
since then:

    degree-3 variables            38   (10 arrow 3-germs + 28 monotonic partials)
    assembled rows                16   (14 cube + 2 tetrahedron), rank 16
    kernel dimension              22
    trivial-cocycle dimension     21
    nontrivial quotient            1
    extra rank from bystander s    0
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from knotcocycle import fixtures_io as fio
from knotcocycle.diagrams import FormalSum, GaussDiagram, pair, parse_diagram
from knotcocycle.coboundary import coboundary, stokes_sides
from knotcocycle.germs import (enumerate_arrow_3germs, enumerate_arrow_diagrams,
                               enumerate_partial_germs, make_germ, ti,
                               canonical_term, triangle_relator, Germ)
from knotcocycle.moves import (apply_move, edge_flanks, enumerate_moves,
                               inverse, r3_triangle, transpose, validate_r3)
from knotcocycle.cocycles import (Loop, alpha31, evaluate_loop, rot_loop,
                                  system_dimensions, v2, verify_cocycle)
from knotcocycle.rational_linalg import SparseMatrix, residual, rref
from knotcocycle.strata import (classify_scenes, collect_rows, dedupe_meridians,
                                enumerate_cube_meridians, normalise_row,
                                restrict_to_variables, reversal_on_rows,
                                row_of_meridian, variable_basis)
from conftest import random_arrow_diagram, random_gauss_diagram, random_move

VARIABLE_COUNT = 38
ROW_COUNT = 16
RANK = 16
KERNEL_DIM = 22
TRIVIAL_DIM = 21
QUOTIENT_DIM = 1
BYSTANDER_RANK_GAIN = 0


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_stokes_suite():
    rng = random.Random(20260809)
    t0 = time.time()
    trials = 0
    while trials < 1000:
        a = random_arrow_diagram(rng, 4)
        g = random_gauss_diagram(rng, 4)
        m = random_move(rng, g)
        if m is None:
            continue
        lhs, rhs = stokes_sides(a, make_germ(g, m))
        assert lhs == rhs, f"Stokes fails for {a}, {g}, {m}: {lhs} != {rhs}"
        trials += 1
    elapsed = time.time() - t0
    report(1, trials == 1000 and elapsed < 60.0,
           f"{trials} randomized Stokes checks, degrees <= 4, exact, {elapsed:.1f}s")


def _cube_walk_states(fixtures_dir):
    obj = fio.load_json(fixtures_dir / "moves" / "seed_r3.json")
    src = fio.diagram_from_json(obj["source"])
    gaps = tuple(obj["gaps"])
    triple = sorted(r3_triangle(src, gaps))

    def state_key(d):
        return (tuple(d.word), tuple(sorted(d.signs.items())))

    seen = {}
    frontier = [src]
    seen[state_key(src)] = src
    while frontier:
        d = frontier.pop()
        for gap in gaps:
            (a, _), (b, _) = edge_flanks(d, gap)
            third = next(x for x in triple if x not in (a, b))
            signs = dict(d.signs)
            signs[third] = -signs[third]
            nxt = GaussDiagram(transpose(d, (gap,)).word, signs)
            if state_key(nxt) not in seen:
                seen[state_key(nxt)] = nxt
                frontier.append(nxt)
    return src, gaps, triple, list(seen.values())


def test_criterion_2_r3_criterion_cube_walk(fixtures_dir):
    src, gaps, triple, states = _cube_walk_states(fixtures_dir)
    all_valid = all(validate_r3(d, gaps) for d in states)

    # the eight local triangle types: the interleaving pattern of the
    # three distinguished edges distinguishes them
    from knotcocycle.moves import edge_data
    etas = {tuple(edge_data(d, g)[0] for g in gaps) for d in states}
    covers_all = len(etas) == 8

    flips_invalidate = True
    for d in states:
        for aid in triple:
            signs = dict(d.signs)
            signs[aid] = -signs[aid]
            if validate_r3(GaussDiagram(d.word, signs), gaps):
                flips_invalidate = False
    report(2, all_valid and covers_all and flips_invalidate,
           f"cube walk reaches {len(states)} states covering {len(etas)}/8 "
           f"triangle types, all valid; single sign flips always invalidate")


def _deg4_triangle_skeletons():
    """Arrow 3-germ skeletons of degree 4: a triangle plus one bystander."""
    seen = set()
    out = []
    for tri in enumerate_arrow_3germs(3):
        base = tri.g1
        blocked = set()
        for g in tri.dist:
            blocked.add(g)
        free_gaps = [g for g in range(len(base.word) + 1) if g not in blocked]
        rid = max(base.arrow_ids()) + 1
        for gt in free_gaps:
            for gh in free_gaps:
                for order in ((gt, "T", gh, "H"), (gt, "H", gh, "T")):
                    p1, k1, p2, k2 = order
                    word = list(base.word)
                    if p1 <= p2:
                        word[p2:p2] = [(rid, k2)]
                        word[p1:p1] = [(rid, k1)]
                    else:
                        word[p1:p1] = [(rid, k1)]
                        word[p2:p2] = [(rid, k2)]
                    try:
                        from knotcocycle.diagrams import ArrowDiagram
                        d4 = ArrowDiagram(word)
                    except ValueError:
                        continue
                    new_gaps = []
                    ok = True
                    for g in tri.dist:
                        left, right = edge_flanks(tri.g1, g)
                        try:
                            from oracles import locate_edge as _locate_edge
                            new_gaps.append(_locate_edge(d4, left, right))
                        except ValueError:
                            ok = False
                            break
                    if not ok:
                        continue
                    gaps4 = tuple(sorted(new_gaps))
                    if r3_triangle(d4, gaps4) is None or not validate_r3(d4, gaps4):
                        continue
                    germ = Germ("R3", transpose(d4, gaps4), d4, gaps4)
                    canon, _ = germ.canonical()
                    if canon not in seen:
                        seen.add(canon)
                        out.append(canon)
    return out


def test_criterion_3_triangle_relation_lemma_exhaustive():
    relators = [triangle_relator(p)
                for deg in (2, 3)
                for p in enumerate_partial_germs(deg)
                if not p.is_monotonic()]

    skeletons = list(enumerate_arrow_3germs(3)) + _deg4_triangle_skeletons()
    checked = agree = 0
    for skel in skeletons:
        ids = skel.arrow_ids()
        for signs in itertools.product((1, -1), repeat=len(ids)):
            table = dict(zip(ids, signs))
            signed = Germ("R3",
                          GaussDiagram(skel.g0.word, table),
                          GaussDiagram(skel.g1.word, table),
                          skel.dist)
            actual = validate_r3(signed.g1, signed.dist)
            chain = ti(signed)
            annihilated = all(rel.dot(chain) == 0 for rel in relators)
            checked += 1
            if actual == annihilated:
                agree += 1
    report(3, checked > 0 and agree == checked,
           f"formal 3-germ detector: {agree}/{checked} sign assignments "
           f"classified identically by validate_r3 and by the relators "
           f"({len(skeletons)} skeletons of degrees 3-4, {len(relators)} relators)")


def test_criterion_4_invariant_recovery(fixtures_dir, knots):
    from knotcocycle.cocycles import v2_diagram
    a_v2 = v2_diagram(fixtures_dir)
    d_ok = not coboundary(a_v2)

    expected = {"unknot": 0, "trefoil": 1, "figure8": -1}
    rng = random.Random(4444)
    stable = True
    for name, k in knots.items():
        value = pair(a_v2, k)
        if value != expected[name]:
            stable = False
        for _ in range(20):
            g = k
            for _ in range(rng.randrange(1, 6)):
                m = random_move(rng, g)
                if m is not None:
                    nxt = apply_move(g, m)
                    if nxt.degree <= k.degree + 3:
                        g = nxt
            if pair(a_v2, g) != expected[name]:
                stable = False
    report(4, d_ok and stable,
           "d(A_v2) = 0 exactly; v2 = (0, 1, -1) on (unknot, trefoil, figure8) "
           "and constant over 20 random R-move perturbations each")


def test_criterion_5_degree3_system_structure(fixtures_dir, cube_meridians):
    variables = variable_basis(3)
    var_index = {g: j for j, g in enumerate(variables)}

    from knotcocycle.strata import picture_fingerprint
    pictures = {}
    for m in cube_meridians:
        pictures.setdefault(picture_fingerprint(m), []).append(m)
    counts_ok = (len(cube_meridians) == 144 and len(pictures) == 48
                 and all(len(v) == 3 for v in pictures.values()))

    scenes = classify_scenes(cube_meridians, variables, var_index)
    labels_ok = sorted(scenes) == list("abcdef")

    # scene c: three essentially different equations indexed by the
    # choice of the point at infinity on a single picture
    reverse_row = reversal_on_rows(variables, var_index)
    fp = scenes["c"]["fingerprints"][0]
    rows_c = [row_of_meridian(m, var_index) for m in pictures[fp]]
    c_ok = len({min(r, reverse_row(r)) for r in rows_c if r}) == 3

    # scenes d, e: substituting the two-term equations turns their rows
    # into equations with exactly four partial-germ terms
    two_term = {}
    for m in cube_meridians:
        r = row_of_meridian(m, var_index)
        if len(r) == 2:
            d = dict(r)
            js = sorted(d)
            kinds = {variables[j].kind for j in js}
            if kinds == {"P", "R3"}:
                r3j = js[0] if variables[js[0]].kind == "R3" else js[1]
                pj = js[1] if r3j == js[0] else js[0]
                two_term[r3j] = (pj, -Fraction(d[pj], d[r3j]))

    def substitute(row):
        out = {}
        for j, v in row:
            v = Fraction(v)
            if variables[j].kind == "R3" and j in two_term:
                pj, c = two_term[j]
                out[pj] = out.get(pj, Fraction(0)) + v * c
            else:
                out[j] = out.get(j, Fraction(0)) + v
        return normalise_row({j: v for j, v in out.items() if v})

    de_ok = True
    for label in ("d", "e"):
        reduced = {substitute(r) for r in scenes[label]["rows"] if r}
        reduced.discard(())
        four_partials = all(
            len(r) == 4 and all(variables[j].kind == "P" for j, _ in r)
            for r in reduced)
        if not (reduced and four_partials):
            de_ok = False

    # generated equations match the frozen expectations per scene
    stored = fio.load_json(fixtures_dir / "strata" / "fig8_expected.json")
    fixture_ok = True
    for label, cls in scenes.items():
        regenerated = {r for r in cls["rows"] if r}
        loaded = set()
        for formula in stored["scene_equations"][label]:
            fs = fio.formula_from_json(formula)
            loaded.add(normalise_row(restrict_to_variables(fs, var_index)))
        if loaded != regenerated:
            fixture_ok = False

    report(5, counts_ok and labels_ok and c_ok and de_ok and fixture_ok,
           "48 meridians per basepoint placement (6 pictures x 2^3), six "
           "scenes; scene c yields 3 basepoint-indexed equations, scenes "
           "d/e reduce to four-partial-germ equations; matches frozen "
           "expectations")


def _trivial_span_reducer(degree=3):
    rows = []
    for deg in range(degree + 1):
        for a in enumerate_arrow_diagrams(deg):
            db = coboundary(a)
            if not db:
                continue
            rows.append({g.key(): c for g, c in db.items()})
    cols = sorted({c for r in rows for c in r})
    col_index = {c: i for i, c in enumerate(cols)}
    reindexed = [{col_index[c]: v for c, v in r.items()} for r in rows]
    reduced, _ = rref(SparseMatrix(len(reindexed), len(cols), reindexed))

    def is_member(fs: FormalSum) -> bool:
        work = {}
        for g, c in fs.items():
            key = g.key()
            if key not in col_index:
                return not c
            work[col_index[key]] = work.get(col_index[key], Fraction(0)) + c
        return not residual(reduced, {c: v for c, v in work.items() if v})

    return is_member


def test_criterion_6_alpha31_certificate(fixtures_dir, degree3_system):
    system = degree3_system
    a = alpha31(fixtures_dir)

    rep = verify_cocycle(a, system=system)
    alpha_ok = rep.passed and not rep.trivial

    dims_ok = (len(system.variables) == VARIABLE_COUNT
               and len(system.rows) == ROW_COUNT
               and system.rank() == RANK
               and (rep.kernel_dim, rep.trivial_dim, rep.quotient_dim)
               == (KERNEL_DIM, TRIVIAL_DIM, QUOTIENT_DIM))

    is_trivial = _trivial_span_reducer(3)
    assert not is_trivial(a)
    coboundaries_ok = True
    count = 0
    for deg in range(4):
        for A in enumerate_arrow_diagrams(deg):
            db = coboundary(A)
            if not db:
                continue
            if any(db.dot(fs) != 0 for fs in system.full_rows):
                coboundaries_ok = False
            if not is_trivial(db):
                coboundaries_ok = False
            count += 1
    report(6, alpha_ok and dims_ok and coboundaries_ok,
           f"alpha31 passes all {len(system.full_rows)} stored equations, "
           f"nontrivial; all {count} coboundaries d(A), deg(A) <= 3, pass "
           f"with trivial status; kernel/trivial/quotient dims "
           f"{rep.kernel_dim}/{rep.trivial_dim}/{rep.quotient_dim}")


def test_criterion_6b_bystander_sets_add_no_rank():
    from knotcocycle.cocycles import assemble_default_system
    base = assemble_default_system()
    extended = assemble_default_system(bystanders=True)
    gain = extended.rank() - base.rank()
    report(6, gain == BYSTANDER_RANK_GAIN,
           f"bystander subsets contribute {gain} extra rank "
           f"({len(extended.rows)} rows vs {len(base.rows)})")


def test_criterion_7_rot_identity(fixtures_dir, knots):
    a = alpha31(fixtures_dir)
    expected = {"unknot": 0, "trefoil": -1, "figure8": 1}
    t0 = time.time()
    ok = True
    values = {}
    for name, k in knots.items():
        loop = rot_loop(name)
        val = evaluate_loop(a, loop)
        values[name] = val
        if val != expected[name] or val != -v2(k, fixtures_dir):
            ok = False
    # connected sums: v2 is additive, the identity must follow along
    from knotcocycle.morse import FIXTURE_MORSE, connected_sum, trace
    for parts in (("trefoil", "trefoil"), ("trefoil", "figure8")):
        events = connected_sum(*(FIXTURE_MORSE[p] for p in parts))
        loop = rot_loop(events)
        k = trace(events).diagram
        if evaluate_loop(a, loop) != -v2(k.canonical(), fixtures_dir):
            ok = False
    elapsed = time.time() - t0
    report(7, ok and elapsed < 30.0,
           f"alpha31(rot K) = -v2(K) exactly on the three fixtures "
           f"{values} and on two connected sums [{elapsed:.1f}s]")


def test_criterion_8_loop_sanity(fixtures_dir, cube_meridians):
    a = alpha31(fixtures_dir)

    meridian_ok = True
    for m in cube_meridians:
        total = sum((a.dot(ti(g)) for g in m.germs if g.kind == "R3"),
                    Fraction(0))
        if total != 0:
            meridian_ok = False
    from knotcocycle.quadruple import quadruple_meridians
    for m in quadruple_meridians():
        total = sum((a.dot(ti(g)) for g in m.germs), Fraction(0))
        if total != 0:
            meridian_ok = False

    rng = random.Random(808)
    do_undo_ok = True
    done = 0
    while done < 20:
        g = random_gauss_diagram(rng, 3)
        m = random_move(rng, g)
        if m is None:
            continue
        loop = Loop.replay(g, [m, inverse(g, m)])
        if evaluate_loop(a, loop) != 0:
            do_undo_ok = False
        done += 1

    # do-undo insertion into rot(trefoil) at 10 random positions; the
    # inserted move is a birth or an R3 so the suffix schedule still
    # applies verbatim (rebirths would rename arrows midway).
    base_loop = rot_loop("trefoil")
    base_val = evaluate_loop(a, base_loop)
    insert_ok = True
    diagrams = [germ.g0 for germ in base_loop.germs]
    inserted = 0
    while inserted < 10:
        pos = rng.randrange(len(base_loop.moves))
        d = diagrams[pos]
        options = []
        for kind in ("R1_birth", "R2_birth", "R3"):
            options.extend(enumerate_moves(d, kind))
        if not options:
            continue
        m = rng.choice(options)
        moves = (base_loop.moves[:pos] + [m, inverse(d, m)]
                 + base_loop.moves[pos:])
        loop = Loop.replay(base_loop.initial, moves)
        if evaluate_loop(a, loop) != base_val:
            insert_ok = False
        inserted += 1

    report(8, meridian_ok and do_undo_ok and insert_ok,
           "alpha31 vanishes on all 144 cube and 24 quadruple meridian "
           "loops and on do-undo loops; rot(trefoil) value invariant "
           "under 10 random do-undo insertions")
