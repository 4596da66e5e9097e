import random
from fractions import Fraction

import pytest

from knotcocycle.cocycles import (Loop, OpenLoopError, alpha31, evaluate_loop,
                                  rot_loop, v2, v2_diagram, verify_cocycle)
from knotcocycle.coboundary import coboundary, component
from knotcocycle.diagrams import FormalSum, GaussDiagram, parse_diagram
from knotcocycle.germs import check_closed, enumerate_arrow_diagrams, make_germ
from knotcocycle.moves import MOVE_KINDS, _literally_equal, apply_move, enumerate_moves, inverse
from knotcocycle.morse import connected_sum, trace
from knotcocycle import fixtures_io as fio
from conftest import random_gauss_diagram, random_move


def _do_undo_loop(rng, max_degree=3):
    g = random_gauss_diagram(rng, max_degree)
    m = random_move(rng, g)
    if m is None:
        return None
    g2 = apply_move(g, m)
    return Loop.replay(g, [m, inverse(g, m)])


def test_open_loop_rejected():
    g = GaussDiagram((), {})
    m = enumerate_moves(g, "R1_birth")[0]
    with pytest.raises(OpenLoopError):
        evaluate_loop(FormalSum(), Loop.replay(g, [m]))


def test_do_undo_loops_evaluate_to_zero(fixtures_dir):
    a = alpha31(fixtures_dir)
    rng = random.Random(31)
    done = 0
    while done < 25:
        loop = _do_undo_loop(rng)
        if loop is None:
            continue
        assert evaluate_loop(a, loop) == 0
        done += 1


def test_loop_reversal_negates(fixtures_dir):
    a = alpha31(fixtures_dir)
    loop = rot_loop("trefoil")
    assert evaluate_loop(a, loop.reversed()) == -evaluate_loop(a, loop)


def _literal_germs(loop):
    return [(g.kind, g.g0.word, g.g0.signs, g.g1.word, g.g1.signs, g.dist) for g in loop.germs]


def test_germwise_reversal(fixtures_dir):
    # Do/undo loops through a death close only up to relabelling: the
    # undoing birth gives the arrows fresh ids.
    a = alpha31(fixtures_dir)
    rng = random.Random(5)
    loops = []
    while len(loops) < 10:
        g = random_gauss_diagram(rng, 3)
        deaths = enumerate_moves(g, "R1_death") + enumerate_moves(g, "R2_death")
        if deaths:
            m = rng.choice(deaths)
            loop = Loop.replay(g, [m, inverse(g, m)])
            if not _literally_equal(loop.germs[-1].g1, g):
                loops.append(loop)
    figure8 = fio.load_morse(fixtures_dir, "figure8")
    loops.append(rot_loop(connected_sum(figure8, figure8, figure8)))
    for loop in loops:
        back = loop.reversed()
        check_closed(back.germs)
        assert evaluate_loop(a, back) == -evaluate_loop(a, loop)
        assert _literal_germs(back.reversed()) == _literal_germs(loop)
    assert evaluate_loop(a, loops[-1]) == 3  # -v2(figure8^3)


def test_loop_concatenation_adds(fixtures_dir):
    a = alpha31(fixtures_dir)
    l1 = rot_loop("trefoil")
    l2 = rot_loop("trefoil")
    both = Loop(l1.germs + l2.germs)
    assert evaluate_loop(a, both) == 2 * evaluate_loop(a, l1)


def test_rot_loop_resolution(knots):
    by_name = rot_loop("trefoil")
    by_diagram = rot_loop(knots["trefoil"])
    assert by_name.initial == by_diagram.initial
    with pytest.raises(ValueError):
        rot_loop("cinquefoil")
    with pytest.raises(ValueError):
        rot_loop(parse_diagram("2; T1 T2 H1 H2; ++"))


def test_v2_values(fixtures_dir, knots):
    assert v2(knots["unknot"], fixtures_dir) == 0
    assert v2(knots["trefoil"], fixtures_dir) == 1
    assert v2(knots["figure8"], fixtures_dir) == -1


def test_trivial_cocycles_vanish_on_loops():
    rng = random.Random(77)
    A = parse_diagram("3; T1 T2 H1 T3 H2 H3")
    dA = coboundary(A)
    loop = rot_loop("trefoil")
    assert evaluate_loop(dA, loop) == 0
    done = 0
    while done < 10:
        l = _do_undo_loop(rng)
        if l is None:
            continue
        assert evaluate_loop(dA, l) == 0
        done += 1


def test_cohomologous_formulas_agree_on_loops(fixtures_dir):
    # By Stokes every dA vanishes on a closed loop, through its R1 and R2
    # terms too: alpha31 + d(T1 H1 H2 T2) reads -1 on rot trefoil.
    a = alpha31(fixtures_dir)
    for name in ("unknot", "trefoil", "figure8"):
        loop = rot_loop(name)
        value = evaluate_loop(a, loop)
        for A in (A for deg in range(4) for A in enumerate_arrow_diagrams(deg)):
            assert evaluate_loop(a + coboundary(A), loop) == value, (name, A)


def test_alpha31_term_count(fixtures_dir):
    a = alpha31(fixtures_dir)
    assert len(a) == 4
    kinds = sorted(k.kind for k, _ in a.items())
    assert kinds.count("P") == 3 and kinds.count("R3") == 1
    assert all(abs(c) == 1 for _, c in a.items())


def test_alpha31_reversal_image_satisfies_system(fixtures_dir, degree3_system):
    a = alpha31(fixtures_dir)
    reversed_a = FormalSum()
    for g, c in a.items():
        from knotcocycle.germs import canonical_term
        key, coeff = canonical_term(g.reverse_arrows(), c)
        reversed_a.add(key, coeff)
    rep = verify_cocycle(reversed_a, system=degree3_system)
    assert rep.passed and not rep.trivial


def test_verify_reports_violations_for_non_cocycle(degree3_system):
    from knotcocycle.strata import variable_basis
    bogus = FormalSum([(variable_basis(3)[0], Fraction(1))])
    rep = verify_cocycle(bogus, system=degree3_system)
    assert rep.violated


def test_rot_loop_lengths():
    lengths = {"unknot": 2, "trefoil": 12, "figure8": 18}
    for name, expected in lengths.items():
        assert len(rot_loop(name).moves) == expected


def test_verify_reports_coboundaries_up_to_the_degree_as_trivial(degree3_system):
    from knotcocycle.germs import enumerate_arrow_diagrams
    diagrams = [a for deg in range(3) for a in enumerate_arrow_diagrams(deg)]
    diagrams.append(parse_diagram("3; T1 T2 H1 T3 H2 H3"))
    for a in diagrams:
        rep = verify_cocycle(coboundary(a), system=degree3_system)
        assert rep.passed and rep.trivial, a


@pytest.mark.parametrize("spec", [
    "figure8+figure8+figure8+figure8+figure8",
    "trefoil+figure8+trefoil",
    "trefoil+trefoil+trefoil+trefoil",
    "unknot+trefoil+figure8+figure8",
    "figure8+trefoil+trefoil+figure8+trefoil",
])
def test_rotation_identity_on_connected_sums(spec, fixtures_dir, knots):
    names = spec.split("+")
    events = connected_sum(*(fio.load_morse(fixtures_dir, n) for n in names))
    value = evaluate_loop(alpha31(fixtures_dir), rot_loop(events))
    assert value == -sum(v2(knots[n], fixtures_dir) for n in names)
    assert value == -v2(trace(events).diagram, fixtures_dir)


def test_trivial_variable_vectors_skip_r1_and_r2_before_the_coboundary(monkeypatch):
    # The filter keeps exactly the vectors of the compute-then-filter
    # route, in the same order, and computes 22 coboundaries instead of 120.
    import knotcocycle.cocycles as cocycles
    from knotcocycle.strata import variable_basis
    from oracles import filtered_trivial_variable_vectors
    var_index = {g: j for j, g in enumerate(variable_basis(3))}
    expected = filtered_trivial_variable_vectors(var_index)
    component.cache_clear()  # earlier tests may have computed these dA
    calls = []
    d = cocycles.coboundary
    monkeypatch.setattr(cocycles, "coboundary", lambda a: calls.append(a) or d(a))
    assert cocycles.trivial_variable_vectors(var_index) == expected
    assert len(calls) == 22 and len(expected) > 0


def _seeded_targets(alpha, count):
    """Combinations of dA with deg A from 0 to 3, some plus alpha31, some less one term."""
    from knotcocycle.cocycles import TRIVIAL_DEGREES
    from knotcocycle.germs import enumerate_arrow_diagrams
    rng = random.Random(21)
    diagrams = [a for deg in TRIVIAL_DEGREES for a in enumerate_arrow_diagrams(deg)]
    for i in range(count):
        target = FormalSum()
        for a in rng.sample(diagrams, rng.randint(1, 4)):
            target = target + coboundary(a).scale(rng.choice((-2, -1, 1, 3)))
        if i % 4 == 1:
            target = target + alpha
        elif i % 4 == 2 and target:
            key = rng.choice(sorted(target.keys(), key=lambda g: g.key()))
            target.add(key, -target[key])
        yield target


def test_verify_triviality_agrees_with_the_span_of_every_coboundary(fixtures_dir,
                                                                    degree3_system):
    from oracles import spanned_by_every_coboundary
    seen = {True: 0, False: 0}
    with_deaths = 0
    for target in _seeded_targets(alpha31(fixtures_dir), 64):
        trivial = verify_cocycle(target, system=degree3_system).trivial
        assert trivial == spanned_by_every_coboundary(target)
        seen[trivial] += 1
        with_deaths += trivial and any(g.kind in ("R1", "R2") for g in target.keys())
    assert seen[True] >= 20 and seen[False] >= 20 and with_deaths >= 20


def test_verify_computes_only_the_coboundaries_that_can_meet_its_target(fixtures_dir):
    # 22 for the trivial dimension and 3 for the span check, whose degree-3
    # dA are the same 22; every dA of degree 0 to 3 would be 135.  Each of
    # the four components of a dA is computed on a miss of their cache.
    import knotcocycle.cocycles as cocycles
    component.cache_clear()
    cocycles.system_dimensions.cache_clear()
    report = verify_cocycle(alpha31(fixtures_dir))
    assert report.passed and not report.trivial
    assert component.cache_info().misses == 4 * 25
