import random
from fractions import Fraction

import pytest

from knotcocycle.diagrams import (EMPTY_ARROW, HEAD, TAIL, ArrowDiagram, FormalSum, GaussDiagram,
                                  pair, parse_diagram)
from knotcocycle.coboundary import coboundary, component, stokes_sides
from knotcocycle.germs import _MEETS, enumerate_arrow_diagrams, make_germ, pair_germ
from knotcocycle.moves import apply_move, enumerate_moves, r3_moves
from knotcocycle.rational_linalg import SparseMatrix, kernel_basis
from conftest import random_arrow_diagram, random_gauss_diagram, random_move
from oracles import positional_coboundary


COMPONENTS = ("R1", "R2", "R3", "P")  # I, II, Delta and Lambda, in the order of dA's terms


def _terms(db, kind):
    """The terms of dA whose germs have the given kind."""
    return FormalSum((g, c) for g, c in db.items() if g.kind == kind)


def test_d_of_empty_is_zero():
    assert not coboundary(EMPTY_ARROW)


def test_d_of_single_arrow():
    db = coboundary(parse_diagram("1; T1 H1"))
    assert (len(_terms(db, "R1")) == 1 and not _terms(db, "R2") and not _terms(db, "R3")
            and not _terms(db, "P"))
    (germ, coeff), = _terms(db, "R1").items()
    assert coeff == 1 and germ.g0.degree == 0 and germ.g1.degree == 1


def test_d_rejects_gauss_diagrams():
    g = parse_diagram("1; T1 H1; +")
    for _ in range(3):  # a refusal is never cached
        with pytest.raises(TypeError):
            coboundary(g)


def test_d_is_cached_up_to_relabelling():
    for text in ("1; T1 H1", "2; T1 T2 H1 H2", "3; T1 H2 T3 H1 T2 H3"):
        a = parse_diagram(text)
        b = a.relabel({i: 50 - i for i in a.arrow_ids()})
        for kind in COMPONENTS:
            assert component(a, kind) is component(b, kind)
        assert list(coboundary(a).items()) == list(coboundary(b).items())


def test_d_cache_holds_every_arrow_diagram_of_degree_at_most_4():
    assert component.cache_info().maxsize >= 4 * 1815  # four components each
    assert sum(1 for deg in range(5) for _ in enumerate_arrow_diagrams(deg)) == 1815


def test_d_is_its_four_components_in_order():
    for a in (a for deg in range(5) for a in enumerate_arrow_diagrams(deg)):
        parts = [component(a, kind) for kind in COMPONENTS]
        assert all(g.kind == kind for kind, part in zip(COMPONENTS, parts) for g in part.keys())
        assert list(coboundary(a).items()) == [t for part in parts for t in part.items()], a


def test_stokes_check_computes_each_met_component_once(monkeypatch, capsys):
    # Random moves draw only R1 and R2 germs here, which meet the deaths
    # of A: no R3 search and no partial germ is made.
    import importlib
    from knotcocycle.cli import main
    module = importlib.import_module("knotcocycle.coboundary")
    drawn, searched = [], []
    sides = module.stokes_sides
    monkeypatch.setattr(module, "stokes_sides",
                        lambda a, gamma: drawn.append((a, gamma.kind)) or sides(a, gamma))
    for name in ("r3_moves", "split_gaps"):
        monkeypatch.setattr(module, name, lambda d, f=getattr(module, name), name=name:
                            searched.append(name) or f(d))
    component.cache_clear()
    assert main(["stokes-check", "--trials", "400", "--max-degree", "4", "--seed", "1"]) == 0
    met = {(a, kind) for a, gamma_kind in drawn for kind in _MEETS[gamma_kind]}
    assert len(drawn) == 400 and {kind for _, kind in drawn} == {"R1", "R2"}
    assert component.cache_info().misses == len(met) < 300
    assert not searched


def test_death_terms_match_the_positional_scan():
    # Keys, coefficients and order of dA, on every arrow diagram of degree
    # at most 3 and on 40 seeded ones each of degrees 4 and 5.
    rng = random.Random(18)
    diagrams = [a for deg in range(4) for a in enumerate_arrow_diagrams(deg)]
    for deg in (4, 5):
        for _ in range(40):
            tokens = [(i, kind) for i in range(1, deg + 1) for kind in (TAIL, HEAD)]
            rng.shuffle(tokens)
            diagrams.append(ArrowDiagram(tokens).canonical())
    for a in diagrams:
        got = [(g.key(), c) for g, c in coboundary(a).items()]
        assert got == [(g.key(), c) for g, c in positional_coboundary(a).items()], a


def test_d_of_v2_diagram_vanishes(fixtures_dir):
    from knotcocycle.cocycles import v2_diagram
    assert not coboundary(v2_diagram(fixtures_dir))


def test_stokes_simple_cases():
    rng = random.Random(12)
    g = GaussDiagram((), {})
    move = enumerate_moves(g, "R1_birth")[0]
    germ = make_germ(g, move)
    one = parse_diagram("1; T1 H1")
    lhs, rhs = stokes_sides(one, germ)
    assert lhs == rhs and abs(rhs) == 1
    lhs, rhs = stokes_sides(EMPTY_ARROW, germ)
    assert lhs == rhs


def test_stokes_random_suite_small():
    rng = random.Random(99)
    for _ in range(150):
        a = random_arrow_diagram(rng, 3)
        g = random_gauss_diagram(rng, 3)
        m = random_move(rng, g)
        if m is None:
            continue
        lhs, rhs = stokes_sides(a, make_germ(g, m))
        assert lhs == rhs


def _random_r3_germs(rng, count, max_degree):
    """The germs of every R3 move of seeded random Gauss diagrams, at least count of them."""
    germs = []
    while len(germs) < count:
        g = random_gauss_diagram(rng, max_degree)
        germs.extend(make_germ(g, m) for m in r3_moves(g))
    return germs


def test_met_components_pair_as_the_whole_coboundary():
    # Each gamma kind on seeded trials, with R3 germs that random moves
    # seldom draw: the components gamma meets give <dA, gamma> exactly.
    rng = random.Random(31)
    trials = [(random_arrow_diagram(rng, 4), germ) for germ in _random_r3_germs(rng, 40, 4)]
    while len(trials) < 240:
        g = random_gauss_diagram(rng, 4)
        m = random_move(rng, g)
        if m is not None:
            trials.append((random_arrow_diagram(rng, 4), make_germ(g, m)))
    assert {gamma.kind for _, gamma in trials} == {"R1", "R2", "R3"}
    for a, gamma in trials:
        lhs, rhs = stokes_sides(a, gamma)
        assert lhs == pair_germ(coboundary(a), gamma) == rhs, (a, gamma)


def test_stokes_on_r3_germs(fixtures_dir):
    # Stokes, do/undo and antisymmetry on the R3 germs of the rotation
    # loops and on every R3 move of seeded random Gauss diagrams, against
    # every arrow diagram of degree at most 3 and 30 seeded ones of degree 4.
    from knotcocycle.cocycles import rot_loop
    rotation = [g for k in ("trefoil", "figure8") for g in rot_loop(k).germs if g.kind == "R3"]
    diagrams = [a for deg in range(4) for a in enumerate_arrow_diagrams(deg)]
    diagrams += random.Random(8).sample(list(enumerate_arrow_diagrams(4)), 30)
    nonzero = 0
    for gamma in rotation + _random_r3_germs(random.Random(7), 24, 4):
        for a in diagrams:
            lhs, rhs = stokes_sides(a, gamma)
            assert lhs == rhs, (a, gamma)
            assert stokes_sides(a, gamma.swapped()) == (-lhs, -rhs), (a, gamma)
            nonzero += lhs != 0
    assert len(rotation) == 14 and nonzero > 300


def _kernel_low_degree(max_degree):
    diagrams = []
    for deg in range(max_degree + 1):
        diagrams.extend(enumerate_arrow_diagrams(deg))
    keys = {}
    rows = []
    for a in diagrams:
        row = {}
        for germ, c in coboundary(a).items():
            j = keys.setdefault(germ.key(), len(keys))
            row[j] = row.get(j, Fraction(0)) + c
        rows.append(row)
    # transpose: kernel of d as a map out of the diagram space
    cols = [dict() for _ in range(len(keys))]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    mat = SparseMatrix(len(keys), len(diagrams), cols)
    return diagrams, kernel_basis(mat)


def test_kernel_of_d_contains_v2(fixtures_dir):
    from knotcocycle.cocycles import v2_diagram
    diagrams, kernel = _kernel_low_degree(2)
    assert kernel, "Ker d at degree <= 2 must be nonempty"
    v2d = v2_diagram(fixtures_dir)
    index = {d: i for i, d in enumerate(diagrams)}
    target = {index[v2d]: Fraction(1)}
    from knotcocycle.rational_linalg import solve_in_span
    assert solve_in_span(kernel, target) is not None


def test_kernel_elements_are_move_invariant():
    diagrams, kernel = _kernel_low_degree(2)
    rng = random.Random(21)
    pairs = []
    while len(pairs) < 100:
        g = random_gauss_diagram(rng, 3)
        m = random_move(rng, g)
        if m is None:
            continue
        pairs.append((g.canonical(), apply_move(g, m).canonical()))
    for vec in kernel:
        alpha = FormalSum((diagrams[i], c) for i, c in vec.items())
        for before, after in pairs:
            lhs = sum(c * pair(a, before) for a, c in alpha.items())
            rhs = sum(c * pair(a, after) for a, c in alpha.items())
            assert lhs == rhs


def test_component_kernels_are_genuinely_independent():
    """No single component kernel implies the others.

    Full R-move invariance needs all four components to vanish: the
    triple of side-by-side isolated arrows kills the 3-germ component
    while its partial component survives, and a plain isolated arrow
    does the reverse.  The full kernel is exactly the invariant
    formulas, which test_kernel_elements_are_move_invariant covers.
    """
    flat = parse_diagram("3; T1 H1 T2 H2 T3 H3")
    db = coboundary(flat)
    assert not _terms(db, "R3")
    assert _terms(db, "P") and len(_terms(db, "P")) == 2
    assert all(k.is_monotonic() for k, _ in _terms(db, "P").items())

    kink = parse_diagram("1; T1 H1")
    dk = coboundary(kink)
    assert _terms(dk, "R1") and not _terms(dk, "P") and not _terms(dk, "R3")
