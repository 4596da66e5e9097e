import random
from fractions import Fraction

import pytest

from knotcocycle.diagrams import (EMPTY_ARROW, HEAD, TAIL, ArrowDiagram, FormalSum, GaussDiagram,
                                  pair, parse_diagram)
from knotcocycle.coboundary import coboundary, stokes_sides
from knotcocycle.germs import enumerate_arrow_diagrams, make_germ
from knotcocycle.moves import apply_move, enumerate_moves
from knotcocycle.rational_linalg import SparseMatrix, kernel_basis
from conftest import random_arrow_diagram, random_gauss_diagram, random_move
from oracles import positional_coboundary


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
        assert coboundary(a) is coboundary(a.relabel({i: 50 - i for i in a.arrow_ids()}))


def test_d_cache_holds_every_arrow_diagram_of_degree_at_most_4():
    assert coboundary.cache_info().maxsize >= 1815
    assert sum(1 for deg in range(5) for _ in enumerate_arrow_diagrams(deg)) == 1815


def test_stokes_check_computes_each_distinct_d_once(monkeypatch, capsys):
    import importlib
    from knotcocycle.cli import main
    module = importlib.import_module("knotcocycle.coboundary")
    drawn = []
    sides = module.stokes_sides
    monkeypatch.setattr(module, "stokes_sides", lambda a, gamma: drawn.append(a) or sides(a, gamma))
    coboundary.cache_clear()
    assert main(["stokes-check", "--trials", "400", "--max-degree", "4", "--seed", "1"]) == 0
    assert len(drawn) == 400 and len(set(drawn)) < 300
    assert coboundary.cache_info().misses == len(set(drawn))


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
