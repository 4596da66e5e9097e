import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from knotcocycle.diagrams import (ArrowDiagram, EMPTY_ARROW, EMPTY_GAUSS,
                                  FormalSum, GaussDiagram, format_diagram, pair,
                                  parse_diagram)
from conftest import random_arrow_diagram, random_gauss_diagram
from oracles import completions, forget_signs, pair_via_completions, subdiagrams


def test_canonicalize_relabels_by_first_occurrence():
    d = parse_diagram("1; T2 H2")
    assert d.canonical_key() == ((1, "T"), (1, "H"))

    d = parse_diagram("2; T3 T1 H3 H1; +-")
    c = d.canonical()
    assert c.word == ((1, "T"), (2, "T"), (1, "H"), (2, "H"))
    assert c.signs == {1: 1, 2: -1}


def test_canonicalize_idempotent_on_trefoil():
    t = parse_diagram("3; T1 H2 T3 H1 T2 H3; +++")
    assert t.canonical().word == t.word
    assert t.canonical().canonical() == t.canonical()


def test_malformed_words_rejected():
    with pytest.raises(ValueError):
        ArrowDiagram([(1, "T"), (1, "T")])
    with pytest.raises(ValueError):
        ArrowDiagram([(1, "T")])
    with pytest.raises(ValueError):
        GaussDiagram([(1, "T"), (1, "H")], {})
    with pytest.raises(ValueError):  # a sign for the absent arrow 7
        GaussDiagram([(1, "T"), (1, "H")], {1: 1, 7: -1})
    with pytest.raises(ValueError):  # a bool id would pass for 1
        ArrowDiagram([(True, "T"), (True, "H")])
    with pytest.raises(ValueError):
        ArrowDiagram([("1", "T"), ("1", "H")])
    with pytest.raises(ValueError):  # a bool sign would be written as true
        GaussDiagram([(1, "T"), (1, "H")], {1: True})
    with pytest.raises(ValueError):
        GaussDiagram([(1, "T"), (1, "H")], {1: 2})


@pytest.mark.parametrize("signs", ["+x", "x+", "+*", "+0", "+−"])
def test_sign_strings_hold_only_plus_and_minus(signs):
    with pytest.raises(ValueError):
        parse_diagram(f"2; T1 T2 H1 H2; {signs}")
    assert parse_diagram("2; T1 T2 H1 H2; +-").signs == {1: 1, 2: -1}


def test_subdiagram_counts():
    assert len(subdiagrams(EMPTY_GAUSS)) == 1
    one = parse_diagram("1; T1 H1; +")
    s = subdiagrams(one)
    assert s[EMPTY_GAUSS] == 1 and s[one] == 1 and len(s) == 2
    t = parse_diagram("3; T1 H2 T3 H1 T2 H3; +++")
    assert sum(c for _, c in subdiagrams(t).items()) == 8


def test_completions_alternate_sum():
    assert completions(EMPTY_ARROW)[EMPTY_GAUSS] == 1
    one = parse_diagram("1; T1 H1")
    c = completions(one)
    assert c[GaussDiagram(one.word, {1: 1})] == 1
    assert c[GaussDiagram(one.word, {1: -1})] == -1
    two = parse_diagram("2; T1 T2 H1 H2")
    c = completions(two)
    assert sorted(v for _, v in c.items()) == [-1, -1, 1, 1]


def test_forget_signs_sign_product():
    assert forget_signs(EMPTY_GAUSS)[EMPTY_ARROW] == 1
    neg = parse_diagram("1; T1 H1; -")
    assert forget_signs(neg)[parse_diagram("1; T1 H1")] == -1
    t = parse_diagram("3; T1 H2 T3 H1 T2 H3; +++")
    assert forget_signs(t)[ArrowDiagram(t.word)] == 1


def test_pair_trivial_cases():
    t = parse_diagram("3; T1 H2 T3 H1 T2 H3; +++")
    assert pair(EMPTY_ARROW, t) == 1
    one_a = parse_diagram("1; T1 H1")
    assert pair(one_a, parse_diagram("1; T1 H1; +")) == 1
    assert pair(one_a, parse_diagram("1; T1 H1; -")) == -1


def test_pair_v2_on_fixtures(knots, fixtures_dir):
    from knotcocycle.cocycles import v2_diagram
    a = v2_diagram(fixtures_dir)
    assert pair(a, knots["trefoil"]) == 1
    assert pair_via_completions(a, knots["trefoil"]) == 1
    assert pair(a, knots["figure8"]) == -1
    assert pair(a, knots["unknot"]) == 0


def test_adjointness_of_completions_and_forget_signs():
    rng = random.Random(11)
    for _ in range(40):
        a = random_arrow_diagram(rng, 3)
        g = random_gauss_diagram(rng, 3)
        lhs = completions(a).dot(FormalSum([(g.canonical(), Fraction(1))]))
        rhs = FormalSum([(a.canonical(), Fraction(1))]).dot(forget_signs(g))
        assert lhs == rhs


def test_embedding_count_agrees_with_s_i_route():
    rng = random.Random(5)
    for _ in range(200):
        a = random_arrow_diagram(rng, 4)
        g = random_gauss_diagram(rng, 4)
        assert pair(a, g) == pair_via_completions(a, g)


def test_pair_ignores_the_arrow_ids_of_the_formula(knots):
    for text in ("1; T5 H5", "2; T7 T3 H7 H3", "2; T2 T1 H1 H2"):
        a = parse_diagram(text)
        for g in knots.values():
            assert pair(a, g) == pair(a.canonical(), g) == pair_via_completions(a, g)


def test_pair_walk_agrees_with_the_completion_route_on_every_small_formula():
    # Every arrow diagram of degree at most 3, with decreasing ids, on 50
    # seeded Gauss diagrams of degree at most 6: the empty A pairs to 1,
    # and an A of higher degree than g to 0.
    from knotcocycle.germs import enumerate_arrow_diagrams
    rng = random.Random(26)
    gauss = [random_gauss_diagram(rng, 6) for _ in range(50)]
    formulas = [a.relabel({i: 40 - 3 * i for i in a.arrow_ids()})
                for deg in range(4) for a in enumerate_arrow_diagrams(deg)]
    assert any(g.degree < 3 for g in gauss) and any(g.degree == 6 for g in gauss)
    for a in formulas:
        for g in gauss:
            assert pair(a, g) == pair_via_completions(a, g), (a, g)
    assert all(pair(EMPTY_ARROW, g) == 1 for g in gauss)


def test_canonical_forms_skip_identity_relabels():
    d = parse_diagram("3; T1 H2 T3 H1 T2 H3; +-+")
    assert d.canonical() is d
    c = parse_diagram("2; T3 T1 H3 H1").canonical()
    assert c.canonical() is c and c.word == ((1, "T"), (2, "T"), (1, "H"), (2, "H"))


def test_pair_bilinear_in_first_slot():
    rng = random.Random(3)
    g = random_gauss_diagram(rng, 3)
    while g.degree < 2:  # on a smaller diagram most pairings vanish
        g = random_gauss_diagram(rng, 3)
    a1 = random_arrow_diagram(rng, 3)
    a2 = random_arrow_diagram(rng, 3)
    s = FormalSum([(a1, Fraction(2)), (a2, Fraction(-3, 2))])
    total = sum(c * pair(k, g) for k, c in s.items())
    assert total == 2 * pair(a1, g) - Fraction(3, 2) * pair(a2, g)


def test_text_format_roundtrip(knots):
    for k in knots.values():
        assert parse_diagram(format_diagram(k)) == k


@given(st.integers(0, 3), st.randoms())
@settings(max_examples=30, deadline=None)
def test_canonical_involution_property(deg, pyrandom):
    tokens = []
    for i in range(1, deg + 1):
        tokens.extend([(i * 7, "T"), (i * 7, "H")])
    pyrandom.shuffle(tokens)
    d = ArrowDiagram(tokens)
    assert d.canonical().canonical_key() == d.canonical_key()


def test_formal_sum_algebra():
    a = parse_diagram("1; T1 H1")
    s = FormalSum([(a, Fraction(1, 2))])
    t = s + s
    assert t[a] == 1
    assert not (t - t)
    assert (t.scale(0)) == FormalSum()
    with pytest.raises(TypeError):
        hash(s)


def test_formal_sums_refuse_float_coefficients():
    a = parse_diagram("1; T1 H1")
    s = FormalSum()
    for bad in (0.1, 1.0):
        with pytest.raises(TypeError):
            s.add(a, bad)
        with pytest.raises(TypeError):
            FormalSum([(a, bad)])
        with pytest.raises(TypeError):
            FormalSum([(a, 1)]).scale(bad)
    assert not s
    s.add(a, Fraction(1, 10))
    s.add(a, 2)
    assert s[a] == Fraction(21, 10)
