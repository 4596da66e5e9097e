import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from knotcocycle.coboundary import coboundary
from knotcocycle.cocycles import alpha31, rot_loop
from knotcocycle.diagrams import FormalSum, GaussDiagram, parse_diagram
from knotcocycle.fixtures_io import germ_from_json, load_json
from knotcocycle.germs import (KIND_R3, Germ, _delete_from_germ, _normal_subgerm, _subgerm_walk,
                               boundary, enumerate_arrow_3germs, enumerate_arrow_diagrams,
                               enumerate_partial_germs, make_germ, monotonic_partners,
                               monotonic_reduce, pair_germ, partial_germ_into, subgerms, ti,
                               triangle_relator)
from knotcocycle.moves import MOVE_KINDS, edge_flanks, enumerate_moves, r1_birth, split_gaps
from knotcocycle.quadruple import quadruple_meridians
from knotcocycle.strata import enumerate_cube_meridians, variable_basis
from conftest import FIXTURES, random_gauss_diagram, random_move
from oracles import (derived_monotonic_partners, i_map, locate_edge, pair_germ_via_s,
                     permuted_arrow_diagrams, s_map, seen_arrow_3germs, seen_partial_germs,
                     t_map)


def test_make_germ_r1_birth():
    m = r1_birth(0, "TH", 1)
    g = make_germ(GaussDiagram((), {}), m)
    assert g.kind == "R1"
    assert g.g0.degree == 0 and g.g1.degree == 1
    assert boundary(g)[g.g1.canonical()] == 1
    assert boundary(g)[g.g0.canonical()] == -1


def test_r3_antisymmetry():
    rng = random.Random(1)
    found = 0
    while found < 10:
        g = random_gauss_diagram(rng, 4)
        for m in enumerate_moves(g, "R3"):
            germ = make_germ(g, m)
            k1, s1 = germ.canonical()
            k2, s2 = germ.swapped().canonical()
            assert k1 == k2 and s1 == -s2
            found += 1
            break


def test_subgerm_counts():
    # 1-germ: no removable arrows
    g = make_germ(GaussDiagram((), {}), r1_birth(0, "TH", 1))
    assert len(subgerms(g)) == 1

    # pure 3-germ: the germ itself plus three partial germs
    tri = next(iter(enumerate_arrow_3germs(3)))
    assert sum(abs(c) for _, c in subgerms(tri).items()) == 4

    # 3-germ with k bystanders: 2^k * 4 terms with multiplicity
    rng = random.Random(7)
    while True:
        g = random_gauss_diagram(rng, 5)
        moves = enumerate_moves(g, "R3")
        if moves and g.degree >= 4:
            germ = make_germ(g, moves[0])
            k = germ.degree - 3
            total = sum(abs(c) for _, c in subgerms(germ).items())
            assert total == 2 ** k * 4
            break


def test_deleting_arrows_keeps_each_surviving_edge_between_its_flanks():
    # Every subgerm of the degree-4 3-germs and degree-3 partial germs:
    # the shifted gaps are where the flanks of the surviving edges meet.
    cases = 0
    for germ in [*enumerate_arrow_3germs(4), *enumerate_partial_germs(3)]:
        for removed in _subgerm_walk(germ, frozenset(), frozenset(), None):
            sub = _delete_from_germ(germ, removed)
            flanks = [edge_flanks(germ.g1, g) for g in germ.dist]
            found = sorted(locate_edge(sub.g1, *f) for f in flanks
                           if not {f[0][0], f[1][0]} & removed)
            assert list(sub.dist) == found
            cases += 1
    assert cases > 4000


def test_monotonic_reduce_trivial_and_idempotent():
    for p in itertools.islice(enumerate_partial_germs(2), 50):
        fs = FormalSum([(p, Fraction(1))])
        red = monotonic_reduce(fs)
        if p.is_monotonic():
            assert red == fs
        else:
            assert len(red) == 2
            assert all(k.is_monotonic() for k, _ in red.items())
        assert monotonic_reduce(red) == red


def test_monotonic_reduce_finds_each_normal_forms_partners_once(monkeypatch):
    import knotcocycle.germs as germs
    calls = []
    monkeypatch.setattr(germs, "monotonic_partners",
                        lambda p: calls.append(p) or monotonic_partners(p))
    germs._reduced_partners.cache_clear()
    fs = FormalSum((p, 1) for p in enumerate_partial_germs(3))
    try:
        reduced = monotonic_reduce(fs)
        assert monotonic_reduce(fs) == reduced
    finally:
        germs._reduced_partners.cache_clear()
    assert len(calls) == len(set(calls)) == 120


def test_triangle_relators_match_fixture(fixtures_dir):
    obj = load_json(fixtures_dir / "relations" / "triangle_deg2.json")
    stored = {}
    for rel in obj["relators"]:
        top = germ_from_json(rel["top"]).canonical()[0]
        bottoms = sorted(germ_from_json(b).key() for b in rel["bottom"])
        stored[top.key()] = bottoms
    regenerated = {}
    for p in enumerate_partial_germs(2):
        if p.is_monotonic():
            continue
        rel = triangle_relator(p)
        tops = [k for k, c in rel.items() if c == 1]
        bots = sorted(k.key() for k, c in rel.items() if c == -1)
        assert len(tops) == 1
        regenerated[tops[0].key()] = bots
    assert stored == regenerated


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_monotonic_partners_match_the_triangle_derivation(degree):
    checked = 0
    for p in enumerate_partial_germs(degree):
        if p.is_monotonic():
            continue
        built = monotonic_partners(p)
        derived = derived_monotonic_partners(p)
        assert [m.key() for m in built] == [m.key() for m in derived]
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("gap", [1, 2])  # two tails, then a tail and a head
def test_triangle_relator_refuses_a_signed_partial_germ(gap):
    signed = partial_germ_into(parse_diagram("2; T1 T2 H1 H2; +-"), gap)
    with pytest.raises(ValueError):
        triangle_relator(signed)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_arrow_diagrams_match_the_permutation_enumeration(degree):
    assert [d.word for d in enumerate_arrow_diagrams(degree)] == \
        [d.word for d in permuted_arrow_diagrams(degree)]


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_one_sided_germ_enumerations_match_the_seen_set_oracles(degree):
    for enumerate_germs, oracle in ((enumerate_partial_germs, seen_partial_germs),
                                    (enumerate_arrow_3germs, seen_arrow_3germs)):
        keys = [g.key() for g in enumerate_germs(degree)]
        assert len(set(keys)) == len(keys)
        assert set(keys) == {g.key() for g in oracle(degree)}
    if degree == 2:  # the order that relations/triangle_deg2.json records
        assert [p.key() for p in enumerate_partial_germs(2) if not p.is_monotonic()] == \
            [p.key() for p in seen_partial_germs(2) if not p.is_monotonic()]


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5])
def test_arrow_diagrams_are_distinct_canonical_words(degree):
    diagrams = list(enumerate_arrow_diagrams(degree))
    assert all(d.canonical_key() == d.word for d in diagrams)
    assert len({d.word for d in diagrams}) == len(diagrams) == \
        math.prod(range(1, 2 * degree, 2)) * 2 ** degree


def test_relator_families_closed_under_reversal():
    nonmono = [p for p in enumerate_partial_germs(2) if not p.is_monotonic()]
    keys = {p.key() for p in nonmono}
    for p in nonmono:
        rev, _ = p.reverse_arrows().canonical()
        assert rev.key() in keys


def test_keys_and_hashes_are_kept_on_normal_forms_only():
    rng = random.Random(5)
    g = random_gauss_diagram(rng, 4)
    germ = make_germ(g, enumerate_moves(g, "R3")[0] if enumerate_moves(g, "R3")
                     else random_move(rng, g))
    canon, _ = germ.canonical()
    assert hash(germ) == hash(canon) and germ.key() == canon.key()
    assert germ._key is None and germ._hash is None
    assert canon._key == canon.key() and canon._hash == hash(canon.key())


def test_a_germ_labelled_by_first_occurrence_keeps_its_sides():
    # The normal forms in dA of degree at most 3, of every kind, rebuilt
    # as new germs and taken either way round.
    germs = {g for deg in range(4) for a in enumerate_arrow_diagrams(deg)
             for g in coboundary(a).keys()}
    assert {g.kind for g in germs} == {"R1", "R2", "R3", "P"}
    for germ in germs:
        fresh = Germ(germ.kind, germ.g0, germ.g1, germ.dist)
        canon, sign = fresh.canonical()
        assert canon is fresh and sign == 1
        canon, sign = fresh.swapped().canonical()
        assert sign == -1 and canon.g0 is germ.g0 and canon.g1 is germ.g1


DIST_SIZES = {"R1": 1, "R2": 2, "R3": 3, "P": 1}


def _json_germs(obj):
    """Every germ written in a JSON value, read with ``germ_from_json``."""
    if isinstance(obj, dict) and obj.keys() == {"kind", "g0", "g1", "dist"}:
        yield germ_from_json(obj)
    elif isinstance(obj, (dict, list)):
        for v in obj.values() if isinstance(obj, dict) else obj:
            yield from _json_germs(v)


def test_every_germ_has_a_sorted_tuple_of_ints_as_dist(cube_meridians):
    sources = {
        "coboundary": [g for d in range(4) for a in enumerate_arrow_diagrams(d)
                       for g in coboundary(a).keys()],
        "variables": list(variable_basis(3)),
        "rotation loops": [g for name in ("unknot", "trefoil", "figure8")
                           for g in rot_loop(name).germs],
        "cube meridians": [g for m in [*cube_meridians, *enumerate_cube_meridians(1)]
                           for g in m.germs],
        "quadruple meridians": [g for m in quadruple_meridians() for g in m.germs],
        "fixtures": [g for path in sorted(FIXTURES.rglob("*.json"))
                     for g in _json_germs(load_json(path))],
    }
    for source, germs in sources.items():
        assert germs, source
        for germ in germs:
            for g in (germ, germ.canonical()[0]):
                assert type(g.dist) is tuple and len(g.dist) == DIST_SIZES[g.kind], (source, g)
                assert all(type(x) is int for x in g.dist), (source, g)
                assert all(a <= b for a, b in zip(g.dist, g.dist[1:])), (source, g)


def test_pair_germ_zero_formula():
    rng = random.Random(2)
    g = random_gauss_diagram(rng, 3)
    m = random_move(rng, g)
    germ = make_germ(g, m)
    assert pair_germ(FormalSum(), germ) == 0


def test_pair_germ_antisymmetry_for_3germs():
    rng = random.Random(3)
    alpha = FormalSum([(g, Fraction(1)) for g in
                       itertools.islice(enumerate_arrow_3germs(3), 5)])
    found = 0
    while found < 5:
        g = random_gauss_diagram(rng, 3)
        for m in enumerate_moves(g, "R3"):
            germ = make_germ(g, m)
            assert pair_germ(alpha, germ) + pair_germ(alpha, germ.swapped()) == 0
            found += 1
            break


def test_pairing_routes_agree():
    rng = random.Random(4)
    alpha = FormalSum()
    for g in itertools.islice(enumerate_partial_germs(2), 6):
        alpha.add(g, Fraction(1, 2))
    for g in itertools.islice(enumerate_arrow_3germs(3), 3):
        alpha.add(g, Fraction(-2))
    for _ in range(25):
        g = random_gauss_diagram(rng, 3)
        m = random_move(rng, g)
        if m is None:
            continue
        germ = make_germ(g, m)
        assert pair_germ(alpha, germ) == pair_germ_via_s(alpha, germ)


def test_relators_annihilate_actual_germs():
    """<relator, TI(gamma)> = 0 for every actual 3-germ."""
    rng = random.Random(6)
    relators = [triangle_relator(p) for p in enumerate_partial_germs(2)
                if not p.is_monotonic()]
    checked = 0
    while checked < 12:
        g = random_gauss_diagram(rng, 4)
        for m in enumerate_moves(g, "R3"):
            germ = make_germ(g, m)
            chain = ti(germ)
            for rel in relators:
                assert rel.dot(chain) == 0
            checked += 1
            break


def test_pairing_invariant_under_rewriting_alpha():
    """Rewriting a cochain through the relations keeps actual pairings."""
    rng = random.Random(8)
    nonmono = [p for p in enumerate_partial_germs(2) if not p.is_monotonic()]
    alpha = FormalSum([(nonmono[0], Fraction(1)), (nonmono[3], Fraction(-2))])
    reduced = monotonic_reduce(alpha)
    checked = 0
    while checked < 10:
        g = random_gauss_diagram(rng, 3)
        for m in enumerate_moves(g, "R3"):
            germ = make_germ(g, m)
            assert pair_germ(alpha, germ) == pair_germ(reduced, germ)
            checked += 1
            break


def test_s_map_signs():
    p = next(iter(enumerate_partial_germs(2)))
    sm = s_map(FormalSum([(p, Fraction(1))]))
    assert sum(abs(c) for _, c in sm.items()) == 4  # 2^degree completions


def _germs_of_every_kind(rng, per_kind=4, min_degree=4, max_degree=7):
    """Random Gauss germs with bystanders: R1, R2, R3 and partial germs."""
    found = {"R1": [], "R2": [], "R3": [], "P": []}
    while min(len(v) for v in found.values()) < per_kind:
        g = random_gauss_diagram(rng, max_degree)
        germs = [make_germ(g, rng.choice(moves)) for moves in
                 (enumerate_moves(g, kind) for kind in MOVE_KINDS) if moves]
        gaps = split_gaps(g)
        if gaps:
            germs.append(partial_germ_into(g, rng.choice(gaps)))
        for germ in germs:
            if germ.degree >= min_degree:
                found[germ.kind].append(germ)
    return [germ for kind in found.values() for germ in kind[:per_kind]]


def _restricted(fs, degrees):
    return [(k, c) for k, c in fs.items() if k.degree in degrees]


def test_degree_restricted_subgerms_are_the_degree_parts_in_order():
    germs = _germs_of_every_kind(random.Random(12))
    for germ in germs:
        full = subgerms(germ)
        for k in range(germ.degree + 1):
            assert list(subgerms(germ, degrees={k}).items()) == _restricted(full, {k})
        both = {germ.degree, germ.degree - 1}
        assert list(subgerms(germ, degrees=both).items()) == _restricted(full, both)
        assert subgerms(germ, degrees=None) == full
    chain = FormalSum((g, Fraction(i + 1)) for i, g in enumerate(germs))
    assert list(ti(chain, {3}).items()) == _restricted(ti(chain), {3})


def test_ti_is_t_after_i():
    rng = random.Random(31)
    germs = _germs_of_every_kind(rng, per_kind=12, min_degree=2, max_degree=7)
    assert {g.kind for g in germs} == {"R1", "R2", "R3", "P"}
    assert {g.degree for g in germs} >= set(range(2, 8))
    for germ in germs:
        for degrees in (None, {3}, {1, 2}):
            assert ti(germ, degrees) == t_map(i_map(germ, degrees))
    chain = FormalSum((g, Fraction(i + 1, 2)) for i, g in enumerate(germs))
    assert ti(chain) == t_map(i_map(chain))


def test_ti_refuses_unsigned_germs():
    with pytest.raises(ValueError):
        ti(next(iter(enumerate_arrow_3germs(3))))


def _formulas():
    """alpha31, dA for A of degree <= 4, and alpha31 + dA for deg A = 2."""
    a = alpha31(FIXTURES)
    diagrams = ["0; ", "1; T1 H1", "2; T1 T2 H1 H2", "2; T1 H2 H1 T2",
                "3; T1 T2 H1 T3 H2 H3", "3; T1 H2 T3 H1 T2 H3",
                "4; T1 T2 H3 H1 T4 H2 T3 H4", "4; T1 H2 T3 H4 H1 T2 H3 T4"]
    coboundaries = [coboundary(parse_diagram(d)) for d in diagrams]
    mixed = [a + db for db in coboundaries[2:4]]
    return [a] + coboundaries + mixed


FORMULAS = _formulas()


@given(st.randoms())
@settings(max_examples=40, deadline=None)
def test_pair_germ_matches_the_full_expansion(rng):
    g = random_gauss_diagram(rng, 7)
    germs = []
    m = random_move(rng, g)
    if m is not None:
        germs.append(make_germ(g, m))
    # random_move rarely picks an R3 move: draw diagrams until one has one.
    for _ in range(100):
        r3s = enumerate_moves(g, "R3")
        if r3s:
            germs.append(make_germ(g, rng.choice(r3s)))
            break
        g = random_gauss_diagram(rng, 7)
    for germ in germs:
        full = ti(germ)
        for alpha in FORMULAS:
            assert pair_germ(alpha, germ) == alpha.dot(full)


@given(st.randoms())
@settings(max_examples=80, deadline=None)
def test_a_subgerm_read_off_the_words_is_the_canonical_deletion(rng):
    """``_normal_subgerm``, the table miss of ``add_ti``, against the diagram route.

    The germs are a random move's and a random R3 move's, signed as
    ``add_ti`` meets them, and a partial arrow germ.  Each loses a random
    set of free arrows, and an R3 germ at times one distinguished arrow;
    the diagram route deletes them from the unsigned germ and canonicalises.
    """
    g = random_gauss_diagram(rng, 7)
    germs = []
    move = random_move(rng, g)
    if move is not None:
        germs.append(make_germ(g, move))
    if split_gaps(g):
        germs.append(partial_germ_into(g.skeleton(), rng.choice(split_gaps(g))))
    for _ in range(20):  # random_move rarely picks an R3 move
        r3s = enumerate_moves(g, "R3")
        if r3s:
            germs.append(make_germ(g, rng.choice(r3s)))
            break
        g = random_gauss_diagram(rng, 7)
    for germ in germs:
        skeleton = germ
        if germ.signed:
            skeleton = Germ(germ.kind, germ.g0.skeleton(), germ.g1.skeleton(), germ.dist)
        dist = germ.distinguished_ids()
        ids = {a for a in germ.arrow_ids() if a not in dist and rng.random() < 0.5}
        if germ.kind == KIND_R3 and rng.random() < 0.5:
            ids.add(rng.choice(sorted(dist)))
        canon, sign = _normal_subgerm(germ, ids)
        expected, expected_sign = _delete_from_germ(skeleton, ids).canonical()
        assert sign == expected_sign
        assert ((canon.kind, canon.g0.word, canon.g1.word, canon.dist)
                == (expected.kind, expected.g0.word, expected.g1.word, expected.dist))
