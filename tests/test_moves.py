import hashlib
import itertools
import random

import pytest

from knotcocycle.diagrams import EMPTY_GAUSS, GaussDiagram, format_diagram, parse_diagram
from knotcocycle.fixtures_io import diagram_from_json, load_json
from knotcocycle.moves import (InvalidMove, MOVE_KINDS, Move, apply_move, edge_data,
                               R1_BIRTH, R1_DEATH, R2_BIRTH, R2_DEATH, enumerate_moves,
                               interleave, inverse, move_between, r1_birth, r1_death,
                               r2_birth, r2_death, r3, r3_moves, r3_triangle, validate_r3)
from conftest import random_arrow_diagram, random_gauss_diagram, random_move
from oracles import (arrow_positions, brute_r3_moves, frozenset_r3_triangle, isolated,
                     killable, listed_random_gauss_diagram, listed_random_move,
                     looped_births, table_interleave)


def test_edge_data_formula_cases():
    # interleaved, both tails: word T1 T2 H1 H2, edge between the tails
    d = parse_diagram("2; T1 T2 H1 H2; ++")
    eta, up, w, eps = edge_data(d, 1)
    assert (eta, up, w, eps) == (1, 0, 1, 1)
    # interleaved, one head one tail
    eta, up, w, eps = edge_data(d, 2)
    assert (eta, up, eps) == (1, 1, -1)
    # nested, two heads: word T1 T2 H2 H1, edge between the heads
    d2 = parse_diagram("2; T1 T2 H2 H1; +-")
    eta, up, w, eps = edge_data(d2, 3)
    assert (eta, up, w, eps) == (-1, 2, -1, -1)


def test_edge_data_errors():
    d = parse_diagram("2; T1 H1 T2 H2; ++")
    with pytest.raises(InvalidMove):
        edge_data(d, 1)  # both ends of arrow 1
    with pytest.raises(InvalidMove):
        edge_data(d, 0)  # unbounded gap at the basepoint
    with pytest.raises(InvalidMove):
        edge_data(d, 4)


def test_apply_move_refuses_data_that_do_not_fit_the_layout():
    for move in (Move("R1_birth", (0, "XX", 1)), Move("R1_birth", (0, "TH", True)),
                 Move("R2_birth", (0, 0, True)), Move("R2_birth", (0, 0, 1, False, 1)),
                 Move("R1_death", (1.0,)), Move("R3", (1, 3)), Move("R4", ())):
        with pytest.raises(InvalidMove):
            apply_move(EMPTY_GAUSS, move)


def test_enumerate_on_empty_diagram():
    assert len(enumerate_moves(EMPTY_GAUSS, "R1_birth")) == 4
    assert enumerate_moves(EMPTY_GAUSS, "R3") == []
    assert enumerate_moves(EMPTY_GAUSS, "R1_death") == []
    assert enumerate_moves(EMPTY_GAUSS, "R2_death") == []


def test_r1_death_needs_isolated_arrow():
    isolated = parse_diagram("1; T1 H1; +")
    assert len(enumerate_moves(isolated, "R1_death")) == 1
    crossed = parse_diagram("2; T1 T2 H1 H2; ++")
    assert enumerate_moves(crossed, "R1_death") == []


def test_r1_involution():
    m = enumerate_moves(EMPTY_GAUSS, "R1_birth")[0]
    g = apply_move(EMPTY_GAUSS, m)
    back = apply_move(g, inverse(EMPTY_GAUSS, m))
    assert back == EMPTY_GAUSS


def test_r2_birth_contains_source_as_subdiagram(knots):
    t = knots["trefoil"]
    births = enumerate_moves(t, "R2_birth")
    assert births
    for m in births:
        big = apply_move(t, m)
        born = set(big.arrow_ids()) - set(t.arrow_ids())
        assert len(born) == 2 and big.degree == 5
        small = big.delete(born)
        assert small.word == t.word and small.signs == t.signs


def test_seed_r3_fixture(fixtures_dir):
    obj = load_json(fixtures_dir / "moves" / "seed_r3.json")
    src = diagram_from_json(obj["source"])
    tgt = diagram_from_json(obj["target"])
    gaps = tuple(obj["gaps"])
    assert validate_r3(src, gaps)
    res = apply_move(src, r3(gaps))
    assert list(res.word) == list(tgt.word) and res.signs == tgt.signs


def test_seed_r3_single_sign_flip_invalidates(fixtures_dir):
    obj = load_json(fixtures_dir / "moves" / "seed_r3.json")
    src = diagram_from_json(obj["source"])
    gaps = tuple(obj["gaps"])
    triple = set()
    for g in gaps:
        triple.update(a for a, _ in (src.word[g - 1], src.word[g]))
    for aid in sorted(triple):
        signs = dict(src.signs)
        signs[aid] = -signs[aid]
        flipped = GaussDiagram(src.word, signs)
        assert not validate_r3(flipped, gaps)


def test_validate_r3_rejects_non_triangle():
    d = parse_diagram("3; T1 H2 T3 H1 T2 H3; +++")
    with pytest.raises(InvalidMove):
        validate_r3(d, (1, 2, 3))


def test_round_trip_identity_on_random_diagrams():
    rng = random.Random(42)
    checked = 0
    for _ in range(500):
        g = random_gauss_diagram(rng, 4)
        for kind in MOVE_KINDS:
            for m in enumerate_moves(g, kind):
                res = apply_move(g, m)
                back = apply_move(res, inverse(g, m))
                # rebirths use fresh ids, so compare up to relabelling
                assert back == g
                checked += 1
                if kind not in (R1_DEATH, R2_DEATH):
                    break  # one birth and one R3 move per diagram keeps this quick
    assert checked > 500


def _signed_shuffle(rng, max_degree: int) -> GaussDiagram:
    """A random arrow diagram with random signs, same-sign killable pairs included."""
    d = random_arrow_diagram(rng, max_degree)
    return GaussDiagram(d.word, {a: rng.choice((1, -1)) for a in d.arrow_ids()})


def _refused(d, move) -> bool:
    try:
        apply_move(d, move)
    except InvalidMove:
        return True
    return False


def test_deaths_are_the_positional_deaths():
    rng = random.Random(41)
    refusals = dict.fromkeys(("absent", "twice", "apart", "same sign", "length"), 0)
    accepted = 0
    for i in range(300):
        d = (random_gauss_diagram, random_arrow_diagram, _signed_shuffle)[i % 3](rng, 10)
        signed = isinstance(d, GaussDiagram)
        pos = arrow_positions(d)
        ends = [r1_death(a) for a in pos if isolated(pos, a)]
        pairs = [r2_death(a, b) for a, b in itertools.combinations(sorted(pos), 2)
                 if killable(pos, a, b) and not (signed and d.signs[a] == d.signs[b])]
        assert enumerate_moves(d, R1_DEATH) == ends
        assert enumerate_moves(d, R2_DEATH) == pairs
        listed = [set(m.data) for m in ends + pairs]
        for move in [Move(R1_DEATH, (a,)) for a in pos] + \
                [Move(R2_DEATH, ab) for ab in itertools.permutations(pos, 2)]:
            if set(move.data) in listed:
                res, expected = apply_move(d, move), d.delete(move.data)
                assert res.word == expected.word and res == expected
                accepted += 1
                continue
            assert _refused(d, move), move
            if move.kind == R2_DEATH:
                same = signed and d.signs[move.data[0]] == d.signs[move.data[1]]
                refusals["same sign" if killable(pos, *move.data) and same else "apart"] += 1
        absent = max(pos, default=0) + 1
        refusals["absent"] += _refused(d, r1_death(absent)) + _refused(d, r2_death(1, absent))
        for a in pos:
            refusals["twice"] += _refused(d, Move(R2_DEATH, (a, a)))
            refusals["length"] += _refused(d, Move(R1_DEATH, (a, a))) + \
                _refused(d, Move(R1_DEATH, ()))
    assert accepted > 300 and min(refusals.values()) > 20, (accepted, refusals)


def test_deaths_on_a_ladder_of_killable_pairs():
    # T1 T2 H2 H1 T3 T4 H4 H3 ...: 2,000 pairs, each killable only with its partner.
    n = 2000
    word = [t for k in range(1, 2 * n, 2)
            for t in ((k, "T"), (k + 1, "T"), (k + 1, "H"), (k, "H"))]
    d = GaussDiagram(word, {a: (1, -1)[a % 2 == 0] for a in range(1, 2 * n + 1)})
    deaths = enumerate_moves(d, R2_DEATH)
    assert deaths == [r2_death(k, k + 1) for k in range(1, 2 * n, 2)]
    small = apply_move(d, deaths[-1])
    assert small.word == d.word[:-4] and small.degree == 2 * n - 2
    back = apply_move(small, inverse(d, deaths[-1]))
    assert (back.word, back.signs) == (d.word, d.signs)


def test_r3_up_values_are_0_1_2():
    rng = random.Random(9)
    seen = 0
    while seen < 60:
        g = random_gauss_diagram(rng, 4)
        for m in enumerate_moves(g, "R3"):
            ups = sorted(edge_data(g, gap)[1] for gap in m.data)
            assert ups == [0, 1, 2]
            seen += 1


def test_r3_search_matches_every_gap_triple():
    rng = random.Random(17)
    found = restricted = 0
    for i in range(400):
        d = random_arrow_diagram(rng, 7) if i % 2 else random_gauss_diagram(rng, 7)
        moves = r3_moves(d)
        assert moves == brute_r3_moves(d)
        found += len(moves)
        ids = d.arrow_ids()
        for size in (3, len(ids) // 2 + 1):
            arrows = frozenset(rng.sample(ids, min(size, len(ids))))
            sub = r3_moves(d, arrows)
            assert sub == brute_r3_moves(d, arrows)
            restricted += len(sub)
    assert found > 100 and restricted > 20


def test_births_are_indexed_in_loop_order():
    rng = random.Random(3)
    for i in range(60):
        d = random_arrow_diagram(rng, 5) if i % 2 else random_gauss_diagram(rng, 5)
        for kind in (R1_BIRTH, R2_BIRTH):
            assert enumerate_moves(d, kind) == looped_births(d, kind)


def test_samplers_draw_what_the_listed_samplers_draw():
    for seed in range(600):
        fast, listed = random.Random(seed), random.Random(seed)
        g = random_gauss_diagram(fast, 1 + seed % 6)
        h = listed_random_gauss_diagram(listed, 1 + seed % 6)
        assert (g.word, g.signs) == (h.word, h.signs)
        assert random_move(fast, g) == listed_random_move(listed, g)
        assert fast.random() == listed.random()


# sha256 of the formatted first 100 diagrams of the walk at seeds 1 to 4,
# one line each, recorded while the walk still built every birth and
# discarded those past the cap.
WALK_SHA256 = {2: "7172582f742ac9496ef0dadb4ae3687559c9e8b93be146e3b77ecde26f30f2fa",
               4: "02876267d2134fd854f637cdd0339bfed04aecfd2e53e67ccc27947b14e5f135",
               8: "62b4d6281b6f9f09d1c07d301056a2c3a6c7fb8715b82da2cf63a74110274769"}


@pytest.mark.parametrize("max_degree", sorted(WALK_SHA256))
def test_the_walk_draws_the_pinned_diagrams(max_degree):
    digest = hashlib.sha256()
    for seed in (1, 2, 3, 4):
        rng = random.Random(seed)
        for _ in range(100):
            digest.update(format_diagram(random_gauss_diagram(rng, max_degree)).encode() + b"\n")
    assert digest.hexdigest() == WALK_SHA256[max_degree]


def test_triangle_test_matches_the_frozenset_form():
    rng = random.Random(23)
    hits = 0
    for i in range(300):
        d = random_arrow_diagram(rng, 6) if i % 2 else random_gauss_diagram(rng, 6)
        gaps = range(len(d.word) + 1)
        for triple in itertools.islice(itertools.combinations(gaps, 3), 200):
            expected = frozenset_r3_triangle(d, triple)
            assert r3_triangle(d, triple) == expected
            hits += expected is not None
    assert hits > 50


def test_interleave_matches_the_position_table():
    rng = random.Random(31)
    pairs = 0
    for i in range(200):
        d = random_arrow_diagram(rng, 6) if i % 2 else random_gauss_diagram(rng, 6)
        for a, b in itertools.permutations(d.arrow_ids(), 2):
            assert interleave(d, a, b) == table_interleave(d, a, b)
            pairs += 1
    assert pairs > 500


def _literal(d):
    return d.word, d.signs


def test_move_between_finds_every_move():
    rng = random.Random(11)
    found = dict.fromkeys(MOVE_KINDS, 0)
    for i in range(400):
        # Random diagrams seldom admit R3 moves; larger ones are searched for those only.
        d = random_gauss_diagram(rng, 4 if i < 40 else 7)
        for kind in MOVE_KINDS if i < 40 else ("R3",):
            for m in enumerate_moves(d, kind):
                target = apply_move(d, m)
                move = move_between(d, target)
                assert move.kind == m.kind
                assert _literal(apply_move(d, move)) == _literal(target)
                found[kind] += 1
    assert all(n > 10 for n in found.values()), found


def test_move_between_rejects_a_flipped_sign_and_two_moves():
    rng = random.Random(12)
    flipped = 0
    for _ in range(40):
        d = random_gauss_diagram(rng, 4)
        for kind in MOVE_KINDS:
            for m in enumerate_moves(d, kind)[:6]:
                target = apply_move(d, m)
                kept = sorted(set(d.arrow_ids()) & set(target.arrow_ids()))
                if kept:
                    signs = dict(target.signs)
                    signs[kept[0]] = -signs[kept[0]]
                    with pytest.raises(InvalidMove):
                        move_between(d, GaussDiagram(target.word, signs))
                    flipped += 1
        once = apply_move(d, r1_birth(0, "TH", 1))
        for second in (r1_birth(len(once.word), "HT", -1), r2_birth(1, 1, True, False, 1)):
            with pytest.raises(InvalidMove):
                move_between(d, apply_move(once, second))
        with pytest.raises(InvalidMove):
            move_between(d, d)  # no move at all
    assert flipped > 100
