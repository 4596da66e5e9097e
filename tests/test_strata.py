import hashlib
import itertools

import pytest

from knotcocycle.diagrams import FormalSum
from knotcocycle import germs, moves
from knotcocycle.cocycles import rot_loop
from knotcocycle.germs import KIND_P, KIND_R3
from knotcocycle.morse import FIXTURE_MORSE, connected_sum
from knotcocycle.moves import _literally_equal
from knotcocycle.quadruple import quadruple_meridians, tetrahedron_meridians
from knotcocycle.strata import (CUBE, QUADRUPLE, Meridian, banned_variable, classify_scenes,
                                collect_rows, dedupe_meridians, enumerate_cube_meridians,
                                meridian_equation, meridian_key, picture_fingerprint,
                                reversal_on_rows, row_of_meridian, ti_meridian, variable_basis)
from oracles import (arrow_positions, chain_boundary, homogeneous_parts, i_meridian,
                     meridian_without, t_map, walked_cube_meridians, walked_scenes)

# sha256 of repr(sorted(meridian keys)) of the 5,760 one-bystander cube
# meridians, as the walk over every scene and pruned birth found them.
BYSTANDER_MERIDIANS_SHA256 = "368a3472589a3a41f6ce9aab79d49021358e6663fdcc853bbc24ebc0aec179f3"


@pytest.fixture(scope="module")
def bystander_meridians():
    return list(enumerate_cube_meridians(1))


def test_meridian_counts(cube_meridians):
    assert len(cube_meridians) == 144
    pictures = {}
    for m in cube_meridians:
        pictures.setdefault(picture_fingerprint(m), []).append(m)
    assert len(pictures) == 48
    assert all(len(v) == 3 for v in pictures.values())


def test_cube_meridians_come_out_once_each(cube_meridians):
    # The walk slides the later-born pair arrow first, so it meets each
    # unoriented meridian once: dedupe has nothing to drop, also with
    # one bystander.
    def keys(meridians):
        return [meridian_key(m) for m in meridians]

    assert len(cube_meridians) == 144
    assert keys(dedupe_meridians(cube_meridians)) == keys(cube_meridians)
    with_bystander = list(itertools.islice(enumerate_cube_meridians(1), 400))
    assert keys(dedupe_meridians(with_bystander)) == keys(with_bystander)


def test_cube_meridians_are_those_of_the_walk(cube_meridians):
    # Literally: same order, words, signs and distinguished data, so the
    # births that the walk tries and the construction skips for lack of a
    # first slide's triangle yield nothing.
    def literal(m):
        return m.tag, m.bystanders, [(g.kind, g.g0.word, g.g0.signs, g.g1.word, g.g1.signs, g.dist)
                                     for g in m.germs]

    walked = list(walked_cube_meridians(walked_scenes(0)))
    assert [literal(m) for m in cube_meridians] == [literal(m) for m in walked]


def test_only_births_with_an_unsigned_first_slide_are_built():
    # Over the 12 scene words: 720 unsigned births, 72 whose word can
    # make the first slide, and each of those has one first and one
    # second slide.
    from knotcocycle.diagrams import ArrowDiagram
    from knotcocycle.moves import R2_BIRTH, enumerate_moves, r2_birth_word, r3_moves, transpose
    from knotcocycle.strata import _scene_diagrams, _sliding_births
    words = [scenes[0].skeleton() for scenes in _scene_diagrams()]
    assert len(words) == 12
    assert sum(len(enumerate_moves(w, R2_BIRTH)) for w in words) == 720
    plans = [(w, plan) for w in words for plan in _sliding_births(w)]
    assert len(plans) == 72
    for w, (birth, m1, _, m2, _) in plans:
        c1, c2 = w.degree + 1, w.degree + 2
        d1 = ArrowDiagram(r2_birth_word(w.word, birth.data, c1, c2))
        assert r3_moves(d1, frozenset((1, 2, c2))) == [m1]
        assert r3_moves(transpose(d1, m1.data), frozenset((1, 2, c1))) == [m2]


def test_solved_signs_are_those_of_the_signed_slides(cube_meridians):
    # The oracle searches every signing of each scene word and both birth
    # signs with the signed r3_moves: on every unsigned plan exactly two
    # choices slide twice, each the other with every sign flipped, and
    # they are the births the enumeration built.
    from knotcocycle.germs import make_germ
    from knotcocycle.moves import r2_birth, r3_moves, transpose
    from knotcocycle.strata import _scene_diagrams, _sliding_births

    def literal(d):
        return d.word, tuple(sorted(d.signs.items()))

    found = set()
    for scenes in _scene_diagrams():
        for birth, *_ in _sliding_births(scenes[0].skeleton()):
            sliding = []
            for g0, sign in itertools.product(scenes, (1, -1)):
                g1 = make_germ(g0, r2_birth(*birth.data[:4], sign)).g1
                c1, c2 = g1.degree - 1, g1.degree
                for m1 in r3_moves(g1, frozenset((1, 2, c2))):
                    if r3_moves(transpose(g1, m1.data), frozenset((1, 2, c1))):
                        sliding.append(g1)
            assert len(sliding) == 2
            a, b = sliding
            assert a.word == b.word and {x: -s for x, s in a.signs.items()} == b.signs
            found.update(map(literal, sliding))
    assert found == {literal(m.germs[0].g1) for m in cube_meridians}
    assert len(found) == 144


def _partners(meridians):
    """Each meridian with its twin partner, whichever of the two links to the other."""
    partner = {id(m.twin): m for m in meridians if m.twin is not None}
    return [(m, m.twin if m.twin is not None else partner[id(m)]) for m in meridians]


def test_twins_pair_every_meridian_once(cube_meridians, bystander_meridians):
    for meridians, pairs in ((cube_meridians, 72), (bystander_meridians, 2880)):
        position = {id(m): i for i, m in enumerate(meridians)}
        twinned = [m for m in meridians if m.twin is not None]
        assert len(twinned) == len({id(m.twin) for m in twinned}) == pairs
        assert {id(m) for m in twinned} | {id(m.twin) for m in twinned} == set(position)
        for m in twinned:
            twin = m.twin
            assert twin.twin is None and position[id(twin)] < position[id(m)]
            assert m.base().signs[1] == -1 == -twin.base().signs[1]
            for g, h in zip(m.germs, twin.germs):
                assert (g.kind, g.dist, g.g0.word, g.g1.word) == (h.kind, h.dist, h.g0.word,
                                                                    h.g1.word)
                for side, other in ((g.g0, h.g0), (g.g1, h.g1)):
                    assert {a: -s for a, s in side.signs.items()} == other.signs


def test_a_twins_equation_is_the_negation_of_its_partners(cube_meridians, bystander_meridians):
    # Computed directly on both, in the same term order.
    cases = [(m, t, frozenset()) for m, t in _partners(cube_meridians)]
    cases += [(m, t, s) for m, t in _partners(bystander_meridians)[::10]
              for s in (frozenset(), m.bystanders)]
    assert len(cases) == 144 + 2 * 576
    nonzero = 0
    for m, twin, s in cases:
        direct = list(ti_meridian(m, s, {3}).items())
        assert direct == [(k, -c) for k, c in ti_meridian(twin, s, {3}).items()]
        assert list(meridian_equation(m, s).items()) == direct
        nonzero += bool(direct)
    assert nonzero == 720


def test_bystander_meridians_are_those_of_the_walk(bystander_meridians):
    keys = [meridian_key(m) for m in bystander_meridians]
    assert len(keys) == len(set(keys)) == 5760
    assert hashlib.sha256(repr(sorted(keys)).encode()).hexdigest() == BYSTANDER_MERIDIANS_SHA256


def test_bystander_meridians_match_the_walk_on_every_tenth_scene(bystander_meridians):
    # The walk names the bystander 3, the construction 0; the active
    # arrows are 1 and 2 in both.
    def literal(d):
        return d.word, tuple(sorted(d.signs.items()))

    built = {}
    for m in bystander_meridians:
        scene = literal(m.base().relabel({0: 3, 1: 1, 2: 2}))
        built.setdefault(scene, set()).add(meridian_key(m))
    scenes = list(itertools.islice(walked_scenes(1), 0, None, 10))
    assert len(scenes) == 288
    for scene in scenes:
        walked = {meridian_key(m) for m in walked_cube_meridians([scene])}
        assert walked == built.get(literal(scene), set())


def test_bystander_meridians_close_and_delete_to_a_bare_one(bystander_meridians,
                                                           cube_meridians):
    bare = {meridian_key(m) for m in cube_meridians}
    for m in bystander_meridians[::97]:
        germs.check_closed(m.germs)
        assert _literally_equal(m.germs[-1].g1, m.base())
        assert not chain_boundary(m.germs)
        assert m.bystanders == frozenset((0,))
        assert meridian_key(meridian_without(m, m.bystanders)) in bare
        for g in m.germs:
            g.validate()  # each germ is the move it names


def test_every_one_bystander_equation_is_zero(bystander_meridians):
    # So --bystanders checks criterion 6b and adds no row.
    assert len(bystander_meridians) == 5760
    assert all(not meridian_equation(m, m.bystanders) for m in bystander_meridians)
    assert collect_rows(bystander_meridians) == []


def test_one_pass_keeps_the_first_equation_of_each_class(cube_meridians):
    listed = [*cube_meridians, *tetrahedron_meridians()]
    rows = collect_rows(listed)
    # A meridian listed twice adds nothing: its equations are repeats.
    assert collect_rows([*listed, *cube_meridians]) == rows
    # The tetrahedron pair leaves the cube equations' scalar classes.
    tags = [source.meridian.tag for _, source in rows]
    assert tags == [CUBE] * (len(rows) - 2) + [QUADRUPLE] * 2


def test_more_than_one_bystander_is_refused():
    with pytest.raises(ValueError):
        next(enumerate_cube_meridians(2))


def test_meridians_close_and_bound_zero(cube_meridians):
    for m in cube_meridians[:20]:
        germs.check_closed(m.germs)
        assert _literally_equal(m.germs[-1].g1, m.base())
        assert not chain_boundary(m.germs)


def test_package_built_chains_validate_no_r3_move_again(monkeypatch):
    # r3_moves and move_between have accepted every R3 move of these
    # chains; a rotation loop applies only its births and deaths, once
    # each (move_between compares a birth or death after applying it).
    calls = {"validate_r3": 0, "apply_move": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(moves, "validate_r3")
    counted(moves, "apply_move")
    monkeypatch.setattr(germs, "apply_move", moves.apply_move)
    assert len(list(enumerate_cube_meridians(0))) == 144
    assert len(quadruple_meridians()) == 24
    assert calls["validate_r3"] == 0
    figure8 = FIXTURE_MORSE["figure8"]
    for events in [*FIXTURE_MORSE.values(), connected_sum(figure8, figure8, figure8)]:
        calls["apply_move"] = 0
        loop = rot_loop(events)
        assert calls == {"validate_r3": 0,
                         "apply_move": sum(g.kind != KIND_R3 for g in loop.germs)}


def test_six_scene_classes(cube_meridians):
    variables = variable_basis(3)
    var_index = {g: j for j, g in enumerate(variables)}
    scenes = classify_scenes(cube_meridians, variables, var_index)
    assert sorted(scenes) == list("abcdef")
    for label, cls in scenes.items():
        assert len(cls["fingerprints"]) == 8
        assert len(cls["meridians"]) == 24
    assert scenes["c"]["eq_count"] == 3 and not scenes["c"]["four_term"]
    assert scenes["d"]["four_term"] and scenes["e"]["four_term"]
    # a subset of the meridians lacks the six scenes: no fallback labels
    with pytest.raises(RuntimeError):
        classify_scenes(cube_meridians[:24], variables, var_index)


def test_row_set_closed_under_arrow_reversal(cube_meridians):
    variables = variable_basis(3)
    var_index = {g: j for j, g in enumerate(variables)}
    reverse_row = reversal_on_rows(variables, var_index)
    rows = {row_of_meridian(m, var_index) for m in cube_meridians}
    rows.discard(())
    assert rows == {reverse_row(r) for r in rows}


def test_equation_homogeneity(cube_meridians):
    for m in cube_meridians[:12]:
        for deg, part in homogeneous_parts(ti_meridian(m, frozenset())).items():
            assert all(k.degree == deg for k, _ in part.items())


def test_variable_basis_counts():
    variables = variable_basis(3)
    n3 = sum(1 for g in variables if g.kind == KIND_R3)
    npart = sum(1 for g in variables if g.kind == KIND_P)
    assert (len(variables), n3, npart) == (38, 10, 28)
    assert all(g.kind == KIND_R3 or g.is_monotonic() for g in variables)
    assert not any(banned_variable(g) for g in variables)


@pytest.mark.parametrize("degree, n3, npart, nbanned", [(3, 24, 120, 106), (4, 480, 2520, 2172)])
def test_variable_filter_agrees_with_the_positional_bans(degree, n3, npart, nbanned):
    # Every candidate, and every ban hits some candidate on its own, so
    # each of the four is checked by itself.
    from knotcocycle.germs import enumerate_arrow_3germs, enumerate_partial_germs
    from oracles import positional_bans
    candidates = list(enumerate_arrow_3germs(degree))
    assert len(candidates) == n3
    candidates.extend(p for p in enumerate_partial_germs(degree) if p.is_monotonic())
    assert len(candidates) == n3 + npart
    bans = [positional_bans(g) for g in candidates]
    assert [banned_variable(g) for g in candidates] == [bool(b) for b in bans]
    assert sum(map(bool, bans)) == nbanned
    alone = {min(b) for b in bans if len(b) == 1}
    assert alone == ({1, 3, 4} if degree == 3 else {1, 2, 3, 4})
    assert len(variable_basis(degree)) == n3 + npart - nbanned


def test_filter_bans_isolated_spectator():
    from knotcocycle.germs import enumerate_partial_germs
    banned_seen = ok_seen = 0
    for p in enumerate_partial_germs(3):
        if not p.is_monotonic():
            continue
        dist = p.distinguished_ids()
        spectators = [a for a in p.arrow_ids() if a not in dist]
        pos = arrow_positions(p.g1)
        iso = any(abs(pos[a]["T"] - pos[a]["H"]) == 1 for a in spectators)
        if iso:
            assert banned_variable(p)
            banned_seen += 1
        else:
            ok_seen += 1
    assert banned_seen and ok_seen


def test_filter_bans_one_side_isolated_distinguished():
    from knotcocycle.germs import enumerate_partial_germs
    found = 0
    for p in enumerate_partial_germs(3):
        if not p.is_monotonic():
            continue
        dist = sorted(p.distinguished_ids())
        for side in (p.g0, p.g1):
            pos = arrow_positions(side)
            if any(abs(pos[a]["T"] - pos[a]["H"]) == 1 for a in dist):
                assert banned_variable(p)
                found += 1
                break
    assert found


def test_inclusion_exclusion_identity():
    """I(m; s) = sum over s' <= s of (-1)^{|s - s'|} I(m_{s'}).

    For a single bystander this reads I(m; {b}) = I(m) - I(m_without_b)
    where I(x) is the full subgerm sum of the meridian chain.
    """
    from knotcocycle.germs import subgerms

    def full_subgerms(meridian):
        out = FormalSum()
        for germ in meridian.germs:
            out = out + subgerms(germ)
        return out

    tested = 0
    for m in enumerate_cube_meridians(1):
        if not m.bystanders:
            continue
        s = frozenset(m.bystanders)
        lhs = i_meridian(m, s)
        rhs = full_subgerms(m) - full_subgerms(meridian_without(m, s))
        assert lhs == rhs
        tested += 1
        if tested >= 3:
            break
    assert tested == 3


def test_i_meridian_splits_i_of_m():
    gen = enumerate_cube_meridians(1)
    for m in gen:
        if not m.bystanders:
            continue
        total = FormalSum()
        subsets = [frozenset()] + [frozenset((b,)) for b in sorted(m.bystanders)]
        for s in subsets:
            total = total + i_meridian(m, s)
        from knotcocycle.germs import subgerms
        everything = FormalSum()
        for germ in m.germs:
            everything = everything + subgerms(germ)
        assert total == everything
        break


def test_meridian_equation_is_the_degree_three_part(cube_meridians):
    def degree_three_part(m, s):
        return list(homogeneous_parts(ti_meridian(m, s)).get(3, FormalSum()).items())

    for m in cube_meridians:
        assert list(meridian_equation(m).items()) == degree_three_part(m, frozenset())
    with_bystander = [m for m in itertools.islice(enumerate_cube_meridians(1), 400)
                      if m.bystanders]
    assert len(with_bystander) >= 40
    for m in with_bystander[::10]:
        for s in (frozenset(), m.bystanders):
            assert list(meridian_equation(m, s).items()) == degree_three_part(m, s)


def test_ti_meridian_matches_t_after_i(cube_meridians):
    with_bystander = [m for m in itertools.islice(enumerate_cube_meridians(1), 400)
                      if m.bystanders]
    assert len(with_bystander) >= 40
    cases = [(m, frozenset()) for m in cube_meridians]
    for m in with_bystander[::10]:
        cases += [(m, frozenset()), (m, m.bystanders)]
    for m, s in cases:
        for degrees in (None, {3}):
            assert ti_meridian(m, s, degrees) == t_map(i_meridian(m, s, degrees))


def test_meridian_equation_is_computed_once_per_meridian_and_s(cube_meridians):
    m = Meridian(cube_meridians[0].tag, cube_meridians[0].germs)
    assert meridian_equation(m) is meridian_equation(m)
    assert list(m.equations) == [frozenset()]


def test_scene_classification_and_rows_share_each_equation(monkeypatch):
    import knotcocycle.strata as strata
    calls = []
    expand = strata.ti_meridian
    monkeypatch.setattr(strata, "ti_meridian",
                        lambda m, s, degrees=None: calls.append(m) or expand(m, s, degrees))
    meridians = list(enumerate_cube_meridians(0))
    variables = variable_basis(3)
    var_index = {g: j for j, g in enumerate(variables)}
    classify_scenes(meridians, variables, var_index)
    strata.collect_rows(meridians)
    # One expansion per twin pair: a twin negates its partner's equation.
    assert len(meridians) == 144
    assert len(calls) == len(set(map(id, calls))) == 72
