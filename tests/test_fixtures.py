"""Fixture files stay in sync with their generators."""

import json
from fractions import Fraction

import pytest

from knotcocycle import fixtures_io as fio
from knotcocycle.diagrams import format_diagram
from knotcocycle.fixturegen import derive_v2_diagram
from knotcocycle.morse import FIXTURE_MORSE, trace
from knotcocycle.rational_linalg import solve_in_span
from oracles import chain_boundary, subset_unit_candidates


def test_knot_fixtures_match_morse_traces(fixtures_dir, knots):
    for name, events in FIXTURE_MORSE.items():
        assert trace(events).diagram == knots[name]
        stored = fio.load_json(fixtures_dir / "knots" / f"{name}.json")
        assert stored["text"] == format_diagram(knots[name].canonical())


def test_rot_template_matches_module_presentations(fixtures_dir):
    for name in FIXTURE_MORSE:
        assert fio.load_morse(fixtures_dir, name) == \
            [tuple(ev) for ev in FIXTURE_MORSE[name]]


def test_v2_fixture_matches_derivation(fixtures_dir, knots):
    from knotcocycle.cocycles import v2_diagram
    assert v2_diagram(fixtures_dir) == derive_v2_diagram(knots)


def test_formula_roundtrip(fixtures_dir):
    from knotcocycle.cocycles import alpha31
    a = alpha31(fixtures_dir)
    again = fio.formula_from_json(fio.formula_to_json(a))
    assert again == a


def test_integral_coefficients_load_as_ints(fixtures_dir):
    from knotcocycle.cocycles import alpha31
    coefficients = [c for _, c in alpha31(fixtures_dir).items()]
    assert coefficients and all(type(c) is int for c in coefficients)
    half = fio.formula_from_json([{**fio.formula_to_json(alpha31(fixtures_dir))[0],
                                   "coeff": [3, 6]}])
    assert [c for _, c in half.items()] == [Fraction(1, 2)]


def test_germ_json_roundtrip(fixtures_dir):
    obj = fio.load_json(fixtures_dir / "relations" / "triangle_deg2.json")
    for rel in obj["relators"][:10]:
        g = fio.germ_from_json(rel["top"])
        assert fio.germ_from_json(fio.germ_to_json(g)) == g


def test_scene_fixture_meridians_are_closed(fixtures_dir):
    from knotcocycle.germs import check_closed
    from knotcocycle.moves import _literally_equal
    from knotcocycle.strata import Meridian
    obj = fio.load_json(fixtures_dir / "strata" / "fig7_scenes.json")
    assert [s["label"] for s in obj["scenes"]] == list("abcdef")
    for scene in obj["scenes"]:
        germs = [fio.germ_from_json(g) for g in scene["germs"]]
        m = Meridian("cube", germs)
        check_closed(m.germs)
        assert _literally_equal(germs[-1].g1, germs[0].g0)
        assert not chain_boundary(m.germs)
        assert scene["pictures"] == 8
        assert scene["meridians"] == 24


def test_fig8_equations_match_regeneration(fixtures_dir, cube_meridians):
    from knotcocycle.strata import (classify_scenes, normalise_row,
                                    restrict_to_variables, variable_basis)
    variables = variable_basis(3)
    var_index = {g: j for j, g in enumerate(variables)}
    scenes = classify_scenes(cube_meridians, variables, var_index)
    stored = fio.load_json(fixtures_dir / "strata" / "fig8_expected.json")
    for label, cls in scenes.items():
        regenerated = set()
        for row in cls["rows"]:
            if row:
                regenerated.add(row)
        loaded = set()
        for formula in stored["scene_equations"][label]:
            fs = fio.formula_from_json(formula)
            loaded.add(normalise_row(restrict_to_variables(fs, var_index)))
        assert loaded == regenerated


def test_full_regeneration_reproduces_fixtures(fixtures_dir, tmp_path):
    from knotcocycle.fixturegen import main
    assert main(["--out", str(tmp_path)]) == 0
    stored = {p.relative_to(fixtures_dir): p.read_bytes()
              for p in fixtures_dir.rglob("*") if p.is_file()}
    regenerated = {p.relative_to(tmp_path): p.read_bytes()
                   for p in tmp_path.rglob("*") if p.is_file()}
    assert sorted(regenerated) == sorted(stored)
    for path, data in stored.items():
        assert regenerated[path] == data, path


def _spoilt_germs():
    """One germ of each kind whose sides are not the move its data name."""
    from knotcocycle.diagrams import parse_diagram
    from knotcocycle.germs import make_germ, partial_germ_into
    from knotcocycle.moves import r1_birth, r2_birth, r3_moves
    d = parse_diagram("2; T1 T2 H1 H2; +-")
    r1 = fio.germ_to_json(make_germ(d, r1_birth(0, "TH", 1)))
    r1["dist"] = 1  # arrow 1 is not isolated in g1
    r2 = fio.germ_to_json(make_germ(d, r2_birth(0, 4, True, False, 1)))
    r2["g1"]["signs"].update({str(a): 1 for a in r2["dist"]})  # the pair has equal signs
    tri = parse_diagram("3; T1 T2 H1 T3 H2 H3")
    r3 = fio.germ_to_json(make_germ(tri, r3_moves(tri)[0]))
    r3["g0"] = r3["g1"]  # g0 -> g1 switches nothing
    p = fio.germ_to_json(partial_germ_into(parse_diagram("2; T1 T2 H1 H2"), 2))
    p["g0"] = p["g1"]
    return {"R1": r1, "R2": r2, "R3": r3, "P": p}


@pytest.mark.parametrize("kind", ["R1", "R2", "R3", "P"])
def test_germ_loader_rejects_a_germ_that_is_not_its_move(kind):
    bad = json.loads(json.dumps(_spoilt_germs()[kind]))
    assert bad["kind"] == kind
    with pytest.raises(ValueError):
        fio.germ_from_json(bad)


TOKENS = [{"id": 1, "kind": "T"}, {"id": 1, "kind": "H"}]


@pytest.mark.parametrize("obj", [
    {"word": TOKENS, "signs": {"01": 1, "1": -1}},
    {"word": TOKENS, "signs": {" 1": 1}},
    {"word": TOKENS, "signs": {"+1": 1}},
    {"degree": 7, "word": TOKENS},
    {"degree": 0, "word": TOKENS, "signs": {"1": 1}},
    {"degree": True, "word": TOKENS},
], ids=["leading-zero-key", "space-key", "plus-key", "degree-7", "degree-0", "bool-degree"])
def test_diagram_loader_refuses_what_the_text_reader_refuses(obj):
    with pytest.raises(ValueError):
        fio.diagram_from_json(obj)


@pytest.mark.parametrize("check", [
    lambda x: fio._int(x, "arrow id"),
    lambda x: fio._list(x, 3, "word"),
    lambda x: fio._dict(x, "diagram"),
    lambda x: fio._field(x, (1, -1), "sign"),
], ids=["int", "list", "dict", "field"])
@pytest.mark.parametrize("value", ["x" * 10**6, [[i] * 10 for i in range(10**5)]],
                         ids=["long-string", "long-list"])
def test_a_refused_value_is_echoed_cut_short(check, value):
    with pytest.raises(ValueError) as info:
        check(value)
    assert len(str(info.value)) < 40 + fio.ECHO_CHARS


def test_gen_strata_expands_each_meridian_once(monkeypatch, tmp_path):
    from knotcocycle import fixturegen, strata
    calls = []
    expand = strata.ti_meridian
    monkeypatch.setattr(strata, "ti_meridian",
                        lambda m, s, degrees=None: calls.append(m) or expand(m, s, degrees))
    fixturegen.gen_strata(tmp_path)
    # 72 of the 144 cube meridians (the others negate their twins) and
    # the 24 quadruple meridians; the pair the scan finds is not rebuilt.
    assert len(calls) == len(set(map(id, calls))) == 96


def test_gen_strata_refuses_a_pair_it_did_not_find(monkeypatch, tmp_path):
    from knotcocycle import fixturegen
    pair = fixturegen.tetrahedron_meridians()
    monkeypatch.setattr(fixturegen, "tetrahedron_meridians", lambda: pair[::-1])
    with pytest.raises(RuntimeError, match="not the tetrahedron pair"):
        fixturegen.gen_strata(tmp_path)


def test_fixturegen_refuses_an_output_under_a_file(tmp_path, capsys):
    from knotcocycle.fixturegen import main
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    assert main(["--out", str(blocker / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _counting_solves(monkeypatch):
    """The row lists that fixturegen passes to solve_in_span, recorded."""
    from knotcocycle import fixturegen
    calls = []

    def solve(rows, target):
        calls.append(rows)
        return solve_in_span(rows, target)

    monkeypatch.setattr(fixturegen, "solve_in_span", solve)
    return calls


def test_alpha31_search_matches_one_solve_per_support(monkeypatch, degree3_system):
    from knotcocycle import fixturegen
    seen = []
    search = fixturegen._unit_candidates

    def recording(*args):
        seen.append(args)
        return search(*args)

    monkeypatch.setattr(fixturegen, "_unit_candidates", recording)
    calls = _counting_solves(monkeypatch)
    fixturegen.derive_alpha31(degree3_system)
    (fg, others, res, target), = seen
    assert len(others) == 23 and len(calls) == 68
    found = search(fg, others, res, target)
    expected = subset_unit_candidates(fg, others, res, target)
    assert expected and found == expected
    assert all(type(x) is Fraction for cand in found for x in cand.values())


def _e(*cols, x=1):
    return {c: Fraction(x) for c in cols}


def test_alpha31_search_exits_early_on_hand_made_residuals(monkeypatch):
    from knotcocycle.fixturegen import _unit_candidates
    res = {
        0: _e(0),     # the first germ
        1: {},        # a zero column: (0, 1) is dependent
        2: _e(1),
        3: _e(0, 1),  # (0, 2, 3) is dependent
        4: _e(2, 3),  # the target lies in the span of (0, 2, 4) and of (0, 3, 4)
        5: _e(2),
        6: _e(3, x=2),  # (0, 2, 5, 6) survives with coefficient 1/2
        7: _e(3),
    }
    target = _e(0, 1, 2, 3)
    others = list(range(1, 8))
    calls = _counting_solves(monkeypatch)
    found = _unit_candidates(0, others, res, target)
    assert found == subset_unit_candidates(0, others, res, target)
    assert found == [{0: 1, 2: 1, 5: 1, 7: 1}]
    # Only these reach solve_in_span; (0, 3, 5, c) gets a zero first coefficient.
    solved = [tuple(next(j for j in res if res[j] is row) for row in rows) for rows in calls]
    assert solved == [(0, 2, 5, 6), (0, 2, 5, 7), (0, 3, 5, 6), (0, 3, 5, 7)]


def test_alpha31_search_without_a_first_germ_row(monkeypatch):
    from knotcocycle.fixturegen import _unit_candidates
    calls = _counting_solves(monkeypatch)
    res = {0: {}, 1: _e(0), 2: _e(1), 3: _e(2)}
    assert _unit_candidates(0, [1, 2, 3], res, _e(0)) == []
    assert calls == []
