"""Fixture files stay in sync with their generators."""

import json

import pytest

from knotcocycle import fixtures_io as fio
from knotcocycle.diagrams import format_diagram
from knotcocycle.fixturegen import derive_v2_diagram
from knotcocycle.morse import FIXTURE_MORSE, trace


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


def test_germ_json_roundtrip(fixtures_dir):
    obj = fio.load_json(fixtures_dir / "relations" / "triangle_deg2.json")
    for rel in obj["relators"][:10]:
        g = fio.germ_from_json(rel["top"])
        assert fio.germ_from_json(fio.germ_to_json(g)) == g


def test_scene_fixture_meridians_are_closed(fixtures_dir):
    from knotcocycle.strata import Meridian
    obj = fio.load_json(fixtures_dir / "strata" / "fig7_scenes.json")
    assert [s["label"] for s in obj["scenes"]] == list("abcdef")
    for scene in obj["scenes"]:
        germs = [fio.germ_from_json(g) for g in scene["germs"]]
        m = Meridian("cube", germs)
        m.check_closed()
        assert not m.boundary()
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
