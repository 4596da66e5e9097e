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
