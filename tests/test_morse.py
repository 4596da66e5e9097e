import json

import pytest

from conftest import REPO
from knotcocycle import fixtures_io as fio
from knotcocycle import morse
from knotcocycle.diagrams import pair, parse_diagram
from knotcocycle.morse import (FIXTURE_MORSE, LoopBuildError, MorseError,
                               connected_sum, rot_moves, trace, validate_events)
from knotcocycle.cocycles import Loop
from knotcocycle.moves import apply_move

# Presentations with a closed component: a free circle, and a circle
# crossing the long strand.
LINKS = ([("cup", 2), ("cap", 2)],
         [("cup", 2), ("cup", 3), ("x", 2, "asc"), ("cap", 3), ("cap", 2)])


def _schedule(events):
    """The rotation loop's initial diagram, move list and tags."""
    loop = Loop(*rot_moves(events))
    return loop.initial, loop.moves, loop.tags


def test_traces_match_fixture_knots(knots):
    for name, events in FIXTURE_MORSE.items():
        assert trace(events).diagram == knots[name]


def test_trefoil_trace_word_exact():
    d = trace(FIXTURE_MORSE["trefoil"]).diagram.canonical()
    assert d == parse_diagram("3; T1 H2 T3 H1 T2 H3; +++")


def test_invalid_presentations_rejected():
    with pytest.raises(MorseError):
        validate_events([("cup", 2)])          # ends on three wires
    with pytest.raises(MorseError):
        validate_events([("x", 1, "asc")])     # no second wire to cross
    with pytest.raises(MorseError):
        validate_events([("cap", 1)])          # nothing to cap
    with pytest.raises(MorseError):
        validate_events([("cup", 2), ("x", 1), ("cap", 2)])  # no over tag
    with pytest.raises(MorseError):
        validate_events([("cup",), ("cap", 2)])  # no position
    with pytest.raises(MorseError):
        validate_events([("cup", True), ("cap", 1)])  # a bool is no position


@pytest.mark.parametrize("events", LINKS)
def test_links_rejected(events):
    with pytest.raises(MorseError, match="closed component"):
        trace(events)
    with pytest.raises(MorseError, match="closed component"):
        rot_moves(events)


def test_rot_moves_match_the_recorded_loops():
    # Loops recorded before the sweep took its moves from move_between:
    # the five benchmark knots, T(2,5), T(2,7), T(2,9) and figure8^3.
    recorded = json.loads((REPO / "tests" / "data" / "rot_moves.json").read_text())
    assert len(recorded) == 9
    for name, rec in recorded.items():
        initial, moves, tags = _schedule([tuple(ev) for ev in rec["events"]])
        assert fio.diagram_to_json(initial) == rec["initial"], name
        assert [fio.move_to_json(m) for m in moves] == rec["moves"], name
        assert tags == rec["tags"], name


def test_traces_match_the_recorded_traces():
    # Traces recorded before the walk followed wire heights: the fixture
    # knots and their sums, T(2,q) for q <= 15, seeded 3- and 4-strand
    # braid closures and seeded Morse words, knots and links alike.
    recorded = json.loads((REPO / "tests" / "data" / "traces.json").read_text())
    assert len(recorded) == 61
    assert sum("error" in rec for rec in recorded.values()) == 23
    for name, rec in recorded.items():
        events = [tuple(ev) for ev in rec["events"]]
        if "error" in rec:
            with pytest.raises(MorseError) as err:
                trace(events)
            assert str(err.value) == rec["error"], name
            continue
        tr = trace(events)
        assert fio.diagram_to_json(tr.diagram) == rec["diagram"], name
        assert [[list(t) for t in ts] for ts in tr.transits] == rec["transits"], name


def test_unreachable_column_raises_loop_build_error(monkeypatch):
    # With every riser arrow positive, the two arrows a cup gives birth
    # to have equal signs, so no R2 birth reaches that column.
    monkeypatch.setattr(morse, "_wire_sign", lambda east_going: 1)
    with pytest.raises(LoopBuildError):
        rot_moves(FIXTURE_MORSE["trefoil"])


def test_rot_loop_closes_for_fixtures():
    for name, events in FIXTURE_MORSE.items():
        initial, moves, tags = _schedule(events)
        cur = initial
        for m in moves:
            cur = apply_move(cur, m)
        assert list(cur.word) == list(initial.word)
        assert cur.signs == initial.signs


def test_rot_bottom_segment_has_one_r3_per_crossing():
    for name, events in FIXTURE_MORSE.items():
        initial, moves, tags = _schedule(events)
        bottom = sum(1 for t in tags if t == "bottom")
        top = sum(1 for t in tags if t == "top")
        assert bottom == initial.degree
        assert top == initial.degree
        assert tags[0] == tags[-1] == "cusp"


def test_connected_sum_traces_to_composite(fixtures_dir):
    from knotcocycle.cocycles import v2_diagram
    events = connected_sum(FIXTURE_MORSE["trefoil"], FIXTURE_MORSE["figure8"])
    k = trace(events).diagram
    assert k.degree == 7
    # v2 is additive under connected sum
    a = v2_diagram(fixtures_dir)
    assert pair(a, k) == 0  # 1 + (-1)


def test_connected_sum_rot_closes():
    events = connected_sum(FIXTURE_MORSE["trefoil"], FIXTURE_MORSE["trefoil"])
    initial, moves, tags = _schedule(events)
    cur = initial
    for m in moves:
        cur = apply_move(cur, m)
    assert list(cur.word) == list(initial.word)
    assert sum(1 for t in tags if t == "bottom") == 6
