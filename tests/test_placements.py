"""The placement table of ``germs.add_ti`` against the full subgerm expansion.

``expanded_add_ti`` in ``tests/oracles.py`` deletes and canonicalises
every subgerm of the skeleton; ``t_map(i_map(.))`` is the signed route.
The table must give the same terms, in the same order.
"""

import itertools
import os
import random
import subprocess
import sys

import pytest

from knotcocycle import fixtures_io as fio
from knotcocycle.cocycles import alpha31, rot_loop
from knotcocycle.diagrams import FormalSum, GaussDiagram
from knotcocycle.germs import (Germ, _subgerm_levels, add_ti, enumerate_arrow_3germs, make_germ,
                               pair_germ, ti)
from knotcocycle.morse import connected_sum
from knotcocycle.quadruple import quadruple_meridians
from knotcocycle.strata import enumerate_cube_meridians, ti_meridian
from conftest import FIXTURES, REPO, random_arrow_diagram, random_gauss_diagram, random_move
from oracles import (expanded_add_ti, expanded_ti, expanded_ti_meridian, i_map, i_meridian,
                     t_map)
from test_acceptance import _deg4_triangle_skeletons


def _same_terms(a, b):
    return list(a.items()) == list(b.items())


def _rotation_r3_germs():
    """The R3 germs of the fixture rotation loops and of figure8^1..5."""
    fixdir = fio.resolve_fixtures(FIXTURES)
    morse = {k: fio.load_morse(fixdir, k) for k in ("unknot", "trefoil", "figure8")}
    knots = [morse["unknot"], morse["trefoil"], morse["figure8"],
             connected_sum(morse["trefoil"], morse["trefoil"]),
             connected_sum(morse["trefoil"], morse["figure8"])]
    knots += [connected_sum(*[morse["figure8"]] * n) for n in range(1, 6)]
    return [g for events in knots for g in rot_loop(events).germs if g.kind == "R3"]


def test_table_matches_the_expansion_on_the_cube_meridians(cube_meridians):
    for m in cube_meridians:
        for degrees in ({3}, None):
            assert _same_terms(ti_meridian(m, frozenset(), degrees),
                               expanded_ti_meridian(m, frozenset(), degrees))
        assert ti_meridian(m, frozenset(), {3}) == t_map(i_meridian(m, frozenset(), {3}))


def test_table_matches_the_expansion_on_the_quadruple_meridians():
    meridians = quadruple_meridians()
    assert len(meridians) == 24
    for m in meridians:
        for degrees in ({3}, {4}):
            assert _same_terms(ti_meridian(m, frozenset(), degrees),
                               expanded_ti_meridian(m, frozenset(), degrees))


def test_table_matches_the_expansion_on_the_bystander_meridians():
    """Every germ of the 5,760 meridians with s = {} and s = {bystander}, in degree 3.

    Each skeleton is compared in the first signing that carries it: the
    table and the oracle weight a term by the same sign product, which
    the signings of the other tests cover.  ``test_ti_meridian_matches_t_after_i``
    compares a sample of these meridians with T(I).
    """
    seen = set()
    compared = 0
    for i, m in enumerate(enumerate_cube_meridians(1)):
        for s in (frozenset(), m.bystanders):
            drop = m.bystanders - s
            for g in m.germs:
                skel = (g.kind, g.g0.word, g.g1.word, str(g.dist), s)
                if skel in seen:
                    continue
                seen.add(skel)
                table, full = FormalSum(), FormalSum()
                add_ti(table, g, 1, s, drop, {3})
                expanded_add_ti(full, g, 1, s, drop, {3})
                assert _same_terms(table, full)
                compared += 1
    assert i + 1 == 5760 and compared == 2 * 5760


def test_table_matches_the_expansion_on_rotation_loops():
    alpha = alpha31(FIXTURES)
    germs = _rotation_r3_germs()
    assert max(g.degree for g in germs) >= 25
    for g in germs:
        assert _same_terms(ti(g, {3}), expanded_ti(g, {3}))
        assert ti(g, {3}) == t_map(i_map(g, {3}))
        assert pair_germ(alpha, g) == alpha.dot(expanded_ti(g, {3}))


def _triangle_signings():
    """The formal germs of criterion 3: every signing of its triangle skeletons of degree 3 and 4."""
    skeletons = [*enumerate_arrow_3germs(3), *_deg4_triangle_skeletons()]
    for skel in skeletons:
        ids = skel.arrow_ids()
        for signs in itertools.product((1, -1), repeat=len(ids)):
            table = dict(zip(ids, signs))
            yield Germ("R3", GaussDiagram(skel.g0.word, table), GaussDiagram(skel.g1.word, table),
                       skel.dist)


def test_table_matches_the_expansion_on_formal_triangle_signings():
    """Every signing against the expansion; every eleventh also against T(I)."""
    memo = {}
    for i, g in enumerate(_triangle_signings()):
        got = ti(g)
        assert _same_terms(got, expanded_ti(g, memo=memo))
        if i % 11 == 0:
            assert got == t_map(i_map(g))


@pytest.mark.parametrize("seed", range(4))
def test_table_and_deletion_agree_on_stokes_check_germs(seed):
    """The germs of ``stokes-check --max-degree 6``, paired in deg A and expanded in full.

    With every degree, a germ with two or more bystanders also reads
    subgerms that keep two or more of them from the table.
    """
    rng = random.Random(seed)
    wide = 0
    for _ in range(40):
        a = random_arrow_diagram(rng, 6)
        g = random_gauss_diagram(rng, 6)
        move = random_move(rng, g)
        if move is None:
            continue
        germ = make_germ(g, move)
        for degrees in ({a.degree}, None):
            assert _same_terms(ti(germ, degrees), expanded_ti(germ, degrees))
        dist, rest, levels = _subgerm_levels(germ, frozenset(), frozenset(), None)
        wide += any(r <= len(rest) - 2 for r, _ in levels)
    assert wide >= 5


WIDE_DEGREES = ({4}, {5}, None)


def _small_enough(g, degrees) -> bool:
    """Whether expanding g in these degrees by deletion takes at most a few thousand terms."""
    return g.degree <= {4: 25, 5: 15, None: 11}[degrees and min(degrees)]


def test_table_matches_the_expansion_in_degrees_4_and_5_on_meridians(cube_meridians):
    for m in cube_meridians:
        for degrees in WIDE_DEGREES:
            assert _same_terms(ti_meridian(m, frozenset(), degrees),
                               expanded_ti_meridian(m, frozenset(), degrees))
    for i, m in enumerate(enumerate_cube_meridians(1)):
        if i % 12:
            continue
        for s in (frozenset(), m.bystanders):
            for degrees in WIDE_DEGREES:
                assert _same_terms(ti_meridian(m, s, degrees), expanded_ti_meridian(m, s, degrees))


def test_table_matches_the_expansion_in_degrees_4_and_5_on_rotation_loops():
    """Every R3 germ of the rotation loops, in full up to degree 11, and with two kept arrows."""
    compared = 0
    for g in _rotation_r3_germs():
        for degrees in WIDE_DEGREES:
            if _small_enough(g, degrees):
                assert _same_terms(ti(g, degrees), expanded_ti(g, degrees))
                compared += 1
        rest = [a for a in g.arrow_ids() if a not in g.distinguished_ids()]
        keep, drop = frozenset(rest[:2]), frozenset(rest[2:3])
        if _small_enough(g, None):
            table, full = FormalSum(), FormalSum()
            add_ti(table, g, 1, keep, drop)
            expanded_add_ti(full, g, 1, keep, drop)
            assert _same_terms(table, full)
    assert compared >= 200


def _counting_normal_forms(monkeypatch) -> list:
    """The calls of ``germs._normalise``, which ``Germ.canonical`` and every table miss make."""
    from knotcocycle.germs import _normalise
    calls = []
    monkeypatch.setattr("knotcocycle.germs._normalise",
                        lambda *args: calls.append(1) or _normalise(*args))
    return calls


def test_a_second_degree_4_pass_makes_no_canonicalisation(monkeypatch):
    fixdir = fio.resolve_fixtures(FIXTURES)
    figure8 = fio.load_morse(fixdir, "figure8")
    germs = [g for g in rot_loop(connected_sum(figure8, figure8)).germs if g.kind == "R3"]
    first = [ti(g, {4}) for g in germs]
    calls = _counting_normal_forms(monkeypatch)
    assert [ti(g, {4}) for g in germs] == first
    assert calls == [] and sum(len(t) for t in first) > 1000


def test_renamed_arrows_read_the_same_table_entries(monkeypatch):
    fixdir = fio.resolve_fixtures(FIXTURES)
    figure8 = fio.load_morse(fixdir, "figure8")
    germs = [g for g in rot_loop(connected_sum(figure8, figure8)).germs if g.kind == "R3"]
    first = [ti(g, {4}) for g in germs]
    top = max(a for g in germs for a in g.arrow_ids())
    m = {a: top + 1 - a for a in range(1, top + 1)}  # reverses the order of the names
    renamed = [Germ(g.kind, g.g0.relabel(m), g.g1.relabel(m), g.dist) for g in germs]
    calls = _counting_normal_forms(monkeypatch)
    assert [dict(ti(g, {4}).items()) for g in renamed] == [dict(t.items()) for t in first]
    assert calls == []


def test_canonicalisations_per_alpha31_pairing_do_not_grow_with_the_loop(monkeypatch):
    alpha = alpha31(FIXTURES)
    fixdir = fio.resolve_fixtures(FIXTURES)
    figure8 = fio.load_morse(fixdir, "figure8")
    loops = {n: [g for g in rot_loop(connected_sum(*[figure8] * n)).germs if g.kind == "R3"]
             for n in (1, 8)}
    for germs in loops.values():  # warm-up: every placement of these germs is in the table
        for g in germs:
            pair_germ(alpha, g)
    calls = _counting_normal_forms(monkeypatch)
    most = {}
    for n, germs in loops.items():
        for g in germs:
            calls.clear()
            pair_germ(alpha, g)
            most[n] = max(most.get(n, 0), len(calls))
    assert max(g.degree for g in loops[8]) >= 30  # 1 + 3 * 27 subgerms by deletion
    assert most[8] == most[1] <= len(alpha) + 1


def test_importing_the_cli_leaves_the_table_empty():
    code = ("import knotcocycle.cli\n"
            "from knotcocycle import germs\n"
            "print(len(germs._PLACEMENTS))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=REPO, env=dict(os.environ, PYTHONPATH=str(REPO / "src")), check=True)
    assert out.stdout.strip() == "0"



def test_the_tables_are_emptied_at_their_cap(monkeypatch):
    # Both tables are emptied together on the miss that would pass the cap,
    # so they stay within it, and each germ's T(I) keeps its terms and order.
    from knotcocycle import germs
    chain = [g for k in ("trefoil", "figure8") for g in rot_loop(k).germs]
    expected = [list(ti(g).items()) for g in chain]
    for name, empty in (("_PLACEMENTS", {}), ("_NORMAL_FORMS", {}), ("_entries", 0)):
        monkeypatch.setattr(germs, name, empty)
    monkeypatch.setattr(germs, "_TABLE_CAP", 40)
    misses = []
    normal_subgerm = germs._normal_subgerm
    monkeypatch.setattr(germs, "_normal_subgerm",
                        lambda *args: misses.append(1) or normal_subgerm(*args))
    for g, want in zip(chain, expected):
        assert list(ti(g).items()) == want
        assert sum(map(len, germs._PLACEMENTS.values())) == germs._entries <= 40
        assert len(germs._NORMAL_FORMS) <= 40
    assert len(misses) > 3 * 40  # so the tables were emptied at least three times
