from fractions import Fraction

from knotcocycle.germs import check_closed
from knotcocycle.moves import _literally_equal
from knotcocycle.quadruple import quadruple_meridians, sector_orders, tetrahedron_meridians
from knotcocycle.rational_linalg import SparseMatrix, in_row_span
from knotcocycle.strata import (QUADRUPLE, meridian_equation, normalise_row,
                                restrict_to_variables, reversal_on_rows,
                                row_of_meridian, ti_meridian, variable_basis)
from oracles import chain_boundary, geometric_sector_orders, homogeneous_parts, load_tetra_rows


def test_wall_rule_gives_the_sectors_of_the_lines():
    assert sector_orders() == geometric_sector_orders()


def test_quadruple_movie_structure():
    ms = quadruple_meridians()
    assert len(ms) == 24
    for m in ms:
        assert len(m.germs) == 8
        assert all(g.kind == "R3" for g in m.germs)
        check_closed(m.germs)
        assert _literally_equal(m.germs[-1].g1, m.base())
        assert not chain_boundary(m.germs)
        # positive braid-like: every crossing positive throughout
        for g in m.germs:
            assert all(s == 1 for s in g.g1.signs.values())


def test_exactly_two_novel_equations(cube_meridians):
    variables = variable_basis(3)
    var_index = {g: j for j, g in enumerate(variables)}
    cube_rows = sorted({row_of_meridian(m, var_index) for m in cube_meridians} - {()})
    cube_mat = SparseMatrix(len(cube_rows), len(variables),
                            [dict((j, Fraction(v)) for j, v in r) for r in cube_rows])
    qrows = []
    seen = set()
    for m in quadruple_meridians():
        part = homogeneous_parts(ti_meridian(m, frozenset())).get(3)
        norm = normalise_row(restrict_to_variables(part, var_index))
        if norm and norm not in seen:
            seen.add(norm)
            qrows.append(norm)
    assert len(qrows) == 6
    novel = [r for r in qrows
             if not in_row_span(cube_mat, dict((j, Fraction(v)) for j, v in r))]
    assert len(novel) == 2
    reverse_row = reversal_on_rows(variables, var_index)
    assert reverse_row(novel[0]) == novel[1]
    # The scan over all 24 meridians finds the pair the system takes, in its order.
    assert novel == [row_of_meridian(m, var_index) for m in tetrahedron_meridians()]


def test_the_tetrahedron_pair_is_the_generated_fixture(fixtures_dir):
    pair = tetrahedron_meridians()
    assert [meridian_equation(m) for m in pair] == load_tetra_rows(fixtures_dir)
    var_index = {g: j for j, g in enumerate(variable_basis(3))}
    assert [len(row_of_meridian(m, var_index)) for m in pair] == [8, 8]


def test_every_stored_equation_names_its_meridian(degree3_system):
    sources = list(degree3_system.sources.values())
    assert all(source.meridian is not None for source in sources)
    tetra = [source.meridian for source in sources if source.meridian.tag == QUADRUPLE]
    assert [m.germs for m in tetra] == [m.germs for m in tetrahedron_meridians()]


def test_novel_rows_are_pure_partial():
    variables = variable_basis(3)
    var_index = {g: j for j, g in enumerate(variables)}
    for m in quadruple_meridians():
        part = homogeneous_parts(ti_meridian(m, frozenset())).get(3)
        row = restrict_to_variables(part, var_index)
        assert all(variables[j].kind == "P" for j in row)
