from __future__ import annotations

import random
from pathlib import Path

import pytest

from knotcocycle.diagrams import ArrowDiagram, GaussDiagram
from knotcocycle.moves import MOVE_KINDS, apply_move, enumerate_moves

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def knots(fixtures_dir):
    from knotcocycle.fixtures_io import load_knot
    return {name: load_knot(fixtures_dir, name)
            for name in ("unknot", "trefoil", "figure8")}


@pytest.fixture(scope="session")
def cube_meridians():
    from knotcocycle.strata import dedupe_meridians, enumerate_cube_meridians
    return dedupe_meridians(enumerate_cube_meridians(0))


@pytest.fixture(scope="session")
def degree3_system(fixtures_dir, cube_meridians):
    from knotcocycle.cocycles import load_tetra_rows
    from knotcocycle.strata import assemble_system
    tetra = load_tetra_rows(fixtures_dir)
    return assemble_system(tetra_rows=tetra, meridians=cube_meridians)


def random_gauss_diagram(rng: random.Random, max_degree: int,
                         steps: int | None = None) -> GaussDiagram:
    """A random diagram reached from the empty one by random R-moves."""
    g = GaussDiagram((), {})
    n = rng.randrange(0, 3 * max_degree + 2) if steps is None else steps
    for _ in range(n):
        kind = rng.choice(MOVE_KINDS)
        moves = enumerate_moves(g, kind)
        if not moves:
            continue
        nxt = apply_move(g, rng.choice(moves))
        if nxt.degree <= max_degree:
            g = nxt
    return g


def random_arrow_diagram(rng: random.Random, max_degree: int) -> ArrowDiagram:
    deg = rng.randrange(0, max_degree + 1)
    tokens = []
    for i in range(1, deg + 1):
        tokens.extend([(i, "T"), (i, "H")])
    rng.shuffle(tokens)
    return ArrowDiagram(tokens).canonical()


def random_move(rng: random.Random, g: GaussDiagram):
    moves = []
    for kind in MOVE_KINDS:
        moves.extend(enumerate_moves(g, kind))
    return rng.choice(moves) if moves else None
