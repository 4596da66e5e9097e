from __future__ import annotations

from pathlib import Path

import pytest

# The random samplers of the randomized checks, shared with the CLI.
from knotcocycle.moves import random_arrow_diagram, random_gauss_diagram, random_move  # noqa: F401

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def knots(fixtures_dir):
    from knotcocycle import fixtures_io as fio
    return {name: fio.load_fixture(fixtures_dir, f"knots/{name}.json", fio.diagram_from_json)
            for name in ("unknot", "trefoil", "figure8")}


@pytest.fixture(scope="session")
def cube_meridians():
    from knotcocycle.strata import enumerate_cube_meridians
    return list(enumerate_cube_meridians(0))


@pytest.fixture(scope="session")
def degree3_system(cube_meridians):
    from knotcocycle.quadruple import tetrahedron_meridians
    from knotcocycle.strata import assemble_system
    return assemble_system(cube_meridians + tetrahedron_meridians())
