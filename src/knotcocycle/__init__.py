"""Gauss-diagram calculus for 1-cocycles of long virtual knots.

The package implements the chain of tools leading from the Polyak-Viro
subdiagram pairing to explicit integral 1-cocycle formulas of degree 3:
diagrams and moves, germs with their subgerm calculus and triangle
relations, the coboundary with its Stokes formula, the codimension-2
equation system over exact rationals, and loop evaluation including the
rotation loop of a long knot.
"""

from .diagrams import (ArrowDiagram, EMPTY_ARROW, EMPTY_GAUSS, FormalSum,
                       GaussDiagram, pair, parse_diagram)
from .moves import Move, apply_move, edge_data, enumerate_moves, inverse, validate_r3
from .germs import (Germ, boundary, make_germ, monotonic_reduce, pair_germ,
                    subgerms)
from .coboundary import coboundary, stokes_sides

__all__ = [
    "ArrowDiagram", "GaussDiagram", "FormalSum", "EMPTY_ARROW", "EMPTY_GAUSS",
    "pair", "parse_diagram",
    "Move", "apply_move", "edge_data", "enumerate_moves", "inverse", "validate_r3",
    "Germ", "boundary", "make_germ", "monotonic_reduce", "pair_germ", "subgerms",
    "coboundary", "stokes_sides",
]

__version__ = "0.1.0"
