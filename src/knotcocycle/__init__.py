"""Gauss-diagram calculus for 1-cocycles of long virtual knots.

The package implements the chain of tools leading from the Polyak-Viro
subdiagram pairing to explicit integral 1-cocycle formulas of degree 3:
diagrams and moves, germs with their subgerm calculus and triangle
relations, the coboundary with its Stokes formula, the codimension-2
equation system over exact rationals, and loop evaluation including the
rotation loop of a long knot.

The names below are imported from their modules on first use, so that
``python -m knotcocycle`` loads only the layers its subcommand runs.
"""

import importlib
import sys
import types

_HOMES = {
    "diagrams": ("ArrowDiagram", "GaussDiagram", "FormalSum", "EMPTY_ARROW", "EMPTY_GAUSS",
                 "pair", "parse_diagram"),
    "moves": ("Move", "apply_move", "edge_data", "enumerate_moves", "inverse", "validate_r3"),
    "germs": ("Germ", "boundary", "make_germ", "monotonic_reduce", "pair_germ", "subgerms"),
    "coboundary": ("coboundary", "stokes_sides"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Importing a submodule binds it on the package.  The function
        # ``coboundary`` keeps the name of its module, as it did when the
        # names were imported eagerly.
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
