"""The coboundary of arrow diagrams and the two sides of the Stokes formula.

``d`` sends an arrow diagram A to the formal sum of all arrow germs and
partial arrow germs whose larger side equals A, split by move kind into
four components; the partial component is expressed in the monotonic
basis.  Its kernel is exactly the space of arrow diagram formulas, i.e.
the linear combinations whose pairing with Gauss diagrams is a knot
invariant, and the defining contract of this module is the Stokes
formula  <dA, gamma> = <A, boundary(gamma)>.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .diagrams import ArrowDiagram, FormalSum, GaussDiagram, pair
from .germs import (Germ, KIND_R1, KIND_R2, boundary, canonical_term,
                    monotonic_reduce, pair_germ, partial_germ_into, r3_germ_into)
from .moves import arrow_positions, isolated, killable, r3_moves, split_gaps


@dataclass
class CoboundaryValue:
    """The four components of dA, the partial one monotonically reduced."""

    r1: FormalSum
    r2: FormalSum
    r3: FormalSum
    partial: FormalSum

    def total(self) -> FormalSum:
        return self.r1 + self.r2 + self.r3 + self.partial

    def components(self) -> dict[str, FormalSum]:
        return {"I": self.r1, "II": self.r2, "Delta": self.r3, "Lambda": self.partial}

    def is_zero(self) -> bool:
        return not (self.r1 or self.r2 or self.r3 or self.partial)


def coboundary(a: ArrowDiagram) -> CoboundaryValue:
    """dA, generated by inserting distinguished structure into A."""
    if isinstance(a, GaussDiagram):
        raise TypeError("the coboundary acts on arrow diagrams")
    pos = arrow_positions(a)
    r1 = FormalSum()
    for aid in pos:
        if isolated(pos, aid):
            key, coeff = canonical_term(Germ(KIND_R1, a.delete({aid}), a, aid))
            r1.add(key, coeff)

    r2 = FormalSum()
    for x, y in itertools.combinations(sorted(pos), 2):
        if killable(pos, x, y):
            key, coeff = canonical_term(Germ(KIND_R2, a.delete({x, y}), a, frozenset((x, y))))
            r2.add(key, coeff)

    r3 = FormalSum()
    for move in r3_moves(a):
        key, coeff = canonical_term(r3_germ_into(a, move.data))
        r3.add(key, coeff)

    lam = FormalSum()
    for gap in split_gaps(a):
        key, coeff = canonical_term(partial_germ_into(a, gap))
        lam.add(key, coeff)

    return CoboundaryValue(r1, r2, r3, monotonic_reduce(lam))


def stokes_sides(a: ArrowDiagram, gamma: Germ) -> tuple[Fraction, Fraction]:
    """The two sides <dA, gamma> and <A, boundary(gamma)>."""
    lhs = pair_germ(coboundary(a).total(), gamma)
    canon = a.canonical()
    rhs = sum((c * pair(canon, g) for g, c in boundary(gamma).items()), Fraction(0))
    return lhs, rhs
