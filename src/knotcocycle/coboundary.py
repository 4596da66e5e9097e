"""The coboundary of arrow diagrams and the two sides of the Stokes formula.

``d`` sends an arrow diagram A to the formal sum of all arrow germs and
partial arrow germs whose larger side equals A; the partial terms are
expressed in the monotonic basis.  The four components I, II, Delta and
Lambda of dA are its terms of germ kind R1, R2, R3 and P.  The kernel of
d is exactly the space of arrow diagram formulas, i.e. the linear
combinations whose pairing with Gauss diagrams is a knot invariant, and
the defining contract of this module is the Stokes formula
<dA, gamma> = <A, boundary(gamma)>.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .diagrams import ArrowDiagram, FormalSum, GaussDiagram, pair
from .germs import (Germ, KIND_R1, KIND_R2, boundary, canonical_term,
                    monotonic_reduce, pair_germ, partial_germ_into, r3_germ_into)
from .moves import arrow_positions, isolated, killable, r3_moves, split_gaps


def coboundary(a: ArrowDiagram) -> FormalSum:
    """dA by insertion into A: the R1, R2 and R3 terms, then the reduced partial ones."""
    if isinstance(a, GaussDiagram):
        raise TypeError("the coboundary acts on arrow diagrams")
    pos = arrow_positions(a)
    out = FormalSum()
    for aid in pos:
        if isolated(pos, aid):
            key, coeff = canonical_term(Germ(KIND_R1, a.delete({aid}), a, aid))
            out.add(key, coeff)

    for x, y in itertools.combinations(sorted(pos), 2):
        if killable(pos, x, y):
            key, coeff = canonical_term(Germ(KIND_R2, a.delete({x, y}), a, frozenset((x, y))))
            out.add(key, coeff)

    for move in r3_moves(a):
        key, coeff = canonical_term(r3_germ_into(a, move.data))
        out.add(key, coeff)

    lam = FormalSum()
    for gap in split_gaps(a):
        key, coeff = canonical_term(partial_germ_into(a, gap))
        lam.add(key, coeff)
    return out + monotonic_reduce(lam)


def stokes_sides(a: ArrowDiagram, gamma: Germ) -> tuple[Fraction, Fraction]:
    """The two sides <dA, gamma> and <A, boundary(gamma)>."""
    lhs = pair_germ(coboundary(a), gamma)
    canon = a.canonical()
    rhs = sum((c * pair(canon, g) for g, c in boundary(gamma).items()), Fraction(0))
    return lhs, rhs
