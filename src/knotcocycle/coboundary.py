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

import functools

from .diagrams import ArrowDiagram, FormalSum, GaussDiagram, pair
from .germs import (Germ, _germ_data, canonical_term, monotonic_reduce, pair_germ,
                    partial_germ_into, r3_germ_into)
from .moves import R1_DEATH, R2_DEATH, enumerate_moves, r3_moves, split_gaps


def deaths(a: ArrowDiagram) -> list:
    """A's R1 deaths in word order, then its R2 deaths in sorted-pair order."""
    return enumerate_moves(a, R1_DEATH) + enumerate_moves(a, R2_DEATH)


def death_germ(a: ArrowDiagram, death) -> Germ:
    """A death of A read as a birth: the germ from A without the dead arrows to A."""
    kind, dist = _germ_data(a, death)
    return Germ(kind, a.delete(death.data), a, dist)


# 1,815 entries hold every arrow diagram of degree at most 4, the sum of
# (2k)!/k! for k = 0..4, and bound the memory at higher degrees.
@functools.lru_cache(maxsize=1815)
def coboundary(a: ArrowDiagram) -> FormalSum:
    """dA by insertion into A: the R1, R2 and R3 terms, then the reduced partial ones.

    The R1 and R2 terms are the germs of A's ``deaths`` read as births.
    Each dA is kept in a per-process LRU cache keyed by A up to
    relabelling, so callers must not mutate it; it is computed on A's
    canonical form, so its terms come in one order whatever labelling
    filled the cache.
    """
    if isinstance(a, GaussDiagram):
        raise TypeError("the coboundary acts on arrow diagrams")
    a = a.canonical()
    out = FormalSum()
    for death in deaths(a):
        key, coeff = canonical_term(death_germ(a, death))
        out.add(key, coeff)

    for move in r3_moves(a):
        key, coeff = canonical_term(r3_germ_into(a, move.data))
        out.add(key, coeff)

    lam = FormalSum()
    for gap in split_gaps(a):
        key, coeff = canonical_term(partial_germ_into(a, gap))
        lam.add(key, coeff)
    return out + monotonic_reduce(lam)


def stokes_sides(a: ArrowDiagram, gamma: Germ) -> tuple[int, int]:
    """The two sides <dA, gamma> and <A, boundary(gamma)>.

    ``pair`` reads a diagram up to relabelling, so each side of gamma is
    paired as given, with no canonical copy.
    """
    lhs = pair_germ(coboundary(a), gamma)
    return lhs, pair(a, gamma.g1) - pair(a, gamma.g0)
