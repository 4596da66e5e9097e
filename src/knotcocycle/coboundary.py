"""The coboundary of arrow diagrams and the two sides of the Stokes formula.

``d`` sends an arrow diagram A to the formal sum of all arrow germs and
partial arrow germs whose larger side equals A; the partial terms are
expressed in the monotonic basis.  The four components I, II, Delta and
Lambda of dA are its terms of germ kind R1, R2, R3 and P; ``component``
computes each on its own, when it is first asked for, and ``coboundary``
concatenates them.  The kernel of d is exactly the space of arrow
diagram formulas, i.e. the linear combinations whose pairing with Gauss
diagrams is a knot invariant, and the defining contract of this module
is the Stokes formula <dA, gamma> = <A, boundary(gamma)>.  A germ gamma
meets only the terms of the kinds ``germs._MEETS`` gives it, so
``stokes_sides`` reads only those components: I for an R1 gamma, II for
an R2 gamma, Delta and Lambda for an R3 gamma.
"""

from __future__ import annotations

import functools
import itertools

from .diagrams import ArrowDiagram, FormalSum, GaussDiagram, pair
from .germs import (KIND_P, KIND_R1, KIND_R2, KIND_R3, _MEETS, Germ, _germ_data, canonical_term,
                    monotonic_reduce, pair_germ, partial_germ_into, r3_germ_into)
from .moves import R1_DEATH, R2_DEATH, enumerate_moves, r3_moves, split_gaps


def deaths(a: ArrowDiagram) -> list:
    """A's R1 deaths in word order, then its R2 deaths in sorted-pair order."""
    return enumerate_moves(a, R1_DEATH) + enumerate_moves(a, R2_DEATH)


def death_germ(a: ArrowDiagram, death) -> Germ:
    """A death of A read as a birth: the germ from A without the dead arrows to A."""
    kind, dist = _germ_data(a, death)
    return Germ(kind, a.delete(death.data), a, dist)


# The germs into A of each component, in the order of dA's terms.
_GERMS = {KIND_R1: lambda a: (death_germ(a, m) for m in enumerate_moves(a, R1_DEATH)),
          KIND_R2: lambda a: (death_germ(a, m) for m in enumerate_moves(a, R2_DEATH)),
          KIND_R3: lambda a: (r3_germ_into(a, m.data) for m in r3_moves(a)),
          KIND_P: lambda a: (partial_germ_into(a, gap) for gap in split_gaps(a))}


# 4 x 1,815 entries hold the components of every arrow diagram of degree
# at most 4, the sum of (2k)!/k! for k = 0..4, and bound the memory beyond.
@functools.lru_cache(maxsize=4 * 1815)
def component(a: ArrowDiagram, kind: str) -> FormalSum:
    """The terms of dA of one germ kind: I (R1), II (R2), Delta (R3) or Lambda (P).

    I and II are the germs of A's ``deaths`` read as births, Delta the
    3-germs into A, and Lambda the partial germs into A reduced to the
    monotonic basis.  Each component is kept in a per-process LRU cache
    keyed by A up to relabelling and the kind, so callers must not mutate
    it; it is computed on A's canonical form, so its terms come in one
    order whatever labelling filled the cache.
    """
    if isinstance(a, GaussDiagram):
        raise TypeError("the coboundary acts on arrow diagrams")
    out = FormalSum(map(canonical_term, _GERMS[kind](a.canonical())))
    return monotonic_reduce(out) if kind == KIND_P else out


def coboundary(a: ArrowDiagram) -> FormalSum:
    """dA by insertion into A: its components I, II, Delta and Lambda, in that order.

    The components hold germs of distinct kinds, so no two share a term.
    Each call returns a new sum, which the caller may change.
    """
    return FormalSum(itertools.chain.from_iterable(component(a, k).items() for k in _GERMS))


def stokes_sides(a: ArrowDiagram, gamma: Germ) -> tuple[int, int]:
    """The two sides <dA, gamma> and <A, boundary(gamma)>.

    Only the components of dA of the kinds gamma meets (``_MEETS``) are
    computed and paired: every other term pairs to 0 with gamma, so the
    lhs is <dA, gamma>.  An R1 or R2 gamma, nearly all that random moves
    draw, costs A's deaths and no R3 search or partial germ.  ``pair``
    reads a diagram up to relabelling, so each side of gamma is paired as
    given, with no canonical copy.
    """
    lhs = sum(pair_germ(component(a, kind), gamma) for kind in _MEETS[gamma.kind])
    return lhs, pair(a, gamma.g1) - pair(a, gamma.g0)
