"""The positive braid-like quadruple point and its meridian movie.

Four east-going strands with fixed distinct slopes and a layer order
matching the slope order realise the positive braid-like quadruple
point: all six crossings are positive.  Moving the intercept vector on
a small circle transversal to the concurrency stratum produces the
meridian movie: each of the four strand triples becomes concurrent
twice around the circle, a closed loop of eight R3 moves.

A global type threads the four local strands into one long knot; with
the basepoint choice it is a visiting order, and all 24 orders are
enumerated.  The geometry below only ever produces orderings; every
sector-to-sector step is the germ of the valid R3 move that
``moves.move_between`` finds (every sector carries the same six arrows)
or raises on, so float genericity failures cannot pass silently.  The
last step returns to the first sector, which closes the meridian.
"""

from __future__ import annotations

import itertools
import math

from .diagrams import GaussDiagram, HEAD, TAIL
from .germs import germ_between
from .strata import Meridian, QUADRUPLE

SLOPES = (1.0, 2.0, 3.0, 5.0)
_PERT_A = (1.0, 0.0, 0.0, 0.0)
_PERT_B = (0.0, 1.0, 0.0, 0.0)


def _wall_angles():
    """Angles at which each strand triple becomes concurrent."""
    events = []
    for tri in itertools.combinations(range(4), 3):
        i, j, k = tri
        coeff = [0.0] * 4
        coeff[i] = SLOPES[j] - SLOPES[k]
        coeff[j] = SLOPES[k] - SLOPES[i]
        coeff[k] = SLOPES[i] - SLOPES[j]
        ca = sum(coeff[n] * _PERT_A[n] for n in range(4))
        cb = sum(coeff[n] * _PERT_B[n] for n in range(4))
        # ca cos(t) + cb sin(t) = 0
        base = math.atan2(-ca, cb)
        events.append((base % (2 * math.pi), tri))
        events.append(((base + math.pi) % (2 * math.pi), tri))
    events.sort()
    return events


def sector_orders():
    """Per-sector crossing orders along each strand, and the wall ahead."""
    events = _wall_angles()
    out = []
    for idx, (a0, _) in enumerate(events):
        a1 = events[(idx + 1) % len(events)][0]
        if idx + 1 == len(events):
            a1 += 2 * math.pi
        mid = (a0 + a1) / 2
        c = [_PERT_A[n] * math.cos(mid) + _PERT_B[n] * math.sin(mid)
             for n in range(4)]
        orders = []
        for s in range(4):
            xs = []
            for o in range(4):
                if o == s:
                    continue
                x = (c[o] - c[s]) / (SLOPES[s] - SLOPES[o])
                xs.append((x, frozenset((s, o))))
            xs.sort()
            orders.append([cr for _, cr in xs])
        out.append((orders, events[(idx + 1) % len(events)][1]))
    return out


_LABEL = {frozenset(p): i + 1
          for i, p in enumerate(itertools.combinations(range(4), 2))}


def _word_for(orders, visit: tuple[int, ...]) -> GaussDiagram:
    """Gauss word of a sector when strands are visited in the given order."""
    tokens = []
    for s in visit:
        for cr in orders[s]:
            other = next(iter(cr - {s}))
            kind = TAIL if s > other else HEAD
            tokens.append((_LABEL[cr], kind))
    return GaussDiagram(tokens, {aid: 1 for aid in _LABEL.values()})


def quadruple_meridians() -> list[Meridian]:
    """One eight-germ meridian per linear visiting order of the strands."""
    sectors = sector_orders()
    out = []
    for visit in itertools.permutations(range(4)):
        diagrams = [_word_for(orders, visit) for orders, _ in sectors]
        germs = [germ_between(d, nxt) for d, nxt in zip(diagrams, diagrams[1:] + diagrams[:1])]
        out.append(Meridian(QUADRUPLE, germs, frozenset()))
    return out
