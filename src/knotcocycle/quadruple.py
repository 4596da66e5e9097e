"""The positive braid-like quadruple point and its meridian movie.

Four local strands 0..3 cross pairwise in six positive crossings, and a
sector of the meridian is given by the order in which each strand meets
its three crossings, named by their partner strands.  The movie follows
one wall rule:

- in the first sector each strand meets its partners in decreasing order;
- going round the circle, the walls of the four strand triples come in
  lexicographic order, twice;
- at a triple's wall each of its three strands swaps its two crossings
  with the other two, which are adjacent; the fourth strand keeps its
  order.

The rule is what four east-going lines of slopes 1, 2, 3 and 5 through
the origin do when the intercepts of the first two move round a circle
about zero (``geometric_sector_orders`` in ``tests/oracles.py``).

A global type threads the four local strands into one long knot; with
the basepoint choice it is a visiting order, and all 24 orders are
enumerated; ``tetrahedron_meridians`` builds the two that the default
degree-3 system lists and ``fixturegen.gen_strata`` finds by its scan.
Every sector-to-sector step is the germ of the valid R3 move that
``moves.move_between`` finds (every sector carries the same six arrows)
or raises on, so the movie checks itself.  The last step returns to
the first sector, which closes the meridian.
"""

from __future__ import annotations

import itertools

from .diagrams import GaussDiagram, HEAD, TAIL
from .germs import germ_between
from .strata import Meridian, QUADRUPLE


def sector_orders() -> list[tuple[tuple[int, ...], ...]]:
    """The eight sectors: for each strand, its partners in the order it meets them."""
    orders = [[o for o in (3, 2, 1, 0) if o != s] for s in range(4)]
    out = []
    for tri in list(itertools.combinations(range(4), 3)) * 2:
        out.append(tuple(map(tuple, orders)))
        for s in tri:
            i, j = sorted(orders[s].index(o) for o in tri if o != s)
            orders[s][i], orders[s][j] = orders[s][j], orders[s][i]
    return out


_LABEL = {p: i + 1 for i, p in enumerate(itertools.combinations(range(4), 2))}


def _word_for(orders, visit: tuple[int, ...]) -> GaussDiagram:
    """Gauss word of a sector when strands are visited in the given order."""
    tokens = [(_LABEL[min(s, o), max(s, o)], TAIL if s > o else HEAD)
              for s in visit for o in orders[s]]
    return GaussDiagram(tokens, {aid: 1 for aid in _LABEL.values()})


def _meridian(sectors, visit: tuple[int, ...]) -> Meridian:
    """The eight-germ meridian of the sectors with the strands visited in the given order."""
    diagrams = [_word_for(orders, visit) for orders in sectors]
    germs = [germ_between(d, nxt) for d, nxt in zip(diagrams, diagrams[1:] + diagrams[:1])]
    return Meridian(QUADRUPLE, germs, frozenset())


def quadruple_meridians() -> list[Meridian]:
    """One eight-germ meridian per linear visiting order of the strands."""
    sectors = sector_orders()
    return [_meridian(sectors, visit) for visit in itertools.permutations(range(4))]


def tetrahedron_meridians() -> list[Meridian]:
    """The meridians of the visiting orders in which no two consecutive strands are neighbours.

    Those are (1, 3, 0, 2) and (2, 0, 3, 1).  Of the 24 quadruple meridians
    only their equations, the tetrahedron pair, leave the span of the cube
    equations, which ``fixturegen.gen_strata`` checks.
    """
    sectors = sector_orders()
    return [_meridian(sectors, visit) for visit in itertools.permutations(range(4))
            if all(abs(a - b) != 1 for a, b in zip(visit, visit[1:]))]
