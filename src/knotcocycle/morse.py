"""Morse presentations of long knots and the rotation loop.

A long knot is presented as a left-to-right sequence of columns, each
holding one event on the stack of horizontal wires (positions counted
from the bottom, 1-based):

    ("cup", p)        two new wires appear at heights p, p+1
    ("cap", p)        the wires at heights p, p+1 join and end
    ("x", p, over)    the wires at heights p, p+1 cross; over is "asc"
                      if the strand climbing from p to p+1 is the
                      over-strand, "desc" otherwise

Tracing the presentation walks the knot from its left end and keeps
only the gap, the wire's height there and the direction of travel; the
number of wires at each gap follows from the events.  A cap met going
east, or a cup met going west, at one of its two heights turns the walk
back on the partner wire; any other cup or cap moves the wire up or down
two heights.  Each crossing passed gives a token of the Gauss diagram.
A crossing is positive exactly when its over-strand is the ascending one
for two east-going strands; reversing either strand flips the sign.

The rotation loop of the knot around its long axis is compiled from the
same data.  A vertical riser sweeps across the columns twice: first
passing under every wire (one R2 birth per cup, one R2 death per cap and
exactly one R3 move per crossing), then again passing over every wire.
The under-pass starts from a small curl at the left end (an R1 birth)
and leaves the strand wrapped once around the knot; the over-pass starts
from the identical wrapped diagram and ends in a curl at the right end
(an R1 death).  The two wrap states coincide verbatim, so the schedule
closes up into a loop based at the original diagram.

Each pass is built as its expected diagrams, one per gap between
columns, and every germ of the loop is read off two consecutive
diagrams by ``germs.germ_between``: the one move ``moves.move_between``
finds, ending on the expected diagram itself, so no move is applied or
validated twice.  A column the riser cannot reach in one move raises
``LoopBuildError``.
"""

from __future__ import annotations

from typing import NamedTuple

from .diagrams import GaussDiagram, HEAD, TAIL
from .germs import Germ, KIND_R3, germ_between
from .moves import InvalidMove, _fresh_ids, _literally_equal

CUP = "cup"
CAP = "cap"
X = "x"

class MorseError(ValueError):
    pass


def validate_events(events) -> None:
    height = 1
    for ev in events:
        if (not isinstance(ev, (list, tuple)) or len(ev) < 2
                or isinstance(ev[1], bool) or not isinstance(ev[1], int)):
            raise MorseError(f"an event is a kind and a position, got {ev!r}")
        kind, p = ev[0], ev[1]
        if kind == CUP:
            if not 1 <= p <= height + 1:
                raise MorseError(f"cup position {p} out of range at height {height}")
            height += 2
        elif kind == CAP:
            if not 1 <= p <= height - 1:
                raise MorseError(f"cap position {p} out of range at height {height}")
            height -= 2
        elif kind == X:
            if not 1 <= p <= height - 1:
                raise MorseError(f"crossing position {p} out of range at height {height}")
            if len(ev) != 3 or ev[2] not in ("asc", "desc"):
                raise MorseError(f"crossing needs an over-tag 'asc' or 'desc', got {ev!r}")
        else:
            raise MorseError(f"unknown event {ev!r}")
    if height != 1:
        raise MorseError("presentation must end on a single wire")


def connected_sum(*event_lists):
    """Concatenation of Morse presentations composes long knots."""
    out = []
    for ev in event_lists:
        out.extend(ev)
    validate_events(out)
    return out


class Trace(NamedTuple):
    """The traced diagram together with the walk's passages per gap.

    ``transits[g]`` lists, in traversal order, the triples
    ``(tokens_before, height, east_going)`` of the knot's passages
    through the vertical line at gap g (gap g lies west of column g;
    heights count from 0 at the bottom); ``tokens_before`` never
    decreases along the list.
    """

    events: list
    diagram: GaussDiagram
    transits: list


def trace(events) -> Trace:
    """The height walk of the module docstring, as (gap, height, east)."""
    validate_events(events)
    ncol = len(events)
    wires = [1]
    for ev in events:
        wires.append(wires[-1] + {CUP: 2, CAP: -2}.get(ev[0], 0))
    transits: list[list] = [[] for _ in range(ncol + 1)]
    tokens: list[tuple[int, str]] = []
    direction: dict[tuple[int, str], int] = {}
    g, h, east = 0, 0, True
    for _ in range(10 ** 6):
        transits[g].append((len(tokens), h, east))
        if east and g == ncol:
            break
        col = g if east else g - 1
        kind, p = events[col][0], events[col][1]
        turn = CAP if east else CUP
        if kind == turn and h in (p - 1, p):
            h, east = 2 * p - 1 - h, not east
            continue
        if kind == X and h in (p - 1, p):
            role = "asc" if (h == p - 1) == east else "desc"
            tokens.append((col, TAIL if events[col][2] == role else HEAD))
            direction[col, role] = 1 if east else -1
            h = 2 * p - 1 - h
        elif kind == turn:
            h -= 2 * (h > p)
        elif kind != X:
            h += 2 * (h >= p - 1)
        g += 1 if east else -1
    else:
        raise MorseError("walk does not terminate; presentation is inconsistent")
    if any(len(transits[g]) != wires[g] for g in range(ncol + 1)):
        raise MorseError("presentation has a closed component; only long knots are traced")

    order: dict[int, int] = {}
    for col, _ in tokens:
        order.setdefault(col, len(order) + 1)
    word = [(order[col], kind) for col, kind in tokens]
    signs = {n: (1 if events[col][2] == "asc" else -1) * direction[col, "asc"]
             * direction[col, "desc"] for col, n in sorted(order.items())}
    return Trace(list(events), GaussDiagram(word, signs), transits)


class LoopBuildError(RuntimeError):
    pass


def _wire_sign(east_going: bool) -> int:
    # Riser crossings: negative across east-going wires, positive across
    # west-going ones, for either sweep.
    return -1 if east_going else 1


def _expected(tr: Trace, gap: int, riser_ids, under: bool) -> GaussDiagram:
    """The diagram with the riser at gap, riser_ids[h] crossing the wire at height h."""
    word = list(tr.diagram.word)
    signs = dict(tr.diagram.signs)
    kind = TAIL if under else HEAD
    for i, (t, h, east) in enumerate(tr.transits[gap]):
        word.insert(t + i, (riser_ids[h], kind))
        signs[riser_ids[h]] = _wire_sign(east)
    if under:
        word[:0] = [(r, HEAD) for r in riser_ids]
    else:
        word += [(r, TAIL) for r in reversed(riser_ids)]
    return GaussDiagram(word, signs)


def _sweep(tr: Trace, riser_id: int, under: bool):
    """The expected diagrams of one riser pass at gaps 0..ncol, and the last riser id.

    The riser starts as the arrow ``riser_id`` across the single wire at
    gap 0.  Across a crossing the riser arrows of the two wires swap
    heights; a cup adds two fresh arrows, the first-transited wire
    taking the first fresh id (its tail comes first along the knot); a
    cap removes the two arrows of its wires.
    """
    riser_ids = [riser_id]
    diagrams = [_expected(tr, 0, riser_ids, under)]
    for col, ev in enumerate(tr.events):
        kind, p = ev[0], ev[1]
        if kind == X:
            riser_ids[p - 1], riser_ids[p] = riser_ids[p], riser_ids[p - 1]
        elif kind == CUP:
            a, b = _fresh_ids(diagrams[-1], 2)
            first = next(h for _, h, _ in tr.transits[col + 1] if h in (p - 1, p))
            riser_ids[p - 1:p - 1] = [a, b] if first == p - 1 else [b, a]
        else:  # CAP
            del riser_ids[p - 1:p + 1]
        diagrams.append(_expected(tr, col + 1, riser_ids, under))
    return diagrams, riser_ids[0]


def rot_moves(events) -> tuple[list[Germ], list[str]]:
    """The rotation loop as a germ chain based at the knot, and its segment tags.

    The loop runs through the expected diagrams of the left curl, the
    under-pass, the over-pass and back to the knot; each germ is the
    ``germ_between`` consecutive diagrams, so the chain closes literally.
    Tags mark each germ as 'bottom' (an R3 of the under-pass), 'top' (an
    R3 of the over-pass), 'slide' (a cup or cap of either pass) or 'cusp'
    (the curl birth and death at the two ends).
    """
    tr = trace(events)
    K = tr.diagram
    under, wrap_id = _sweep(tr, _fresh_ids(K, 1)[0], under=True)
    over, _ = _sweep(tr, wrap_id, under=False)
    if not _literally_equal(under[-1], over[0]):
        raise LoopBuildError("the wrapped states of the two passes differ")
    path = [K, *under, *over[1:], K]
    ncol = len(tr.events)
    germs = []
    for step, (d, target) in enumerate(zip(path, path[1:])):
        try:
            germs.append(germ_between(d, target))
        except InvalidMove as exc:
            where = "a curl" if step in (0, 2 * ncol + 1) else \
                f"column {(step - 1) % ncol} {tr.events[(step - 1) % ncol]}"
            raise LoopBuildError(f"the riser cannot reach {where} in one move: {exc}") from exc
    tags = ["cusp"] + [("bottom" if i < ncol else "top") if g.kind == KIND_R3 else "slide"
                       for i, g in enumerate(germs[1:-1])] + ["cusp"]
    return germs, tags


# Morse presentations of the fixture knots.  The trefoil is the plat
# closure of three positive half-twists; the figure eight comes from the
# braid (s1 s2^-1)^2 with its two closure arcs stacked on top.
MORSE_UNKNOT: list = []

MORSE_TREFOIL = [
    (CUP, 2),
    (X, 1, "asc"), (X, 1, "asc"), (X, 1, "asc"),
    (CAP, 2),
]

MORSE_FIGURE8 = [
    (CUP, 2),
    (CUP, 3),
    (X, 1, "asc"), (X, 2, "desc"), (X, 1, "asc"), (X, 2, "desc"),
    (CAP, 3),
    (CAP, 2),
]

FIXTURE_MORSE = {
    "unknot": MORSE_UNKNOT,
    "trefoil": MORSE_TREFOIL,
    "figure8": MORSE_FIGURE8,
}
