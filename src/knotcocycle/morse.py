"""Morse presentations of long knots and the rotation loop.

A long knot is presented as a left-to-right sequence of columns, each
holding one event on the stack of horizontal wires (positions counted
from the bottom, 1-based):

    ("cup", p)        two new wires appear at heights p, p+1
    ("cap", p)        the wires at heights p, p+1 join and end
    ("x", p, over)    the wires at heights p, p+1 cross; over is "asc"
                      if the strand climbing from p to p+1 is the
                      over-strand, "desc" otherwise

Tracing the presentation yields the Gauss diagram (a crossing is
positive exactly when its over-strand is the ascending one, for two
east-going strands, and in general when the under-to-over frame is
positively oriented).

The rotation loop of the knot around its long axis is compiled from the
same data.  A vertical riser sweeps across the columns twice: first
passing under every wire (one R2 birth per cup, one R2 death per cap and
exactly one R3 move per crossing), then again passing over every wire.
The under-pass starts from a small curl at the left end (an R1 birth)
and leaves the strand wrapped once around the knot; the over-pass starts
from the identical wrapped diagram and ends in a curl at the right end
(an R1 death).  The two wrap states coincide verbatim, so the schedule
closes up into a loop based at the original diagram.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import GaussDiagram, HEAD, TAIL
from .moves import (Move, _fresh_ids, apply_move, r1_birth, r1_death, r2_birth,
                    r2_death, r3)

CUP = "cup"
CAP = "cap"
X = "x"

class MorseError(ValueError):
    pass


def validate_events(events) -> None:
    height = 1
    for ev in events:
        kind = ev[0]
        p = ev[1]
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
            if ev[2] not in ("asc", "desc"):
                raise MorseError(f"crossing over-tag must be 'asc' or 'desc', got {ev[2]!r}")
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


@dataclass
class Trace:
    """The traced diagram together with the sweep tables.

    ``transits[g]`` lists, in traversal order, the triples
    ``(tokens_before, height, east_going)`` of the knot's passages
    through the vertical line at gap g (gap g lies west of column g).
    ``xcolumns`` maps a crossing column to (position, over, arrow id).
    """

    events: list
    diagram: GaussDiagram
    transits: list
    xcolumns: dict
    stacks: list


def trace(events) -> Trace:
    validate_events(events)
    ncol = len(events)

    # Static structure: stacks of segment ids per gap, joints, passages.
    fresh = iter(range(1, 10 ** 9))
    entry = next(fresh)
    stack = [entry]
    stacks = [list(stack)]
    cup_partner: dict[int, int] = {}
    cap_partner: dict[int, int] = {}
    passages: dict[int, list] = {entry: []}
    for col, ev in enumerate(events):
        kind, p = ev[0], ev[1]
        if kind == CUP:
            s1, s2 = next(fresh), next(fresh)
            cup_partner[s1] = s2
            cup_partner[s2] = s1
            passages[s1] = []
            passages[s2] = []
            stack[p - 1:p - 1] = [s1, s2]
        elif kind == CAP:
            a, b = stack[p - 1], stack[p]
            cap_partner[a] = b
            cap_partner[b] = a
            del stack[p - 1:p + 1]
        else:
            over = ev[2]
            low, up = stack[p - 1], stack[p]
            passages[low].append((col, "asc", over == "asc"))
            passages[up].append((col, "desc", over == "desc"))
            stack[p - 1], stack[p] = stack[p], stack[p - 1]
        stacks.append(list(stack))
    if len(stacks[-1]) != 1:
        raise MorseError("presentation must end on a single wire")
    exit_seg = stacks[-1][0]

    # Parameter walk from the left end.
    transits: list[list] = [[] for _ in range(ncol + 1)]
    tokens: list[tuple[int, str]] = []
    directions: dict[tuple[int, str], bool] = {}
    seg, east, g = entry, True, 0
    guard = 0
    while True:
        guard += 1
        if guard > 10 ** 6:
            raise MorseError("walk does not terminate; presentation is inconsistent")
        height = stacks[g].index(seg)
        transits[g].append((len(tokens), height, east))
        if east:
            if g == ncol:
                if seg != exit_seg:
                    raise MorseError("walked off the right end on a wrong wire")
                break
            ev = events[g]
            if ev[0] == CAP and seg in (stacks[g][ev[1] - 1], stacks[g][ev[1]]):
                seg, east = cap_partner[seg], False
                continue
            if ev[0] == X and seg in (stacks[g][ev[1] - 1], stacks[g][ev[1]]):
                col = g
                role = "asc" if seg == stacks[g][ev[1] - 1] else "desc"
                over = (ev[2] == role)
                tokens.append((col, TAIL if over else HEAD))
                directions[(col, role)] = True
            g += 1
        else:
            if g == 0:
                raise MorseError("walked off the left end going west")
            ev = events[g - 1]
            if ev[0] == CUP and seg in cup_partner and seg not in stacks[g - 1]:
                seg, east = cup_partner[seg], True
                continue
            if ev[0] == X and seg in (stacks[g - 1][ev[1] - 1], stacks[g - 1][ev[1]]):
                col = g - 1
                role = "asc" if seg == stacks[g - 1][ev[1] - 1] else "desc"
                over = (ev[2] == role)
                tokens.append((col, TAIL if over else HEAD))
                directions[(col, role)] = False
            g -= 1

    # Crossing signs: sign of the 2D cross product under_dir x over_dir.
    def slope_vec(role: str, east_going: bool):
        v = (1, 1) if role == "asc" else (1, -1)
        return v if east_going else (-v[0], -v[1])

    signs_by_col: dict[int, int] = {}
    for col, ev in enumerate(events):
        if ev[0] != X:
            continue
        over_role = ev[2]
        under_role = "desc" if over_role == "asc" else "asc"
        o = slope_vec(over_role, directions[(col, over_role)])
        u = slope_vec(under_role, directions[(col, under_role)])
        cross = u[0] * o[1] - u[1] * o[0]
        signs_by_col[col] = 1 if cross > 0 else -1

    # Relabel crossings 1..n by first appearance along the knot.
    order: dict[int, int] = {}
    for col, _ in tokens:
        if col not in order:
            order[col] = len(order) + 1
    word = [(order[col], kind) for col, kind in tokens]
    signs = {order[col]: s for col, s in signs_by_col.items()}
    diagram = GaussDiagram(word, signs)

    xcolumns = {col: (events[col][1], events[col][2], order[col])
                for col in signs_by_col}
    return Trace(list(events), diagram, transits, xcolumns, stacks)


class LoopBuildError(RuntimeError):
    pass


def _region_tokens(tr: Trace, gap: int, riser_ids, kind: str):
    """K's word with one riser token of the given kind per transit at gap."""
    inserts = sorted(range(len(tr.transits[gap])),
                     key=lambda i: (tr.transits[gap][i][0], i))
    region = []
    idx = 0
    kword = tr.diagram.word
    for pos in range(len(kword) + 1):
        while idx < len(inserts):
            t, h, _ = tr.transits[gap][inserts[idx]]
            if t == pos:
                region.append((riser_ids[h], kind))
                idx += 1
            else:
                break
        if pos < len(kword):
            region.append(kword[pos])
    return region


def _expected_word(tr: Trace, gap: int, riser_ids, under: bool):
    if under:
        prefix = [(riser_ids[h], HEAD) for h in range(len(riser_ids))]
        return prefix + _region_tokens(tr, gap, riser_ids, TAIL)
    suffix = [(riser_ids[h], TAIL) for h in reversed(range(len(riser_ids)))]
    return _region_tokens(tr, gap, riser_ids, HEAD) + suffix


def _wire_sign(east_going: bool) -> int:
    # Riser crossings: negative across east-going wires, positive across
    # west-going ones, for either sweep.
    return -1 if east_going else 1


def _sweep(tr: Trace, diagram: GaussDiagram, under: bool):
    """Generate the moves of one full riser pass, left to right.

    Returns (moves, final diagram, final riser id).  The riser is
    assumed to already cross the single wire at gap 0 with the arrow of
    largest id in ``diagram``.
    """
    ncol = len(tr.events)
    moves: list[Move] = []
    riser_ids = [max(diagram.arrow_ids())]
    cur = diagram
    assert list(cur.word) == _expected_word(tr, 0, riser_ids, under), "bad sweep start"

    for col in range(ncol):
        ev = tr.events[col]
        kind, p = ev[0], ev[1]
        if kind == X:
            _, _, cid = tr.xcolumns[col]
            pos = {t: i for i, t in enumerate(cur.word)}
            lo, up = riser_ids[p - 1], riser_ids[p]
            rk = HEAD if under else TAIL
            gap_cluster = max(pos[(lo, rk)], pos[(up, rk)])
            assert abs(pos[(lo, rk)] - pos[(up, rk)]) == 1
            over_asc = ev[2] == "asc"
            wk = TAIL if under else HEAD
            tok_low = (cid, TAIL if over_asc else HEAD)
            tok_up = (cid, HEAD if over_asc else TAIL)
            gap_low = max(pos[(lo, wk)], pos[tok_low])
            gap_up = max(pos[(up, wk)], pos[tok_up])
            assert abs(pos[(lo, wk)] - pos[tok_low]) == 1
            assert abs(pos[(up, wk)] - pos[tok_up]) == 1
            move = r3((gap_cluster, gap_low, gap_up))
            riser_ids[p - 1], riser_ids[p] = riser_ids[p], riser_ids[p - 1]
        elif kind == CUP:
            a, b = _fresh_ids(cur, 2)
            nxt_ids = list(riser_ids)
            # Heights p, p+1 are 1-based; the first-transited branch gets
            # the first fresh id (its tail comes first along the knot).
            new_transits = [(t, h, e) for (t, h, e) in tr.transits[col + 1]
                            if h in (p - 1, p)]
            new_transits.sort(key=lambda rec: rec[0])
            first_h = new_transits[0][1]
            second_h = new_transits[1][1]
            ids_by_height = {first_h: a, second_h: b}
            nxt_ids[p - 1:p - 1] = [ids_by_height[p - 1], ids_by_height[p]]
            nxt_word = _expected_word(tr, col + 1, nxt_ids, under)
            npos = {t: i for i, t in enumerate(nxt_word)}
            q = min(npos[(a, TAIL)], npos[(b, TAIL)])
            assert abs(npos[(a, TAIL)] - npos[(b, TAIL)]) == 1
            assert npos[(a, TAIL)] == q, "first fresh id must carry the first tail"
            hq = min(npos[(a, HEAD)], npos[(b, HEAD)])
            assert abs(npos[(a, HEAD)] - npos[(b, HEAD)]) == 1
            swap_heads = npos[(b, HEAD)] == hq
            if hq < q:
                gh, gt = hq, q - 2
            else:
                gh, gt = hq - 2, q
            sign_first = _wire_sign(new_transits[0][2])
            move = r2_birth(gt, gh, False, swap_heads, sign_first)
            riser_ids = nxt_ids
        else:  # CAP
            a, b = riser_ids[p - 1], riser_ids[p]
            move = r2_death(a, b)
            riser_ids = riser_ids[:p - 1] + riser_ids[p + 1:]
        cur = apply_move(cur, move)
        expected = _expected_word(tr, col + 1, riser_ids, under)
        if list(cur.word) != expected:
            raise LoopBuildError(
                f"sweep mismatch after column {col} ({ev}): {list(cur.word)} != {expected}")
        moves.append(move)
    return moves, cur, riser_ids[0]


def rot_moves(events) -> tuple[GaussDiagram, list[Move], list[str]]:
    """The rotation loop: initial diagram, move list, and segment tags.

    Tags mark each move as 'bottom' (under-pass), 'top' (over-pass) or
    'cusp' (the curl births/deaths at the two ends).
    """
    tr = trace(events)
    K = tr.diagram
    tags: list[str] = []
    moves: list[Move] = []

    r0 = max(K.arrow_ids(), default=0) + 1
    entry_sign = _wire_sign(tr.transits[0][0][2])
    birth = r1_birth(0, "HT", entry_sign)
    cur = apply_move(K, birth)
    moves.append(birth)
    tags.append("cusp")
    assert list(cur.word) == _expected_word(tr, 0, [r0], True)

    under_moves, cur, wrap_id = _sweep(tr, cur, under=True)
    moves.extend(under_moves)
    tags.extend("bottom" if m.kind == "R3" else "slide" for m in under_moves)

    # The wrapped state read as the start of the over-pass, verbatim.
    assert list(cur.word) == _expected_word(tr, 0, [wrap_id], False)
    over_moves, cur, end_id = _sweep(tr, cur, under=False)
    moves.extend(over_moves)
    tags.extend("top" if m.kind == "R3" else "slide" for m in over_moves)

    death = r1_death(end_id)
    cur = apply_move(cur, death)
    moves.append(death)
    tags.append("cusp")
    if cur != K or list(cur.word) != list(K.word):
        raise LoopBuildError("rotation loop failed to close")
    return K, moves, tags


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
